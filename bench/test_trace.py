"""Unit tests of the benchmark's span recorder (``bench/trace.py``).

Run with ``python -m pytest bench/test_trace.py`` from the repository
root (not part of the tier-1 ``testpaths``).
"""

import sys
import types

import pytest

from bench.trace import Tracer, aggregate, install, self_times


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def test_nesting_records_parent_and_trace():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("round") as root:
        clock.tick(1.0)
        with tracer.span("agent") as agent:
            clock.tick(2.0)
            with tracer.span("fabric") as fabric:
                clock.tick(3.0)
        clock.tick(0.5)
    assert root.parent is None
    assert agent.parent == root.index
    assert fabric.parent == agent.index
    assert {root.trace, agent.trace, fabric.trace} == {root.trace}
    assert (root.start, root.end) == (0.0, 6.5)
    assert fabric.busy == 3.0
    own = self_times(tracer.spans)
    assert own[root.index] == pytest.approx(1.5)
    assert own[agent.index] == pytest.approx(2.0)
    assert own[fabric.index] == pytest.approx(3.0)


def test_siblings_share_a_parent_and_roots_open_traces():
    clock = FakeClock()
    tracer = Tracer(clock)
    for _ in range(2):
        with tracer.span("round"):
            for _ in range(3):
                with tracer.span("agent"):
                    clock.tick(1.0)
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.trace for s in roots] == [1, 2]
    for root in roots:
        children = [s for s in tracer.spans if s.parent == root.index]
        assert len(children) == 3
        assert all(child.trace == root.trace for child in children)
        assert self_times(tracer.spans)[root.index] == pytest.approx(0.0)


def test_per_probe_calls_fold_into_one_span_per_parent():
    clock = FakeClock()
    tracer = Tracer(clock)
    for _ in range(2):
        with tracer.span("round") as root:
            clock.tick(0.25)
            for _ in range(100):
                start = clock()
                clock.tick(0.01)
                tracer.fold("Analyzer.ingest", start, clock())
            clock.tick(0.25)
    folded = [s for s in tracer.spans if s.name == "Analyzer.ingest"]
    assert len(folded) == 2                      # one per parent
    assert all(s.calls == 100 for s in folded)
    assert all(s.busy == pytest.approx(1.0) for s in folded)
    assert folded[1].parent == root.index
    # Self time of the parent excludes the folded busy time.
    assert self_times(tracer.spans)[root.index] == pytest.approx(0.5)


def test_self_times_of_a_round_sum_to_the_round_span():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("round") as root:
        for agent in range(4):
            with tracer.span("agent"):
                clock.tick(0.1)
                with tracer.span("pinglist"):
                    clock.tick(0.7 + agent)
                with tracer.span("fabric"):
                    clock.tick(0.2)
            for _ in range(5):
                start = clock()
                clock.tick(0.03)
                tracer.fold("ingest", start, clock())
        with tracer.span("flush"):
            clock.tick(0.4)
        clock.tick(0.05)
    own = self_times(tracer.spans)
    in_round = [s for s in tracer.spans if s.trace == root.trace]
    assert sum(own[s.index] for s in in_round) == pytest.approx(root.busy)
    stats = aggregate(tracer.spans, ("round",))
    assert sum(layer.self_s for layer in stats.values()) == pytest.approx(
        root.busy
    )
    assert stats["pinglist"].calls == 4
    assert stats["ingest"].calls == 20
    assert stats["ingest"].spans == 1
    assert stats["round"].self_s == pytest.approx(0.05)


def test_aggregate_only_counts_traces_of_the_named_roots():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("setup"):
        with tracer.span("work"):
            clock.tick(5.0)
    with tracer.span("round"):
        with tracer.span("work"):
            clock.tick(1.0)
    assert aggregate(tracer.spans, ("round",))["work"].busy == 1.0
    assert aggregate(tracer.spans, ("setup",))["work"].busy == 5.0


def test_closing_a_span_out_of_order_is_an_error():
    tracer = Tracer(FakeClock())
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.finish(outer)


def test_install_wraps_at_class_level_and_restores():
    module = types.ModuleType("bench_trace_dummy")

    class Layer:
        def work(self, items):
            return [self.step(item) for item in items]

        def step(self, item):
            return item * 2

        @staticmethod
        def pick(items):
            return items[:1]

    def helper(value):
        return value + 1

    module.Layer = Layer
    module.helper = helper
    sys.modules[module.__name__] = module
    notes = []
    targets = (
        (module.__name__, "Layer", "work", False,
         lambda span, args, kwargs, result: notes.append(len(result))),
        (module.__name__, "Layer", "step", True, None),
        (module.__name__, "Layer", "pick", False, None),
        (module.__name__, None, "helper", False, None),
    )
    existing = Layer()            # built before the wrappers go in
    tracer = Tracer()
    try:
        with install(tracer, targets):
            assert existing.work([1, 2, 3]) == [2, 4, 6]
            assert Layer.pick([7, 8]) == [7]
            assert module.helper(1) == 2
            tracer.enabled = False
            assert existing.work([1]) == [2]     # pass-through, no span
        names = [span.name for span in tracer.spans]
        assert names == ["Layer.work", "Layer.step", "Layer.pick",
                         "helper"]
        assert tracer.spans[1].calls == 3
        assert tracer.spans[1].parent == tracer.spans[0].index
        assert notes == [3]
        # Restored: the class carries the original functions again.
        assert vars(Layer)["work"].__name__ == "work"
        assert isinstance(vars(Layer)["pick"], staticmethod)
        assert module.helper is helper
    finally:
        del sys.modules[module.__name__]
