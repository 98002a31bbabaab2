"""Tests for the determinism lint — and the gate that keeps
``src/repro`` itself clean."""

import textwrap

from repro.verify.lint import DeterminismLinter, lint_paths


def lint(source, path="pkg/module.py"):
    return DeterminismLinter().lint_source(
        textwrap.dedent(source), path
    )


class TestWallClock:
    def test_time_time_is_flagged(self):
        violations = lint("""
            import time
            def stamp():
                return time.time()
        """)
        assert [v.rule for v in violations] == ["wall-clock"]
        assert violations[0].line == 4

    def test_time_ns_and_datetime_now_are_flagged(self):
        violations = lint("""
            import time
            from datetime import datetime
            a = time.time_ns()
            b = datetime.now()
            c = datetime.utcnow()
        """)
        assert [v.rule for v in violations] == ["wall-clock"] * 3

    def test_monotonic_timers_are_allowed(self):
        violations = lint("""
            import time
            a = time.perf_counter()
            b = time.monotonic()
        """)
        assert violations == []


class TestUnseededRandom:
    def test_stdlib_random_import_and_call(self):
        violations = lint("""
            import random
            x = random.random()
        """)
        assert [v.rule for v in violations] == ["unseeded-random"] * 2

    def test_from_random_import(self):
        violations = lint("from random import choice\n")
        assert [v.rule for v in violations] == ["unseeded-random"]

    def test_np_random_flagged_outside_rng_module(self):
        violations = lint("""
            import numpy as np
            x = np.random.rand(3)
        """)
        assert [v.rule for v in violations] == ["unseeded-random"]

    def test_np_random_allowed_in_rng_module(self):
        violations = lint("""
            import numpy as np
            gen = np.random.default_rng(np.random.SeedSequence(7))
        """, path="src/repro/sim/rng.py")
        assert violations == []

    def test_generator_parameters_are_fine(self):
        violations = lint("""
            def sample(rng):
                return rng.normal() + rng.lognormal()
        """)
        assert violations == []


class TestAliasEvasion:
    """The resolver closes the import-alias gray zone: a forbidden
    call is caught however the import spells it."""

    def test_from_time_import_time(self):
        violations = lint("""
            from time import time
            def stamp():
                return time()
        """)
        assert [v.rule for v in violations] == ["wall-clock"]
        assert "time (= time.time)" in violations[0].message

    def test_numpy_random_module_alias(self):
        violations = lint("""
            import numpy.random as npr
            x = npr.rand(3)
        """)
        assert [v.rule for v in violations] == ["unseeded-random"]
        assert "numpy.random.rand" in violations[0].message

    def test_datetime_class_alias(self):
        violations = lint("""
            from datetime import datetime as dt
            x = dt.now()
        """)
        assert [v.rule for v in violations] == ["wall-clock"]
        assert "datetime.datetime.now" in violations[0].message

    def test_from_numpy_random_import_member(self):
        violations = lint("""
            from numpy.random import rand
            x = rand(3)
        """)
        assert [v.rule for v in violations] == ["unseeded-random"]

    def test_stdlib_random_member_alias(self):
        violations = lint("""
            from random import random as rnd
            x = rnd()
        """)
        # The import and the aliased call are both flagged.
        assert [v.rule for v in violations] == ["unseeded-random"] * 2

    def test_aliased_monotonic_timers_stay_allowed(self):
        assert lint("""
            from time import perf_counter, monotonic
            a = perf_counter()
            b = monotonic()
        """) == []

    def test_worker_determinism_sees_through_aliases(self):
        violations = lint("""
            import multiprocessing as mp
            from os import getpid as pid

            def worker(conn):
                return pid()

            def launch():
                return mp.Process(target=worker)
        """)
        assert [v.rule for v in violations] == ["worker-determinism"]
        assert "os.getpid" in violations[0].message

    def test_rng_module_exemption_survives_aliasing(self):
        assert lint("""
            import numpy.random as npr
            gen = npr.default_rng(7)
        """, path="src/repro/sim/rng.py") == []


class TestBroadExcept:
    def test_flagged_inside_core(self):
        source = """
            def f():
                try:
                    pass
                except Exception:
                    return None
        """
        violations = lint(source, path="src/repro/core/localization.py")
        assert [v.rule for v in violations] == ["broad-except"]

    def test_bare_except_inside_core(self):
        source = """
            try:
                pass
            except:
                pass
        """
        violations = lint(source, path="src/repro/core/system.py")
        assert [v.rule for v in violations] == ["broad-except"]
        assert "bare" in violations[0].message

    def test_tuple_with_exception_inside_core(self):
        source = """
            try:
                pass
            except (ValueError, Exception):
                pass
        """
        violations = lint(source, path="src/repro/core/agent.py")
        assert [v.rule for v in violations] == ["broad-except"]

    def test_not_flagged_outside_core(self):
        source = """
            try:
                pass
            except Exception:
                pass
        """
        assert lint(source, path="src/repro/cli.py") == []

    def test_narrow_except_is_fine_in_core(self):
        source = """
            try:
                pass
            except (ValueError, KeyError):
                pass
        """
        assert lint(source, path="src/repro/core/system.py") == []


class TestMutableDefault:
    def test_list_and_dict_literals(self):
        violations = lint("""
            def f(a=[], b={}):
                return a, b
        """)
        assert [v.rule for v in violations] == ["mutable-default"] * 2

    def test_constructor_calls_and_kwonly(self):
        violations = lint("""
            def f(*, a=list(), b=dict()):
                return a, b
        """)
        assert [v.rule for v in violations] == ["mutable-default"] * 2

    def test_immutable_defaults_are_fine(self):
        assert lint("""
            def f(a=(), b=None, c=0, d="x", e=frozenset()):
                return a
        """) == []


class TestSharedInstanceDefault:
    def test_constructor_default_is_flagged(self):
        violations = lint("""
            def f(model=ResourceModel()):
                return model
        """)
        assert [v.rule for v in violations] == [
            "shared-instance-default"
        ]

    def test_dotted_constructor_and_kwonly_default(self):
        violations = lint("""
            def f(*, cfg=config.DetectorConfig()):
                return cfg
        """)
        assert [v.rule for v in violations] == [
            "shared-instance-default"
        ]

    def test_lowercase_factory_calls_are_not_flagged(self):
        assert lint("""
            def f(a=make_model(), b=frozenset(), c=tuple()):
                return a, b, c
        """) == []

    def test_none_plus_in_body_fallback_is_the_fix(self):
        assert lint("""
            def f(model=None):
                return model if model is not None else Model()
        """) == []


class TestWorkerDeterminism:
    def test_process_target_with_perf_counter_is_flagged(self):
        violations = lint("""
            import multiprocessing as mp
            import time

            def worker(conn):
                return time.perf_counter()

            def launch():
                return mp.Process(target=worker)
        """)
        assert [v.rule for v in violations] == ["worker-determinism"]
        assert "worker" in violations[0].message

    def test_all_per_process_inputs_are_flagged(self):
        violations = lint("""
            import multiprocessing as mp
            import os
            import time
            import uuid

            def worker(conn):
                a = time.monotonic()
                b = os.getpid()
                c = os.urandom(8)
                d = uuid.uuid4()

            def launch():
                return mp.Process(target=worker)
        """)
        assert [v.rule for v in violations] == (
            ["worker-determinism"] * 4
        )

    def test_pool_dispatch_first_argument_is_a_worker(self):
        violations = lint("""
            import os

            def helper(item):
                return os.getpid()

            def launch(pool, items):
                return pool.map(helper, items)
        """)
        assert [v.rule for v in violations] == ["worker-determinism"]

    def test_same_calls_outside_workers_are_fine(self):
        assert lint("""
            import multiprocessing as mp
            import time

            def worker(conn):
                return conn.recv()

            def launch():
                wall = time.perf_counter()
                return mp.Process(target=worker), wall
        """) == []

    def test_worker_defined_after_dispatch_is_still_checked(self):
        violations = lint("""
            import os
            import multiprocessing as mp

            def launch():
                return mp.Process(target=worker)

            def worker(conn):
                return os.getpid()
        """)
        assert [v.rule for v in violations] == ["worker-determinism"]


class TestSuppressionsAndErrors:
    """Errors and output format.  (The suppression cases went with the
    ``# lint: allow`` syntax; the class keeps its name so the two
    remaining test ids stay stable.)"""

    def test_syntax_error_is_reported_not_raised(self):
        violations = lint("def broken(:\n")
        assert [v.rule for v in violations] == ["syntax-error"]

    def test_format_is_grep_friendly(self):
        violation = lint("import random\n")[0]
        text = violation.format()
        assert text.startswith("pkg/module.py:1:")
        assert "unseeded-random" in text


class TestRetryWithoutBackoff:
    def test_bare_for_retry_loop_is_flagged(self):
        violations = lint("""
            def fetch(client):
                for attempt in range(3):
                    result = client.get()
                    if result:
                        return result
        """)
        assert [v.rule for v in violations] == ["retry-without-backoff"]

    def test_bare_while_retry_loop_is_flagged(self):
        violations = lint("""
            def fetch(client, retries):
                while retries > 0:
                    retries -= 1
                    client.get()
        """)
        assert [v.rule for v in violations] == ["retry-without-backoff"]

    def test_backoff_call_satisfies_the_rule(self):
        violations = lint("""
            def fetch(client, policy):
                for attempt in range(1, 4):
                    result = client.get()
                    if result:
                        return result
                    policy.backoff_s(attempt, key="fetch")
        """)
        assert violations == []

    def test_sleep_and_delay_calls_also_count(self):
        violations = lint("""
            def a(clock):
                for attempt in range(3):
                    clock.sleep(1)
            def b(engine):
                for retry in range(3):
                    engine.delay(0.1)
        """)
        assert violations == []

    def test_ordinary_loops_are_not_retry_loops(self):
        violations = lint("""
            def scan(items, client):
                for item in items:
                    client.get(item)
        """)
        assert violations == []

    def test_loop_without_calls_is_not_flagged(self):
        violations = lint("""
            def count(n):
                total = 0
                for attempt in range(n):
                    total += attempt
                return total
        """)
        assert violations == []


class TestTelemetryWrite:
    def test_write_open_flagged_in_obs(self):
        violations = lint("""
            def dump(rows):
                with open("trace.out", "w") as handle:
                    handle.write(str(rows))
        """, path="src/repro/obs/sink.py")
        assert [v.rule for v in violations] == ["telemetry-write"]
        assert "TelemetryBus" in violations[0].message

    def test_write_open_flagged_in_bus(self):
        violations = lint("""
            def dump(path, rows):
                handle = open(path, "w")
                handle.write(str(rows))
        """, path="src/repro/bus/sidecar.py")
        assert [v.rule for v in violations] == ["telemetry-write"]

    def test_append_exclusive_and_update_modes_count_as_writes(self):
        violations = lint("""
            a = open("x", "a")
            b = open("y", "x")
            c = open("z", "r+")
        """, path="src/repro/obs/sink.py")
        assert [v.rule for v in violations] == ["telemetry-write"] * 3

    def test_read_open_is_fine_even_in_scope(self):
        assert lint("""
            def load(path):
                with open(path) as handle:
                    return handle.read()
            def load2(path):
                with open(path, "r") as handle:
                    return handle.read()
        """, path="src/repro/bus/loader.py") == []

    def test_dynamic_mode_is_not_flagged(self):
        assert lint("""
            def touch(path, mode):
                return open(path, mode)
        """, path="src/repro/obs/sink.py") == []

    def test_mode_keyword_argument_is_checked(self):
        violations = lint(
            'handle = open("x", mode="w")\n',
            path="src/repro/bus/sidecar.py",
        )
        assert [v.rule for v in violations] == ["telemetry-write"]

    def test_jsonl_literal_write_flagged_anywhere(self):
        violations = lint("""
            def dump(rows):
                with open("run.jsonl", "w") as handle:
                    handle.write(str(rows))
        """)
        assert [v.rule for v in violations] == ["telemetry-write"]

    def test_non_jsonl_write_outside_scope_is_fine(self):
        assert lint("""
            def dump(rows):
                with open("report.txt", "w") as handle:
                    handle.write(str(rows))
        """, path="src/repro/cli.py") == []

    def test_recorder_and_export_are_the_sanctioned_paths(self):
        source = """
            def persist(path, line):
                with open(path, "w") as handle:
                    handle.write(line)
        """
        assert lint(source, path="src/repro/bus/recorder.py") == []
        assert lint(source, path="src/repro/obs/export.py") == []


class TestLintPaths:
    def test_fixture_file_fails_and_clean_file_passes(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nx = time.time()\n")
        clean = tmp_path / "clean.py"
        clean.write_text("import time\nx = time.perf_counter()\n")
        violations, count = lint_paths([str(tmp_path)])
        assert count == 2
        assert [v.rule for v in violations] == ["wall-clock"]
        assert violations[0].path == str(dirty)

    def test_repro_package_is_lint_clean(self):
        """The acceptance gate: zero violations (there is no
        suppression syntax to hide one behind)."""
        violations, count = lint_paths()
        assert count > 50  # the whole package was walked
        assert violations == []
