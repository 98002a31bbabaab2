"""``--reach`` on a synthetic package: what a child run counts as reached.

One entry point runs ``synthetic.app`` in a traced child interpreter.
It calls a plain function, a decorated one and a nested one, and forks
a worker that runs a function nothing else calls.  Only the function
no entry calls is tests-only; the ``NotImplementedError`` stub and the
docstring-only method are interfaces, not dead code.
"""

from pathlib import Path

import pytest

from repro.cli import _build_parser
from repro.verify.cli import main as verify_main
from repro.verify.reach import VERBS, entries, reached, unreached

REPO = Path(__file__).resolve().parents[2]

_APP = '''
import functools
import multiprocessing


def reached_directly():
    return 1


def only_a_test_calls_this():
    return 2


@functools.lru_cache(maxsize=None)
def decorated():
    return 3


def outer():
    def nested():
        return 4

    return nested()


class Interface:
    def hook(self):
        """Subclasses answer."""
        raise NotImplementedError

    def spec(self):
        """An abstract method: its body is its docstring."""


def in_forked_child():
    return 5


def main():
    reached_directly()
    decorated()
    outer()
    worker = multiprocessing.get_context("fork").Process(
        target=in_forked_child
    )
    worker.start()
    worker.join()


if __name__ == "__main__":
    main()
'''


@pytest.fixture
def synthetic(tmp_path):
    package = tmp_path / "synthetic"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "app.py").write_text(_APP)
    return package


def test_only_the_function_no_entry_calls_is_unreached(
    synthetic, tmp_path
):
    hit = reached(
        [("-m", "synthetic.app")], str(synthetic), str(tmp_path),
        str(tmp_path / "reached.tsv"),
    )
    missed = [info.fid for info in unreached(str(synthetic), hit)]
    assert missed == ["synthetic.app:only_a_test_calls_this"]


def test_an_entry_that_reaches_nothing_leaves_everything_but_stubs(
    synthetic, tmp_path
):
    noop = tmp_path / "noop.py"
    noop.write_text("")
    hit = reached(
        [(str(noop),)], str(synthetic), str(tmp_path),
        str(tmp_path / "reached.tsv"),
    )
    missed = {info.fid for info in unreached(str(synthetic), hit)}
    assert "synthetic.app:Interface.hook" not in missed
    assert "synthetic.app:Interface.spec" not in missed
    assert {
        "synthetic.app:main", "synthetic.app:outer",
        "synthetic.app:outer.nested", "synthetic.app:decorated",
        "synthetic.app:in_forked_child",
    } <= missed


def test_every_repro_verb_is_in_the_entry_table():
    parser = _build_parser()
    (commands,) = [
        action for action in parser._actions
        if getattr(action, "choices", None)
    ]
    verbs = {verb.split()[0] for verb in VERBS}
    assert verbs == set(commands.choices)
    # Both failovers, the mp one included, run from the product.
    assert {"run --backend mp --kill 1", "fleet --kill 0"} <= set(VERBS)
    # Reach depends on the output mode: trace runs with and without --out.
    table = entries(str(REPO), "/scratch")
    traces = [argv for argv in table if argv[:3] == ("-m", "repro", "trace")]
    assert ("-m", "repro", "trace") in traces
    assert ("-m", "repro", "trace", "--out", "/scratch/trace.jsonl") in traces
    workloads = [argv[2] for argv in table if "--workload" in argv]
    assert workloads == [
        "steady-2048", "faultstorm-256", "sharded-2048-mp2", "fleet-16x64",
    ]


def test_reach_excludes_lint(capsys):
    with pytest.raises(SystemExit):
        verify_main(["--reach", "--lint"])
    assert "mutually exclusive" in capsys.readouterr().err
