"""The benchmark tracer wraps gradeq's entry points by name from outside
the package. Installing it here makes a rename or removal of any wrapped
name fail the test suite rather than only the traced benchmark run."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    from gradeq import harness, inequality

    original = harness.gini_exact
    tracer = Tracer()
    try:
        tracer.install()
        assert harness.gini_exact is not original
        assert harness.gini_exact.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert harness.gini_exact is original is inequality.gini_exact
