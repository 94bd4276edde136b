import subprocess

import pytest

import ab_bench


def verdicts(*args):
    """The two verdicts of ab_bench.verdicts, after checking its win count."""
    wins, claim, exceeded = ab_bench.verdicts(*args)
    parent, change, better = args[:3]
    assert wins == sum((y > x) if better == "higher" else (y < x) for x, y in zip(parent, change))
    return claim, exceeded


# median 1.00, interquartile range 0.035
PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


@pytest.mark.parametrize("change, want", [
    ([0.80] * 10, (True, False)),                          # 10/10, 0.2 past the spread
    ([0.80] * 9 + [1.50], (True, False)),                  # 9/10 is enough
    ([0.80] * 8 + [1.50] * 2, (False, False)),             # 8/10 is not
    ([x - 0.03 for x in PARENT], (False, False)),          # 10/10 but inside the spread
    ([1.30] * 10, (False, True)),                          # 30% worse than a 25% bound
    ([1.20] * 10, (False, False)),                         # 20% worse: within it
])
def test_verdicts_lower_is_better(change, want):
    assert verdicts(PARENT, change, "lower", 0.25) == want


def test_verdicts_higher_is_better():
    ones = [1.0] * 10
    assert verdicts(ones, [0.97] * 10, "higher", 0.02) == (False, True)
    assert verdicts(ones, [0.99] * 10, "higher", 0.02) == (False, False)
    assert verdicts([0.5] * 10, ones, "higher", 0.02) == (True, False)


def test_verdicts_without_a_bound_never_exceed():
    assert verdicts(PARENT, [9.0] * 10, "lower", None) == (False, False)


def test_verdicts_bound_is_relative_to_the_parent_median():
    parent = [100.0] * 10
    assert verdicts(parent, [120.0] * 10, "lower", 0.25) == (False, False)
    assert verdicts(parent, [130.0] * 10, "lower", 0.25) == (False, True)


def test_verdicts_need_ten_pairs_for_a_claim():
    assert verdicts(PARENT[:9], [0.5] * 9, "lower", 0.25) == (False, False)
    assert verdicts(PARENT[:1], [0.5], "lower", 0.25) == (False, False)


def result(correct=True, attempted=10, failed=0):
    return {"correct": correct, "attempted": attempted, "failed": failed}


@pytest.mark.parametrize("parent, change, want", [
    ([result()] * 3, [result()] * 3, (0, 0.0, 0.0, True)),
    ([result(False)] + [result()] * 2, [result()] * 3, (1, 0.0, 0.0, False)),  # either side
    ([result()] * 3, [result()] * 2 + [result(False)], (1, 0.0, 0.0, False)),
    ([result()] * 2, [result(), result(failed=1)], (0, 0.0, 0.05, False)),     # larger share
    ([result(failed=2)] * 2, [result(failed=1), result(failed=3)], (0, 0.2, 0.2, True)),
    ([result(attempted=10, failed=1)], [result(attempted=20, failed=1)], (0, 0.1, 0.05, True)),
    ([result(attempted=0)], [result(attempted=0)], (0, 0.0, 0.0, True)),
])
def test_correctness(parent, change, want):
    assert ab_bench.correctness(parent, change) == want


def stub_runs(monkeypatch, correct=True, failed=0, traced=(0, ""), wall_s=1.0):
    """Stub the benchmark: the pairs' result lines (the change's carry the
    flags and ``wall_s``, the parent's are clean and read 1.0) and the traced
    run's (exit code, stderr).  Returns the list the traced runs' commands
    and directories go to."""
    def run_once(checkout, workload, seed, seconds):
        ok, bad, wall = (correct, failed, wall_s) if checkout == "change" else (True, 0, 1.0)
        return {**result(ok, failed=bad), "metrics": {"wall_s": {"value": wall}}}

    calls = []

    def run(cmd, cwd, **kwargs):
        calls.append((cmd[1:], cwd))
        return subprocess.CompletedProcess(cmd, traced[0], "", traced[1])

    monkeypatch.setattr(ab_bench, "run_once", run_once)
    monkeypatch.setattr(ab_bench.subprocess, "run", run)
    return calls


@pytest.mark.parametrize("correct, failed, code", [(True, 0, 0), (False, 0, 1), (True, 1, 1)],
                         ids=["clean", "incorrect", "more-failures"])
def test_exit_code_follows_correctness(monkeypatch, capsys, correct, failed, code):
    stub_runs(monkeypatch, correct, failed)
    assert ab_bench.main(["parent", "change", "w", "2"]) == code
    assert capsys.readouterr().out.splitlines()[-1].endswith("passed" if code == 0 else "FAILED")


@pytest.mark.parametrize("traced, error", [
    ((0, ""), None),
    ((1, "benchmark error: span check: filter_bank.step called 3 times\n"),
     "benchmark error: span check: filter_bank.step called 3 times"),
    ((1, "warning: x\nbenchmark error: metric a: got None None\nnote\n"),
     "benchmark error: metric a: got None None"),
    ((2, "error: no mmxest sources under src\n"), "error: no mmxest sources under src"),
    ((1, ""), "traced run exited 1"),
], ids=["passes", "span-check", "among-lines", "other-error", "silent"])
def test_one_traced_run_of_the_change_gates_the_exit_code(monkeypatch, capsys, traced, error):
    # Clean pairs; after them the change runs once traced, and a failure of
    # that run fails the comparison with the benchmark's own error line.
    calls = stub_runs(monkeypatch, traced=traced)
    assert ab_bench.main(["parent", "change", "w", "2"]) == (0 if error is None else 1)
    assert calls == [(["perfbench/run.py", "--workload", "w", "--trace", "1", "--seconds", "1"],
                      "change")]
    out = capsys.readouterr().out.splitlines()
    assert out[-2] == f"traced run of the change (--trace 1 --seconds 1): {error or 'passed'}"
    assert out[-1].endswith("traced run passed; passed" if error is None
                            else "traced run failed; FAILED")


@pytest.mark.parametrize("wall_s, verdict, code", [
    (1.2, "within bound", 0),
    (1.3, "bound exceeded", 1),
])
def test_exceeded_bound_fails_the_comparison(monkeypatch, capsys, wall_s, verdict, code):
    # Correct runs and a passing traced run; a change median 30% worse than
    # a 25% bound fails the comparison and is named in the last line.
    stub_runs(monkeypatch, wall_s=wall_s)
    monkeypatch.setattr(ab_bench, "gates", lambda checkout: {"wall_s": ("lower", 0.25)})
    assert ab_bench.main(["parent", "change", "w", "2"]) == code
    out = capsys.readouterr().out.splitlines()
    assert next(line for line in out if line.startswith("wall_s")).endswith(verdict)
    assert out[-1].endswith("traced run passed; passed" if code == 0
                            else "traced run passed; bound exceeded: wall_s; FAILED")
