import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
spec = importlib.util.spec_from_file_location("ab_bench", TOOL)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)


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
