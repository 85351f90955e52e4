"""The pure parts of tools/bench_pairs.py, the pair driver: medians, quartiles, wins, outcome totals, the claim rule
and the bound."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", PATH)
pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(pairs)

BASE = [940.0, 1010.0, 955.0, 990.0, 1000.0, 970.0, 960.0, 985.0, 975.0, 1005.0]
CLEAN = (0.0, 0.0)  # the failed shares of base and head when no operation fails


def test_median_and_quartiles():
    assert pairs.median(BASE) == 980.0
    # inclusive quartiles of the ten values, at sorted positions 2.25 and 6.75: 962.5 and 997.5
    assert pairs.quartiles(BASE) == pytest.approx((962.5, 997.5))
    assert pairs.iqr(BASE) == pytest.approx(35.0)
    assert pairs.quartiles([3.0]) == (3.0, 3.0) and pairs.iqr([3.0]) == 0.0


def test_wins_count_ties_for_neither_side():
    base, head = [1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 1.0, 5.0]
    assert pairs.wins(base, head, "higher") == 2
    assert pairs.wins(base, head, "lower") == 1
    with pytest.raises(ValueError):
        pairs.wins(base, head[:3], "higher")


def test_claim_holds_with_nine_wins_and_a_gap_above_the_spread():
    head = [b + 60.0 for b in BASE[:9]] + [BASE[9] - 1.0]
    result = pairs.claim(BASE, head, "higher", CLEAN)
    assert result["wins"] == 9 and result["pairs"] == 10
    assert result["median_gain"] > result["base_iqr"] == pytest.approx(35.0)
    assert result["holds"]


def test_claim_needs_nine_tenths_of_the_pairs():
    head = [b + 60.0 for b in BASE[:8]] + [b - 1.0 for b in BASE[8:]]
    assert pairs.claim(BASE, head, "higher", CLEAN)["wins"] == 8
    assert not pairs.claim(BASE, head, "higher", CLEAN)["holds"]


def test_claim_needs_a_gap_above_the_parents_spread():
    head = [b + 10.0 for b in BASE]  # wins every pair, by less than the interquartile range of 35
    result = pairs.claim(BASE, head, "higher", CLEAN)
    assert result["wins"] == 10 and result["median_gain"] == pytest.approx(10.0)
    assert not result["holds"]


def test_claim_needs_ten_pairs():
    assert pairs.claim(BASE[:10], [b + 60.0 for b in BASE[:10]], "higher", CLEAN)["holds"]
    nine = pairs.claim(BASE[:9], [b + 60.0 for b in BASE[:9]], "higher", CLEAN)
    assert nine["wins"] == 9 and nine["median_gain"] > nine["base_iqr"] and not nine["holds"]


def test_claim_on_a_lower_is_better_metric():
    base = [1.0 / b for b in BASE]
    assert pairs.claim(base, [0.8 * b for b in base], "lower", CLEAN)["holds"]
    assert not pairs.claim(base, [1.2 * b for b in base], "lower", CLEAN)["holds"]


def test_within_bound():
    assert pairs.within_bound([100.0], [80.0], "higher", 0.25)
    assert not pairs.within_bound([100.0], [70.0], "higher", 0.25)
    assert pairs.within_bound([2.0], [2.4], "lower", 0.25)
    assert not pairs.within_bound([2.0], [2.6], "lower", 0.25)
    assert pairs.within_bound([1.0], [1.0], "higher", 0.05)


def test_outcomes_sum_a_sides_runs():
    runs = [{"failed": 1, "attempted": 100}, {"failed": 0, "attempted": 300}]
    assert pairs.outcomes(runs) == {"failed": 1, "attempted": 400, "failed_share": 0.0025}
    assert pairs.outcomes([{"failed": 0, "attempted": 0}])["failed_share"] == 0.0


def test_claim_needs_no_larger_failed_share():
    head = [b + 60.0 for b in BASE]  # wins every pair, by more than the interquartile range of 35
    assert pairs.claim(BASE, head, "higher", (0.01, 0.01))["holds"]
    assert pairs.claim(BASE, head, "higher", (0.02, 0.01))["holds"]
    assert not pairs.claim(BASE, head, "higher", (0.0, 0.0025))["holds"]
    assert not pairs.claim(BASE, head, "higher", (0.01, 0.02))["holds"]
