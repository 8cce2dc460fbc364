"""The benchmark's arithmetic: tail rule, spreads, fidelity, SLO, compare verdicts."""

import math
import statistics

import pytest

from compare import verdict
from stats import (
    hellinger_fidelity,
    percentile,
    quartiles,
    relative_spread,
    slo_met_fraction,
    tail_percentile,
    tail_summary,
    union_length,
)


class TestTailRule:
    @pytest.mark.parametrize(
        "count, expected",
        [(19, None), (20, 50.0), (100, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9), (880, 98.5)],
    )
    def test_highest_percentile_with_ten_beyond(self, count, expected):
        assert tail_percentile(count) == expected

    def test_every_chosen_percentile_leaves_ten_samples_beyond(self):
        for count in range(20, 600, 7):
            values = [float(i) for i in range(count)]
            value, pct, beyond = tail_summary(values)
            assert beyond >= 10, (count, pct)
            assert beyond == sum(1 for v in values if v > value)
            # The next candidate up would leave fewer than ten.
            if pct < 99.9:
                assert count * (1 - (pct + 0.5) / 100.0) < 10

    def test_small_samples_fall_back_to_the_median(self):
        value, pct, beyond = tail_summary([1.0, 2.0, 3.0])
        assert (value, pct, beyond) == (2.0, 50.0, 1)


class TestPercentilesAndSpread:
    def test_percentile_interpolates_like_numpy(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5
        assert percentile([10], 99) == 10.0
        assert percentile([0, 10], 25) == 2.5

    def test_quartiles_match_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        assert quartiles(values) == tuple(statistics.quantiles(values, n=4))

    def test_relative_spread(self):
        values = [9.0, 10.0, 10.0, 11.0]
        q1, median, q3 = statistics.quantiles(values, n=4)
        assert relative_spread(values) == pytest.approx((q3 - q1) / median)
        assert relative_spread([0.0, 0.0]) == 0.0


class TestFidelityAndSlo:
    def test_hellinger_of_matching_distribution_is_one(self):
        assert hellinger_fidelity({"00": 512, "11": 512}, {"00": 0.5, "11": 0.5}) == pytest.approx(1.0)

    def test_hellinger_of_disjoint_support_is_zero(self):
        assert hellinger_fidelity({"01": 100}, {"00": 0.5, "11": 0.5}) == 0.0

    def test_hellinger_partial_overlap(self):
        # sqrt(0.5 * 0.75) + sqrt(0.5 * 0.25), squared.
        expected = (math.sqrt(0.375) + math.sqrt(0.125)) ** 2
        assert hellinger_fidelity({"00": 3, "11": 1}, {"00": 0.5, "11": 0.5}) == pytest.approx(expected)

    def test_hellinger_rejects_empty_counts(self):
        with pytest.raises(ValueError):
            hellinger_fidelity({}, {"0": 1.0})

    def test_slo_counts_failures_as_misses(self):
        # 4 attempted: two DONE within 100 ms, one DONE too late, one failed.
        assert slo_met_fraction([50.0, 100.0, 180.0], 100.0, attempted=4) == 0.5

    def test_slo_ignores_missing_latencies(self):
        assert slo_met_fraction([10.0, None], 20.0, attempted=2) == 0.5

    def test_slo_needs_attempts(self):
        with pytest.raises(ValueError):
            slo_met_fraction([], 1.0, attempted=0)


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6), (6, 6)]) == 4
    assert union_length([]) == 0


class TestVerdict:
    def test_worse_beyond_bound(self):
        assert verdict([10.0] * 5, [12.0] * 5, "lower", 0.1) == "worse"

    def test_better_needs_wins_and_distance(self):
        old = [10.0, 10.1, 9.9, 10.05, 9.95]
        assert verdict(old, [8.0, 8.1, 7.9, 8.05, 7.95], "lower", 0.1) == "better"
        assert verdict(old, [10.02, 9.98, 10.0, 10.01, 9.99], "lower", 0.1) == "unchanged"

    def test_unresolved_when_spread_exceeds_bound(self):
        assert verdict([5.0, 10.0, 15.0, 20.0], [6.0, 11.0, 14.0, 19.0], "higher", 0.1) == "unresolved"

    def test_wide_spread_still_better_when_every_run_wins(self):
        assert verdict([5.0, 10.0, 15.0, 20.0], [25.0, 30.0, 40.0, 50.0], "higher", 0.1) == "better"
