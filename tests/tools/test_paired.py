"""The statistics of ``tools/paired.py``, run on made-up pairs: no
benchmark runs here."""

import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[2] / "tools" / "paired.py"
_SPEC = importlib.util.spec_from_file_location("paired", _PATH)
paired = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(paired)


class TestSignTest:
    def test_ten_of_ten_is_two_in_a_thousand_twenty_four(self):
        assert paired.sign_test(10, 0) == pytest.approx(2 / 1024)
        assert paired.sign_test(0, 10) == paired.sign_test(10, 0)

    def test_nine_of_ten_is_below_five_percent(self):
        assert paired.sign_test(9, 1) == pytest.approx(22 / 1024)
        assert paired.sign_test(8, 2) > 0.05

    def test_an_even_split_or_no_pairs_is_one(self):
        assert paired.sign_test(5, 5) == 1.0
        assert paired.sign_test(0, 0) == 1.0

    def test_matches_the_binomial_tail(self):
        for wins in range(8):
            n = 7
            k = min(wins, n - wins)
            tail = sum(math.comb(n, i) for i in range(k + 1)) / 2**n
            assert paired.sign_test(wins, n - wins) == pytest.approx(
                min(1.0, 2 * tail)
            )


class TestPairs:
    def test_wins_follow_the_metric_direction_and_skip_ties(self):
        a, b = [1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 3.0, 5.0]
        assert paired.wins_losses(a, b, higher_is_better=True) == (2, 1)
        assert paired.wins_losses(a, b, higher_is_better=False) == (1, 2)

    def test_quartiles_of_one_value_are_that_value(self):
        assert paired.quartiles([4.0]) == (4.0, 4.0, 4.0)

    def test_quartiles_are_the_benchmarks(self):
        q1, median, q3 = paired.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
        assert (q1, median, q3) == (1.5, 3.0, 4.5)

    def test_a_gain_needs_nine_in_ten_and_more_than_the_parents_spread(self):
        a = [100.0 + i for i in range(10)]  # q3 - q1 is 5.5
        clear = [x + 10 for x in a]
        assert paired.is_gain(a, clear, 10, higher_is_better=True)
        assert not paired.is_gain(a, clear, 8, higher_is_better=True)
        inside = [x + 3 for x in a]
        assert not paired.is_gain(a, inside, 10, higher_is_better=True)
        assert paired.is_gain(a, [x - 10 for x in a], 10, higher_is_better=False)


class TestVerdictLine:
    def test_names_each_flag_with_its_evidence(self):
        line = paired.verdict_line(
            "serve-query", "A..B", 10, {"query_per_s": "gain"},
            {"query_per_s": (10, 2 / 1024, 0.62)}, True, 20, 20,
        )
        assert line == (
            "paired serve-query A..B, 10 pairs: query_per_s gain 10/10 "
            "(p=0.00195, +62.0%); digests identical; correct 20/20"
        )

    def test_a_quiet_run_says_so(self):
        line = paired.verdict_line("ingest-static", "A..B", 10, {}, {}, False, 19, 20)
        assert "no metric flagged" in line
        assert "DIGESTS DIFFER" in line
        assert line.endswith("correct 19/20")
