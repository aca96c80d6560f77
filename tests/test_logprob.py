import math

import numpy as np
import pytest

from expertseq.logprob import (NEG_INF, from_linear, log_sum, log_sum_iter, logsumexp,
                               logsumexp_by, to_bits)


class TestLogSum:
    def test_halves_sum_to_one(self):
        assert log_sum(math.log(0.5), math.log(0.5)) == pytest.approx(0.0, abs=1e-15)

    def test_zero_is_identity(self):
        assert log_sum(NEG_INF, math.log(0.3)) == math.log(0.3)
        assert log_sum(math.log(0.3), NEG_INF) == math.log(0.3)
        assert log_sum(NEG_INF, NEG_INF) == NEG_INF

    def test_hand_value(self):
        got = log_sum(math.log(0.64), math.log(0.25))
        assert got == pytest.approx(math.log(0.89), rel=1e-14)

    def test_commutative(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = np.log(rng.random(2))
            assert log_sum(a, b) == log_sum(b, a)

    def test_associative_to_tolerance(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a, b, c = np.log(rng.random(3) * np.exp(-rng.integers(0, 200, 3).astype(float)))
            left = log_sum(log_sum(a, b), c)
            right = log_sum(a, log_sum(b, c))
            assert left == pytest.approx(right, rel=1e-12)

    def test_fold_matches_linear_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            vals = rng.uniform(1e-300, 1.0, size=rng.integers(1, 30))
            got = log_sum_iter(np.log(vals))
            assert got == pytest.approx(math.log(vals.sum()), rel=1e-12)

    def test_no_overflow(self):
        assert log_sum(-1e308, -1e308) == pytest.approx(-1e308, rel=1e-12)


class TestBits:
    def test_fair_coin_is_one_bit(self):
        assert to_bits(math.log(0.5)) == pytest.approx(1.0, rel=1e-15)

    def test_certainty_is_free(self):
        assert to_bits(0.0) == 0.0

    def test_two_coins(self):
        assert to_bits(math.log(0.25)) == pytest.approx(2.0, rel=1e-15)

    def test_zero_mass_is_infinite(self):
        assert to_bits(NEG_INF) == math.inf


class TestHelpers:
    def test_logsumexp_empty_and_dead(self):
        assert logsumexp([]) == NEG_INF
        assert logsumexp([NEG_INF, NEG_INF]) == NEG_INF

    def test_from_linear(self):
        assert from_linear(0.0) == NEG_INF
        assert from_linear(1.0) == 0.0
        with pytest.raises(ValueError):
            from_linear(-0.1)



def per_group(values, groups, size):
    """logsumexp_by's definition: each group folded on its own."""
    return np.array([logsumexp(values[groups == g]) for g in range(size)])


class TestLogsumexpBy:
    # Runs under the suite's error::RuntimeWarning filter, so neither the
    # shared shift nor the fallback may warn on -inf or empty groups.

    @pytest.mark.parametrize("case", ["live", "empty_group", "dead_group", "all_dead",
                                      "empty_input", "far_below", "subnormal_sum"])
    def test_matches_per_group_fold(self, case):
        rng = np.random.default_rng(7)
        values = rng.normal(scale=3.0, size=40)
        groups = rng.integers(0, 4, size=40)
        size = 4
        if case == "empty_group":
            size = 5
        elif case == "dead_group":
            values[groups == 1] = NEG_INF
        elif case == "all_dead":
            values[:] = NEG_INF
        elif case == "empty_input":
            values, groups = values[:0], groups[:0]
        elif case == "far_below":
            # exp(-800) is 0: the shared shift would lose group 2 entirely.
            values[groups == 2] -= 800.0
        elif case == "subnormal_sum":
            # exp(-720) is subnormal: the sum would keep only a few digits.
            values[groups == 3] = values.max() - 720.0 - rng.random((groups == 3).sum())
        got = logsumexp_by(values, groups, size)
        want = per_group(values, groups, size)
        assert np.array_equal(got == NEG_INF, want == NEG_INF)
        live = want > NEG_INF
        assert np.allclose(got[live], want[live], rtol=1e-14, atol=0)
