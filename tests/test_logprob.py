import math

import numpy as np
import pytest

from expertseq.logprob import (NEG_INF, from_linear, log_normalize, log_sum,
                               log_sum_iter, logsumexp, to_bits)


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

    def test_log_normalize(self):
        v = log_normalize(np.log([0.2, 0.6]))
        assert logsumexp(v) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ValueError):
            log_normalize([NEG_INF, NEG_INF])

    def test_from_linear(self):
        assert from_linear(0.0) == NEG_INF
        assert from_linear(1.0) == 0.0
        with pytest.raises(ValueError):
            from_linear(-0.1)

