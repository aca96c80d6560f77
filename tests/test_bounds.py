import math
import tracemalloc
from itertools import islice

import numpy as np
import pytest

import expertseq as es
from expertseq import bounds as bnd
from oracles import best_segmentation_at_most, best_segmentations_oracle, exact_block_sequences, \
    random_constant_experts


class TestFormulas:
    def test_bayes_bound_values(self):
        assert bnd.bayes_bound([0.25] * 4, 1) == pytest.approx(2.0)
        assert bnd.bayes_bound([1.0], 0) == 0.0
        assert bnd.bayes_bound([0.5, 0.25, 0.25], 2) == pytest.approx(2.0)
        assert bnd.bayes_bound([1.0, 0.0], 1) == math.inf

    def test_fixed_share_bound_values(self):
        assert bnd.fixed_share_bound(10, 1, 4, 0.0, 0.0) == pytest.approx(2.0)
        h = -0.25 * math.log2(0.25) - 0.75 * math.log2(0.75)
        assert bnd.fixed_share_bound(8, 2, 2, 0.25, 0.25) == pytest.approx(8 * h + 2)
        assert bnd.fixed_share_bound(8, 2, 2, 0.25, 0.25) == pytest.approx(8.49, abs=5e-3)
        assert bnd.fixed_share_bound(5, 2, 2, 0.0, 0.5) == math.inf

    def test_universal_share_bound_values(self):
        assert bnd.universal_share_bound(1) == pytest.approx(1.0)
        assert bnd.universal_share_bound(16) == pytest.approx(3.0)

    def test_unimix_bound_values(self):
        # at n = 4*pi the log term is exactly one bit; integer n rounds it
        assert bnd.unimix_bound(2, round(math.pi * 4), 0.7) == pytest.approx(1.0 + 0.7, abs=0.03)
        assert bnd.unimix_bound(2, 16, 0.7) == pytest.approx(0.5 * (4 - math.log2(math.pi)) + 0.7)
        assert bnd.unimix_bound(1, 100, 0.7) == pytest.approx(0.7)

    def test_switch_bound_values(self):
        assert bnd.switch_bound(1, 0, 2) == pytest.approx(2.0)
        want = 2 + 2 + math.log2(math.comb(4, 2)) + math.log2(2)
        assert bnd.switch_bound(2, 3, 2) == pytest.approx(want)
        assert bnd.switch_bound(2, 3, 2) == pytest.approx(7.585, abs=1e-3)
        with pytest.raises(ValueError):
            bnd.switch_bound(3, 1, 2)

    def test_run_length_bound_values(self):
        want = 2 * (1 + 2 + 2 * math.log2(math.log2(5)) + 3)
        assert bnd.run_length_bound(8, 2, 2) == pytest.approx(want)
        assert bnd.run_length_bound(8, 2, 2) == pytest.approx(16.86, abs=5e-3)
        # switching every step: the log-log term vanishes
        for n in (3, 7, 12):
            assert bnd.run_length_bound(n, n, 2) == pytest.approx(n * (1 + 3))

    def test_overconfident_bound_values(self):
        assert bnd.overconfident_bound(0.25, 10, 0.0, 0.0) == pytest.approx(2.0)
        assert bnd.overconfident_bound(0.5, 4, 0.5, 0.5) == pytest.approx(5.0)
        h = -0.5 * math.log2(0.25) - 0.5 * math.log2(0.75)
        assert bnd.overconfident_bound(1.0, 6, 0.25, 0.5) == pytest.approx(6 * h)

    def test_monotonicity(self):
        for m in range(1, 6):
            vals = [bnd.switch_bound(m, t, 2) for t in range(m - 1, 20)]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        for t in range(6, 20):
            vals = [bnd.switch_bound(m, t, 2) for m in range(1, 6)]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        vals = [bnd.run_length_bound(n, 2, 2) for n in range(2, 40)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


class TestComparison:
    def test_bounded_switch_count_favors_switch(self):
        c = bnd.compare_switch_vs_runlength(2 ** 20, 4)
        assert c.lower == "switch"

    def test_fast_growing_switch_count_favors_run_length(self):
        m = int(math.log2(2 ** 16)) ** 3
        c = bnd.compare_switch_vs_runlength(2 ** 16, m)
        assert c.lower == "run-length"

    def test_crossover_bisection_brackets(self):
        n = 2 ** 16
        m_star = bnd.switch_runlength_crossover(n)
        assert m_star is not None
        assert bnd.compare_switch_vs_runlength(n, m_star - 1).lower == "switch"
        assert bnd.compare_switch_vs_runlength(n, m_star).lower == "run-length"
        assert 4 < m_star < int(math.log2(n)) ** 3


class TestSegmentationDP:
    def test_exact_blocks_match_enumeration(self):
        rng = np.random.default_rng(60)
        n, k = 6, 2
        experts = random_constant_experts(rng, k, 2)
        data = list(rng.integers(0, 2, n))
        lp = es.prediction_matrix(experts, data)
        segs = bnd.best_segmentations(lp, n)
        for m in range(1, n + 1):
            candidates = exact_block_sequences(n, k, m)
            want = max(sum(lp[i, s] for i, s in enumerate(seq)) for seq in candidates)
            assert segs[m - 1] is not None
            assert segs[m - 1].log_likelihood == pytest.approx(want, rel=1e-12)
            assert segs[m - 1].blocks == m

    def test_single_expert_only_one_block(self):
        lp = np.log(np.full((4, 1), 0.5))
        segs = bnd.best_segmentations(lp, 4)
        assert segs[0] is not None and all(s is None for s in segs[1:])

    def test_table_matches_reference_dp_exactly(self):
        # Entries from {0, 1/4, 1/2, 1}: -inf cells and many exact ties, so
        # every tie rule and every unreachable block count is exercised.
        rng = np.random.default_rng(63)
        for _ in range(400):
            n, k = int(rng.integers(1, 13)), int(rng.integers(1, 5))
            with np.errstate(divide="ignore"):
                lp = np.log(rng.choice([0.0, 0.25, 0.5, 1.0], size=(n, k)))
            max_blocks = int(rng.integers(1, n + 2))
            got = bnd.best_segmentations(lp, max_blocks)
            want = best_segmentations_oracle(lp, max_blocks)
            assert len(got) == len(want) == min(max_blocks, n)
            for g, w in zip(got, want):
                assert (g is None) == (w is None)
                if w is not None:
                    assert g.log_likelihood == w.log_likelihood
                    assert g.sequence == w.sequence
                    changes = g.change_points
                    assert g.last_change == (changes[-1] if changes else 0)

    def test_table_memory_is_numpy_sized(self):
        # A nested-list table of this size peaks near 70 MB, the numpy one near 4 MB.
        lp = np.log(np.random.default_rng(64).uniform(0.05, 1.0, size=(600, 2)))
        tracemalloc.start()
        try:
            bnd.best_segmentations(lp, 600)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


class TestGridOracles:
    def test_fs_recursion_matches_hmm(self):
        rng = np.random.default_rng(61)
        experts = random_constant_experts(rng, 3, 2)
        data = list(rng.integers(0, 2, 9))
        lp = es.prediction_matrix(experts, data)
        w = np.array([0.2, 0.3, 0.5])
        for alpha in (0.0, 0.17, 0.5, 1.0):
            grid_val = bnd.fixed_share_grid_marginals(lp, w, [alpha])[0]
            hmm_val = es.forward_marginal(es.fixed_share(w, alpha), experts, data).log_marginal
            assert grid_val == pytest.approx(hmm_val, rel=1e-9, abs=1e-12)

    def test_mixture_grid_matches_model(self):
        rng = np.random.default_rng(62)
        experts = random_constant_experts(rng, 2, 2)
        data = list(rng.integers(0, 2, 7))
        lp = es.prediction_matrix(experts, data)
        a = 0.37
        grid_val = bnd.elementwise_mixture_grid_marginals(lp, np.array([[a, 1 - a]]))[0]
        hmm_val = es.forward_marginal(es.fixed_elementwise([a, 1 - a]), experts, data).log_marginal
        assert grid_val == pytest.approx(hmm_val, rel=1e-9, abs=1e-12)


class TestMeasurements:
    def _instance(self, seed, k=2, n=9):
        rng = np.random.default_rng(seed)
        experts = random_constant_experts(rng, k, 2)
        data = list(rng.integers(0, 2, n))
        return experts, data, es.prediction_matrix(experts, data)

    def test_bayes_report_satisfied(self):
        experts, data, lp = self._instance(70)
        w = [0.5, 0.5]
        marg = es.forward_marginal(es.bayes(w), experts, data).log_marginal
        r = bnd.measure_bayes(marg, lp, w)
        assert r.satisfied and r.measured_bits >= 0

    def test_fixed_share_reports_satisfied(self):
        experts, data, lp = self._instance(71)
        w = [0.5, 0.5]
        fs_at = lambda a: es.forward_marginal(es.fixed_share(w, a), experts, data).log_marginal
        reports = list(bnd.measure_fixed_share(fs_at, lp, 2))
        assert reports and all(r.satisfied for r in reports)

    def test_fixed_share_reports_stop_at_block_limit(self):
        experts, data, lp = self._instance(71)
        rates = []

        def fs_at(alpha):
            rates.append(alpha)
            return es.forward_marginal(es.fixed_share([0.5, 0.5], alpha),
                                       experts, data).log_marginal

        first = list(islice(bnd.measure_fixed_share(fs_at, lp, 2), 1))
        assert len(first) == 1 and first[0].inputs["m"] == 1
        assert rates == [0.0]

    def test_universal_share_report_satisfied(self):
        experts, data, lp = self._instance(72)
        w = [0.5, 0.5]
        us = es.forward_marginal(es.universal_share(w), experts, data).log_marginal
        assert bnd.measure_universal_share(us, lp, w).satisfied

    def test_switch_reports_satisfied(self):
        experts, data, lp = self._instance(73)
        sw = es.forward_marginal(es.switch(es.default_switch_config(2), 2),
                                 experts, data).log_marginal
        reports = list(bnd.measure_switch(sw, lp, 2))
        assert reports and all(r.satisfied for r in reports)

    def test_switch_reports_match_per_m_oracle(self, monkeypatch):
        # Many ties: entries drawn from three values, so "at most m blocks"
        # must keep the fewer-block sequence exactly as the oracle does.
        rng = np.random.default_rng(75)
        real = bnd.best_segmentations
        calls = []
        monkeypatch.setattr(bnd, "best_segmentations",
                            lambda lp, m: calls.append(m) or real(lp, m))
        for _ in range(20):
            n, k = int(rng.integers(1, 9)), int(rng.integers(1, 4))
            lp = np.log(rng.choice([0.25, 0.5, 1.0], size=(n, k)))
            calls.clear()
            reports = list(bnd.measure_switch(-5.0, lp, k))
            assert calls == [n]
            for m, r in enumerate(reports, start=1):
                seg = best_segmentation_at_most(lp, m)
                changes = seg.change_points
                t_m = (changes[-1] if changes else 0) + m - seg.blocks
                assert r.measured_bits == es.to_bits(-5.0) - es.to_bits(seg.log_likelihood)
                assert r.inputs == {"n": n, "m": m, "t_m": t_m, "k": k}
                assert r.bound_bits == bnd.switch_bound(m, t_m, k)

    def test_switch_reads_each_best_once(self, monkeypatch):
        # blocks and change_points each scan the whole sequence; the block
        # count is the row a best was adopted at and its last change point
        # is recorded by the table, so neither is read.
        lp = np.log(np.random.default_rng(78).uniform(0.05, 1.0, (60, 3)))
        adopted, best = 0, None
        for s in bnd.best_segmentations(lp, 60):
            if s is not None and (best is None or s.log_likelihood > best.log_likelihood):
                adopted, best = adopted + 1, s
        want = list(bnd.measure_switch(-5.0, lp, 3))
        reads = {"blocks": 0, "change_points": 0}
        for name in reads:
            real = getattr(bnd.Segmentation, name)

            def counted(seg, name=name, real=real):
                reads[name] += 1
                return real.fget(seg)
            monkeypatch.setattr(bnd.Segmentation, name, property(counted))
        assert list(bnd.measure_switch(-5.0, lp, 3)) == want
        assert len(want) == 60 and 1 < adopted < 60
        assert reads == {"blocks": 0, "change_points": 0}

    @pytest.mark.parametrize("measure", [bnd.measure_switch, bnd.measure_run_length])
    def test_first_report_builds_one_table(self, monkeypatch, measure):
        experts, data, lp = self._instance(76)
        real = bnd.best_segmentations
        calls = []
        monkeypatch.setattr(bnd, "best_segmentations",
                            lambda lp, m: calls.append(m) or real(lp, m))
        reports = measure(-5.0, lp, 2)
        assert calls == []
        assert next(reports).inputs["m"] == 1
        assert calls == [len(data)]

    @pytest.mark.parametrize("name", ["fixed_share", "switch", "run_length"])
    def test_block_limit_sizes_the_table(self, monkeypatch, name):
        # With max_blocks = M the reports are those of the unlimited run
        # with m <= M, here its first M, from a table of M rows.
        experts, data, lp = self._instance(77)
        measure = getattr(bnd, f"measure_{name}")
        first = (lambda a: -5.0 - a) if name == "fixed_share" else -5.0
        full = list(measure(first, lp, 2))
        real = bnd.best_segmentations
        calls = []
        monkeypatch.setattr(bnd, "best_segmentations",
                            lambda lp, m: calls.append(m) or real(lp, m))
        for limit in (1, 2, 3):
            calls.clear()
            reports = list(measure(first, lp, 2, max_blocks=limit))
            assert calls == [limit]
            assert [r.inputs["m"] for r in reports] == list(range(1, limit + 1))
            assert reports == full[:limit]

    def test_switch_names_step_where_every_segmentation_is_zero(self):
        lp = np.array([[0.0, 0.0], [-np.inf, -np.inf], [-np.inf, -np.inf]])
        with pytest.raises(ValueError, match="step 2"):
            list(bnd.measure_switch(-1.0, lp, 2))

    def test_switch_skips_block_counts_of_zero_likelihood(self):
        # No single expert explains both steps, so m = 1 has nothing to
        # compare against; two blocks do.
        lp = np.array([[0.0, -np.inf], [-np.inf, 0.0]])
        reports = list(bnd.measure_switch(-1.0, lp, 2))
        assert [r.inputs["m"] for r in reports] == [2]
        assert reports[0].inputs["t_m"] == 1

    def test_run_length_reports_satisfied(self):
        experts, data, lp = self._instance(74)
        rl = es.forward_marginal(es.run_length(es.elias_delta(), [0.5, 0.5]),
                                 experts, data).log_marginal
        reports = list(bnd.measure_run_length(rl, lp, 2))
        assert reports and all(r.satisfied for r in reports)

    def test_unimix_report_is_flagged_not_asserted(self):
        experts, data, lp = self._instance(75)
        um = es.forward_marginal(es.universal_elementwise(2), experts, data).log_marginal
        r = bnd.measure_unimix(um, lp)
        assert "fitted" in r.note
        assert math.isfinite(r.measured_bits) and math.isfinite(r.bound_bits)
        # with the fitted default the bound happens to hold; still only a report
        assert r.satisfied
