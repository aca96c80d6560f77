"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The lines bypass pytest's output capture so they show up under plain
``pytest -v``.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

import expertseq as es
from expertseq import bounds as bnd
from oracles import ZOO_NAMES, brute_map, joint_table, random_constant_experts, \
    random_zoo_instance, switch_prior_prefix


@pytest.fixture
def announce(capfd):
    def _announce(ok: bool, num: int, text: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"\nACCEPTANCE {num}: {verdict} - {text}", flush=True)
    return _announce


def rel_close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


@dataclass
class ZooRun:
    name: str
    log_marginal: float
    brute: float
    pre_update_totals: list
    step_marginals: list


@pytest.fixture(scope="module")
def zoo_suite():
    """20 random instances per zoo model, forward results plus exhaustive
    oracle totals; shared by criteria 1 and 7."""
    rng = np.random.default_rng(20260808)
    runs = []
    start = time.perf_counter()
    for name in ZOO_NAMES:
        for _ in range(20):
            n = int(rng.integers(1, 7))
            model, experts, data = random_zoo_instance(name, rng, n=n)
            fp = es.ForwardPass(model, experts)
            marginals = []
            for x in data:
                fp.advance(x)
                marginals.append(fp.log_marginal)
            brute = es.log_sum_iter(joint_table(model, experts, data).values())
            runs.append(ZooRun(name, fp.log_marginal, brute,
                               [s.pre_update_total for s in fp.steps], marginals))
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_criterion_1_brute_force_equivalence(zoo_suite, announce):
    runs, elapsed = zoo_suite
    bad = [r.name for r in runs if not rel_close(r.log_marginal, r.brute, 1e-9)]
    ok = not bad and elapsed < 60.0
    announce(ok, 1, f"forward marginal equals exhaustive expert-sequence sum "
                    f"on {len(runs)} instances in {elapsed:.1f}s")
    assert not bad, f"mismatches: {bad}"
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


def test_criterion_2_reduction_identities(announce):
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(10):
        k = int(rng.integers(2, 4))
        a_size = int(rng.integers(2, 4))
        n = int(rng.integers(1, 9))
        experts = random_constant_experts(rng, k, a_size)
        data = list(rng.integers(0, a_size, n))
        w = list(rng.dirichlet(np.ones(k) * 5.0))
        alpha = float(rng.uniform(0.05, 0.95))

        def marg(model):
            return es.forward_marginal(model, experts, data).log_marginal

        pairs = [
            (marg(es.fixed_share(w, 0.0)), marg(es.bayes(w))),
            (marg(es.fixed_share(w, 1.0)), marg(es.fixed_elementwise(w))),
            (marg(es.run_length(es.geometric(alpha), w)), marg(es.fixed_share(w, alpha))),
            (marg(es.switch(es.SwitchConfig(1.0, es.geometric(alpha), tuple(w)), k)),
             marg(es.fixed_share(w, alpha))),
        ]
        worst = max(worst, max(abs(a - b) for a, b in pairs))
    ok = worst <= 1e-12
    announce(ok, 2, f"reduction identities hold exactly (worst log gap {worst:.2e})")
    assert ok


def test_criterion_3_switch_prefix_prior_equivalence(announce):
    cfg = es.default_switch_config(2, theta=0.5, pi_t=es.inv_poly())
    model = es.switch(cfg, 2)
    worst = 0.0
    for bits in range(32):
        seq = [(bits >> i) & 1 for i in range(5)]
        a = es.expert_sequence_prior(model, seq)
        b = switch_prior_prefix(cfg, seq)
        worst = max(worst, abs(a - b))
    ok = worst <= 1e-9
    announce(ok, 3, f"switch prefix prior matches the parametric oracle on all "
                    f"32 binary length-5 prefixes (worst gap {worst:.2e})")
    assert ok


def test_criterion_4_switch_map_exact(announce):
    rng = np.random.default_rng(4)
    bad = 0
    for _ in range(20):
        n = int(rng.integers(1, 9))
        a_size = int(rng.integers(2, 4))
        experts = random_constant_experts(rng, 2, a_size)
        data = list(rng.integers(0, a_size, n))
        cfg = es.default_switch_config(2, theta=float(rng.uniform(0.2, 0.9)))
        res = es.switch_map(cfg, experts, data)
        ref_seq, ref_val = brute_map(es.switch(cfg, 2), experts, data)
        if res.sequence != ref_seq or not rel_close(res.log_probability, ref_val, 1e-9):
            bad += 1
    ok = bad == 0
    announce(ok, 4, "switch MAP equals exhaustive argmax on 20 instances (n <= 8, k = 2)")
    assert ok, f"{bad} mismatching instances"


def test_criterion_5_bound_satisfaction(announce):
    rng = np.random.default_rng(5)
    failures = []
    unimix_notes = []
    for t in range(50):
        n = int(rng.integers(2, 11))
        a_size = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        experts = random_constant_experts(rng, k, a_size)
        data = list(rng.integers(0, a_size, n))
        lp = es.prediction_matrix(experts, data)
        w = [1.0 / k] * k

        def marg(model):
            return es.forward_marginal(model, experts, data).log_marginal

        reports = [bnd.measure_bayes(marg(es.bayes(w)), lp, w)]
        reports += bnd.measure_fixed_share(
            lambda a: marg(es.fixed_share(w, a)), lp, k)
        reports.append(bnd.measure_universal_share(marg(es.universal_share(w)), lp, w,
                                                   grid=1024))
        reports += bnd.measure_switch(marg(es.switch(es.default_switch_config(k), k)), lp, k)
        reports += bnd.measure_run_length(marg(es.run_length(es.elias_delta(), w)), lp, k)
        failures += [(t, r.model, r.comparator) for r in reports if not r.satisfied]

        experts2 = random_constant_experts(rng, 2, a_size)
        lp2 = es.prediction_matrix(experts2, data)
        um = bnd.measure_unimix(
            es.forward_marginal(es.universal_elementwise(2), experts2, data).log_marginal,
            lp2, c=1.1, grid=4096)
        unimix_notes.append(um.satisfied)
    ok = not failures
    announce(ok, 5, f"measured overhead within bound for bayes/fixed-share/switch/"
                    f"run-length/universal-share on 50 instances; unimix reported "
                    f"(fitted c=1.1 held on {sum(unimix_notes)}/50)")
    assert not failures, failures[:5]


def test_criterion_6_complexity_counters(announce):
    rng = np.random.default_rng(6)
    k = 2
    experts = random_constant_experts(rng, k, 2)
    data = list(rng.integers(0, 2, 1000))
    w = [1.0 / k] * k

    def counters(model):
        res = es.forward_marginal(model, experts, data)
        return res.transitions_per_level

    problems = []

    for name, model in [("bayes", es.bayes(w)),
                        ("fixed-share", es.fixed_share(w, 0.3)),
                        ("switch", es.switch(es.default_switch_config(k), k))]:
        tr = counters(model)
        ratio = tr[999] / tr[99]
        if not 1 / 1.05 <= ratio <= 1.05:
            problems.append((name, ratio))

    for name, model in [("universal-share", es.universal_share(w)),
                        ("run-length", es.run_length(es.inv_poly(), w))]:
        tr = counters(model)
        ratio = tr[999] / tr[99]
        if not 8.0 <= ratio <= 12.0:
            problems.append((name, ratio))

    for kk in (2, 3):
        experts_k = random_constant_experts(rng, kk, 2)
        for span in (2, 5):
            model = es.run_length(es.uniform_span(1, span), [1.0 / kk] * kk)
            res = es.forward_marginal(model, experts_k, data)
            tr = res.transitions_per_level
            if tr[999] != tr[99]:
                problems.append((f"run-length span {span} k {kk}", tr[99], tr[999]))
            if tr[999] > 4 * (kk * span + kk + span):
                problems.append((f"run-length span {span} k {kk} too large", tr[999]))

    ok = not problems
    announce(ok, 6, "per-level transition counters: O(k) for bayes/fixed-share/switch, "
                    "O(n) for universal-share and general run-length, O(k*s) for "
                    "finite-support run-length")
    assert not problems, problems


def test_criterion_7_numerical_property_suites(zoo_suite, announce):
    runs, _ = zoo_suite
    conservation_bad = 0
    for r in runs:
        prev = 0.0
        for pre, marg in zip(r.pre_update_totals, r.step_marginals):
            if abs(pre - prev) > 1e-9:
                conservation_bad += 1
            prev = marg

    rng = np.random.default_rng(7)
    lemma_bad = 0
    for _ in range(200):
        k = int(rng.integers(2, 6))
        a = int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(k) * 0.7)
        q = rng.dirichlet(np.ones(k) * 0.7)
        cond = np.stack([rng.dirichlet(np.ones(a) * 0.7) for _ in range(k)])
        # shared conditionals: divergence can only shrink under projection
        if es.kl_divergence(p @ cond, q @ cond, base=math.e) > \
                es.kl_divergence(p, q, base=math.e) + 1e-12:
            lemma_bad += 1
        # pointwise transfer chain for a random realized outcome
        x = int(rng.integers(0, a))
        px, qx = float(p @ cond[:, x]), float(q @ cond[:, x])
        ratios = -np.log(q / p)
        mid = float((p * cond[:, x] / px) @ ratios)
        if not (-math.log(qx / px) <= mid + 1e-12 <= float(np.max(ratios)) + 2e-12):
            lemma_bad += 1
    ok = conservation_bad == 0 and lemma_bad == 0
    announce(ok, 7, "frontier mass conserved at every step on all criterion-1 runs; "
                    "divergence-contraction and log-ratio-transfer inequalities hold "
                    "on 200 random joints each")
    assert conservation_bad == 0 and lemma_bad == 0


def test_criterion_8_asymptotic_comparison(announce):
    c_bounded = bnd.compare_switch_vs_runlength(2 ** 20, 4)
    m_fast = int(math.log2(2 ** 16)) ** 3
    c_fast = bnd.compare_switch_vs_runlength(2 ** 16, m_fast)
    ok = c_bounded.lower == "switch" and c_fast.lower == "run-length"
    announce(ok, 8, f"switch bound lower at (n=2^20, m=4): "
                    f"{c_bounded.switch_bits:.1f} vs {c_bounded.run_length_bits:.1f} bits; "
                    f"run-length lower at (n=2^16, m={m_fast}): "
                    f"{c_fast.run_length_bits:.0f} vs {c_fast.switch_bits:.0f} bits")
    assert ok
