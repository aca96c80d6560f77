"""Worst-case loss guarantees next to what actually happens on data.

Every combination model comes with a bound on how far its loss can fall
behind a natural comparator (best expert, best segmentation, best
parameter). This demo measures both sides on one dataset, then evaluates
the asymptotic comparison between the two parameterless switching models.
"""

from itertools import islice

import numpy as np

import expertseq as es
from expertseq import bounds as bnd

rng = np.random.default_rng(21)
k, n = 2, 10
experts = [es.ConstantExpert(rng.dirichlet(np.ones(2))) for _ in range(k)]
data = list(rng.integers(0, 2, n))
lp = es.prediction_matrix(experts, data)
w = [1.0 / k] * k


def marg(model):
    return es.forward_marginal(model, experts, data).log_marginal


reports = [bnd.measure_bayes(marg(es.bayes(w)), lp, w)]
reports += islice(bnd.measure_fixed_share(lambda a: marg(es.fixed_share(w, a)), lp, k), 3)
reports.append(bnd.measure_universal_share(marg(es.universal_share(w)), lp, w))
reports += islice(bnd.measure_switch(marg(es.switch(es.default_switch_config(k), k)), lp, k), 3)
reports += islice(bnd.measure_run_length(marg(es.run_length(es.elias_delta(), w)), lp, k), 3)
reports.append(bnd.measure_unimix(marg(es.universal_elementwise(k)), lp))

print(f"{'model':24s} {'comparator':38s} {'measured':>9s} {'bound':>8s}")
for r in reports:
    flag = "" if r.satisfied else "  VIOLATED"
    print(f"{r.model:24s} {r.comparator:38s} {r.measured_bits:9.3f} {r.bound_bits:8.3f}{flag}")
print("(the universal-elementwise constant is fitted, so that row is a report, "
      "not a guarantee)")

print("\nwhich parameterless switching model has the lower guarantee?")
for n_big, m in [(2 ** 20, 4), (2 ** 16, 16 ** 3)]:
    c = bnd.compare_switch_vs_runlength(n_big, m)
    print(f"  n = 2^{int(np.log2(n_big))}, m = {m}: {c.lower:10s} "
          f"(switch {c.switch_bits:.0f} bits, run-length {c.run_length_bits:.0f} bits)")
m_star = bnd.switch_runlength_crossover(2 ** 16)
print(f"  crossover at n = 2^16: run-length takes over from m = {m_star}")
