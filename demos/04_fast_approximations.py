"""Trading exactness for speed on models whose state space grows with n.

Two handles: trimming the forward frontier to the states carrying a target
fraction of the mass, and replacing the exact posterior over experts by a
prior conditional evaluated at the running maximum-likelihood assignment.
"""

import time

import numpy as np

import expertseq as es
from expertseq.approx import (laplace_expert_conditional, ml_conditioned_marginal,
                              trimming_hook)

rng = np.random.default_rng(3)
k = 2
experts = [es.ConstantExpert(rng.dirichlet(np.ones(2))) for _ in range(k)]
data = list(rng.integers(0, 2, 400))
w = [1.0 / k] * k

print("trimming the run-length model (frontier grows with n):")
model = es.run_length(es.inv_poly(), w)
exact = es.forward_marginal(model, experts, data)
print(f"  exact     : {es.to_bits(exact.log_marginal):9.3f} bits, "
      f"peak weights held {exact.peak_weights}")
for p in (0.9999, 0.999, 0.99, 0.9):
    res = es.forward_marginal(model, experts, data, frontier_hook=trimming_hook(p))
    gap = abs(res.log_marginal - exact.log_marginal)
    print(f"  p = {p:<7}: {es.to_bits(res.log_marginal):9.3f} bits, "
          f"peak weights held {res.peak_weights:4d}, gap {gap:.2e} nats")

print("\nML conditioning on the mixture-learning model "
      "(exact cost grows like n^k):")
um = es.universal_elementwise(k)
t0 = time.perf_counter()
exact_val = es.forward_marginal(um, experts, data).log_marginal
t_exact = time.perf_counter() - t0

t0 = time.perf_counter()
approx = ml_conditioned_marginal(laplace_expert_conditional(k), experts, data)
t_approx = time.perf_counter() - t0

print(f"  exact marginal : {es.to_bits(exact_val):9.3f} bits in {t_exact * 1e3:7.1f} ms")
print(f"  ML-conditioned : {es.to_bits(approx.log_marginal):9.3f} bits in {t_approx * 1e3:7.1f} ms")
counts = [approx.ml_sequence.count(j) for j in range(k)]
print(f"  ML assignment used the experts {counts[0]} and {counts[1]} times")
