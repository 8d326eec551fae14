"""The two binary relevance-rate curves and their convex-analysis structure.

Computes the side-information-everywhere curve (closed form via Mrs. Gerber)
and the decoder-only curve (time-sharing segment + curved branch), checks
them against the two independent oracles, and exercises the optimal test
channels end to end through the probability toolkit.
"""

import numpy as np

from ibreg import (
    BinaryModel,
    compose_markov,
    conditional_mutual_information as cmi,
    critical_point,
    h2,
    mu_d,
    mu_d_dual,
    mu_d_timeshare_oracle,
    mu_ed,
    mutual_information as mi,
    optimal_channel,
)

p = q = 0.1
hq = h2(q)

# ---------------------------------------------------------------------------
# Critical point: where the time-sharing segment meets the curved branch
# ---------------------------------------------------------------------------
cp = critical_point(p, q)
print(f"critical crossover r_c = {cp.crossover:.9f}")
print(f"critical rate      R_c = {cp.rate:.9f}  (h2(q) = {hq:.6f})")
print(f"envelope slope   alpha = {cp.alpha_star:.9f}")

# ---------------------------------------------------------------------------
# Curve table with both oracles
# ---------------------------------------------------------------------------
print(f"\n{'R':>7} {'mu_d':>10} {'dual':>10} {'timeshare':>10} {'mu_ed':>10}")
for rate in np.linspace(0.0, hq, 11):
    print(f"{rate:7.4f} {mu_d(rate, p, q):10.6f} {mu_d_dual(rate, p, q):10.6f} "
          f"{mu_d_timeshare_oracle(rate, p, q):10.6f} {mu_ed(rate, p, q):10.6f}")

# ---------------------------------------------------------------------------
# Optimal test channels, evaluated through the exact toolkit: the linear
# segment uses a 3-symbol time-shared description, the curved branch a BSC.
# ---------------------------------------------------------------------------
src = BinaryModel(p, q).half_round_source()
print(f"\n{'R':>7} {'kind':>12} {'rate achieved':>14} {'relevance':>10}")
for rate in (0.0, 0.15, 0.3, cp.rate + 0.02, hq):
    spec = optimal_channel(rate, p, q)
    joint = compose_markov(src, spec.to_channel("u"))
    got_rate = cmi(joint, ["x1"], ["u"], ["x2"])
    got_rel = mi(joint, ["y"], ["u", "x2"])
    print(f"{rate:7.4f} {spec.kind:>12} {got_rate:14.9f} {got_rel:10.6f}")
