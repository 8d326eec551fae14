"""Interaction gain for the binary source by seeded random channel search.

Fixes the first half-round description at a full description of X1 (rate
h2(q)), samples random conditional pmfs for the second encoder (Dirichlet
over each conditional slice, seven output symbols), and compares the resulting concave envelope with the two
non-interactive curves.  A modest budget already separates the curves; the
acceptance suite runs the full 200k-sample configuration.
"""

import numpy as np

from ibreg import BinaryModel, h2, mu_d, mu_ed, search_mu_int_detailed

p = q = 0.1
model = BinaryModel(p, q)
grid = np.linspace(0.0, h2(q), 12)

points, records = search_mu_int_detailed(model, grid, budget=20_000, seed=7)

print(f"{'R2':>7} {'mu_d':>9} {'mu_int':>9} {'mu_ed':>9} {'gain':>8}")
for pt in points:
    lo = mu_d(pt.x, p, q)
    hi = mu_ed(pt.x, p, q)
    print(f"{pt.x:7.4f} {lo:9.6f} {pt.y:9.6f} {hi:9.6f} {pt.y - lo:+8.5f}")

best = max(records, key=lambda r: r.relevance - mu_d(max(r.rate, 0.0), p, q))
print(f"\nbest sampled point: rate={best.rate:.5f} relevance={best.relevance:.6f} "
      f"({best.origin})")
print("gain over the non-interactive curve:",
      f"{best.relevance - mu_d(best.rate, p, q):+.5f} bits")
