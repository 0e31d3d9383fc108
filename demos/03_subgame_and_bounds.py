"""Attacker-defender sub-game with certified loss bounds.

Solves the linear sub-games exactly (a branch-and-bound over the pivot
families of candidate attacks, with a load-control LP only for a family's
worst member while the family's pooled upper bound can still beat the best
exact loss) and the nonlinear sub-game by the greedy alternation, then
certifies that the linear values bracket the nonlinear value with the
explicit line-loss slack.
"""

import numpy as np

from dersec import CostParams, homogeneous37, sandwich_bounds
from dersec.sweep import with_gamma_lo

net = with_gamma_lo(homogeneous37(), 0.5)
params = CostParams.from_ratio(net, 10.0)

print("M | lower (lpf) | nonlinear | upper (eps-lpf + slack) | holds")
for M in (0, 6, 9, 12, 14):
    rep = sandwich_bounds(net, None, M, params)
    print(f"{M:>2} | {rep.l_lpf:>11.3f} | {rep.l_npf:>9.3f} | "
          f"{rep.l_eps:>10.3f} + {rep.slack_term:.3f} | {rep.holds}")

rep = sandwich_bounds(net, None, 9, params)
mid = rep.results["npf"]
print(f"\nnonlinear engine at M=9: {mid.iterations} alternations, "
      f"converged={mid.converged}")
print("attacked buses:", [int(i) for i in np.flatnonzero(mid.delta_star)])
print(f"loss split: regulation {mid.loss.lovr:.3f}, "
      f"lost load {mid.loss.voll:.3f}, line losses {mid.loss.ll:.5f}")
