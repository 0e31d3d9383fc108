"""Anatomy of an optimal attack on the 11-bus precedence example.

Walks through the voltage-impact algebra: deeper DERs sharing more of the
pivot's root path hurt it more, so the worst fixed-budget attack clusters on
the deepest branch. The exhaustive search confirms the greedy choice.
"""

import numpy as np

from dersec import (
    LPF,
    CostParams,
    bf_attack_fixed_response,
    optimal_attack_fixed_response,
    pivot_optimal_attack,
    precedence_example,
)
from dersec.attack import impact_matrix
from dersec.response import DefenderResponse, fixed_angle_setpoints

net = precedence_example()
u = np.zeros(net.n + 1, dtype=int)
sp = fixed_angle_setpoints(net)
phi = DefenderResponse(sp_d=sp, gamma=np.ones(net.n + 1))

pivot = net.node_by_label("m")
D = impact_matrix(net, sp, LPF)
print("impact of compromising each DER on the deepest bus (label m):")
for lbl in "abcimedkgj":
    j = net.node_by_label(lbl)
    d = D[pivot, j]
    shared = net.tree.shared_depth[pivot, j]
    print(f"  {lbl}: shared path {shared} edges -> drop {d:.6f}")

atk = pivot_optimal_attack(net, pivot, sp, 2, u)
print("\ngreedy 2-DER attack at pivot m:",
      sorted(net.label_of(i) for i in np.flatnonzero(atk.delta)),
      f"(total drop {atk.impact:.6f})")

best = optimal_attack_fixed_response(net, phi, 2, u, CostParams.from_network(net))
print("best attack over all pivots:",
      sorted(net.label_of(i) for i in np.flatnonzero(best)))

bf, _ = bf_attack_fixed_response(net, phi, 2, u)
print("exhaustive search agrees:  ",
      sorted(net.label_of(i) for i in np.flatnonzero(bf)))
