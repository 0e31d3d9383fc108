"""Stage-1 security investment on a symmetric tree.

Shows the bottom-up placement rule, compares a clustered strategy with a
spread-out one of the same budget, and cross-checks the closed-form
placement against exhaustive enumeration.
"""

import numpy as np

from dersec import (
    CostParams,
    LPF,
    balanced_tree,
    bf_security,
    compare_strategies,
    fig4_strategies,
    solve_dad,
)

tree = balanced_tree(2, 3)
params = CostParams.from_ratio(tree, 10.0)
M = 3

print("14-bus binary tree, attacker budget M = 3")
for B in (0, 2, 4, 6, 8):
    dad = solve_dad(tree, B, M, params, LPF)
    print(f"  defender budget {B}: secure {np.flatnonzero(dad.ad.u).tolist()!s:<28} "
          f"loss {dad.loss:9.3f}")

u1, u2 = fig4_strategies(tree)
cmp = compare_strategies(tree, u1, u2, M, params, LPF)
print(f"\nclustered strategy {[int(i) for i in np.flatnonzero(u1)]}: loss {cmp.loss1:.3f}")
print(f"spread strategy    {[int(i) for i in np.flatnonzero(u2)]}: loss {cmp.loss2:.3f}")
print(f"-> {cmp.relation}")

u_bf, loss_bf = bf_security(tree, 4, 2, params, LPF)
dad = solve_dad(tree, 4, 2, params, LPF)
print(f"\nexhaustive check at B=4, M=2: placement rule {dad.loss:.6f} "
      f"vs brute force {loss_bf:.6f}")
