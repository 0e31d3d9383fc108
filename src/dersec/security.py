"""Stage-1 security investment: bottom-up placement on symmetric networks,
the full trilevel solve, and strategy comparison.

On an identical-r/x network symmetric under the solve's weights, the optimal
budget-B placement secures DER levels whole from the deepest level upward and
spreads the partial top-most secured level uniformly across sibling groups;
any uniform choice is equivalent up to a tree automorphism, so the first B
DERs of one fixed ordering (deepest first, then by rank within the sibling
group) attain the optimum.

Elsewhere Stage 1 is one pooled min-max over the full-budget security vectors
(securing more never raises the loss); ties go to the first in enumeration order.

Stage 1 itself costs little next to its sub-game: the symmetry check is one
bottom-up pass over the tree, the security rows are one scatter of the
combinations, and the one-shot engine ranks every DER by impact once for all
of its rows. The first row's attacks are drawn first and bounded under the
seed response; when no attack on it can lose more than 0, it wins outright
(no loss is negative and ties go to the first row), and no other row's
attacks are drawn and no LP is built or solved.

Repeated solves on one network (every budget B, both strategies of
``compare_strategies``) build some of its constants once: the r/x check,
the symmetry check per weights, the load-control model and the seed's
no-attack voltages are kept on the network (see ``dersec.network``), and a
copy of the network starts without them. The impact matrices and rankings
are built per solve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricNetwork, EnumerationCapExceeded, HeterogeneousRxRatio
from .game import ADResult, solve_ad
from .game import solve_ad_exhaustive  # noqa: F401  (public as dersec.security.solve_ad_exhaustive)
from .loss import CostParams, check_weights
from .network import Network, check_budget, check_vectors
from .powerflow import ModelTag

_U_ENUM_CAP = 20_000


@dataclass(frozen=True)
class SecurityStrategy:
    u: np.ndarray
    budget: int

    @property
    def secured(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.u))


@dataclass(frozen=True)
class DADResult:
    u_star: SecurityStrategy
    ad: ADResult
    loss: float


def is_symmetric(net: Network) -> bool:
    """Sibling subtrees identical everywhere under the solve's weights, here
    the network's own, and all DER capabilities equal.

    Two siblings are identical when their roots' edge, demand, DER, bound,
    weight and gamma_lo values agree after ``round(v, 12)`` and their own
    children are identical in turn. One pass from the deepest nodes up gives
    every subtree an id, equal exactly for identical subtrees, so each node's
    children are compared once. The answer is kept on the network per weights.
    """
    return _symmetric(net, CostParams.from_network(net))


def _symmetric(net: Network, params: CostParams) -> bool:
    """``is_symmetric`` under the weights W and C of ``params``."""
    def build() -> bool:
        caps = net.der_cap[net.der_cap > 0.0]
        if caps.size and float(caps.max() - caps.min()) > 1e-12:
            return False
        columns = np.array([net.r, net.x, net.sc_nom.real, net.sc_nom.imag, net.der_cap,
                            net.nu_lo, net.nu_hi, params.W, params.C, net.gamma_lo])
        # nodes share most values: round each distinct one once
        values, where = np.unique(columns, return_inverse=True)
        props = np.array([round(v, 12) for v in values.tolist()])[where.reshape(columns.shape)].T.tolist()
        ids: dict[tuple, int] = {}
        sig = [0] * (net.n + 1)
        for i in reversed(net.tree.order.tolist()):
            kids = tuple(sig[c] for c in net.tree.children[i])
            if len(set(kids)) > 1:
                return False
            sig[i] = ids.setdefault((tuple(props[i]), kids), len(ids))
        return True

    return net.derived(("is_symmetric", params.W.tobytes(), params.C.tobytes()), build)


def optimal_security_strategy(net: Network, B: int) -> SecurityStrategy:
    """The first B DERs sorted by (-depth, rank among the DERs that share
    their parent, parent id, id): whole levels deepest first, and the partial
    top-most level dealt round-robin over its sibling groups, which realizes
    the uniform choice deterministically. Requires a network symmetric under
    the solve's weights, here its own, with identical r/x ratio and a
    non-negative integer B."""
    check_budget("B", B)
    if net.uniform_rx_ratio() is None:
        raise HeterogeneousRxRatio("optimal placement requires identical r/x")
    if not is_symmetric(net):
        raise AsymmetricNetwork("optimal placement requires a symmetric network")
    return SecurityStrategy(u=_placement(net, B), budget=B)


def _placement(net: Network, B: int) -> np.ndarray:
    """The placement of ``optimal_security_strategy``, unchecked."""
    depth, parent = net.tree.depth, net.tree.parent
    rank: dict[int, int] = {}      # der_nodes ascend: rank p's DERs by id
    keys = []
    for i in net.der_nodes.tolist():
        p = int(parent[i])
        rank[p] = rank.get(p, -1) + 1
        keys.append((-depth[i], rank[p], p, i))
    u = np.zeros(net.n + 1, dtype=int)
    u[[key[-1] for key in sorted(keys)[:B]]] = 1
    return u


def solve_dad(
    net: Network,
    B: int,
    M: int,
    params: CostParams,
    model: ModelTag,
) -> DADResult:
    """Trilevel solve: closed-form placement when the ratio and symmetry
    preconditions hold, symmetric under the solve's weights ``params``, else
    one pooled Stage-1 min-max whose rows are the full-budget vectors in
    ``itertools.combinations`` order (at most 20,000); u* is the first of
    them with the least sub-game value.

    The preconditions are checked once, here; the placement is then that of
    ``optimal_security_strategy``.
    """
    if not model.is_linear:
        raise ValueError("solve_dad applies to linear models")
    check_budget("B", B)      # M is checked by the engine
    check_weights(net, params)
    if net.uniform_rx_ratio() is not None and _symmetric(net, params):
        secured = _placement(net, B)
    else:
        der = [int(i) for i in net.der_nodes]
        budget = min(B, len(der))
        count = math.comb(len(der), budget)
        if count > _U_ENUM_CAP:
            raise EnumerationCapExceeded(f"{count} security strategies exceed cap {_U_ENUM_CAP}")
        combos = np.array(list(itertools.combinations(der, budget)), dtype=np.intp).reshape(count, budget)
        secured = np.zeros((count, net.n + 1), dtype=int)
        secured[np.arange(count)[:, None], combos] = 1
    ad = solve_ad(net, secured, M, params, model)
    return DADResult(u_star=SecurityStrategy(u=ad.u, budget=B), ad=ad, loss=ad.loss.total)


@dataclass(frozen=True)
class StrategyComparison:
    loss1: float
    loss2: float

    @property
    def relation(self) -> str:
        first = self.loss1 <= self.loss2 + 1e-9
        if first and self.loss2 <= self.loss1 + 1e-9:
            return "equal"
        return "u1 more secure" if first else "u2 more secure"


def compare_strategies(
    net: Network,
    u1: SecurityStrategy | np.ndarray | None,
    u2: SecurityStrategy | np.ndarray | None,
    M: int,
    params: CostParams,
    model: ModelTag,
) -> StrategyComparison:
    """Solve both sub-games and order the strategies by induced loss; each
    side is one 0/1 security vector (None secures nothing), not rows of them."""
    u1, u2 = (check_vectors(net, u.u if isinstance(u, SecurityStrategy) else u, name)
              for u, name in ((u1, "u1"), (u2, "u2")))
    l1, l2 = (solve_ad(net, u, M, params, model).loss.total for u in (u1, u2))
    return StrategyComparison(loss1=l1, loss2=l2)
