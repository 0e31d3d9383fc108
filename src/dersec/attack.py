"""Attacker-side computations: optimal false set-points, voltage-impact
algebra, pivot-node greedy attacks, and candidate optimal attack sets.

Compromising a DER moves its set-point from the defender's value to the
worst-case false set-point 0 - j*cap, which lowers the squared voltage at a
pivot node i by 2*Re(conj(Z_ij) * (sp_d_j + j*cap_j)) in the linear models;
everything here is built on that formula.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationCapExceeded, RootArgument
from .network import Network
from .powerflow import LPF, ModelTag, injection, solve_lpf

_TIE_RTOL = 1e-9
_CANDIDATE_CAP = 10_000


@dataclass(frozen=True)
class AttackStrategy:
    """Attack vector and false set-points (meaningful where delta = 1)."""

    delta: np.ndarray
    sp_a: np.ndarray

    @property
    def size(self) -> int:
        return int(self.delta.sum())


def attack_strategy(net: Network, delta: np.ndarray) -> AttackStrategy:
    """AttackStrategy carrying the worst-case false set-points for a given
    vector: zero real power, full reactive withdrawal."""
    delta = np.asarray(delta)
    sp_a = np.zeros(net.n + 1, dtype=complex)
    idx = np.flatnonzero(delta)
    sp_a[idx] = -1j * net.der_cap[idx]
    return AttackStrategy(delta=delta.astype(int), sp_a=sp_a)


def effective_setpoints(
    net: Network,
    u: np.ndarray,
    delta: np.ndarray,
    sp_d: np.ndarray,
    sp_a: np.ndarray | None = None,
) -> np.ndarray:
    """Generation per node under the adversary model: a DER follows the false
    set-point iff it is targeted and not secured; otherwise the defender's."""
    if sp_a is None:
        sp_a = -1j * net.der_cap.astype(complex)
    compromised = (np.asarray(delta) == 1) & (np.asarray(u) == 0)
    sg = np.where(compromised, sp_a, np.asarray(sp_d, dtype=complex))
    sg = np.where(net.der_cap > 0.0, sg, 0.0 + 0.0j)
    sg[0] = 0.0
    return sg


def voltage_impact(
    net: Network,
    pivot: int,
    j: int,
    sp_d_j: complex,
    cap_j: float,
    model: ModelTag,
) -> float:
    """Squared-voltage drop at the pivot caused by compromising the DER at j."""
    if pivot == 0 or j == 0:
        raise RootArgument("voltage impact is defined for non-substation nodes")
    base = 2.0 * float(np.real(np.conj(net.Z[pivot, j]) * (sp_d_j + 1j * cap_j)))
    return model.load_scale * base


def impact_matrix(net: Network, sp_d: np.ndarray, model: ModelTag) -> np.ndarray:
    """D[i, j] = drop of nu_i when the DER at j is compromised (0 where no DER)."""
    w = np.asarray(sp_d, dtype=complex) + 1j * net.der_cap
    w = np.where(net.der_cap > 0.0, w, 0.0)
    w[0] = 0.0
    D = 2.0 * (np.real(net.Z) * np.real(w)[None, :] + np.imag(net.Z) * np.imag(w)[None, :])
    return model.load_scale * D


@dataclass(frozen=True)
class PivotAttack:
    """Greedy attack maximizing the voltage drop at one pivot node."""

    pivot: int
    delta: np.ndarray
    impact: float


def _vulnerable_nodes(net: Network, u: np.ndarray) -> np.ndarray:
    return np.flatnonzero((net.der_cap > 0.0) & (np.asarray(u) == 0))


def _impact_partitions(
    deltas: np.ndarray, nodes: np.ndarray
) -> list[list[int]]:
    """Group nodes into maximal equal-impact partitions, in decreasing order."""
    d = deltas.tolist()
    order = sorted((int(j) for j in nodes), key=lambda j: (-d[j], j))
    groups: list[list[int]] = []
    for j in order:
        if groups and abs(d[groups[-1][0]] - d[j]) <= 1e-15 + _TIE_RTOL * abs(d[j]):
            groups[-1].append(j)
        else:
            groups.append([j])
    return groups


def _partition_walk(
    row: np.ndarray, pool: np.ndarray, budget: int
) -> tuple[list[int], tuple[int, ...], int]:
    """Take whole equal-impact partitions of ``row`` over ``pool`` in decreasing
    order while they fit in ``budget``.

    Returns the taken nodes, the boundary partition that no longer fits
    (sorted; empty when the budget is used up exactly) and how many of its
    nodes fill the rest of the budget.
    """
    taken: list[int] = []
    for g in _impact_partitions(row, pool):
        if budget <= 0:
            break
        if budget < len(g):
            return taken, tuple(sorted(g)), budget
        taken.extend(g)
        budget -= len(g)
    return taken, (), 0


def pivot_optimal_attack(
    net: Network,
    pivot: int,
    sp_d: np.ndarray,
    M: int,
    u: np.ndarray,
    rng: np.random.Generator | None = None,
) -> PivotAttack:
    """Take whole equal-impact partitions in decreasing order until the budget
    cut, then fill from the boundary partition deterministically (lowest id),
    or uniformly at random when ``rng`` is given; either completion has the
    same impact at the pivot (LPF impacts)."""
    if pivot == 0:
        raise RootArgument("pivot must be a non-substation node")
    pool = _vulnerable_nodes(net, u)
    D = impact_matrix(net, sp_d, LPF)[pivot]
    taken, boundary, fill = _partition_walk(D, pool, min(M, pool.size))
    if rng is None:
        taken.extend(boundary[:fill])
    elif boundary:
        taken.extend(rng.choice(boundary, size=fill, replace=False))
    delta = np.zeros(net.n + 1, dtype=int)
    delta[taken] = 1
    return PivotAttack(
        pivot=pivot,
        delta=delta,
        impact=float(D[np.flatnonzero(delta)].sum()),
    )


def optimal_attack_fixed_response(
    net: Network,
    phi,
    M: int,
    u: np.ndarray,
    W: np.ndarray | None = None,
) -> np.ndarray:
    """Optimal attack vector against a fixed defender response.

    Evaluates every node as pivot, applies its greedy pivot attack to the
    no-attack LPF state, and returns the attack of the pivot with the
    largest weighted soft-bound violation (ties to the lowest pivot id).
    ``W`` defaults to the network's violation weights.
    """
    if W is None:
        W = net.W
    sg0 = effective_setpoints(net, np.asarray(u), np.zeros(net.n + 1, dtype=int), phi.sp_d)
    base = solve_lpf(net, injection(net, phi.gamma, sg0))

    pool = _vulnerable_nodes(net, u)
    budget = min(M, pool.size)
    D = impact_matrix(net, phi.sp_d, LPF)
    best_score = -np.inf
    best_nodes: list[int] = []
    for pivot in net.nodes:
        taken, boundary, fill = _partition_walk(D[pivot], pool, budget)
        nodes = sorted(taken + list(boundary[:fill]))
        impact = float(D[pivot, nodes].sum())
        score = W[pivot] * (net.nu_lo[pivot] - (base.nu[pivot] - impact))
        if score > best_score + 1e-15:
            best_score = score
            best_nodes = nodes
    best_delta = np.zeros(net.n + 1, dtype=int)
    best_delta[best_nodes] = 1
    return best_delta


def candidate_attack_set(
    net: Network,
    sp_d: np.ndarray,
    M: int,
    u: np.ndarray,
) -> tuple[tuple[int, ...], ...]:
    """Candidate optimal attack vectors for a fixed linear-model response:
    the union over pivots of all budget completions of the boundary partition,
    each a sorted tuple of attacked nodes, in sorted order.

    eps-LPF scales every impact by the same factor 1 + eps, so the LPF
    impacts give the set for both linear models. The boundary partition can
    make the union combinatorial; the enumeration raises
    EnumerationCapExceeded as soon as it holds more than 10,000 distinct
    vectors.
    """
    pool = _vulnerable_nodes(net, u)
    if M <= 0 or pool.size == 0:
        return ((),)

    D = impact_matrix(net, sp_d, LPF)
    budget = min(M, pool.size)
    vectors: set[tuple[int, ...]] = set()
    for pivot in net.nodes:
        taken, boundary, fill = _partition_walk(D[pivot], pool, budget)
        taken = tuple(taken)
        for combo in itertools.combinations(boundary, fill):
            vectors.add(tuple(sorted(taken + combo)))
            if len(vectors) > _CANDIDATE_CAP:
                raise EnumerationCapExceeded(
                    f"candidate set exceeds cap {_CANDIDATE_CAP} (at pivot {pivot})"
                )
    return tuple(sorted(vectors))
