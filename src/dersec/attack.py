"""Attacker-side computations: optimal false set-points, voltage-impact
algebra, pivot-node greedy attacks, and their families (the candidate optimal
attack sets).

Compromising a DER moves its set-point from the defender's value to the
worst-case false set-point 0 - j*cap, which lowers the squared voltage at a
pivot node i by 2*Re(conj(Z_ij) * (sp_d_j + j*cap_j)) in the linear models;
everything here is built on that formula.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

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


class PivotFamily(NamedTuple):
    """The attack vectors that take every node of ``taken`` and ``fill`` nodes
    of the ``boundary`` partition (sorted node ids). An empty boundary makes a
    single vector, ``taken``."""

    taken: tuple[int, ...]
    boundary: tuple[int, ...] = ()
    fill: int = 0

    def first(self) -> tuple[int, ...]:
        """The least member in sorted order: the fill takes the lowest ids."""
        return tuple(sorted(self.taken + self.boundary[: self.fill]))

    def rank(self) -> tuple:
        """Sort key of families: the least member's size, then the least
        member (vectors sort by size first, then as tuples)."""
        first = self.first()
        return len(first), first, self

    def members(self) -> Iterator[tuple[int, ...]]:
        """Every member as a sorted tuple, in sorted order."""
        for combo in itertools.combinations(self.boundary, self.fill):
            yield tuple(sorted(self.taken + combo))

    def holds(self, vector: tuple[int, ...]) -> bool:
        """Whether ``vector`` (distinct node ids) is a member."""
        rest = set(vector).difference(self.taken)
        return len(rest) == self.fill == len(vector) - len(self.taken) and rest <= set(self.boundary)

    def split(self, node: int) -> tuple[PivotFamily, PivotFamily]:
        """The members that take boundary ``node`` and those that do not; a
        fill of none or all of the rest of the boundary is a single vector."""
        rest = tuple(j for j in self.boundary if j != node)

        def family(taken: tuple[int, ...], fill: int) -> PivotFamily:
            if fill in (0, len(rest)):
                return PivotFamily(tuple(sorted(taken + rest[:fill])))
            return PivotFamily(tuple(sorted(taken)), rest, fill)

        return family((*self.taken, node), self.fill - 1), family(self.taken, self.fill)


def _partition_walks(D: np.ndarray, pool: np.ndarray, budget: int) -> list[PivotFamily]:
    """The greedy walk of every row of ``D`` (the impacts at one pivot) over
    ``pool``: whole equal-impact partitions in decreasing order while they fit
    in ``budget``, then the boundary partition that no longer fits.

    Nodes sort by decreasing impact, ties to the lower id; a partition runs
    while impacts stay within 1e-15 + 1e-9 relative of its first one.
    """
    if pool.size == 0 or budget <= 0:
        return [PivotFamily(())] * len(D)
    if budget >= pool.size:
        return [PivotFamily(tuple(pool.tolist()))] * len(D)
    vals = D[:, pool]
    order = np.lexsort((np.broadcast_to(pool, vals.shape), -vals))
    walks = []
    for nodes, d in zip(pool[order].tolist(), np.take_along_axis(vals, order, axis=1).tolist()):
        start = 0               # where the partition of the first node past the budget starts
        for t in range(1, budget + 1):
            if abs(d[start] - d[t]) > 1e-15 + _TIE_RTOL * abs(d[t]):
                start = t
        if start == budget:
            walks.append(PivotFamily(tuple(sorted(nodes[:budget]))))
            continue
        end = budget + 1
        while end < len(nodes) and abs(d[start] - d[end]) <= 1e-15 + _TIE_RTOL * abs(d[end]):
            end += 1
        boundary = tuple(sorted(nodes[start:end]))
        walks.append(PivotFamily(tuple(sorted(nodes[:start])), boundary, budget - start))
    return walks


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
    (walk,) = _partition_walks(D[None, :], pool, min(M, pool.size))
    delta = np.zeros(net.n + 1, dtype=int)
    if rng is None:
        delta[list(walk.first())] = 1
    else:
        delta[list(walk.taken)] = 1
        if walk.boundary:
            delta[rng.choice(walk.boundary, size=walk.fill, replace=False)] = 1
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
    for pivot, walk in zip(net.nodes, _partition_walks(D[1:], pool, budget)):
        nodes = list(walk.first())
        impact = float(D[pivot, nodes].sum())
        score = W[pivot] * (net.nu_lo[pivot] - (base.nu[pivot] - impact))
        if score > best_score + 1e-15:
            best_score = score
            best_nodes = nodes
    best_delta = np.zeros(net.n + 1, dtype=int)
    best_delta[best_nodes] = 1
    return best_delta


def pivot_families(
    net: Network,
    impacts: np.ndarray,
    M: int,
    u: np.ndarray,
) -> tuple[PivotFamily, ...]:
    """The pivot-node greedy attacks of every pivot for a linear-model
    response, one family per distinct walk, ordered by least member.

    ``impacts`` is the LPF ``impact_matrix`` of the response's set-points;
    eps-LPF scales every impact by the same 1 + eps, so the LPF families serve
    both linear models. Each pivot's walk takes whole equal-impact partitions
    while they fit the budget; its boundary partition and the budget it leaves
    make the family.
    """
    pool = _vulnerable_nodes(net, u)
    families = set(_partition_walks(impacts[1:], pool, min(M, pool.size)))
    return tuple(sorted(families, key=PivotFamily.rank))


def candidate_attack_set(
    net: Network,
    sp_d: np.ndarray,
    M: int,
    u: np.ndarray,
) -> tuple[tuple[int, ...], ...]:
    """Candidate optimal attack vectors for a fixed linear-model response:
    the members of the ``pivot_families``, each a sorted tuple of attacked
    nodes, in sorted order.

    This is the paper's structure result written out; the engines bound the
    families instead. The boundary partition can make the union
    combinatorial; the expansion raises EnumerationCapExceeded as soon as it
    holds more than 10,000 distinct vectors.
    """
    vectors: set[tuple[int, ...]] = set()
    for family in pivot_families(net, impact_matrix(net, sp_d, LPF), M, u):
        for vector in family.members():
            vectors.add(vector)
            if len(vectors) > _CANDIDATE_CAP:
                raise EnumerationCapExceeded(f"candidate set exceeds cap {_CANDIDATE_CAP}")
    return tuple(sorted(vectors))
