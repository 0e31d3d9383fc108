"""Attacker-side computations: the generation an attack leaves, voltage-impact
algebra, pivot-node greedy attacks, and their families (the candidate optimal
attack sets).

An attack is its 0/1 vector delta over nodes 0..N: the set of compromised
DERs. Compromising a DER moves its set-point from the defender's value to the
worst-case false set-point 0 - j*cap, written once, in
``effective_setpoints``. That lowers the squared voltage at a pivot node i by
2*Re(conj(Z_ij) * (sp_d_j + j*cap_j)) in the linear models; everything here
is built on that formula.

The one budget rule: every attack takes exactly min(M, pool) vulnerable DERs.
Each impact is >= 0 under any feasible response: the common-path Z has
non-negative parts, and w = sp_d + j*cap has Re w = pg >= 0 and
Im w = qg + cap >= 0, since |sp_d| <= cap. So attacking one more DER never
raises a voltage, and a vector's exact loss never falls as the attacked set
grows.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EnumerationCapExceeded
from .loss import CostParams, check_weights
from .network import (Network, check_budget, check_node, check_shape, check_vectors, node_vector,
                      vulnerable_nodes)
from .powerflow import LPF, ModelTag, injection, solve_lpf

_TIE_RTOL = 1e-9
_CANDIDATE_CAP = 10_000


def effective_setpoints(
    net: Network,
    delta: np.ndarray,
    sp_d: np.ndarray,
    sp_a: np.ndarray | None = None,
) -> np.ndarray:
    """Generation per node under the adversary model: a DER follows the false
    set-point iff ``delta`` takes it; otherwise the defender's. The false
    set-point is the worst case 0 - j*cap (zero real power, full reactive
    withdrawal) unless ``sp_a`` gives others. Security is decided where the
    attack is drawn: attacks take only vulnerable DERs."""
    sp_a = -1j * net.der_cap.astype(complex) if sp_a is None else check_shape(net, sp_a, "sp_a")
    delta = check_shape(net, delta, "delta")
    sg = np.where(delta == 1, sp_a, check_shape(net, sp_d, "sp_d", complex))
    return np.where(net.der_cap > 0.0, sg, 0.0 + 0.0j)


def impact_matrix(net: Network, sp_d: np.ndarray, model: ModelTag) -> np.ndarray:
    """D[i, j] = drop of nu_i when the DER at j is compromised (0 where no DER)."""
    w = check_shape(net, sp_d, "sp_d", complex) + 1j * net.der_cap
    w = np.where(net.der_cap > 0.0, w, 0.0)
    D = 2.0 * (net.Z.real * w.real[None, :] + net.Z.imag * w.imag[None, :])
    return model.load_scale * D


@dataclass(frozen=True, eq=False)
class PivotAttack:
    """Greedy attack maximizing the voltage drop at one pivot node."""

    pivot: int
    delta: np.ndarray
    impact: float


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
        """Sort key of families: the least member, as a tuple (every member
        of a row's families has the same full-budget size)."""
        return self.first(), self

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


class ImpactRanking(NamedTuple):
    """Nodes of a pool by decreasing impact at each pivot, ties to the lower
    id (one row per pivot), and those impacts."""

    nodes: np.ndarray
    impacts: np.ndarray


def impact_ranking(D: np.ndarray, pool: np.ndarray) -> ImpactRanking:
    """The ranking of ``pool`` at every row of ``D`` (the impacts at one pivot)."""
    vals = D[:, pool]
    order = np.lexsort((pool[None, :].repeat(len(vals), axis=0), -vals))
    return ImpactRanking(pool[order], vals[np.arange(len(vals))[:, None], order])


def _partition_walks(ranking: ImpactRanking, budget: int) -> list[PivotFamily]:
    """The greedy walk of every pivot over its ranked nodes: whole
    equal-impact partitions in decreasing order while they fit in ``budget``,
    then the boundary partition that no longer fits.

    A partition runs while impacts stay within 1e-15 + 1e-9 relative of its
    first one.
    """
    if ranking.nodes.shape[1] == 0 or budget <= 0:
        return [PivotFamily(())] * len(ranking.nodes)
    if budget >= ranking.nodes.shape[1]:
        # every pivot ranks the same nodes
        return [PivotFamily(tuple(sorted(ranking.nodes[0].tolist())))] * len(ranking.nodes)
    walks = []
    for nodes, d in zip(ranking.nodes.tolist(), ranking.impacts.tolist()):
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
) -> PivotAttack:
    """Take whole equal-impact partitions in decreasing order until the budget
    cut, then fill from the boundary partition by lowest id; any other fill
    has the same impact at the pivot (LPF impacts)."""
    check_node(net, pivot, "pivot")
    check_budget("M", M)
    pool = vulnerable_nodes(net, check_vectors(net, u, "u"))
    D = impact_matrix(net, sp_d, LPF)[pivot]
    (walk,) = _partition_walks(impact_ranking(D[None, :], pool), min(M, pool.size))
    delta = node_vector(net, walk.first())
    return PivotAttack(
        pivot=pivot,
        delta=delta,
        impact=float(D[delta.nonzero()[0]].sum()),
    )


def optimal_attack_fixed_response(
    net: Network,
    phi,
    M: int,
    u: np.ndarray,
    params: CostParams,
) -> np.ndarray:
    """Optimal attack vector against a fixed defender response.

    Evaluates every node as pivot, applies its greedy pivot attack to the
    no-attack LPF state, and returns the attack of the pivot with the
    largest soft-bound violation weighted by ``params.W`` (ties to the
    lowest pivot id).
    """
    check_budget("M", M)
    check_weights(net, params)
    pool = vulnerable_nodes(net, check_vectors(net, u, "u"))
    sg0 = effective_setpoints(net, node_vector(net), phi.sp_d)
    base = solve_lpf(net, injection(net, phi.gamma, sg0))

    budget = min(M, pool.size)
    D = impact_matrix(net, phi.sp_d, LPF)
    best_score = -np.inf
    best_nodes: list[int] = []
    for pivot, walk in zip(net.nodes, _partition_walks(impact_ranking(D[1:], pool), budget)):
        nodes = list(walk.first())
        impact = float(D[pivot, nodes].sum())
        score = params.W[pivot] * (net.nu_lo[pivot] - (base.nu[pivot] - impact))
        if score > best_score + 1e-15:
            best_score = score
            best_nodes = nodes
    return node_vector(net, best_nodes)


def ranked_families(ranking: ImpactRanking, M: int, u: np.ndarray) -> tuple[PivotFamily, ...]:
    """The pivot-node greedy attacks of every pivot over the ranked nodes
    that ``u`` leaves vulnerable, one family per distinct walk, ordered by
    least member.

    The ranking is a total order, so dropping u's secured nodes from it
    leaves the ranking of the vulnerable pool alone: one ranking of every DER
    serves all the security rows of a solve.
    """
    keep = (np.asarray(u) == 0)[ranking.nodes]
    size = int(np.count_nonzero(keep[:1]))
    vulnerable = ImpactRanking(*(a[keep].reshape(len(keep), size) for a in ranking))
    return tuple(sorted(set(_partition_walks(vulnerable, min(M, size))), key=PivotFamily.rank))


def candidate_attack_set(
    net: Network,
    sp_d: np.ndarray,
    M: int,
    u: np.ndarray,
) -> tuple[tuple[int, ...], ...]:
    """Candidate optimal attack vectors for a fixed linear-model response:
    the members of the ``ranked_families`` of the LPF impacts of ``sp_d``,
    each a sorted tuple of attacked nodes, in sorted order.

    This is the paper's structure result written out; the engines bound the
    families instead. The boundary partition can make the union
    combinatorial; the expansion raises EnumerationCapExceeded as soon as it
    holds more than 10,000 distinct vectors.
    """
    check_budget("M", M)
    u = check_vectors(net, u, "u")
    vectors: set[tuple[int, ...]] = set()
    ranking = impact_ranking(impact_matrix(net, sp_d, LPF)[1:], vulnerable_nodes(net, u))
    for family in ranked_families(ranking, M, u):
        for vector in family.members():
            vectors.add(vector)
            if len(vectors) > _CANDIDATE_CAP:
                raise EnumerationCapExceeded(f"candidate set exceeds cap {_CANDIDATE_CAP}")
    return tuple(sorted(vectors))
