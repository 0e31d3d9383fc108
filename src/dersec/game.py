"""Attacker-defender sub-game engines and sandwich-bound certification.

The exact linear engines share one pooled best-first branch-and-bound over
attack families: the one-shot engine (identical-r/x networks, closed-form
set-points, pivot families bounded without listing their vectors,
load-control LP) and the exhaustive engine (any network, every full-budget
attack vector as a single-vector family, joint set-point/load-control LP), for
one security vector or the Stage-1 min-max over rows of them. The iterative
engine alternates the LPF greedy attack with the exact nonlinear response and
keeps the best incumbent; a repeated attack vector certifies convergence.
``solve_ad`` picks the engine and seeds the NPF greedy with the LPF attack.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .attack import (
    PivotFamily,
    impact_matrix,
    impact_ranking,
    optimal_attack_fixed_response,
    ranked_families,
)
from .errors import EnumerationCapExceeded
from .loss import CostParams, LossBreakdown, evaluate_loss, line_loss_cap
from .network import Network, check_budget, check_vectors, node_vector, vulnerable_nodes
from .powerflow import LPF, ModelTag, NPF, calibrate_epsilon, eps_lpf
from .response import (
    DefenderResponse,
    GammaControlLP,
    fixed_angle_setpoints,
    optimal_response,
    polygon_setpoints,
    response_state,
)

_BOUND_SLACK = 1e-9
_EXHAUSTIVE_CAP = 200_000
_TABLE_CAP = 5_000_000          # attack families summed over the security rows drawn
_ITERATIVE_MAX_ITER = 20
_NONLINEAR_U = "u of a nonlinear solve"      # rows of security vectors are for linear models


@dataclass(frozen=True)
class TraceEntry:
    delta: tuple[int, ...]       # attacked node ids
    loss: float


@dataclass(frozen=True, eq=False)
class ADResult:
    """Sub-game solution with one trace entry per evaluated attack.

    In the exact linear engines the trace holds one entry per attack family
    of the winning row ``u``, in the order of their least members: the
    family's least member in sorted order and the family's final pooled
    bound. The bound is exact for a single vector whose own response was
    solved, and for a family whose every member loses 0; otherwise it is an
    upper bound on every member's loss, not above ``loss.total``. Every
    vector the engine solved is its own family. The exhaustive engine's
    families are its single vectors, so its trace lists every full-budget
    vector. Pooled values use closed-form voltages and ``loss`` the
    power-flow state; they agree up to rounding, so on exact ties the
    returned maximiser may differ from the one a loop over exact per-vector
    losses would keep. The iterative engine lists each attack it responded
    to, with that response's loss, from its start attack on: the seed, else
    the empty attack.
    """

    delta_star: np.ndarray       # the attack vector
    phi_star: DefenderResponse
    loss: LossBreakdown
    model: ModelTag
    trace: tuple[TraceEntry, ...]
    converged: bool
    u: np.ndarray                # the security vector the result belongs to
    iterations: int = 0

    @property
    def psi_star(self) -> np.ndarray:
        """``delta_star``, under the name ``bench/workloads.py`` reads."""
        return self.delta_star


class _Seeded(NamedTuple):
    """A ``_FamilyTable``'s families and the arrays of them that read the
    seed alone: their taken rows, wide flags and seed intercepts."""

    fams: tuple[PivotFamily, ...]
    taken: np.ndarray
    wide: np.ndarray
    seed_c0: np.ndarray


class _FamilyTable:
    """Attack families with their bounds over a pool of linear responses.

    A family's worst member at node i drops the voltage by the impacts of its
    taken nodes plus its ``fill`` largest boundary impacts there. The loss at
    those per-node worst voltages (``nu(no attack) - drop``) is therefore the
    family's largest member loss under a response, and the least of it over
    the pool is the family's bound. Every pooled response is feasible for
    every vector, so a bound is never below a member's exact loss, and a bound
    of 0 is exact, since no loss is negative. The pool starts at the seed
    (``lp.sp_d``, gamma = 1) with model impacts ``seed_D`` on nodes 1..N; its
    no-attack voltages read the network, the set-points and the load scale
    alone, and are kept on the network under those. Families enter through
    ``add`` alone, numbered in first-seen order, or come with ``start``: a
    table's ``seeded`` parts, which read the seed alone, so only their bounds
    under the seed are computed.

    The per-family arrays ``taken``, ``wide``, ``seed_c0``, ``bound``,
    ``exact`` and ``arg`` are views of the filled rows of buffers that grow in
    place, doubling when full: ``add`` computes only the new rows, and
    ``settle`` updates the bounds in place.
    """

    def __init__(self, lp: GammaControlLP, seed_D: np.ndarray, start: _Seeded | None = None):
        net = lp.net
        self.lp = lp
        self.W = lp.params.W[1:]
        self.nu_lo = net.nu_lo[1:]
        self.voll_rate = lp.params.C[1:] * net.sc_nom.real[1:]
        self.seed_D = seed_D
        self.seed_nu = net.derived(("no_attack_nu", lp.sp_d.tobytes(), lp.model.load_scale),
                                   lambda: lp.nu_intercept(node_vector(net)))
        self.pool = [DefenderResponse(sp_d=lp.sp_d, gamma=np.ones(net.n + 1))]
        self.fams: list[PivotFamily] = []
        self.index: dict[PivotFamily, int] = {}          # family -> its index in fams
        self.solved: dict[tuple[int, ...], DefenderResponse] = {}
        # 64 rows, so that a one-shot row and its few solved vectors fit at once
        self._buffers = [
            np.zeros((64, net.n + 1)),                   # taken
            np.zeros(64, dtype=bool),                    # wide: families of more than one vector
            np.zeros((64, net.n)),                       # seed_c0
            np.zeros(64),                                # bound
            np.zeros(64, dtype=bool),                    # exact
            np.zeros(64, dtype=np.intp),                 # arg: pool response that sets each bound
        ]
        self._fill(0)
        if start is not None:
            self.fams = list(start.fams)
            self.index = dict(zip(start.fams, range(len(start.fams))))
            self._fill(len(self.fams))
            self.taken[:], self.wide[:], self.seed_c0[:] = start.taken, start.wide, start.seed_c0
            self.bound[:] = self.value(self.pool[0])
            self.exact[:] = self.bound <= 0.0

    def seeded(self) -> _Seeded:
        """The families and their parts that read the seed alone, copied out
        of the buffers."""
        return _Seeded(tuple(self.fams), self.taken.copy(), self.wide.copy(), self.seed_c0.copy())

    def _fill(self, size: int) -> None:
        """Point the per-family arrays at the first ``size`` rows of their
        buffers, doubling the buffers first if they hold fewer."""
        cap = len(self._buffers[0])
        if size > cap:
            for i, buf in enumerate(self._buffers):
                grown = np.zeros((max(size, 2 * cap), *buf.shape[1:]), dtype=buf.dtype)
                grown[:cap] = buf
                self._buffers[i] = grown
        self.taken, self.wide, self.seed_c0, self.bound, self.exact, self.arg = (
            buf[:size] for buf in self._buffers)

    def _seed(self, sp_d: np.ndarray) -> bool:
        """Whether ``sp_d`` are the seed's set-points (in the one-shot engine
        every response's are the seed's own array)."""
        return sp_d is self.lp.sp_d or np.array_equal(sp_d, self.lp.sp_d)

    def impacts(self, sp_d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Model impacts on nodes 1..N and the voltages at gamma = 0 with no
        attack, under ``sp_d`` (the seed's are kept)."""
        lp = self.lp
        if self._seed(sp_d):
            return self.seed_D, self.seed_nu
        return impact_matrix(lp.net, sp_d, lp.model)[1:], lp.nu_intercept(node_vector(lp.net), sp_d=sp_d)

    def intercept(self, sp_d: np.ndarray, ks=slice(None)) -> np.ndarray:
        """Voltages at gamma = 0 under ``sp_d`` at the per-node worst members
        of the families ``ks``."""
        D, nu = self.impacts(sp_d)
        drop = self.taken[ks] @ D.T
        rows = np.arange(len(self.fams))[ks]
        wide = self.wide[rows].nonzero()[0]
        if wide.size:
            # per node, the boundary impacts in decreasing order and their
            # running sums; a last column of +inf pads the shorter boundaries
            fams = [self.fams[k] for k in rows[wide].tolist()]
            size = np.array([len(f.boundary) for f in fams])
            index = np.full((wide.size, size.max()), D.shape[1])
            index[np.arange(size.max()) < size[:, None]] = list(
                itertools.chain.from_iterable(f.boundary for f in fams))
            padded = np.concatenate([-D, np.full((D.shape[0], 1), np.inf)], axis=1)
            ranked = padded[:, index].transpose(1, 0, 2)
            ranked.sort(axis=2)
            fill = np.array([f.fill for f in fams])
            drop[wide] += (-ranked).cumsum(axis=2)[np.arange(wide.size), :, fill - 1]
        return nu - drop

    def voltages(self, phi: DefenderResponse, ks=slice(None)) -> np.ndarray:
        # the seed's intercept serves every response that keeps its set-points
        c0 = self.seed_c0[ks] if self._seed(phi.sp_d) else self.intercept(phi.sp_d, ks)
        return c0 - self.lp.G @ phi.gamma[1 + self.lp.loaded]

    def value(self, phi: DefenderResponse, ks=slice(None)) -> np.ndarray:
        """The largest member loss of each family ``ks`` under ``phi``."""
        lovr = (self.W * np.maximum(self.nu_lo - self.voltages(phi, ks), 0.0)).max(axis=1)
        return lovr + float((self.voll_rate * (1.0 - phi.gamma[1:])).sum())

    def add(self, families: Iterable[PivotFamily]) -> list[int]:
        """Table indices of ``families``. The new ones are numbered in
        first-seen order and appended, with their bounds over the whole pool."""
        index, start = self.index, len(self.fams)
        indices = [index.setdefault(f, len(index)) for f in families]
        # the families just numbered, in first-seen order
        new = list(itertools.islice(reversed(index), len(index) - start))[::-1]
        if not new:
            return indices
        ks = slice(start, None)
        self.fams += new
        self._fill(len(self.fams))
        rows = np.arange(start, len(self.fams)).repeat([len(f.taken) for f in new])
        self.taken[rows, list(itertools.chain.from_iterable(f.taken for f in new))] = 1.0
        self.wide[ks] = [bool(f.boundary) for f in new]
        self.seed_c0[ks] = self.intercept(self.lp.sp_d, ks)
        values = np.array([self.value(phi, ks) for phi in self.pool])
        self.bound[ks] = values.min(axis=0)
        self.exact[ks] = self.bound[ks] <= 0.0
        self.arg[ks] = values.argmin(axis=0)
        return indices

    def settle(self, k: int, phi: DefenderResponse) -> None:
        """Pool ``phi``, the own response of single-vector family ``k``,
        tighten every bound, and mark ``k`` and every zero bound exact."""
        self.solved[self.fams[k].taken] = phi
        self.pool.append(phi)
        v = self.value(phi)
        self.arg[v < self.bound] = len(self.pool) - 1
        np.minimum(self.bound, v, out=self.bound)
        self.exact |= self.bound <= 0.0
        self.exact[k] = True

    def attaining(self, k: int) -> tuple[int, ...]:
        """The least member of family ``k`` whose loss under the response
        that sets the family's bound equals that bound: its taken nodes and
        the ``fill`` largest boundary impacts (ties to the lower id) at a node
        that attains it."""
        f = self.fams[k]
        if not self.wide[k]:
            return f.taken
        phi = self.pool[self.arg[k]]
        terms = self.W * np.maximum(self.nu_lo - self.voltages(phi, [k])[0], 0.0)
        if (peak := terms.max()) <= 0.0:
            return f.first()
        D = self.impacts(phi.sp_d)[0][(terms == peak).nonzero()[0]]
        fills = impact_ranking(D, np.array(f.boundary)).nodes[:, : f.fill]
        return min(tuple(sorted(f.taken + tuple(fill))) for fill in fills.tolist())


def _pooled_best_first(
    lp: GammaControlLP,
    seed_D: np.ndarray,
    secured: np.ndarray,
    row_families: Iterable[Sequence[PivotFamily]],
    respond: Callable[[np.ndarray], DefenderResponse],
    start: _Seeded | None = None,
) -> ADResult:
    """Min over the rows u of ``secured`` of the exact linear sub-game maximum
    over each row's own attack families, by best-first branch-and-bound.
    ``seed_D`` holds the seed's model impacts (``_FamilyTable``), and
    ``start``, when given, the first row's families as a seeded table.

    No response reads u; each row's attacks skip its secured DERs, so one
    ``_FamilyTable`` serves every row. Every family enters it through its
    ``add`` or ``start``: the first row's alone, the other rows' in one batch
    only if the seed leaves a family of the first row above 0, since a first
    row that loses 0 wins outright, and then each solved vector and each
    split's children. Each round takes the row whose lower bound, its
    largest exact loss or 0 while it has none (no loss is negative), is
    smallest and its open family with the largest bound, and that family's
    attaining member (the least in sorted order). Ties in a row's lower
    bound or a family's bound go to the first row or family only when the
    computed floats are equal; values a few ulps apart are not ties, so the
    last bits of the LPs can pick between two rows or vectors whose exact
    values agree. If the member's own bound is still open, its
    response is solved through ``respond`` and joins the pool, and the
    vector joins every row that holds it as an exact single-vector family.
    If the member is exact, or its own bound is closed, the open family is
    split on a boundary node of that member instead. The row wins once none
    of its open bounds exceeds its largest exact loss (equal floats to its
    first vector), with the winner's own response if solved, else the pooled
    response that sets its bound (a zero bound may be another vector's).
    Rows count toward the cap as they are drawn: raises
    EnumerationCapExceeded once the drawn rows hold over 5,000,000 families.
    """
    members: list[np.ndarray] = []
    cells = 0
    rows = iter(row_families)
    table = _FamilyTable(lp, seed_D, start)
    for batch in (itertools.islice(rows, 1), rows):
        drawn = []
        for families in batch:
            drawn.append(families)
            if (cells := cells + len(families)) > _TABLE_CAP:
                raise EnumerationCapExceeded(f"security rows hold over {_TABLE_CAP} attack families")
        ks = iter(table.add(itertools.chain.from_iterable(drawn)))
        members += [np.fromiter(ks, dtype=np.intp, count=len(families)) for families in drawn]
        if table.exact[members[0]].all():
            break
    fams = table.fams

    def put(r: int, new: list[int], drop: int = -1) -> None:
        """Put families ``new`` in row ``r`` in place of ``drop``, in order."""
        row = set(members[r].tolist()).union(new).difference([drop])
        members[r] = np.array(sorted(row, key=lambda k: fams[k].rank()), dtype=np.intp)

    while True:
        flat = np.concatenate(members)
        starts = np.array([0] + [m.size for m in members[:-1]]).cumsum()
        exact, bound = table.exact, table.bound
        top = np.maximum.reduceat(np.where(exact[flat], bound[flat], 0.0), starts)
        u_row = int(top.argmin())
        mine = members[u_row]
        open_bound = np.where(exact[mine], -np.inf, bound[mine])
        peak = open_bound.max()
        if peak <= top[u_row]:
            break
        # the least attaining member of the tied families; a family's least
        # member comes first in row order and bounds its attaining one
        pick: tuple | None = None
        for k in mine[open_bound == peak].tolist():
            if pick and pick[0] <= fams[k].first():
                break
            vector = table.attaining(k)
            if not pick or vector < pick[0]:
                pick = (vector, k)
        if pick is None:
            raise ValueError(f"security row {u_row}: an attack family's bound is not a number")
        vector, k = pick
        (single,) = table.add([PivotFamily(vector)])
        # a member whose own bound is closed, or exact, is not worth an LP
        if not table.exact[single] and table.bound[single] > top[u_row]:
            table.settle(single, respond(node_vector(lp.net, vector)))
            # every row that holds the vector in a family now holds it exact
            holders = {j for j in table.wide.nonzero()[0].tolist() if fams[j].holds(vector)}
            if holders:
                for r, row in enumerate(members):
                    if single not in row and holders.intersection(row.tolist()):
                        put(r, [single])
            continue
        children = table.add(list(fams[k].split(min(set(vector).difference(fams[k].taken)))))
        for r, row in enumerate(members):
            if k in row:
                put(r, children, drop=k)

    k_best = int(mine[np.where(exact[mine], bound[mine], -np.inf).argmax()])
    best = fams[k_best].first()
    phi_star = table.solved.get(best, table.pool[table.arg[k_best]])
    delta_star = node_vector(lp.net, best)
    state = response_state(lp.net, delta_star, phi_star, lp.model)
    return ADResult(
        delta_star=delta_star,
        phi_star=phi_star,
        loss=evaluate_loss(state, phi_star.gamma, lp.params),
        model=lp.model,
        trace=tuple(TraceEntry(fams[k].first(), b) for k, b in zip(mine.tolist(), bound[mine].tolist())),
        converged=True,
        u=secured[u_row].copy(),
        iterations=1,
    )


def solve_ad_oneshot(
    net: Network,
    u: np.ndarray | None,
    M: int,
    params: CostParams,
    model: ModelTag,
) -> ADResult:
    """Exact linear sub-game solve for identical-r/x networks.

    Set-points are fixed in closed form, so pooled responses differ only in
    the load-control vector gamma; a vector's exact response is its LP. Each
    row's attacks are its ``ranked_families``, at most one per pivot, read
    from one ranking of every DER by LPF impact at each pivot. Every solve
    computes the impact matrix, which also seeds the bounds; it is that of
    the network's own set-points, so the ranking, per M the families of a
    row that secures nothing, and per M and load scale their seeded table
    (``_Seeded``: taken rows, wide flags and seed intercepts) are kept on
    the network. A first row that secures nothing starts from a copy of
    that table, and a solve computes only its bounds under its own weights.
    Rows that secure a node are ranked per solve: Stage 1 draws up to
    millions of them. Families are bounded as families, so no candidate
    vector is listed and no candidate cap applies. A 2-D ``u`` holds rows
    of alternative security vectors; the result is the least row's
    (``_pooled_best_first``).
    """
    if not model.is_linear:
        raise ValueError("one-shot engine applies to linear models only")
    check_budget("M", M)
    secured = check_vectors(net, u, "u", rows=True)
    sp_d = fixed_angle_setpoints(net)
    lp = GammaControlLP(net, params, model, sp_d)
    D = impact_matrix(net, sp_d, LPF)[1:]
    ranking = net.derived("impact_ranking", lambda: impact_ranking(D, net.der_nodes))
    # the model's impacts are the LPF ones scaled by its load scale, as
    # impact_matrix scales them
    seed_D = model.load_scale * D

    def unsecured() -> _Seeded:
        def build() -> _Seeded:
            table = _FamilyTable(lp, seed_D)
            table.add(net.derived(("unsecured_families", M),
                                  lambda: ranked_families(ranking, M, node_vector(net))))
            return table.seeded()

        return net.derived(("unsecured_table", M, model.load_scale), build)

    rows = (ranked_families(ranking, M, row) if row.any() else unsecured().fams for row in secured)
    return _pooled_best_first(lp, seed_D, secured, rows, lambda d: DefenderResponse(sp_d, lp.solve(d)),
                              None if secured[0].any() else unsecured())


def solve_ad_exhaustive(
    net: Network,
    u: np.ndarray | None,
    M: int,
    params: CostParams,
    model: ModelTag,
) -> ADResult:
    """Exact linear sub-game on any network over every full-budget attack
    vector: each combination of min(M, pool) vulnerable DERs (the budget
    rule of ``attack``).

    A vector's exact response is the joint set-point/load-control LP of
    ``optimal_response``. The seed's set-points (full output at each DER's
    own-edge angle) are shrunk into that LP's inner facet polygon, so that no
    bound falls below a vector's LP value. Trace entries are pooled bounds.
    A tie in pooled value goes to the first full-budget vector in sorted
    order, which may differ from a per-vector loop's maximiser (see
    ``ADResult``). Rows of security vectors in ``u`` each range over the DERs
    they leave vulnerable; the result is the least row's. Raises
    EnumerationCapExceeded, before enumerating, above 200,000 vectors in a
    row or 5,000,000 in all.
    """
    if not model.is_linear:
        raise ValueError("exhaustive engine applies to linear models only")
    check_budget("M", M)
    secured = check_vectors(net, u, "u", rows=True)
    pools = [vulnerable_nodes(net, row).tolist() for row in secured]
    counts = [math.comb(len(p), min(M, len(p))) for p in pools]
    if max(counts) > _EXHAUSTIVE_CAP or sum(counts) > _TABLE_CAP:
        raise EnumerationCapExceeded(f"{max(counts)} vectors in a row or {sum(counts)} in all exceed cap")
    # rows share most vectors: build each vector's family once
    single: dict[tuple[int, ...], PivotFamily] = {}
    rows = (
        [single.get(c) or single.setdefault(c, PivotFamily(c))
         for c in itertools.combinations(p, min(M, len(p)))]
        for p in pools
    )
    lp = GammaControlLP(net, params, model, polygon_setpoints(net))
    return _pooled_best_first(lp, impact_matrix(net, lp.sp_d, model)[1:], secured, rows,
                              lambda delta: optimal_response(net, delta, params, model))


def solve_ad_iterative(
    net: Network,
    u: np.ndarray | None,
    M: int,
    params: CostParams,
    seed_attack: np.ndarray | None = None,
) -> ADResult:
    """Greedy alternation for the nonlinear sub-game, from one start attack:
    ``seed_attack`` (e.g. the linear one-shot solution), else the empty one.
    Each pass solves the exact convex-relaxed nonlinear response to the
    attack, keeps the best incumbent, and takes the LPF greedy attack of
    ``optimal_attack_fixed_response`` against that response. Terminates
    successfully on a repeated attack vector, and stops unconverged after 20
    attack steps. ``u`` is one security vector: rows of them are for the
    linear engines. A seed is a 0/1 vector over nodes 0..N, empty or taking
    exactly min(M, pool) DERs that ``u`` leaves vulnerable (else ValueError).
    """
    check_budget("M", M)
    u = check_vectors(net, u, _NONLINEAR_U)
    delta = check_vectors(net, seed_attack, "seed_attack").copy()     # the result owns its vector
    pool = vulnerable_nodes(net, u)
    full = min(M, pool.size)
    if delta.any() and (delta.sum() != full or not np.isin(delta.nonzero()[0], pool).all()):
        raise ValueError(f"seed_attack must be empty or take exactly {full} DERs, none that u secures")

    visited: set[tuple[int, ...]] = set()
    trace: list[TraceEntry] = []
    best: tuple | None = None
    converged = False
    for iterations in range(_ITERATIVE_MAX_ITER + 1):
        key = tuple(delta.nonzero()[0].tolist())
        if key in visited:
            converged = True
            break
        visited.add(key)
        phi = optimal_response(net, delta, params, NPF)
        loss = evaluate_loss(response_state(net, delta, phi, NPF), phi.gamma, params)
        trace.append(TraceEntry(delta=key, loss=loss.total))
        if best is None or loss.total > best[2].total:
            best = (delta, phi, loss)
        if iterations < _ITERATIVE_MAX_ITER:
            delta = optimal_attack_fixed_response(net, phi, M, u, params)

    delta_star, phi_star, loss_star = best
    return ADResult(
        delta_star=delta_star,
        phi_star=phi_star,
        loss=loss_star,
        model=NPF,
        trace=tuple(trace),
        converged=converged,
        u=u,
        iterations=iterations,
    )


def solve_ad(
    net: Network,
    u: np.ndarray | None,
    M: int,
    params: CostParams,
    model: ModelTag,
) -> ADResult:
    """The sub-game solve for ``model``: the exact one-shot engine on an
    identical-r/x network and the exact exhaustive engine on any other; for
    NPF the iterative engine from that LPF solve's attack, which raises
    EnumerationCapExceeded wherever the LPF solve does."""
    if not model.is_linear:
        u = check_vectors(net, u, _NONLINEAR_U)
        return solve_ad_iterative(net, u, M, params, seed_attack=solve_ad(net, u, M, params, LPF).delta_star)
    engine = solve_ad_oneshot if net.uniform_rx_ratio() is not None else solve_ad_exhaustive
    return engine(net, u, M, params, model)


@dataclass(frozen=True, eq=False)
class BoundsReport:
    l_lpf: float
    l_npf: float
    l_eps: float
    eps: float
    slack_term: float
    holds: bool
    results: dict = field(repr=False, default_factory=dict)


def sandwich_bounds(
    net: Network,
    u: np.ndarray | None,
    M: int,
    params: CostParams,
    eps: float | None = None,
) -> BoundsReport:
    """Certify lower/upper bracketing of the nonlinear sub-game value.

    Each model's value is its ``solve_ad`` result; the LPF result is solved
    once and seeds the NPF one, so every value equals ``solve_ad``'s.
    """
    u = check_vectors(net, u, _NONLINEAR_U)
    if eps is None:
        eps = calibrate_epsilon(net).eps
    lo, hi = (solve_ad(net, u, M, params, model) for model in (LPF, eps_lpf(eps)))
    mid = solve_ad_iterative(net, u, M, params, seed_attack=lo.delta_star)
    slack = line_loss_cap(net)
    holds = (
        lo.loss.total <= mid.loss.total + _BOUND_SLACK
        and mid.loss.total <= hi.loss.total + slack + _BOUND_SLACK
    )
    return BoundsReport(
        l_lpf=lo.loss.total,
        l_npf=mid.loss.total,
        l_eps=hi.loss.total,
        eps=eps,
        slack_term=slack,
        holds=holds,
        results={"lpf": lo, "npf": mid, "eps_lpf": hi},
    )
