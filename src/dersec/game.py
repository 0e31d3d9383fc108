"""Attacker-defender sub-game engines and sandwich-bound certification.

The exact linear engines share one pooled best-first branch-and-bound over
attack families: the one-shot engine (identical-r/x networks, closed-form
set-points, pivot families bounded without listing their vectors,
load-control LP) and the exhaustive engine (any network, every attack vector
as a single-vector family, joint set-point/load-control LP), for one security
vector or the Stage-1 min-max over rows of them. The iterative engine
alternates the LPF greedy attack with the exact nonlinear response and keeps
the best incumbent; a repeated attack vector certifies convergence. ``solve_ad`` picks the engine
from the model and the network.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from .attack import (
    AttackStrategy,
    PivotFamily,
    attack_strategy,
    impact_matrix,
    optimal_attack_fixed_response,
    pivot_families,
)
from .errors import EnumerationCapExceeded
from .loss import CostParams, LossBreakdown, evaluate_loss, line_loss_cap
from .network import Network
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
_TABLE_CAP = 5_000_000          # attack families summed over security rows
_ITERATIVE_MAX_ITER = 20


@dataclass(frozen=True)
class TraceEntry:
    delta: tuple[int, ...]       # attacked node ids
    loss: float


@dataclass(frozen=True)
class ADResult:
    """Sub-game solution with one trace entry per evaluated attack.

    In the exact linear engines the trace holds one entry per attack family
    of the winning row ``u``, in the order of their least members: the
    family's least member in sorted order and the family's final pooled
    bound. The bound is exact for a single vector whose own response was
    solved, and for a family whose every member loses 0; otherwise it is an
    upper bound on every member's loss, not above ``loss.total``. Every
    vector the engine solved is its own family. The exhaustive engine's
    families are its single vectors, so its trace lists every vector. Pooled
    values use closed-form voltages and ``loss`` the power-flow state; they
    agree up to rounding, so on exact ties the returned maximiser may differ
    from the one a loop over exact per-vector losses would keep. The
    iterative engine lists each attack it responded to, with that response's
    loss.
    """

    delta_star: np.ndarray
    psi_star: AttackStrategy
    phi_star: DefenderResponse
    loss: LossBreakdown
    model: ModelTag
    trace: tuple[TraceEntry, ...]
    converged: bool
    u: np.ndarray                # the security vector the result belongs to
    iterations: int = 0


def _zero_u(net: Network, u: np.ndarray | None) -> np.ndarray:
    if u is None:
        return np.zeros(net.n + 1, dtype=int)
    return np.asarray(u, dtype=int)


class _FamilyTable:
    """Attack families with their bounds over a pool of linear responses.

    A family's worst member at node i drops the voltage by the impacts of its
    taken nodes plus its ``fill`` largest boundary impacts there. The loss at
    those per-node worst voltages (``nu(no attack) - drop``) is therefore the
    family's largest member loss under a response, and the least of it over
    the pool is the family's bound. Every pooled response is feasible for
    every vector, so a bound is never below a member's exact loss. The pool
    starts at the seed (``lp.sp_d``, gamma = 1), where a bound of 0 is exact.
    """

    def __init__(self, lp: GammaControlLP, index: dict[PivotFamily, int]):
        net = lp.net
        self.lp = lp
        self.W = lp.params.W[1:]
        self.nu_lo = net.nu_lo[1:]
        self.voll_rate = lp.params.C[1:] * np.real(net.sc_nom)[1:]
        self.seed = DefenderResponse(sp_d=lp.sp_d, gamma=np.ones(net.n + 1))
        self.seed_D = impact_matrix(net, lp.sp_d, lp.model)[1:, :]
        self.seed_nu = lp.nu_intercept(np.zeros(net.n + 1, dtype=int))
        self.pool = [self.seed]
        self.fams: list[PivotFamily] = []
        self.index = index                               # family -> row, in row order
        self.taken = np.zeros((0, net.n + 1))
        self.wide = np.zeros(0, dtype=bool)              # families of more than one vector
        self.seed_c0 = np.zeros((0, net.n))
        self.bound = np.zeros(0)
        self.exact = np.zeros(0, dtype=bool)
        self.arg = np.zeros(0, dtype=np.intp)            # pool response that sets each bound
        self.solved: dict[tuple[int, ...], DefenderResponse] = {}
        self._append(list(index))

    def impacts(self, sp_d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Model impacts on nodes 1..N and the voltages at gamma = 0 with no
        attack, under ``sp_d`` (the seed's are kept)."""
        if np.array_equal(sp_d, self.lp.sp_d):
            return self.seed_D, self.seed_nu
        lp = self.lp
        no_attack = np.zeros(lp.net.n + 1, dtype=int)
        return impact_matrix(lp.net, sp_d, lp.model)[1:, :], lp.nu_intercept(no_attack, sp_d=sp_d)

    def intercept(self, sp_d: np.ndarray, ks=slice(None)) -> np.ndarray:
        """Voltages at gamma = 0 under ``sp_d`` at the per-node worst members
        of the families ``ks``."""
        D, nu = self.impacts(sp_d)
        drop = self.taken[ks] @ D.T
        rows = np.arange(len(self.fams))[ks]
        wide = np.flatnonzero(self.wide[rows])
        if wide.size:
            # per node, the boundary impacts in decreasing order and their running sums
            boundary = np.zeros((wide.size, D.shape[1]), dtype=bool)
            fill = np.zeros(wide.size, dtype=np.intp)
            for r, k in enumerate(rows[wide]):
                boundary[r, list(self.fams[k].boundary)] = True
                fill[r] = self.fams[k].fill
            ranked = -np.sort(np.where(boundary[:, None, :], -D[None], np.inf), axis=2)
            drop[wide] += np.cumsum(ranked, axis=2)[np.arange(wide.size), :, fill - 1]
        return nu - drop

    def voltages(self, phi: DefenderResponse, ks=slice(None)) -> np.ndarray:
        # the seed's intercept serves every response that keeps its set-points
        same = np.array_equal(phi.sp_d, self.lp.sp_d)
        c0 = self.seed_c0[ks] if same else self.intercept(phi.sp_d, ks)
        return c0 - self.lp.G @ phi.gamma[1 + self.lp.loaded]

    def value(self, phi: DefenderResponse, ks=slice(None)) -> np.ndarray:
        """The largest member loss of each family ``ks`` under ``phi``."""
        lovr = np.max(self.W * np.maximum(self.nu_lo - self.voltages(phi, ks), 0.0), axis=1)
        return lovr + float(np.sum(self.voll_rate * (1.0 - phi.gamma[1:])))

    def add(self, families: list[PivotFamily]) -> list[int]:
        """Table indices of ``families``, appending the new ones."""
        new = [f for f in dict.fromkeys(families) if f not in self.index]
        self.index.update(zip(new, range(len(self.fams), len(self.fams) + len(new))))
        self._append(new)
        return [self.index[f] for f in families]

    def _append(self, new: list[PivotFamily]) -> None:
        """Append the rows of the indexed families ``new``, with their bounds
        over the whole pool."""
        if not new:
            return
        ks = slice(len(self.fams), None)
        self.fams += new
        taken = np.zeros((len(new), self.taken.shape[1]))
        rows = np.repeat(np.arange(len(new)), [len(f.taken) for f in new])
        taken[rows, list(itertools.chain.from_iterable(f.taken for f in new))] = 1.0
        self.taken = np.vstack([self.taken, taken])
        self.wide = np.append(self.wide, [bool(f.boundary) for f in new])
        self.seed_c0 = np.vstack([self.seed_c0, self.intercept(self.lp.sp_d, ks)])
        values = [self.value(phi, ks) for phi in self.pool]
        self.exact = np.append(self.exact, values[0] <= 0.0)
        self.bound = np.append(self.bound, np.min(values, axis=0))
        self.arg = np.append(self.arg, np.argmin(values, axis=0))

    def settle(self, k: int, phi: DefenderResponse) -> None:
        """Pool ``phi``, the own response of single-vector family ``k``,
        tighten every bound, and mark ``k`` exact."""
        self.solved[self.fams[k].taken] = phi
        self.pool.append(phi)
        v = self.value(phi)
        self.arg[v < self.bound] = len(self.pool) - 1
        self.bound = np.minimum(self.bound, v)
        self.exact[k] = True

    def attaining(self, k: int) -> tuple[int, ...]:
        """The least member of family ``k`` whose loss under the response
        that sets the family's bound equals that bound: its taken nodes and
        the ``fill`` largest boundary impacts (ties to the lower id) at a node
        that attains it."""
        f = self.fams[k]
        if not self.wide[k]:
            return f.taken
        if self.bound[k] <= 0.0:
            return f.first()
        phi = self.pool[self.arg[k]]
        terms = self.W * np.maximum(self.nu_lo - self.voltages(phi, [k])[0], 0.0)
        if terms.max() <= 0.0:
            return f.first()
        boundary = np.array(f.boundary)
        D = self.impacts(phi.sp_d)[0][np.flatnonzero(terms == terms.max())][:, boundary]
        fills = boundary[np.lexsort((np.broadcast_to(boundary, D.shape), -D))[:, : f.fill]]
        return min(tuple(sorted(f.taken + tuple(fill))) for fill in fills.tolist())


def _pooled_best_first(
    lp: GammaControlLP,
    secured: np.ndarray,
    row_families: Iterable[Iterable[PivotFamily]],
    respond: Callable[[np.ndarray], DefenderResponse],
) -> ADResult:
    """Min over the rows u of ``secured`` of the exact linear sub-game maximum
    over each row's own attack families, by best-first branch-and-bound.

    A vector's exact loss reads u only through ``delta & ~u``, so one
    ``_FamilyTable`` serves every row. Each round takes the row whose largest
    exact loss is smallest (ties to the first row) and its open family with
    the largest bound, and that family's attaining member (ties to the first
    vector in sorted order). If the member's own bound is still open, its
    response is solved through ``respond`` and joins the pool, and the vector
    joins every row that holds it as an exact single-vector family. If the
    member is exact, or its own bound is closed, the open family is split on
    a boundary node of that member instead. The row wins once none of its
    open bounds exceeds its largest exact loss (ties to its first vector).
    Raises EnumerationCapExceeded once the rows hold over 5,000,000 families.
    """
    index: dict[PivotFamily, int] = {}
    members: list[np.ndarray] = []
    cells = 0
    for families in row_families:
        members.append(np.fromiter((index.setdefault(f, len(index)) for f in families), dtype=np.intp))
        if (cells := cells + members[-1].size) > _TABLE_CAP:
            raise EnumerationCapExceeded(f"security rows hold over {_TABLE_CAP} attack families")
    table = _FamilyTable(lp, index)
    fams = table.fams

    def put(r: int, new: list[int], drop: int = -1) -> None:
        """Put families ``new`` in row ``r`` in place of ``drop``, in order."""
        row = set(members[r].tolist()).union(new).difference([drop])
        members[r] = np.array(sorted(row, key=lambda k: fams[k].rank()), dtype=np.intp)

    while True:
        flat = np.concatenate(members)
        starts = np.cumsum([0] + [m.size for m in members[:-1]])
        exact, bound = table.exact, table.bound
        top = np.maximum.reduceat(np.where(exact[flat], bound[flat], -np.inf), starts)
        u_row = int(np.argmin(top))
        mine = members[u_row]
        open_bound = np.where(exact[mine], -np.inf, bound[mine])
        peak = open_bound.max()
        if peak <= top[u_row]:
            break
        # the least attaining member of the tied families; a family's least
        # member comes first in row order and bounds its attaining one
        pick: tuple | None = None
        for k in mine[open_bound == peak].tolist():
            if pick and pick[0] <= fams[k].rank()[:2]:
                break
            vector = table.attaining(k)
            if not pick or (len(vector), vector) < pick[0]:
                pick = ((len(vector), vector), k)
        (_, vector), k = pick
        (single,) = table.add([PivotFamily(vector)])
        # a member whose own bound is closed, or exact, is not worth an LP
        if not table.exact[single] and table.bound[single] > top[u_row]:
            delta = np.zeros(lp.net.n + 1, dtype=int)
            delta[list(vector)] = 1
            table.settle(single, respond(delta))
            # every row that holds the vector in a family now holds it exact
            holders = {j for j in np.flatnonzero(table.wide).tolist() if fams[j].holds(vector)}
            if holders:
                for r, row in enumerate(members):
                    if single not in row and holders.intersection(row.tolist()):
                        put(r, [single])
            continue
        children = table.add(list(fams[k].split(min(set(vector).difference(fams[k].taken)))))
        for r, row in enumerate(members):
            if k in row:
                put(r, children, drop=k)

    best = fams[int(mine[np.argmax(np.where(exact[mine], bound[mine], -np.inf))])].first()
    phi_star = table.solved.get(best, table.seed)
    delta_star = np.zeros(lp.net.n + 1, dtype=int)
    delta_star[list(best)] = 1
    psi_star = attack_strategy(lp.net, delta_star)
    state = response_state(lp.net, psi_star, phi_star, lp.model)
    return ADResult(
        delta_star=delta_star,
        psi_star=psi_star,
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
    row's attacks are its ``pivot_families``, at most one per pivot, from LPF
    impacts computed once per solve. They are bounded as families, so no
    candidate vector is listed and no candidate cap applies. A 2-D ``u``
    holds rows of alternative security vectors; the result is the least
    row's (``_pooled_best_first``).
    """
    if not model.is_linear:
        raise ValueError("one-shot engine applies to linear models only")
    secured = np.atleast_2d(_zero_u(net, u))
    zero = np.zeros(net.n + 1, dtype=int)
    sp_d = fixed_angle_setpoints(net, zero, zero)
    lp = GammaControlLP(net, params, model, sp_d)
    impacts = impact_matrix(net, sp_d, LPF)
    rows = (pivot_families(net, impacts, M, row) for row in secured)
    return _pooled_best_first(lp, secured, rows, lambda d: DefenderResponse(sp_d, lp.solve(d)))


def solve_ad_exhaustive(
    net: Network,
    u: np.ndarray | None,
    M: int,
    params: CostParams,
    model: ModelTag,
) -> ADResult:
    """Exact linear sub-game on any network over every attack vector (all
    combinations of vulnerable DERs up to the budget, smallest first).

    A vector's exact response is the joint set-point/load-control LP of
    ``optimal_response``. The seed's set-points (full output at each DER's
    own-edge angle) are shrunk into that LP's inner facet polygon, so that no
    bound falls below a vector's LP value. Trace entries are pooled bounds,
    and on exact ties the maximiser may differ from a per-vector loop's (see
    ``ADResult``). Rows of security vectors in ``u`` each range over the DERs
    they leave vulnerable; the result is the least row's. Raises
    EnumerationCapExceeded, before enumerating, above 200,000 vectors in a
    row or 5,000,000 in all.
    """
    if not model.is_linear:
        raise ValueError("exhaustive engine applies to linear models only")
    secured = np.atleast_2d(_zero_u(net, u))
    pools = [np.flatnonzero(row).tolist() for row in (net.der_cap > 0.0) & (secured == 0)]
    counts = [sum(math.comb(len(p), k) for k in range(min(M, len(p)) + 1)) for p in pools]
    if max(counts) > _EXHAUSTIVE_CAP or sum(counts) > _TABLE_CAP:
        raise EnumerationCapExceeded(f"{max(counts)} vectors in a row or {sum(counts)} in all exceed cap")
    # rows share most vectors: build each vector's family once
    single: dict[tuple[int, ...], PivotFamily] = {}
    rows = (
        [single.get(c) or single.setdefault(c, PivotFamily(c))
         for k in range(min(M, len(p)) + 1) for c in itertools.combinations(p, k)]
        for p in pools
    )
    lp = GammaControlLP(net, params, model, polygon_setpoints(net))

    def respond(delta: np.ndarray) -> DefenderResponse:
        return optimal_response(net, attack_strategy(net, delta), params, model)

    return _pooled_best_first(lp, secured, rows, respond)


def solve_ad_iterative(
    net: Network,
    u: np.ndarray | None,
    M: int,
    params: CostParams,
    seed_attack: np.ndarray | None = None,
) -> ADResult:
    """Greedy alternation for the nonlinear sub-game.

    The attack step is the LPF greedy of ``optimal_attack_fixed_response``;
    the response step solves the exact convex-relaxed nonlinear response.
    Terminates successfully on a repeated attack vector, and stops
    unconverged after 20 attack steps.
    ``seed_attack`` optionally injects a first candidate attack (e.g. the
    linear one-shot solution) before the alternation starts.
    """
    u = _zero_u(net, u)

    def respond(delta: np.ndarray) -> tuple[DefenderResponse, LossBreakdown]:
        psi = attack_strategy(net, delta)
        phi = optimal_response(net, psi, params, NPF, u=u)
        state = response_state(net, psi, phi, NPF, u=u)
        return phi, evaluate_loss(state, phi.gamma, params)

    visited: set[tuple[int, ...]] = set()
    trace: list[TraceEntry] = []
    best: tuple | None = None
    phi_c: DefenderResponse

    def visit(delta: np.ndarray) -> bool:
        """Respond to ``delta`` unless it was visited; False if it was."""
        nonlocal best, phi_c
        key = tuple(int(i) for i in np.flatnonzero(delta))
        if key in visited:
            return False
        visited.add(key)
        phi_c, loss_c = respond(delta)
        trace.append(TraceEntry(delta=key, loss=loss_c.total))
        if best is None or loss_c.total > best[0]:
            best = (loss_c.total, delta, phi_c, loss_c)
        return True

    visit(np.zeros(net.n + 1, dtype=int))
    if seed_attack is not None:
        visit(np.asarray(seed_attack, dtype=int))

    converged = False
    iterations = 0
    for _ in range(_ITERATIVE_MAX_ITER):
        iterations += 1
        if not visit(optimal_attack_fixed_response(net, phi_c, M, u, W=params.W)):
            converged = True
            break

    _, delta_star, phi_star, loss_star = best
    return ADResult(
        delta_star=delta_star,
        psi_star=attack_strategy(net, delta_star),
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
    """The sub-game solve for ``model``: the iterative engine (unseeded) for
    NPF, else the exact one-shot engine on an identical-r/x network and the
    exact exhaustive engine on any other."""
    if not model.is_linear:
        return solve_ad_iterative(net, u, M, params)
    engine = solve_ad_oneshot if net.uniform_rx_ratio() is not None else solve_ad_exhaustive
    return engine(net, u, M, params, model)


@dataclass(frozen=True)
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

    The linear lower-bound game's optimal attack seeds the nonlinear engine,
    so the certified chain is evaluated on genuinely comparable incumbents.
    """
    if eps is None:
        eps = calibrate_epsilon(net).eps
    u = _zero_u(net, u)
    lo = solve_ad_oneshot(net, u, M, params, LPF)
    hi = solve_ad_oneshot(net, u, M, params, eps_lpf(eps))
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
