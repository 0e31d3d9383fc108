"""Attacker-defender sub-game engines and sandwich-bound certification.

The exact linear engines share one pooled best-first loop: the one-shot
engine (identical-r/x networks, closed-form set-points, candidate attacks,
load-control LP) and the exhaustive engine (any network, every attack vector,
joint set-point/load-control LP), for one security vector or the Stage-1
min-max over rows of them. The iterative engine alternates the LPF greedy
attack with the exact nonlinear response and keeps the best incumbent; a
repeated attack vector certifies convergence. ``solve_ad`` picks the engine
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
    attack_strategy,
    candidate_attack_set,
    impact_matrix,
    optimal_attack_fixed_response,
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
_TABLE_CAP = 5_000_000          # attack vectors summed over security rows
_ITERATIVE_MAX_ITER = 20


@dataclass(frozen=True)
class TraceEntry:
    delta: tuple[int, ...]       # attacked node ids
    loss: float


@dataclass(frozen=True)
class ADResult:
    """Sub-game solution with one trace entry per evaluated attack.

    In the exact linear engines the trace holds every vector enumerated for
    ``u`` with its final pooled bound: exact where its own response was solved
    or the value is 0, otherwise an upper bound not above ``loss.total``.
    Pooled values use closed-form voltages and ``loss`` the power-flow state;
    they agree up to rounding, so on exact ties the returned maximiser may
    differ from the one a loop over exact per-vector losses would keep.
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


def _pooled_best_first(
    lp: GammaControlLP,
    secured: np.ndarray,
    row_vectors: Iterable[Iterable[tuple[int, ...]]],
    respond: Callable[[np.ndarray], DefenderResponse],
) -> ADResult:
    """Min over the rows u of ``secured`` of the exact linear sub-game maximum
    over each row's own attack vectors, best-first.

    A vector's exact loss reads u only through ``delta & ~u``, so one table of
    bounds serves every row. Every pooled response (gamma, sp_d) is feasible
    for every vector, so its closed-form loss (voltages ``nu(no attack) -
    delta @ D(sp_d).T``) bounds each vector's exact loss from above. The pool
    starts at the seed (``lp.sp_d``, gamma = 1), whose bound 0 is exact. Each
    round takes the row whose largest exact loss is smallest (ties to the
    first row) and solves its open vector with the largest bound through
    ``respond``; that response joins the pool. The row wins once none of its
    open bounds exceeds its largest exact loss (ties to its first vector).
    Raises EnumerationCapExceeded once the rows hold over 5,000,000 vectors.
    """
    index: dict[tuple[int, ...], int] = {}
    members: list[np.ndarray] = []
    cells = 0
    for row_vecs in row_vectors:
        members.append(np.fromiter((index.setdefault(v, len(index)) for v in row_vecs), dtype=np.intp))
        if (cells := cells + members[-1].size) > _TABLE_CAP:
            raise EnumerationCapExceeded(f"security rows hold over {_TABLE_CAP} attack vectors")
    vectors = tuple(index)
    flat = np.concatenate(members)
    starts = np.cumsum([0] + [m.size for m in members[:-1]])

    net, params, model = lp.net, lp.params, lp.model
    W = params.W[1:]
    nu_lo = net.nu_lo[1:]
    voll_rate = params.C[1:] * np.real(net.sc_nom)[1:]

    delta_mat = np.zeros((len(vectors), net.n + 1))
    for row, nodes in enumerate(vectors):
        delta_mat[row, list(nodes)] = 1.0

    def intercept(sp_d: np.ndarray) -> np.ndarray:
        """Voltages at gamma = 0 under ``sp_d`` for every vector."""
        D = impact_matrix(net, sp_d, model)[1:, :]
        return lp.nu_intercept(np.zeros(net.n + 1, dtype=int), sp_d=sp_d) - delta_mat @ D.T

    # the seed's intercept serves every response that keeps its set-points
    seed_c0 = intercept(lp.sp_d)

    def value(phi: DefenderResponse) -> np.ndarray:
        c0 = seed_c0 if np.array_equal(phi.sp_d, lp.sp_d) else intercept(phi.sp_d)
        nu = c0 - lp.G @ phi.gamma[1 + lp.loaded]
        lovr = np.max(W * np.maximum(nu_lo - nu, 0.0), axis=1)
        return lovr + float(np.sum(voll_rate * (1.0 - phi.gamma[1:])))

    seed = DefenderResponse(sp_d=lp.sp_d, gamma=np.ones(net.n + 1))
    bound = value(seed)
    exact = bound <= 0.0
    responses: dict[int, DefenderResponse] = {}
    while True:
        top = np.maximum.reduceat(np.where(exact[flat], bound[flat], -np.inf), starts)
        u_row = int(np.argmin(top))
        mine = members[u_row]
        open_bound = np.where(exact[mine], -np.inf, bound[mine])
        pick = int(np.argmax(open_bound))
        if open_bound[pick] <= top[u_row]:
            break
        row = int(mine[pick])
        responses[row] = respond(delta_mat[row].astype(int))
        bound = np.minimum(bound, value(responses[row]))
        exact[row] = True

    best = int(mine[np.argmax(np.where(exact[mine], bound[mine], -np.inf))])
    phi_star = responses.get(best, seed)
    delta_star = delta_mat[best].astype(int)
    psi_star = attack_strategy(net, delta_star)
    state = response_state(net, psi_star, phi_star, model)
    return ADResult(
        delta_star=delta_star,
        psi_star=psi_star,
        phi_star=phi_star,
        loss=evaluate_loss(state, phi_star.gamma, params),
        model=model,
        trace=tuple(TraceEntry(vectors[k], float(bound[k])) for k in mine),
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
    the load-control vector gamma; a candidate's exact response is its LP.
    A 2-D ``u`` holds rows of alternative security vectors, each with its
    own candidate set; the result is the least row's (``_pooled_best_first``).
    """
    if not model.is_linear:
        raise ValueError("one-shot engine applies to linear models only")
    secured = np.atleast_2d(_zero_u(net, u))
    zero = np.zeros(net.n + 1, dtype=int)
    sp_d = fixed_angle_setpoints(net, zero, zero)
    lp = GammaControlLP(net, params, model, sp_d)
    rows = (candidate_attack_set(net, sp_d, M, row) for row in secured)
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
    rows = ([c for k in range(min(M, len(p)) + 1) for c in itertools.combinations(p, k)] for p in pools)
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
