"""Attacker-defender sub-game engines and sandwich-bound certification.

The one-shot engine is exact for linear models on identical-r/x networks:
defender set-points are fixed in closed form, the candidate attack set is
enumerated, and load control is resolved by LP only for the candidates whose
upper bound from a pool of feasible load-control vectors can still beat the
best exact loss. The iterative engine alternates the linear-model greedy
attack with the exact nonlinear response and keeps the best incumbent; a
repeated attack vector certifies convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attack import (
    AttackStrategy,
    attack_strategy,
    candidate_attack_set,
    impact_matrix,
    optimal_attack_fixed_response,
)
from .loss import CostParams, LossBreakdown, evaluate_loss, line_loss_cap
from .network import Network
from .powerflow import LPF, ModelTag, NPF, calibrate_epsilon, eps_lpf
from .response import (
    DefenderResponse,
    GammaControlLP,
    fixed_angle_setpoints,
    optimal_response,
    response_state,
)

_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class TraceEntry:
    delta: tuple[int, ...]       # attacked node ids
    loss: float


@dataclass(frozen=True)
class ADResult:
    """Sub-game solution with one trace entry per evaluated attack.

    In the one-shot engine the trace holds every candidate, and an entry's
    loss is the candidate's final pooled value: exact where its load-control
    LP ran or where the value is 0, otherwise an upper bound that does not
    exceed ``loss.total``. Pooled values use the closed-form voltages and
    ``loss`` the power-flow state, so the two agree up to rounding.
    """

    delta_star: np.ndarray
    psi_star: AttackStrategy
    phi_star: DefenderResponse
    loss: LossBreakdown
    model: ModelTag
    trace: tuple[TraceEntry, ...]
    converged: bool
    iterations: int = 0
    attack_step_model: ModelTag = LPF


def _zero_u(net: Network, u: np.ndarray | None) -> np.ndarray:
    if u is None:
        return np.zeros(net.n + 1, dtype=int)
    return np.asarray(u, dtype=int)


def solve_ad_oneshot(
    net: Network,
    u: np.ndarray | None,
    M: int,
    params: CostParams,
    model: ModelTag,
) -> ADResult:
    """Exact linear sub-game solve for identical-r/x networks.

    Every load-control vector gamma in the box gamma_lo <= gamma <= 1 is
    feasible for every candidate attack, so its loss against a candidate
    bounds that candidate's exact loss from above. The pool starts at
    gamma = 1, whose bound 0 is already exact (no soft-bound violation means
    no control is optimal). The open candidate with the largest bound then
    gets its LP solved, and its optimal gamma tightens every bound; this stops
    once no open bound exceeds the best exact loss. The winner is the largest
    exact loss, ties to the first candidate.
    """
    if not model.is_linear:
        raise ValueError("one-shot engine applies to linear models only")
    u = _zero_u(net, u)
    sp_d = fixed_angle_setpoints(net, u, np.zeros(net.n + 1, dtype=int))
    cands = candidate_attack_set(net, sp_d, M, u, model=model)

    lp = GammaControlLP(net, params, model, sp_d, u=u)
    D = impact_matrix(net, sp_d, model)[1:, :]
    W = params.W[1:]
    nu_lo = net.nu_lo[1:]
    voll_rate = params.C[1:] * np.real(net.sc_nom)[1:]

    delta_mat = np.zeros((len(cands.vectors), net.n + 1))
    for row, nodes in enumerate(cands.vectors):
        delta_mat[row, list(nodes)] = 1.0
    c0 = lp.nu_intercept(np.zeros(net.n + 1, dtype=int)) - delta_mat @ D.T

    def value(gamma: np.ndarray) -> np.ndarray:
        nu = c0 - lp.G @ gamma[1 + lp.loaded]
        lovr = np.max(W * np.maximum(nu_lo - nu, 0.0), axis=1)
        return lovr + float(np.sum(voll_rate * (1.0 - gamma[1:])))

    bound = value(np.ones(net.n + 1))
    exact = bound <= 0.0
    gammas: dict[int, np.ndarray] = {}
    while not exact.all():
        row = int(np.argmax(np.where(exact, -np.inf, bound)))
        if exact.any() and bound[row] <= np.max(bound[exact]):
            break
        gammas[row] = lp.solve(delta_mat[row].astype(int))
        bound = np.minimum(bound, value(gammas[row]))
        exact[row] = True

    best = int(np.argmax(np.where(exact, bound, -np.inf)))
    best_gamma = gammas.get(best, np.ones(net.n + 1))
    delta_star = delta_mat[best].astype(int)
    psi_star = attack_strategy(net, delta_star)
    phi_star = DefenderResponse(sp_d=sp_d, gamma=best_gamma)
    state = response_state(net, psi_star, phi_star, model, u=u)
    return ADResult(
        delta_star=delta_star,
        psi_star=psi_star,
        phi_star=phi_star,
        loss=evaluate_loss(state, best_gamma, params),
        model=model,
        trace=tuple(
            TraceEntry(delta=nodes, loss=float(loss))
            for nodes, loss in zip(cands.vectors, bound)
        ),
        converged=True,
        iterations=1,
    )


def solve_ad_iterative(
    net: Network,
    u: np.ndarray | None,
    M: int,
    params: CostParams,
    max_iter: int = 20,
    seed_attack: np.ndarray | None = None,
) -> ADResult:
    """Greedy alternation for the nonlinear sub-game.

    The attack step uses the linear-model greedy (equivalently under either
    linear model); the response step solves the exact convex-relaxed
    nonlinear response. Terminates successfully on a repeated attack vector.
    ``seed_attack`` optionally injects a first candidate attack (e.g. the
    linear one-shot solution) before the alternation starts.
    """
    u = _zero_u(net, u)
    zero = np.zeros(net.n + 1, dtype=int)

    def respond(delta: np.ndarray) -> tuple[DefenderResponse, LossBreakdown]:
        psi = attack_strategy(net, delta)
        phi = optimal_response(net, psi, params, NPF, u=u)
        state = response_state(net, psi, phi, NPF, u=u)
        return phi, evaluate_loss(state, phi.gamma, params)

    visited: set[tuple[int, ...]] = {tuple()}
    phi_c, loss0 = respond(zero)
    best = (loss0.total, zero, phi_c, loss0)
    trace = [TraceEntry(delta=(), loss=loss0.total)]

    if seed_attack is not None and int(np.asarray(seed_attack).sum()) > 0:
        delta_seed = np.asarray(seed_attack, dtype=int)
        key = tuple(int(i) for i in np.flatnonzero(delta_seed))
        if key not in visited:
            visited.add(key)
            phi_c, loss_c = respond(delta_seed)
            trace.append(TraceEntry(delta=key, loss=loss_c.total))
            if loss_c.total > best[0]:
                best = (loss_c.total, delta_seed, phi_c, loss_c)

    converged = False
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        delta_c = optimal_attack_fixed_response(net, phi_c, M, u, model=LPF, W=params.W)
        key = tuple(int(i) for i in np.flatnonzero(delta_c))
        if key in visited:
            converged = True
            break
        visited.add(key)
        phi_c, loss_c = respond(delta_c)
        trace.append(TraceEntry(delta=key, loss=loss_c.total))
        if loss_c.total > best[0]:
            best = (loss_c.total, delta_c, phi_c, loss_c)

    _, delta_star, phi_star, loss_star = best
    return ADResult(
        delta_star=delta_star,
        psi_star=attack_strategy(net, delta_star),
        phi_star=phi_star,
        loss=loss_star,
        model=NPF,
        trace=tuple(trace),
        converged=converged,
        iterations=iterations,
    )


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
    max_iter: int = 20,
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
    mid = solve_ad_iterative(net, u, M, params, max_iter=max_iter, seed_attack=lo.delta_star)
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
