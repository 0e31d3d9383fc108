"""Independent brute-force solvers for desk-scale ground truth.

These deliberately bypass the pivot/partition machinery: attacks are
enumerated exhaustively, and nonlinear responses come from grid search over
the defender's action box. Each call builds its batch once: one broadcast
product grid, one load-control model, one table of rounded node properties.
Guards hard-fail on instances that are not desk-scale; sampling fallbacks are
intentionally absent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .attack import AttackStrategy, attack_strategy
from .errors import HeterogeneousRxRatio, TooLargeToEnumerate
from .loss import CostParams, evaluate_loss
from .network import Network
from .powerflow import LPF, ModelTag
from .response import DefenderResponse, GammaControlLP, fixed_angle_setpoints, response_state

_ENUM_GUARD = 1_000_000
_GRID_GUARD = 2_000_000


@dataclass(frozen=True)
class GridSpec:
    """Resolution of the defender-response grid used by the nonlinear oracle."""

    gamma_step: float = 0.25
    setpoint_angle_step: float = np.pi / 8.0
    setpoint_mag_step: float = 1.0

    def __post_init__(self):
        if min(self.gamma_step, self.setpoint_angle_step, self.setpoint_mag_step) <= 0:
            raise ValueError("grid steps must be positive")

    def refined(self, factor: float = 0.5) -> "GridSpec":
        return GridSpec(
            gamma_step=self.gamma_step * factor,
            setpoint_angle_step=self.setpoint_angle_step * factor,
            setpoint_mag_step=self.setpoint_mag_step * factor,
        )


def _enumerate_deltas(net: Network, M: int, u: np.ndarray) -> list[tuple[int, ...]]:
    pool = [int(i) for i in np.flatnonzero((net.der_cap > 0.0) & (np.asarray(u) == 0))]
    budget = min(M, len(pool))
    total = sum(math.comb(len(pool), k) for k in range(budget + 1))
    if total > _ENUM_GUARD:
        raise TooLargeToEnumerate(f"{total} attack vectors exceed the oracle guard")
    out: list[tuple[int, ...]] = []
    for k in range(budget + 1):
        out.extend(itertools.combinations(pool, k))
    return out


def bf_attack_fixed_response(
    net: Network,
    phi: DefenderResponse,
    M: int,
    u: np.ndarray,
    model: ModelTag = LPF,
    params: CostParams | None = None,
) -> tuple[np.ndarray, float]:
    """Exact worst attack for a completely fixed defender response.

    Enumerates every feasible attack vector, evaluates the linear state
    exactly, and returns the loss maximizer (first in enumeration order on
    ties).
    """
    deltas = _enumerate_deltas(net, M, u)
    params = params or CostParams.from_network(net)
    best: tuple[float, np.ndarray] | None = None
    for combo in deltas:
        delta = np.zeros(net.n + 1, dtype=int)
        delta[list(combo)] = 1
        psi = attack_strategy(net, delta)
        state = response_state(net, psi, phi, model)
        loss = evaluate_loss(state, phi.gamma, params).total
        if best is None or loss > best[0] + 1e-15:
            best = (loss, delta)
    assert best is not None
    return best[1], best[0]


def bf_ad(
    net: Network,
    u: np.ndarray,
    M: int,
    params: CostParams,
    model: ModelTag,
    grid: GridSpec | None = None,
) -> tuple[AttackStrategy, DefenderResponse, float]:
    """Exact max-min sub-game value by attack enumeration.

    Linear models: defender set-points fixed in closed form (identical r/x
    required) and load control solved as an exact LP per attack. Nonlinear:
    defender response by grid search at the GridSpec resolution.
    """
    deltas = _enumerate_deltas(net, M, u)
    best: tuple[float, AttackStrategy, DefenderResponse] | None = None
    if model.is_linear:
        if net.uniform_rx_ratio() is None:
            raise HeterogeneousRxRatio("linear oracle needs identical r/x")
        sp_d = fixed_angle_setpoints(net)
        load_control = GammaControlLP(net, params, model, sp_d)
        for combo in deltas:
            delta = np.zeros(net.n + 1, dtype=int)
            delta[list(combo)] = 1
            gamma = load_control.solve(delta)
            psi = attack_strategy(net, delta)
            phi = DefenderResponse(sp_d=sp_d, gamma=gamma)
            state = response_state(net, psi, phi, model)
            loss = evaluate_loss(state, gamma, params).total
            if best is None or loss > best[0] + 1e-15:
                best = (loss, psi, phi)
    else:
        grid = grid or GridSpec()
        for combo in deltas:
            delta = np.zeros(net.n + 1, dtype=int)
            delta[list(combo)] = 1
            psi = attack_strategy(net, delta)
            loss, phi = _grid_min_response(net, psi, u, params, grid)
            if best is None or loss > best[0] + 1e-15:
                best = (loss, psi, phi)
    assert best is not None
    loss, psi, phi = best
    return psi, phi, loss


def _rounded_properties(net: Network, params: CostParams) -> list[tuple]:
    """Per node, the ten properties that decide symmetry under ``params``, rounded."""
    return [
        (
            round(net.r[i], 12),
            round(net.x[i], 12),
            round(float(np.real(net.sc_nom[i])), 12),
            round(float(np.imag(net.sc_nom[i])), 12),
            round(float(net.der_cap[i]), 12),
            round(float(net.nu_lo[i]), 12),
            round(float(net.nu_hi[i]), 12),
            round(float(params.W[i]), 12),
            round(float(params.C[i]), 12),
            round(float(net.gamma_lo[i]), 12),
        )
        for i in range(net.n + 1)
    ]


def _subtree_signature(net: Network, i: int, props: list[tuple], u: np.ndarray | None = None):
    """Canonical recursive signature of the subtree rooted at i (``props`` from
    ``_rounded_properties``); siblings are symmetric iff signatures match."""
    mark = int(u[i]) if u is not None else 0
    child_sigs = tuple(
        sorted(_subtree_signature(net, c, props, u) for c in net.tree.children[i])
    )
    return (props[i], mark, child_sigs)


def bf_security(
    net: Network,
    B: int,
    M: int,
    params: CostParams,
    model: ModelTag,
) -> tuple[np.ndarray, float]:
    """Exact Stage-1 minimizer over enumerated security strategies.

    Strategies symmetric-equivalent under the weights of ``params`` are
    collapsed through a canonical tree signature, which keeps the exact value.
    """
    der = [int(i) for i in np.flatnonzero(net.der_cap > 0.0)]
    budget = min(B, len(der))
    total = sum(math.comb(len(der), k) for k in range(budget + 1))
    if total * max(len(_enumerate_deltas(net, M, np.zeros(net.n + 1))), 1) > _ENUM_GUARD:
        raise TooLargeToEnumerate("security enumeration exceeds the oracle guard")

    props = _rounded_properties(net, params)
    seen: dict = {}
    best: tuple[float, np.ndarray] | None = None
    for k in range(budget + 1):
        for combo in itertools.combinations(der, k):
            u = np.zeros(net.n + 1, dtype=int)
            u[list(combo)] = 1
            key = _subtree_signature(net, 0, props, u)
            if key in seen:
                value = seen[key]
            else:
                value = bf_ad(net, u, M, params, model)[2]
                seen[key] = value
            if best is None or value < best[0] - 1e-15:
                best = (value, u)
    assert best is not None
    return best[1], best[0]


def _grid_min_response(
    net: Network,
    psi: AttackStrategy,
    u: np.ndarray,
    params: CostParams,
    grid: GridSpec,
):
    """Best defender response on a product grid, evaluated by batch NPF."""
    n = net.n
    compromised = (psi.delta == 1) & (np.asarray(u) == 0) & (net.der_cap > 0.0)
    compromised[0] = False
    free = [int(d) for d in np.flatnonzero((net.der_cap > 0.0) & ~compromised) if d > 0]

    gamma_axes = []
    gamma_nodes = [k for k in net.nodes if np.real(net.sc_nom[k]) > 0 or np.imag(net.sc_nom[k]) > 0]
    for k in gamma_nodes:
        lo = float(net.gamma_lo[k])
        steps = max(int(np.ceil((1.0 - lo) / grid.gamma_step)), 1)
        gamma_axes.append(np.linspace(lo, 1.0, steps + 1))

    sp_axes = []
    for d in free:
        cap = float(net.der_cap[d])
        mags = np.arange(0.0, 1.0 + 1e-12, grid.setpoint_mag_step) * cap
        angs = np.arange(0.0, np.pi / 2.0 + 1e-12, grid.setpoint_angle_step)
        pts = {complex(m * np.cos(a), m * np.sin(a)) for m in mags for a in angs}
        sp_axes.append(np.array(sorted(pts, key=lambda c: (c.real, c.imag))))

    shape = [len(a) for a in gamma_axes + sp_axes]
    total = int(np.prod(shape))
    if total > _GRID_GUARD:
        raise TooLargeToEnumerate(f"{total} grid points exceed the oracle guard")

    # one column per point, in itertools.product order: gamma outer, set-points inner
    axes = np.meshgrid(*gamma_axes, *sp_axes, indexing="ij", sparse=True)
    gammas = np.ones((n + 1, total))
    for k, values in zip(gamma_nodes, axes):
        gammas[k].reshape(shape)[...] = values
    # generation: grid set-points on free DERs, false ones on compromised DERs
    sgs = np.zeros((n + 1, total), dtype=complex)
    for d, values in zip(free, axes[len(gamma_nodes):]):
        sgs[d].reshape(shape)[...] = values
    sgs[compromised] = psi.sp_a[compromised, None]

    s_batch = gammas * net.sc_nom[:, None] - sgs
    nu, ell, resid = _solve_npf_batch(net, s_batch)

    shortfall = np.maximum(net.nu_lo[1:, None] - nu[1:], 0.0)
    lovr = np.max(params.W[1:, None] * shortfall, axis=0)
    voll = np.sum(
        params.C[1:, None] * (1.0 - gammas[1:]) * np.real(net.sc_nom)[1:, None], axis=0
    )
    ll = np.sum(net.r[1:, None] * ell[1:], axis=0)
    totals = lovr + voll + ll
    totals[resid > 1e-8] = np.inf
    j = int(np.argmin(totals))

    sp_best = np.zeros(n + 1, dtype=complex)
    sp_best[free] = sgs[free, j]
    return float(totals[j]), DefenderResponse(sp_d=sp_best, gamma=gammas[:, j].copy())


def _solve_npf_batch(
    net: Network, s_batch: np.ndarray, iters: int = 60
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward/forward sweeps on a batch of net-load columns.

    Returns (nu, ell, residual-per-column); callers must discard columns whose
    residual stayed large (injections outside the contraction regime).
    """
    order = net.tree.order
    par = net.tree.parent
    z = net.z[:, None]
    zabs2 = np.abs(net.z)[:, None] ** 2
    G = s_batch.shape[1]
    ell = np.zeros((net.n + 1, G))
    nu = np.full((net.n + 1, G), net.nu0)
    resid = np.full(G, np.inf)
    for _ in range(iters):
        S = s_batch + z * ell
        for node in order[:0:-1]:
            S[par[node]] += S[node]
        S[0] = 0.0
        for node in order[1:]:
            nu[node] = (
                nu[par[node]]
                - 2.0 * np.real(np.conj(net.z[node]) * S[node])
                + zabs2[node] * ell[node]
            )
        nu = np.maximum(nu, 1e-6)
        ell_new = np.zeros_like(ell)
        ell_new[1:] = np.abs(S[1:]) ** 2 / nu[par[1:]]
        resid = np.max(np.abs(ell_new - ell), axis=0)
        ell = ell_new
        if float(resid.max()) < 1e-12:
            break
    return nu, ell, resid
