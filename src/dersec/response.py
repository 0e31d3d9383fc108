"""Defender Stage-3 optimization: set-points of uncompromised DERs and the
load-control vector.

For the linear models the voltages are affine in (gamma, set-points), so the
response is one LP; the feasible set-point half-disk is replaced by an inner
polygon of its first quadrant written as facet half-spaces. For the nonlinear
model the solver is sequential linear programming around exact power-flow
re-solves: flows and voltages are frozen at the last solution's loss terms,
the line-loss cost enters the objective through its tangent, and iteration
stops when the true loss settles. The fixed point satisfies the optimality
conditions of the convex-relaxed response, whose relaxation is exact here,
and every returned state is an exact power-flow solution by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_matrix

from .attack import AttackStrategy, effective_setpoints
from .errors import HeterogeneousRxRatio, InfeasibleLP, NegativeSquaredVoltage, NonConvergent
from .loss import CostParams, evaluate_loss
from .network import Network
from .powerflow import ModelTag, injection, solve_eps_lpf, solve_lpf, solve_npf

# facet count sets the inner-polygon radius deficit cap*(1-cos(pi/4/F)); 96
# keeps the induced loss error beneath the 1e-3 oracle agreement tolerance
_DISK_FACETS = 96
_LOSS_TOL = 1e-8
_MAX_SLP_ROUNDS = 50


@dataclass(frozen=True)
class DefenderResponse:
    """Uncompromised-DER set-points and load-control fractions."""

    sp_d: np.ndarray
    gamma: np.ndarray
    converged: bool = True


def fixed_angle_setpoints(
    net: Network,
    u: np.ndarray,
    delta: np.ndarray,
) -> np.ndarray:
    """Full-magnitude set-points at the angle arccot K, for identical-K networks.

    Every uncompromised DER gets |sp| = cap and angle arctan(1/K); compromised
    or DER-less nodes get 0. Raises HeterogeneousRxRatio when K is not uniform.
    """
    K = net.uniform_rx_ratio()
    if K is None:
        raise HeterogeneousRxRatio(
            "fixed-angle set-points need an identical r/x ratio; "
            "use optimal_response instead"
        )
    theta = math.atan2(1.0, K)
    direction = complex(math.cos(theta), math.sin(theta))
    compromised = (np.asarray(delta) == 1) & (np.asarray(u) == 0)
    sp = np.where(
        (net.der_cap > 0.0) & ~compromised,
        net.der_cap * direction,
        0.0 + 0.0j,
    )
    sp[0] = 0.0
    return sp


def _solve_lp(c, A_ub, b_ub, bounds):
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status == 2:
        raise InfeasibleLP("box-constrained response LP reported infeasible")
    if not res.success:
        raise InfeasibleLP(f"LP solver failure: {res.message}")
    return res


class GammaControlLP:
    """Reusable exact LP in gamma for fixed set-points under a linear model.

    Minimizes t + sum C_i (1-gamma_i) pc_i with the epigraph
    t >= W_i (nu_lo_i - nu_i(gamma)), t >= 0; voltages are affine in gamma
    through the common-path-impedance closed form. Zero-demand nodes carry no
    gamma variable and report gamma = 1. Only the constraint right-hand side
    depends on the attack vector, so the matrix is assembled once and reused
    across candidate attacks.
    """

    def __init__(
        self,
        net: Network,
        params: CostParams,
        model: ModelTag,
        sp_d: np.ndarray,
        u: np.ndarray | None = None,
    ):
        if not model.is_linear:
            raise ValueError("load-control LP applies to linear models only")
        self.net = net
        self.params = params
        self.model = model
        self.sp_d = np.asarray(sp_d, dtype=complex)
        self.u = np.zeros(net.n + 1, dtype=int) if u is None else np.asarray(u)
        kappa = model.load_scale

        pc = np.real(net.sc_nom)[1:]
        qc = np.imag(net.sc_nom)[1:]
        self.loaded = np.flatnonzero((pc > 0.0) | (qc > 0.0))
        self.R = np.real(net.Z)[1:, 1:]
        self.X = np.imag(net.Z)[1:, 1:]
        self.kappa = kappa
        self.G = 2.0 * kappa * (
            self.R[:, self.loaded] * pc[self.loaded][None, :]
            + self.X[:, self.loaded] * qc[self.loaded][None, :]
        )
        W = params.W[1:]
        nvar = self.loaded.size + 1
        self.cvec = np.zeros(nvar)
        self.cvec[:-1] = -params.C[1:][self.loaded] * pc[self.loaded]
        self.cvec[-1] = 1.0
        A = np.zeros((net.n, nvar))
        A[:, :-1] = W[:, None] * self.G
        A[:, -1] = -1.0
        self.A = csc_matrix(A)
        self.bounds = [
            (float(net.gamma_lo[1:][k]), 1.0) for k in self.loaded
        ] + [(0.0, None)]
        self._pc = pc
        self._W = W

    def nu_intercept(self, delta: np.ndarray, sp_a: np.ndarray | None = None) -> np.ndarray:
        """Voltages at gamma = 0 (pure generation), per node 1..N."""
        sg = effective_setpoints(self.net, self.u, delta, self.sp_d, sp_a)
        pg = np.real(sg)[1:]
        qg = np.imag(sg)[1:]
        return self.net.nu0 + 2.0 * self.kappa * (self.R @ pg + self.X @ qg)

    def solve(self, delta: np.ndarray, sp_a: np.ndarray | None = None) -> np.ndarray:
        c0 = self.nu_intercept(delta, sp_a)
        b = self._W * (c0 - self.net.nu_lo[1:])
        # gamma = 1 is optimal whenever it produces no violation
        if np.all(self._W * self.G.sum(axis=1) - b <= 0.0):
            return np.ones(self.net.n + 1)
        res = _solve_lp(self.cvec, self.A, b, self.bounds)
        gamma = np.ones(self.net.n + 1)
        gamma[1 + self.loaded] = np.clip(
            res.x[:-1], self.net.gamma_lo[1:][self.loaded], 1.0
        )
        return gamma


def optimal_load_control(
    net: Network,
    delta: np.ndarray,
    sp_d: np.ndarray,
    params: CostParams,
    model: ModelTag,
    u: np.ndarray | None = None,
) -> np.ndarray:
    """Exact optimal load control for one attack vector (see GammaControlLP)."""
    return GammaControlLP(net, params, model, sp_d, u).solve(np.asarray(delta))


def _facet_normals(facets: int = _DISK_FACETS) -> tuple[np.ndarray, np.ndarray, float]:
    """Half-space description of the inner polygon of the quarter disk:
    n_p * pg + n_q * qg <= cap * support, plus pg, qg >= 0."""
    step = (math.pi / 2.0) / facets
    mids = (np.arange(facets) + 0.5) * step
    return np.cos(mids), np.sin(mids), math.cos(step / 2.0)


@dataclass
class _ActionLP:
    """Affine model of (P, Q, nu) in the decision vector
    x = [gamma_loaded, (pg, qg) per free DER, t]."""

    net: Network
    loaded: np.ndarray            # 0-based indices into nodes 1..N
    free: np.ndarray              # node ids of dispatchable DERs
    n_vars: int
    P_mat: np.ndarray
    Q_mat: np.ndarray
    P_const: np.ndarray
    Q_const: np.ndarray
    nu_mat: np.ndarray
    nu_const: np.ndarray
    A_facet: np.ndarray
    b_facet: np.ndarray
    bounds: list

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        net = self.net
        gamma = np.ones(net.n + 1)
        gamma[1 + self.loaded] = np.clip(
            x[: self.loaded.size], net.gamma_lo[1:][self.loaded], 1.0
        )
        sp_d = np.zeros(net.n + 1, dtype=complex)
        for i, d in enumerate(self.free):
            pg = max(x[self.loaded.size + 2 * i], 0.0)
            qg = max(x[self.loaded.size + 2 * i + 1], 0.0)
            cap = float(net.der_cap[d])
            mag = math.hypot(pg, qg)
            if mag > cap:
                pg, qg = pg * cap / mag, qg * cap / mag
            sp_d[d] = complex(pg, qg)
        return gamma, sp_d


def _build_action_lp(
    net: Network,
    psi: AttackStrategy,
    u: np.ndarray,
    kappa: float,
    ell_bar: np.ndarray,
) -> _ActionLP:
    """Affine (P, Q, nu) with loss-flow terms frozen at ell_bar (zero for the
    linear models)."""
    n = net.n
    pc = np.real(net.sc_nom)[1:]
    qc = np.imag(net.sc_nom)[1:]
    loaded = np.flatnonzero((pc > 0.0) | (qc > 0.0))
    compromised = (psi.delta == 1) & (np.asarray(u) == 0)
    free = np.array(
        [d for d in np.flatnonzero((net.der_cap > 0.0) & ~compromised) if d > 0],
        dtype=int,
    )
    n_vars = loaded.size + 2 * free.size + 1

    Msub = net.tree.subtree_mask[1:, 1:]
    Mpath = Msub.T
    r = net.r[1:]
    x = net.x[1:]
    zabs2 = r**2 + x**2

    P_mat = np.zeros((n, n_vars))
    Q_mat = np.zeros((n, n_vars))
    P_mat[:, : loaded.size] = kappa * Msub[:, loaded] * pc[loaded][None, :]
    Q_mat[:, : loaded.size] = kappa * Msub[:, loaded] * qc[loaded][None, :]
    for i, d in enumerate(free):
        P_mat[:, loaded.size + 2 * i] = -kappa * Msub[:, d - 1]
        Q_mat[:, loaded.size + 2 * i + 1] = -kappa * Msub[:, d - 1]

    sg_fixed = np.where(compromised, psi.sp_a, 0.0 + 0.0j)[1:]
    P_const = -kappa * (Msub @ np.real(sg_fixed)) + Msub @ (r * ell_bar)
    Q_const = -kappa * (Msub @ np.imag(sg_fixed)) + Msub @ (x * ell_bar)

    nu_mat = -2.0 * ((Mpath * r[None, :]) @ P_mat + (Mpath * x[None, :]) @ Q_mat)
    nu_const = (
        net.nu0
        - 2.0 * (Mpath @ (r * P_const) + Mpath @ (x * Q_const))
        + Mpath @ (zabs2 * ell_bar)
    )

    n_p, n_q, support = _facet_normals()
    A_facet = np.zeros((free.size * _DISK_FACETS, n_vars))
    b_facet = np.zeros(free.size * _DISK_FACETS)
    for i, d in enumerate(free):
        rows = slice(i * _DISK_FACETS, (i + 1) * _DISK_FACETS)
        A_facet[rows, loaded.size + 2 * i] = n_p
        A_facet[rows, loaded.size + 2 * i + 1] = n_q
        b_facet[rows] = float(net.der_cap[d]) * support

    bounds = [(float(net.gamma_lo[1:][k]), 1.0) for k in loaded]
    for d in free:
        cap = float(net.der_cap[d])
        bounds += [(0.0, cap), (0.0, cap)]
    bounds += [(0.0, None)]

    return _ActionLP(
        net=net,
        loaded=loaded,
        free=free,
        n_vars=n_vars,
        P_mat=P_mat,
        Q_mat=Q_mat,
        P_const=P_const,
        Q_const=Q_const,
        nu_mat=nu_mat,
        nu_const=nu_const,
        A_facet=A_facet,
        b_facet=b_facet,
        bounds=bounds,
    )


def _epigraph_rows(lp: _ActionLP, params: CostParams) -> tuple[np.ndarray, np.ndarray]:
    W = params.W[1:]
    A = -(W[:, None] * lp.nu_mat)
    A[:, -1] = -1.0
    b = W * (lp.nu_const - lp.net.nu_lo[1:])
    return A, b


def _base_objective(lp: _ActionLP, params: CostParams) -> np.ndarray:
    pc = np.real(lp.net.sc_nom)[1:]
    c = np.zeros(lp.n_vars)
    c[: lp.loaded.size] = -params.C[1:][lp.loaded] * pc[lp.loaded]
    c[-1] = 1.0
    return c


def _optimal_response_linear(
    net: Network,
    psi: AttackStrategy,
    params: CostParams,
    model: ModelTag,
    u: np.ndarray,
) -> DefenderResponse:
    lp = _build_action_lp(net, psi, u, model.load_scale, np.zeros(net.n))
    A_epi, b_epi = _epigraph_rows(lp, params)
    A = np.vstack([A_epi, lp.A_facet])
    b = np.concatenate([b_epi, lp.b_facet])
    res = _solve_lp(_base_objective(lp, params), A, b, lp.bounds)
    gamma, sp_d = lp.unpack(res.x)
    return DefenderResponse(sp_d=sp_d, gamma=gamma, converged=True)


def _optimal_response_npf(
    net: Network,
    psi: AttackStrategy,
    params: CostParams,
    u: np.ndarray,
    loss_tol: float = _LOSS_TOL,
    max_rounds: int = _MAX_SLP_ROUNDS,
) -> DefenderResponse:
    n = net.n
    par = net.tree.parent
    r = net.r[1:]
    x = net.x[1:]

    def npf_state(gamma: np.ndarray, sp_d: np.ndarray):
        sg = effective_setpoints(net, u, psi.delta, sp_d, psi.sp_a)
        return solve_npf(net, injection(net, gamma, sg))

    gamma = np.ones(n + 1)
    sp_d = _warm_setpoints(net)
    state = npf_state(gamma, sp_d)
    best_loss = evaluate_loss(state, gamma, params).total
    best = (best_loss, gamma, sp_d)

    # trust region over the decision vector, scaled per variable family;
    # shrinking on rejected steps makes the linearization converge to the
    # smooth optimum instead of hopping between LP vertices
    radius = 1.0
    converged = False
    for _ in range(max_rounds):
        ell_bar = state.ell[1:]
        lp = _build_action_lp(net, psi, u, 1.0, ell_bar)
        A_epi, b_epi = _epigraph_rows(lp, params)
        A = np.vstack([A_epi, lp.A_facet])
        b = np.concatenate([b_epi, lp.b_facet])

        # line-loss cost through the tangent of |S|^2 / nu_up at the state
        P_bar = np.real(state.S)[1:]
        Q_bar = np.imag(state.S)[1:]
        nu_up_bar = state.nu[par[1:]]
        fP = 2.0 * P_bar / nu_up_bar
        fQ = 2.0 * Q_bar / nu_up_bar
        fnu = -state.ell[1:] / nu_up_bar
        c = _base_objective(lp, params)
        c = c + (r * fP) @ lp.P_mat + (r * fQ) @ lp.Q_mat
        has_parent = par[1:] >= 1
        nu_rows = np.zeros((n, lp.n_vars))
        nu_rows[has_parent] = lp.nu_mat[par[1:][has_parent] - 1]
        c = c + (r * fnu) @ nu_rows

        x_curr = _pack_point(lp, best[1], best[2])
        bounds = _trust_bounds(lp, x_curr, radius)
        res = _solve_lp(c, A, b, bounds)
        gamma, sp_d = lp.unpack(res.x)
        try:
            cand_state = npf_state(gamma, sp_d)
        except (NonConvergent, NegativeSquaredVoltage):
            radius *= 0.5
            continue
        loss = evaluate_loss(cand_state, gamma, params).total
        decision = res.x[:-1]  # epigraph variable excluded from the step size
        step = float(np.max(np.abs(decision - x_curr[:-1]))) if decision.size else 0.0
        if loss < best[0] - loss_tol:
            best = (loss, gamma, sp_d)
            state = cand_state
            radius = min(radius * 2.0, 1.0)
        else:
            radius *= 0.5
        if radius < 1e-4 or (step < 1e-9 and loss <= best[0] + loss_tol):
            converged = True
            break

    _, gamma, sp_d = best
    return DefenderResponse(sp_d=sp_d, gamma=gamma, converged=converged)


def _pack_point(lp: _ActionLP, gamma: np.ndarray, sp_d: np.ndarray) -> np.ndarray:
    x = np.zeros(lp.n_vars)
    x[: lp.loaded.size] = gamma[1 + lp.loaded]
    for i, d in enumerate(lp.free):
        x[lp.loaded.size + 2 * i] = sp_d[d].real
        x[lp.loaded.size + 2 * i + 1] = sp_d[d].imag
    return x


def _trust_bounds(lp: _ActionLP, x_curr: np.ndarray, radius: float) -> list:
    out = []
    for idx, (lo, hi) in enumerate(lp.bounds):
        if idx >= lp.loaded.size + 2 * lp.free.size:
            out.append((lo, hi))  # epigraph variable stays free
            continue
        if idx < lp.loaded.size:
            span = 1.0
        else:
            d = lp.free[(idx - lp.loaded.size) // 2]
            span = float(lp.net.der_cap[d])
        step = radius * span
        new_lo = max(lo, x_curr[idx] - step)
        new_hi = min(hi if hi is not None else np.inf, x_curr[idx] + step)
        out.append((new_lo, new_hi))
    return out


def _warm_setpoints(net: Network) -> np.ndarray:
    """Full-output set-points at each DER's own-edge arccot K_j angle."""
    with np.errstate(invalid="ignore", divide="ignore"):
        K = np.where(net.x > 0.0, net.r / np.where(net.x > 0.0, net.x, 1.0), 1.0)
    theta = np.arctan2(1.0, K)
    sp = np.where(
        net.der_cap > 0.0,
        net.der_cap * np.exp(1j * theta),
        0.0 + 0.0j,
    )
    sp[0] = 0.0
    return sp


def optimal_response(
    net: Network,
    psi: AttackStrategy,
    params: CostParams,
    model: ModelTag,
    u: np.ndarray | None = None,
) -> DefenderResponse:
    """Loss-minimizing (set-points, load control) for a fixed attack."""
    if u is None:
        u = np.zeros(net.n + 1, dtype=int)
    if model.is_linear:
        return _optimal_response_linear(net, psi, params, model, u)
    return _optimal_response_npf(net, psi, params, u)


def response_state(
    net: Network,
    psi: AttackStrategy,
    phi: DefenderResponse,
    model: ModelTag,
    u: np.ndarray | None = None,
):
    """Power-flow state realized by an attack/response pair under a model."""
    if u is None:
        u = np.zeros(net.n + 1, dtype=int)
    sg = effective_setpoints(net, u, psi.delta, phi.sp_d, psi.sp_a)
    inj = injection(net, phi.gamma, sg)
    if model.kind == "lpf":
        return solve_lpf(net, inj)
    if model.kind == "eps_lpf":
        return solve_eps_lpf(net, inj, model.eps)
    return solve_npf(net, inj)
