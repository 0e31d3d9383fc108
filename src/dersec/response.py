"""Defender Stage-3 optimization: set-points of uncompromised DERs and the
load-control vector.

Every response LP is one affine model in x = [gamma of the loaded nodes,
(pg, qg) per free DER, t]. The flows P, Q and the squared voltages nu are
``offset + mat @ x``; the epigraph rows t >= W (nu_lo - nu) and, per free DER,
the facet rows of an inner polygon of its first-quadrant disk form one
matrix; the base objective, the variable bounds and the per-variable trust
spans are fixed, read-only arrays. All of that is assembled with the model.
The load-control model reads nothing but the network, the load scale and
the weights, so it is kept on the network per scale and weights
(``GammaControlLP``). A solve changes only the voltage offset
(set by the generation the attack fixes and, for the nonlinear model, the
loss flows ell frozen at the last power-flow state), which gives the
right-hand side, plus the objective and the box:

- the load-control LP (``GammaControlLP``) is the model with every DER fixed,
  reused across attack vectors;
- the linear response is one solve of the model whose free DERs are the
  uncompromised ones;
- the nonlinear response is sequential linear programming on one such model
  per attack, around exact power-flow re-solves: each round freezes ell at
  the incumbent state, adds the line-loss tangent to the objective and a
  trust box to the bounds, and iteration stops when the true loss settles.
  The fixed point satisfies the optimality conditions of the convex-relaxed
  response, whose relaxation is exact here, and every returned state is an
  exact power-flow solution by construction.

Each LP goes straight to HiGHS through ``scipy.optimize._highspy._core``, a
private scipy module (scipy >= 1.15), with the column-wise matrix, bounds,
rows and options that ``scipy.optimize.linprog(method="highs",
options={"presolve": ...})`` would pass, so it returns the same solution bit
for bit. The public wrapper would redo its input cleaning, the dense-to-CSC
conversion of a matrix that never changes and its option validation on every
call, which costs about as much as the solve itself on these LPs. The model
converts its matrix once, on its first solve, with numpy rather than
``scipy.sparse``.

The LPs of the linear models (the load-control LP and the joint linear
response) run with HiGHS presolve off: they have tens to a few hundred rows,
where presolve took about 70% of an LP's time (0.54 against 0.15 ms per
load-control LP, 2 vCPUs) and the dual simplex solves them directly. The SLP
rounds of the nonlinear response keep presolve on, because turning it off
moves the pinned NPF reference values, which are to be regenerated once with
the SLP's other changes.

The extension file is loaded directly from ``scipy/optimize/_highspy/``
instead of being imported: an import would first run the ``scipy.optimize``
package initialiser, which took about two thirds of ``import dersec`` and
loads nothing the solves use. The folder is found from scipy's import spec,
so not even the ``scipy`` package initialiser runs (it took 8-13 ms and
loaded 23 modules). The module goes into ``sys.modules`` under its
canonical name, and one already there is reused, because pybind11 registers
each of its types once per process: a second copy under another name makes a
later ``import scipy.optimize`` fail with "type ... is already registered".
With one module object, scipy's ``linprog`` and this module share it in
either import order. The price is a dependence on the file layout of a
private module as well as on the module itself; a scipy release that moves
the file makes ``import dersec`` fail with an ImportError naming the folder
it searched.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attack import effective_setpoints
from .errors import HeterogeneousRxRatio, InfeasibleLP, NegativeSquaredVoltage, NonConvergent
from .loss import CostParams, check_weights, evaluate_loss
from .network import Network, check_shape, check_vectors
from .powerflow import NPF, ModelTag, injection, solve_eps_lpf, solve_lpf, solve_npf

# facet count sets the inner-polygon radius deficit cap*(1-cos(pi/4/F)); 96
# keeps the induced loss error beneath the 1e-3 oracle agreement tolerance
_DISK_FACETS = 96
# the inner polygon of the quarter disk as half-spaces
# n_p * pg + n_q * qg <= cap * support, plus pg, qg >= 0
_FACET_STEP = (math.pi / 2.0) / _DISK_FACETS
_FACET_P = np.cos((np.arange(_DISK_FACETS) + 0.5) * _FACET_STEP)
_FACET_Q = np.sin((np.arange(_DISK_FACETS) + 0.5) * _FACET_STEP)
_FACET_SUPPORT = math.cos(_FACET_STEP / 2.0)
_LOSS_TOL = 1e-8
_MAX_SLP_ROUNDS = 50


def _load_highs():
    """``scipy.optimize._highspy._core``, without running ``scipy.optimize``."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("dersec needs scipy (>= 1.15) for its HiGHS extension")
    folder = Path(scipy.submodule_search_locations[0]) / "optimize" / "_highspy"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_core{suffix}"
        if path.is_file():
            break
    else:
        raise ImportError(f"HiGHS extension _core not found in {folder}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_highs = _load_highs()

def _highs_options(presolve: bool):
    """The options ``linprog(method="highs")`` sets (dual simplex, no debug
    checks, no output), with presolve on or off."""
    options = _highs.HighsOptions()
    options.presolve = "on" if presolve else "off"
    options.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = False
    options.log_to_console = False
    return options


# keyed by the ``presolve`` flag of ``linprog``
_HIGHS_OPTIONS = {presolve: _highs_options(presolve) for presolve in (False, True)}
# linprog's feasibility check on the returned solution, at its default tol 1e-9
_FEASIBILITY_TOL = math.sqrt(1e-9) * 10
# no (rows, columns, values) entries
_NO_ENTRIES = (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))
# one solver per thread and option set, options set once; passModel resets
# it, so LPs start cold
_solver = threading.local()


@dataclass(frozen=True, eq=False)
class DefenderResponse:
    """Uncompromised-DER set-points and load-control fractions."""

    sp_d: np.ndarray
    gamma: np.ndarray
    converged: bool = True


def fixed_angle_setpoints(net: Network) -> np.ndarray:
    """The closed-form defender set-points of an identical-r/x network.

    Every DER gets |sp| = cap at the angle arctan(1/K); DER-less nodes get 0.
    These are ``_warm_setpoints``, whose per-edge angles all equal that one
    when K is uniform. ``effective_setpoints`` puts the attacked DERs on their
    false set-points. Raises HeterogeneousRxRatio when K is not uniform.
    """
    if net.uniform_rx_ratio() is None:
        raise HeterogeneousRxRatio(
            "fixed-angle set-points need an identical r/x ratio; "
            "use optimal_response instead"
        )
    return _warm_setpoints(net)


def _columnwise(A: np.ndarray, below: tuple = _NO_ENTRIES) -> tuple[list, list, list]:
    """CSC (start, index, value) lists of a dense constraint matrix, over the
    rows that follow it given by their nonzeros ``below`` = (rows, columns,
    values), rows ascending within each column; Python lists because HiGHS
    copies them faster than numpy arrays."""
    extra_rows, extra_cols, extra_values = below
    if not (np.isfinite(A).all() and np.isfinite(extra_values).all()):
        raise ValueError("LP constraint matrix must be finite")
    # the nonzeros column by column, rows ascending within a column; the
    # stable sort puts the rows below after A's
    cols, rows = A.T.nonzero()
    values = np.concatenate([A[rows, cols], extra_values])
    cols, rows = np.concatenate([cols, extra_cols]), np.concatenate([rows, extra_rows])
    order = cols.argsort(kind="stable")
    start = cols[order].searchsorted(np.arange(A.shape[1] + 1))
    return start.tolist(), rows[order].tolist(), values[order].tolist()


def linprog(c, A_ub, b_ub, lb, ub, *, presolve: bool = False) -> np.ndarray:
    """Minimize c @ x subject to A_ub @ x <= b_ub and lb <= x <= ub.

    ``A_ub`` is the column-wise (start, index, value) of ``_columnwise``.
    HiGHS gets the model and options ``scipy.optimize.linprog(method="highs",
    options={"presolve": presolve})`` would give it and returns the same x;
    linprog's checks on the objective, the right-hand side and the returned
    solution are kept.
    """
    if not (np.isfinite(c).all() and np.isfinite(b_ub).all()):
        raise ValueError("LP objective and right-hand side must be finite")
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = c.size
    lp.num_row_ = lp.a_matrix_.num_row_ = b_ub.size
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = A_ub
    lp.col_cost_ = c.tolist()
    lp.col_lower_ = lb.tolist()
    lp.col_upper_ = ub.tolist()
    lp.row_lower_ = [-math.inf] * b_ub.size
    lp.row_upper_ = b_ub.tolist()
    solvers = getattr(_solver, "highs", None)
    if solvers is None:
        solvers = _solver.highs = {}
    highs = solvers.get(presolve)
    if highs is None:
        highs = solvers[presolve] = _highs._Highs()
        highs.passOptions(_HIGHS_OPTIONS[presolve])
    if highs.passModel(lp) == _highs.HighsStatus.kError:
        raise InfeasibleLP("LP solver rejected the model")
    highs.run()
    status = highs.getModelStatus()
    if status == _highs.HighsModelStatus.kInfeasible:
        raise InfeasibleLP("box-constrained response LP reported infeasible")
    if status != _highs.HighsModelStatus.kOptimal:
        raise InfeasibleLP(f"LP solver failure: {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    slack = b_ub - np.array(solution.row_value)
    tol = _FEASIBILITY_TOL
    # written so that a NaN fails
    if not ((x >= lb - tol).all() and (x <= ub + tol).all() and (slack >= -tol).all()):
        raise InfeasibleLP("LP solution violates its bounds or rows beyond tolerance")
    return x


class _ResponseModel:
    """Affine (P, Q, nu) = offset + mat @ x over x = [gamma of the loaded
    nodes, (pg, qg) per free DER, t], with its LP rows, base objective,
    bounds and trust spans, all assembled with the model and never changed
    after.

    ``free`` holds the node ids of the dispatchable DERs; every other DER's
    generation is fixed and enters only through the offset.
    """

    def __init__(self, net: Network, params: CostParams, kappa: float, free: np.ndarray):
        check_weights(net, params)
        self.net, self.kappa, self.free = net, kappa, free
        pc, qc = net.sc_nom.real[1:], net.sc_nom.imag[1:]
        # the loaded nodes, 0-based into nodes 1..N
        self.loaded = loaded = ((pc > 0.0) | (qc > 0.0)).nonzero()[0]
        n_gamma = loaded.size
        self._p_cols = n_gamma + 2 * np.arange(free.size)     # qg columns follow
        self._Msub = M = net.tree.subtree_mask[1:, 1:]
        self._W = params.W[1:]
        P = self.P_mat = np.zeros((net.n, n_gamma + 2 * free.size + 1))
        Q = self.Q_mat = np.zeros(P.shape)
        P[:, :n_gamma] = kappa * M[:, loaded] * pc[loaded][None, :]
        Q[:, :n_gamma] = kappa * M[:, loaded] * qc[loaded][None, :]
        P[:, self._p_cols] = -kappa * M[:, free - 1]
        Q[:, self._p_cols + 1] = -kappa * M[:, free - 1]
        self.nu_mat = -2.0 * ((M.T * net.r[1:][None, :]) @ P + (M.T * net.x[1:][None, :]) @ Q)
        # the LP rows, column-wise as tuples (HiGHS copies them as fast as
        # lists, and they cannot change), and the right-hand side of the facet
        # rows: the epigraph rows t >= W (nu_lo - nu) and, per free DER, the
        # facet rows of its inner polygon
        epigraph = -(self._W[:, None] * self.nu_mat)
        epigraph[:, -1] = -1.0
        # a facet row has two nonzeros, at its DER's pg and qg columns
        der, facet = divmod(np.arange(free.size * _DISK_FACETS), _DISK_FACETS)
        rows = net.n + np.arange(der.size)
        below = (rows.repeat(2), np.stack([self._p_cols[der], self._p_cols[der] + 1], axis=1).ravel(),
                 np.stack([_FACET_P[facet], _FACET_Q[facet]], axis=1).ravel())
        self._A = tuple(map(tuple, _columnwise(epigraph, below)))
        self._b_facet = (net.der_cap[free] * _FACET_SUPPORT)[der]
        # the base objective: the cost of the shed load, plus t
        self.c = np.zeros(self.nu_mat.shape[1])
        self.c[:n_gamma] = -params.C[1:][loaded] * pc[loaded]
        self.c[-1] = 1.0
        # the variable bounds and the trust span of every variable but t
        caps = net.der_cap[free].repeat(2)
        self._lb = np.concatenate([net.gamma_lo[1:][loaded], np.zeros(caps.size), [0.0]])
        self._ub = np.concatenate([np.ones(n_gamma), caps, [np.inf]])
        self._span = np.concatenate([np.ones(n_gamma), caps])
        for part in (loaded, P, Q, self.nu_mat, self._b_facet, self.c, self._lb, self._ub, self._span):
            part.setflags(write=False)

    def nu_offset(self, sg: np.ndarray, ell: np.ndarray) -> np.ndarray:
        """Voltages at x = 0, per node 1..N, under the fixed generation ``sg``
        (nodes 0..N) with the loss flows ``ell`` (nodes 1..N) frozen."""
        M, r, x = self._Msub, self.net.r[1:], self.net.x[1:]
        P = -self.kappa * (M @ sg.real[1:]) + M @ (r * ell)
        Q = -self.kappa * (M @ sg.imag[1:]) + M @ (x * ell)
        return self.net.nu0 - 2.0 * (M.T @ (r * P) + M.T @ (x * Q)) + M.T @ ((r**2 + x**2) * ell)

    def solve(
        self, nu_offset: np.ndarray, c: np.ndarray | None = None, box: tuple | None = None,
        *, presolve: bool = False,
    ) -> np.ndarray:
        """The LP's x at the voltage offset ``nu_offset``, under the objective
        ``c`` and the bounds ``box`` = (lb, ub), by default the model's own;
        ``presolve`` as in ``linprog``."""
        b = np.concatenate([self._W * (nu_offset - self.net.nu_lo[1:]), self._b_facet])
        lb, ub = (self._lb, self._ub) if box is None else box
        return linprog(self.c if c is None else c, self._A, b, lb, ub, presolve=presolve)

    def pack(self, gamma: np.ndarray, sp_d: np.ndarray) -> np.ndarray:
        x = np.zeros(self.nu_mat.shape[1])
        x[: self.loaded.size] = gamma[1 + self.loaded]
        x[self._p_cols] = sp_d[self.free].real
        x[self._p_cols + 1] = sp_d[self.free].imag
        return x

    def gamma(self, x: np.ndarray) -> np.ndarray:
        """gamma over nodes 0..N from the LP's ``x``, clipped into its bounds."""
        gamma = np.ones(self.net.n + 1)
        gamma[1 + self.loaded] = x[: self.loaded.size].clip(self._lb[: self.loaded.size], 1.0)
        return gamma

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        net = self.net
        gamma = self.gamma(x)
        pg = np.maximum(x[self._p_cols], 0.0)
        qg = np.maximum(x[self._p_cols + 1], 0.0)
        cap = net.der_cap[self.free]
        # math.hypot is almost always correctly rounded; np.hypot can differ
        # from it in the last bit
        mag = np.array([math.hypot(p, q) for p, q in zip(pg, qg)])
        out = mag > cap
        pg[out] = pg[out] * cap[out] / mag[out]
        qg[out] = qg[out] * cap[out] / mag[out]
        sp_d = np.zeros(net.n + 1, dtype=complex)
        sp_d[self.free] = pg + 1j * qg
        return gamma, sp_d

    def trust_box(self, x: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """Bounds intersected with a box of ``radius`` spans around ``x``; the
        epigraph variable t keeps its own bounds."""
        step = radius * self._span
        lb, ub = self._lb.copy(), self._ub.copy()
        lb[:-1] = np.maximum(lb[:-1], x[:-1] - step)
        ub[:-1] = np.minimum(ub[:-1], x[:-1] + step)
        return lb, ub


class GammaControlLP:
    """Reusable exact LP in gamma for fixed set-points under a linear model.

    Minimizes t + sum C_i (1-gamma_i) pc_i with the epigraph
    t >= W_i (nu_lo_i - nu_i(gamma)), t >= 0, where
    nu(gamma) = nu_intercept - G gamma and
    G = 2 kappa (Re Z[1:, 1+loaded] pc + Im Z[1:, 1+loaded] qc). Zero-demand
    nodes carry no gamma variable and report gamma = 1. It is the response
    model with no free DER: only the constraint right-hand side depends on the
    attack vector. That model, with its LP rows, objective and bounds, G and
    the term W G 1 of the no-violation test, reads only the network, the load
    scale and the weights W and C, so it is built once per network, load
    scale and the bytes of W and C, kept on the network read-only, and shared
    by every load-control LP (and thread) on them; this object holds only the
    set-points.
    """

    def __init__(
        self,
        net: Network,
        params: CostParams,
        model: ModelTag,
        sp_d: np.ndarray,
    ):
        if not model.is_linear:
            raise ValueError("load-control LP applies to linear models only")
        self.net = net
        self.params = params
        self.model = model
        self.sp_d = check_shape(net, sp_d, "sp_d", complex)
        kappa = model.load_scale
        self._lp, self.G, self._WG = net.derived(
            ("load_control_model", kappa, params.W.tobytes(), params.C.tobytes()),
            lambda: _load_control_model(net, params, kappa),
        )
        self.loaded = self._lp.loaded

    def nu_intercept(
        self, delta: np.ndarray, sp_a: np.ndarray | None = None, sp_d: np.ndarray | None = None
    ) -> np.ndarray:
        """Voltages at gamma = 0 (pure generation), per node 1..N, under the
        defender set-points ``sp_d`` (default: the model's own)."""
        sp_d = self.sp_d if sp_d is None else sp_d
        sg = effective_setpoints(self.net, delta, sp_d, sp_a)
        return self._lp.nu_offset(sg, np.zeros(self.net.n))

    def solve(self, delta: np.ndarray, sp_a: np.ndarray | None = None) -> np.ndarray:
        c0 = self.nu_intercept(delta, sp_a)
        # gamma = 1 is optimal whenever it produces no violation
        if (self._WG - self.params.W[1:] * (c0 - self.net.nu_lo[1:]) <= 0.0).all():
            return np.ones(self.net.n + 1)
        return self._lp.gamma(self._lp.solve(c0))


def _load_control_model(
    net: Network, params: CostParams, kappa: float
) -> tuple[_ResponseModel, np.ndarray, np.ndarray]:
    """The response model with no free DER, its G and W G 1."""
    lp = _ResponseModel(net, params, kappa, np.zeros(0, dtype=int))
    G = -lp.nu_mat[:, :-1]
    return lp, G, params.W[1:] * G.sum(axis=1)


def _warm_setpoints(net: Network) -> np.ndarray:
    """Full-output set-points at each DER's own-edge angle arctan(1/K_j),
    K_j = r_j / x_j; DER-less nodes and the substation get 0."""
    K = np.ones(net.n + 1)
    K[1:] = net.r[1:] / net.x[1:]
    return net.der_cap * np.exp(1j * np.arctan2(1.0, K))


def polygon_setpoints(net: Network) -> np.ndarray:
    """The full-output set-points of ``_warm_setpoints`` shrunk by the facet
    polygon's support radius, so they are feasible in every response LP."""
    return _warm_setpoints(net) * _FACET_SUPPORT


def _model_for_attack(
    net: Network,
    delta: np.ndarray,
    params: CostParams,
    kappa: float,
) -> tuple[_ResponseModel, np.ndarray]:
    """The model whose free DERs are those the attack does not take, and the
    generation the attack fixes (its attacked DERs' false set-points)."""
    fixed = effective_setpoints(net, delta, np.zeros(net.n + 1, dtype=complex))
    free = 1 + ((net.der_cap[1:] > 0.0) & (delta[1:] != 1)).nonzero()[0]
    return _ResponseModel(net, params, kappa, free), fixed


def _optimal_response_npf(
    net: Network,
    delta: np.ndarray,
    params: CostParams,
) -> DefenderResponse:
    par = net.tree.parent[1:]
    r = net.r[1:]
    lp, fixed = _model_for_attack(net, delta, params, 1.0)
    # voltage rows of each edge's upstream node (zero at the substation)
    has_parent = par >= 1
    nu_up_mat = np.zeros(lp.nu_mat.shape)
    nu_up_mat[has_parent] = lp.nu_mat[par[has_parent] - 1]

    gamma = np.ones(net.n + 1)
    sp_d = _warm_setpoints(net)
    state = response_state(net, delta, DefenderResponse(sp_d=sp_d, gamma=gamma), NPF)
    best_loss = evaluate_loss(state, gamma, params).total
    best = (best_loss, gamma, sp_d)

    # trust region over the decision vector, scaled per variable family;
    # shrinking on rejected steps makes the linearization converge to the
    # smooth optimum instead of hopping between LP vertices
    radius = 1.0
    converged = False
    for _ in range(_MAX_SLP_ROUNDS):
        # line-loss cost through the tangent of |S|^2 / nu_up at the state
        nu_up_bar = state.nu[par]
        fP = 2.0 * state.S.real[1:] / nu_up_bar
        fQ = 2.0 * state.S.imag[1:] / nu_up_bar
        fnu = -state.ell[1:] / nu_up_bar
        c = lp.c + (r * fP) @ lp.P_mat + (r * fQ) @ lp.Q_mat
        c = c + (r * fnu) @ nu_up_mat

        x_curr = lp.pack(best[1], best[2])
        # presolve stays on here until the one regeneration of the NPF
        # reference values (ROADMAP item 5b): turning it off moves them
        x = lp.solve(lp.nu_offset(fixed, state.ell[1:]), c, lp.trust_box(x_curr, radius),
                     presolve=True)
        gamma, sp_d = lp.unpack(x)
        try:
            cand_state = response_state(net, delta, DefenderResponse(sp_d=sp_d, gamma=gamma), NPF)
        except (NonConvergent, NegativeSquaredVoltage):
            radius *= 0.5
            continue
        loss = evaluate_loss(cand_state, gamma, params).total
        decision = x[:-1]  # epigraph variable excluded from the step size
        step = float(abs(decision - x_curr[:-1]).max()) if decision.size else 0.0
        if loss < best[0] - _LOSS_TOL:
            best = (loss, gamma, sp_d)
            state = cand_state
            radius = min(radius * 2.0, 1.0)
        else:
            radius *= 0.5
        if radius < 1e-4 or (step < 1e-9 and loss <= best[0] + _LOSS_TOL):
            converged = True
            break

    _, gamma, sp_d = best
    return DefenderResponse(sp_d=sp_d, gamma=gamma, converged=converged)


def optimal_response(
    net: Network,
    delta: np.ndarray,
    params: CostParams,
    model: ModelTag,
) -> DefenderResponse:
    """Loss-minimizing (set-points, load control) for a fixed attack vector
    ``delta``: one LP for a linear model, sequential LP for NPF."""
    delta = check_vectors(net, delta, "delta")
    if not model.is_linear:
        return _optimal_response_npf(net, delta, params)
    lp, fixed = _model_for_attack(net, delta, params, model.load_scale)
    gamma, sp_d = lp.unpack(lp.solve(lp.nu_offset(fixed, np.zeros(net.n))))
    return DefenderResponse(sp_d=sp_d, gamma=gamma)


def response_state(
    net: Network,
    delta: np.ndarray,
    phi: DefenderResponse,
    model: ModelTag,
):
    """Power-flow state realized by an attack vector and a response under a model."""
    sg = effective_setpoints(net, check_vectors(net, delta, "delta"), phi.sp_d)
    inj = injection(net, phi.gamma, sg)
    if model.kind == "lpf":
        return solve_lpf(net, inj)
    if model.kind == "eps_lpf":
        return solve_eps_lpf(net, inj, model.eps)
    return solve_npf(net, inj)
