"""Branch-flow solvers for the three power-flow models.

NPF is the nonlinear DistFlow recursion with loss terms; LPF drops the loss
terms; eps-LPF is LPF with every net load inflated by (1+eps) so that it
brackets the nonlinear solution from the other side. Edge quantities are
keyed by the downstream node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeSquaredVoltage, NonConvergent
from .network import Network, check_shape

_NPF_TOL = 1e-10
_NPF_MAX_ITER = 200
_EPS0_MAX = 0.1


@dataclass(frozen=True)
class ModelTag:
    kind: str          # "npf" | "lpf" | "eps_lpf"
    eps: float = 0.0

    @property
    def is_linear(self) -> bool:
        return self.kind != "npf"

    @property
    def load_scale(self) -> float:
        return 1.0 + self.eps if self.kind == "eps_lpf" else 1.0

    def __str__(self) -> str:
        if self.kind == "eps_lpf":
            return f"eps-lpf({self.eps:.6g})"
        return self.kind


LPF = ModelTag("lpf")
NPF = ModelTag("npf")


def eps_lpf(eps: float) -> ModelTag:
    if not 0.0 <= eps < np.inf:
        raise ValueError(f"eps must be finite and nonnegative, got {eps!r}")
    return ModelTag("eps_lpf", eps)


@dataclass(frozen=True, eq=False)
class Injection:
    """Consumed and generated complex power per node (per-unit)."""

    sc: np.ndarray
    sg: np.ndarray

    @property
    def net_load(self) -> np.ndarray:
        return self.sc - self.sg


def injection(net: Network, gamma: np.ndarray, sg: np.ndarray) -> Injection:
    """Injection with loads scaled by the load-control vector.

    Enforces the demand cap (consumption never above nominal) and the DER
    physical restriction (nonnegative real part, magnitude within capability).
    """
    tol = 1e-9
    sg = check_shape(net, sg, "sg", complex)
    sc = check_shape(net, gamma, "gamma") * net.sc_nom
    if (sc.real > net.sc_nom.real + tol).any() or (sc.imag > net.sc_nom.imag + tol).any():
        raise ValueError("consumption above nominal demand")
    if (abs(sg) > net.der_cap + tol).any() or (sg.real < -tol).any():
        raise ValueError("generation outside the DER capability half-disk")
    return Injection(sc=sc, sg=sg)


def nominal_injection(net: Network) -> Injection:
    """Full nominal demand, zero generation."""
    return Injection(sc=net.sc_nom.copy(), sg=np.zeros(net.n + 1, dtype=complex))


@dataclass(frozen=True, eq=False)
class State:
    """A power-flow solution tagged with the model that produced it."""

    net: Network
    model: ModelTag
    nu: np.ndarray
    ell: np.ndarray
    S: np.ndarray
    injection: Injection

    def residuals(self) -> tuple[float, float, float]:
        """Max-abs residuals of the three branch-flow equations under this
        state's model (loss terms appear only for NPF)."""
        net = self.net
        par = net.tree.parent
        z, z_conj, z_sq = _impedance_terms(net)
        s = self.injection.net_load * self.model.load_scale
        if self.model.kind == "npf":
            loss_term = z * self.ell
            volt_term = z_sq * self.ell
        else:
            loss_term = np.zeros(net.n + 1, dtype=complex)
            volt_term = np.zeros(net.n + 1)

        child_sum = np.bincount(
            par[1:], weights=self.S.real[1:], minlength=net.n + 1
        ) + 1j * np.bincount(par[1:], weights=self.S.imag[1:], minlength=net.n + 1)
        r_cons = abs(self.S[1:] - (child_sum[1:] + s[1:] + loss_term[1:]))

        nu_par = self.nu[par[1:]]
        r_volt = abs(self.nu[1:] - (nu_par - 2.0 * (z_conj[1:] * self.S[1:]).real + volt_term[1:]))
        r_cur = abs(self.ell[1:] * nu_par - abs(self.S[1:]) ** 2)
        return float(r_cons.max()), float(r_volt.max()), float(r_cur.max())


def _impedance_terms(net: Network) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """z, conj(z) and |z|^2 per edge, kept on the network."""
    return net.derived("impedance_terms", lambda: (net.z, np.conj(net.z), np.abs(net.z) ** 2))


def _sweep(
    net: Network, s: np.ndarray, ell: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One backward/forward sweep with the losses ``ell`` held fixed.

    Edge flows sum the net loads plus losses z*ell over each subtree; squared
    voltages subtract the drops along each root path. Returns (nu, S, ell')
    with ell' = |S|^2 / nu_parent, the losses the new flows imply.
    """
    mask = net.tree.subtree_mask
    z, z_conj, z_sq = _impedance_terms(net)
    S = mask @ (s + z * ell)
    S[0] = 0.0
    nu = net.nu0 - mask.T @ (2.0 * (z_conj * S).real - z_sq * ell)
    if (nu <= 0.0).any():
        raise NegativeSquaredVoltage(f"nu <= 0 at nodes {(nu <= 0.0).nonzero()[0].tolist()}")
    ell_next = np.zeros(net.n + 1)
    ell_next[1:] = abs(S[1:]) ** 2 / nu[net.tree.parent[1:]]
    return nu, S, ell_next


def solve_lpf(net: Network, inj: Injection) -> State:
    """Lossless linear model: flows accumulate net loads exactly."""
    return _solve_linear(net, inj, LPF)


def solve_eps_lpf(net: Network, inj: Injection, eps: float) -> State:
    """LPF with net loads inflated by (1+eps); eps = 0 reproduces LPF."""
    return _solve_linear(net, inj, eps_lpf(eps))


def _solve_linear(net: Network, inj: Injection, model: ModelTag) -> State:
    """One lossless sweep of the net loads scaled by the model's load scale
    (exactly 1.0 for LPF)."""
    nu, S, ell = _sweep(net, inj.net_load * model.load_scale, np.zeros(net.n + 1))
    return State(net=net, model=model, nu=nu, ell=ell, S=S, injection=inj)


def solve_npf(
    net: Network,
    inj: Injection,
    tol: float = _NPF_TOL,
    max_iter: int = _NPF_MAX_ITER,
) -> State:
    """Backward/forward-sweep fixed point of the nonlinear branch-flow model.

    The current map is a contraction in the small-impedance regime, so the
    fixed point is unique there; outside it the solve fails loudly.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    ell = np.zeros(net.n + 1)
    residual = np.inf
    for _ in range(max_iter):
        nu, S, ell_new = _sweep(net, inj.net_load, ell)
        residual = float(abs(ell_new - ell).max())
        ell = ell_new
        if residual < tol:
            state = State(net=net, model=NPF, nu=nu, ell=ell, S=S, injection=inj)
            if max(state.residuals()) < max(tol, 1e-9):
                return state
    raise NonConvergent(residual, max_iter)


@dataclass(frozen=True)
class EpsilonCalibration:
    """Loss-ratio bound eps0 and the model inflation eps = (1-eps0)^{-H} - 1."""

    eps0: float
    eps: float


def _loss_ratio(net: Network, state: State) -> float:
    """Largest edge loss ratio max(r*ell/P, x*ell/Q) of a state, 0 if no edge
    has both P and Q (numerically) nonzero."""
    P = np.real(state.S[1:])
    Q = np.imag(state.S[1:])
    ell = state.ell[1:]
    keep = (np.abs(P) > 1e-12) & (np.abs(Q) > 1e-12)
    if not np.any(keep):
        return 0.0
    return float(
        np.maximum(
            net.r[1:][keep] * ell[keep] / P[keep],
            net.x[1:][keep] * ell[keep] / Q[keep],
        ).max()
    )


def calibrate_epsilon(net: Network) -> EpsilonCalibration:
    """Calibrate eps0 from the NPF solution at nominal demand, zero generation.

    Edges with (numerically) zero P or Q are skipped in the max.
    """
    eps0 = max(_loss_ratio(net, solve_npf(net, nominal_injection(net))), 0.0)
    if eps0 >= 1.0:
        raise NegativeSquaredVoltage(f"eps0 = {eps0:.3f} >= 1; network outside regime")
    eps = (1.0 - eps0) ** (-net.tree.height) - 1.0
    return EpsilonCalibration(eps0=eps0, eps=eps)


@dataclass(frozen=True)
class A0Report:
    """Pass/fail per assumption sub-check, evaluated on a reference state.

    Diagnostic only: building the report never raises.
    """

    voltage_quality: bool         # soft bounds at the reference state (NPF and LPF)
    safety: bool                  # hard bounds at the reference state
    no_reverse_flow: bool         # S >= 0 componentwise at the reference state
    small_impedance: bool         # r, x <= mu_lo^2/(4 mu_lo + 8); R_ii, X_ii <= 1; |S| < 1
    small_losses: bool            # eps0 below _EPS0_MAX
    eps0: float
    failures: dict[str, str]

    @property
    def all_pass(self) -> bool:
        # each flag is "its check is not in failures"
        return not self.failures


def validate_assumptions(net: Network, nominal: State) -> A0Report:
    """Check the standing assumption set against a nominal NPF state.

    Each check's report field and failure message read one mask of failing
    nodes (or one flag); the bound masks are written so that a NaN fails.
    """
    failures: dict[str, str] = {}
    tol = 1e-9

    def nodes(mask: np.ndarray) -> list[int]:
        return [int(i) + 1 for i in mask.nonzero()[0]]

    nu_n = nominal.nu[1:]
    nu_l = solve_lpf(net, nominal.injection).nu[1:]
    soft = ~((np.minimum(nu_n, nu_l) >= net.nu_lo[1:] - tol) & (np.maximum(nu_n, nu_l) <= net.nu_hi[1:] + tol))
    if soft.any():
        failures["voltage_quality"] = f"soft bound violated at nodes {nodes(soft)}"

    hard = ~((nu_n >= net.mu_lo - tol) & (nu_n <= net.mu_hi + tol))
    if hard.any():
        failures["safety"] = f"hard bound violated at nodes {nodes(hard)}"

    S = nominal.S[1:]
    rev = (S.real < -tol) | (S.imag < -tol)
    if rev.any():
        failures["no_reverse_flow"] = f"reverse flow on edges into nodes {nodes(rev)}"

    r_cap = net.mu_lo**2 / (4.0 * net.mu_lo + 8.0)
    big = ~((net.r[1:] <= r_cap + tol) & (net.x[1:] <= r_cap + tol))
    diag = np.diagonal(net.Z)[1:]
    rest_ok = bool(
        (diag.real <= 1.0 + tol).all()
        and (diag.imag <= 1.0 + tol).all()
        and abs(net.nu0 - 1.0) <= 1e-6
        and (np.abs(S) < 1.0).all()
    )
    if big.any() or not rest_ok:
        failures["small_impedance"] = (
            f"impedance cap {r_cap:.5f} exceeded on edges into nodes {nodes(big)}"
            if big.any()
            else "path impedance, nu0, or |S| bound violated"
        )

    eps0 = _loss_ratio(net, nominal)
    if not 0.0 <= eps0 < _EPS0_MAX:
        failures["small_losses"] = f"eps0 = {eps0:.4f} not below {_EPS0_MAX}"

    return A0Report(
        voltage_quality="voltage_quality" not in failures,
        safety="safety" not in failures,
        no_reverse_flow="no_reverse_flow" not in failures,
        small_impedance="small_impedance" not in failures,
        small_losses="small_losses" not in failures,
        eps0=eps0,
        failures=failures,
    )
