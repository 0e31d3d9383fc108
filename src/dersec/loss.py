"""Composite defender loss: voltage-regulation, lost-load, and line-loss terms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GammaOutOfRange
from .network import Network, check_shape, is_per_node
from .powerflow import State

_GAMMA_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CostParams:
    """Weights: W in $/(pu^2 voltage violation), C in $/(pu real power shed).

    The weights are owned: W and C hold read-only float64 copies of what was
    given (a list, say), so a solve slices them and keys on their bytes as
    they are. They are the only weights a solve reads.
    """

    W: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        for name in ("W", "C"):
            values = np.array(getattr(self, name), dtype=float)
            if not (np.isfinite(values).all() and (values >= 0.0).all()):
                raise ValueError(f"cost weights {name} must be finite and nonnegative")
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    @classmethod
    def from_network(cls, net: Network) -> "CostParams":
        return cls(W=net.W, C=net.C)

    @classmethod
    def from_ratio(cls, net: Network, wc_ratio: float) -> "CostParams":
        """Uniform-weight convenience: W = ratio * C at every node."""
        return cls(W=wc_ratio * net.C, C=net.C)


@dataclass(frozen=True)
class LossBreakdown:
    lovr: float
    voll: float
    ll: float

    @property
    def total(self) -> float:
        return self.lovr + self.voll + self.ll


def check_weights(net: Network, params: CostParams) -> None:
    if not (is_per_node(net, params.W) and is_per_node(net, params.C)):
        raise ValueError(f"cost weights W and C need {net.n + 1} entries (nodes 0..{net.n}), "
                         f"got shapes {params.W.shape} and {params.C.shape}")


def check_gamma(net: Network, gamma: np.ndarray) -> None:
    out = (gamma[1:] < net.gamma_lo[1:] - _GAMMA_TOL) | (gamma[1:] > 1.0 + _GAMMA_TOL)
    if out.any():
        raise GammaOutOfRange(f"gamma outside [gamma_lo, 1] at nodes {(out.nonzero()[0] + 1).tolist()}")


def evaluate_loss(
    state: State,
    gamma: np.ndarray,
    params: CostParams,
) -> LossBreakdown:
    """Monetary loss of a state under a load-control vector.

    Line losses are part of the nonlinear game's loss but not of the linear
    games' losses.
    """
    net = state.net
    check_weights(net, params)
    gamma = check_shape(net, gamma, "gamma")
    check_gamma(net, gamma)

    shortfall = np.maximum(net.nu_lo[1:] - state.nu[1:], 0.0)
    lovr = float((params.W[1:] * shortfall).max())
    voll = float((params.C[1:] * (1.0 - gamma[1:]) * net.sc_nom.real[1:]).sum())
    ll = float((net.r[1:] * state.ell[1:]).sum()) if state.model.kind == "npf" else 0.0
    return LossBreakdown(lovr=lovr, voll=voll, ll=ll)


def line_loss_cap(net: Network) -> float:
    """The slack term mu_lo*N/(2*mu_lo + 4) bounding the line-loss cost."""
    return net.mu_lo * net.n / (2.0 * net.mu_lo + 4.0)
