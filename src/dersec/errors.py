"""Exception hierarchy for dersec."""


class DersecError(Exception):
    """Base class for all dersec errors."""


class InvalidNetwork(DersecError):
    """Network description fails a structural or parameter invariant."""


class CycleDetected(InvalidNetwork):
    pass


class DisconnectedNode(InvalidNetwork):
    pass


class NonPositiveImpedance(InvalidNetwork):
    pass


class BoundOrderingViolated(InvalidNetwork):
    """Hard/soft squared-voltage bounds are not ordered 0 < mu_lo < nu_lo <= nu_hi < mu_hi."""


class RootArgument(DersecError):
    """Operation received the substation (node 0) where a regular node is required."""


class NegativeSquaredVoltage(DersecError):
    """A power-flow solve produced nu <= 0; the injection is outside model validity."""


class NonConvergent(DersecError):
    """Fixed-point power-flow iteration did not reach tolerance."""

    def __init__(self, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"power flow not converged after {iterations} iterations "
            f"(last residual {residual:.3e})"
        )


class GammaOutOfRange(DersecError):
    """A load-control vector violates its box [gamma_lo, 1]."""


class HeterogeneousRxRatio(DersecError):
    """Operation requires an identical r/x ratio on every line."""


class AsymmetricNetwork(DersecError):
    """Operation requires sibling subtrees to be symmetrically identical."""


class InfeasibleLP(DersecError):
    """A response LP failed: the load-control LP, the joint linear response
    with its facet rows, or an SLP round of the nonlinear one. The solver
    rejected the model, reported it infeasible or failed, or returned a
    solution that fails the feasibility check on its bounds and rows."""


class EnumerationCapExceeded(DersecError):
    """A combinatorial enumeration would exceed its configured cap."""


class TooLargeToEnumerate(DersecError):
    """Brute-force oracle guard: the exact enumeration is not desk-scale."""
