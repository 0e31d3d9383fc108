"""Sweep driver: evaluate the sub-game over a grid of (M, W/C, gamma_lo).

Each row is one ``solve_ad`` call, so the model and the network pick the
engine: iterative from the LPF attack for NPF, one-shot for a linear model
on an identical-r/x network, exhaustive on any other.

Rows are computed independently, optionally on a thread pool, and always
emitted in sorted grid order, so output is deterministic regardless of
scheduling. Threads overlap only the time a row spends in native code that
releases the GIL (mainly the HiGHS solve of a response LP); partition walks,
family bounds, LP assembly and the small power-flow sweeps run one thread at
a time. Extra workers therefore help grids whose rows are LP-bound and can
slow grids whose rows are Python-bound. On 2 cores (Intel Xeon), in one
process on the feeder over ten alternated runs (wall clock), 2 workers made
a 48-row LPF one-shot grid (M 0..7; 22-44 ms serial) about 1.5x slower at
the median, and a 4-row NPF grid (M 4..7; 344-524 ms serial) about 1.6x
faster. A whole ``dersec sweep`` process, which pays start-up and runs the
grid once, showed neither effect over five runs (NPF grid 942-1,002 ms
serial, 997-1,029 ms on 2 workers).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DersecError, InvalidNetwork
from .game import solve_ad
from .loss import CostParams
from .network import Network, check_budget
from .powerflow import LPF, NPF, ModelTag, calibrate_epsilon, eps_lpf

_MODELS = ("lpf", "eps-lpf", "npf")


def model_tag(name: str, net: Network) -> ModelTag:
    """The model named ``name`` (one of ``_MODELS``); eps-LPF is calibrated on ``net``."""
    if name == "eps-lpf":
        return eps_lpf(calibrate_epsilon(net).eps)
    return {"lpf": LPF, "npf": NPF}[name]


@dataclass(frozen=True)
class SweepConfig:
    M_values: tuple[int, ...]
    wc_ratios: tuple[float, ...]
    gamma_lo_values: tuple[float, ...]
    model: str = "lpf"               # one of _MODELS

    def __post_init__(self):
        if not (self.M_values and self.wc_ratios and self.gamma_lo_values):
            raise ValueError("sweep axes must be nonempty")
        if self.model not in _MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {_MODELS}")
        for M in self.M_values:
            check_budget("M", M)
        if any(isinstance(v, bool) for v in itertools.chain(self.wc_ratios, self.gamma_lo_values)):
            raise ValueError("sweep axes take numbers, not true or false")
        if not all(isinstance(wc, numbers.Real) and math.isfinite(wc) and wc >= 0.0
                   for wc in self.wc_ratios):
            raise ValueError(f"W/C ratios must be finite and nonnegative, got {self.wc_ratios}")
        if not all(isinstance(gl, numbers.Real) and 0.0 <= gl <= 1.0 for gl in self.gamma_lo_values):
            raise ValueError(f"gamma_lo values must lie in [0, 1], got {self.gamma_lo_values}")


@dataclass(frozen=True)
class SweepRow:
    M: int
    wc_ratio: float
    gamma_lo: float
    model: str
    lovr: float = 0.0
    voll: float = 0.0
    ll: float = 0.0
    total: float = 0.0
    iterations: int = 0
    converged: bool = False
    delta_star: str = ""
    runtime_ms: float = 0.0
    error: str = ""


def with_gamma_lo(net: Network, gamma_lo: float) -> Network:
    """Copy of the network with a uniform load-control floor."""
    if not 0.0 <= gamma_lo <= 1.0:
        raise InvalidNetwork(f"gamma_lo must lie in [0, 1], got {gamma_lo!r}")
    arr = np.full(net.n + 1, gamma_lo)
    arr[0] = 0.0
    arr.setflags(write=False)
    return dataclasses.replace(net, gamma_lo=arr)


def _delta_string(net: Network, delta: np.ndarray) -> str:
    return "".join(str(int(delta[i])) for i in net.nodes)


def run_sweep(net: Network, cfg: SweepConfig, workers: int | None = None) -> list[SweepRow]:
    """One row per grid point, in sorted (M, W/C, gamma_lo) order, on a pool
    of ``workers`` threads when more than one (ValueError below 1)."""
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers!r}")
    points = sorted(itertools.product(cfg.M_values, cfg.wc_ratios, cfg.gamma_lo_values))
    model = model_tag(cfg.model, net)
    # the rows on one gamma_lo share its network, and so its derived constants
    nets = {gl: with_gamma_lo(net, gl) for gl in cfg.gamma_lo_values}
    params = {(gl, wc): CostParams.from_ratio(nets[gl], wc) for gl in nets for wc in cfg.wc_ratios}

    def evaluate(point) -> SweepRow:
        M, wc, gl = point
        start = time.perf_counter()
        try:
            result = solve_ad(nets[gl], None, M, params[(gl, wc)], model)
            solved = dict(
                lovr=result.loss.lovr,
                voll=result.loss.voll,
                ll=result.loss.ll,
                total=result.loss.total,
                iterations=result.iterations,
                converged=result.converged,
                delta_star=_delta_string(net, result.delta_star),
            )
        except DersecError as exc:
            solved = dict(error=f"{type(exc).__name__}: {exc}")
        elapsed = (time.perf_counter() - start) * 1e3
        return SweepRow(M=M, wc_ratio=wc, gamma_lo=gl, model=cfg.model, runtime_ms=elapsed, **solved)

    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(evaluate, points))
    else:
        rows = [evaluate(p) for p in points]
    return rows
