"""Sweep driver: evaluate the sub-game over a grid of (M, W/C, gamma_lo).

Each row is one ``solve_ad`` call, so the model and the network pick the
engine: iterative for NPF, one-shot for a linear model on an identical-r/x
network, exhaustive on any other.

Rows are computed independently, optionally on a thread pool, and always
emitted in sorted grid order, so output is deterministic regardless of
scheduling. Threads overlap only the time a row spends in native code that
releases the GIL (mainly the HiGHS solve of a response LP); partition walks,
family bounds, LP assembly and the small power-flow sweeps run one thread at
a time. Extra workers therefore help grids whose rows are LP-bound and can
slow grids whose rows are Python-bound: on 2 cores (Intel Xeon), 2 workers
made a 48-row LPF one-shot grid at M <= 7 (0.14-0.17 s serial, at most one
LP per row) about 1.7x slower than serial, and a 4-row iterative NPF grid
about 1.4x faster.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DersecError
from .game import solve_ad
from .loss import CostParams
from .network import Network
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
    arr = np.full(net.n + 1, gamma_lo)
    arr[0] = 0.0
    arr.setflags(write=False)
    return dataclasses.replace(net, gamma_lo=arr)


def _delta_string(net: Network, delta: np.ndarray) -> str:
    return "".join(str(int(delta[i])) for i in net.nodes)


def run_sweep(net: Network, cfg: SweepConfig, workers: int | None = None) -> list[SweepRow]:
    points = sorted(itertools.product(cfg.M_values, cfg.wc_ratios, cfg.gamma_lo_values))
    model = model_tag(cfg.model, net)

    def evaluate(point) -> SweepRow:
        M, wc, gl = point
        start = time.perf_counter()
        try:
            net_gl = with_gamma_lo(net, gl)
            result = solve_ad(net_gl, None, M, CostParams.from_ratio(net_gl, wc), model)
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
