"""The four benchmark workloads: their grids, seeded draws, timed calls and
untimed output checks.

Every workload is a closed loop from one client: the next solve starts when
the previous one returns. A run is a fixed number of *cycles*, set by
``--seconds`` and the workload's nominal cycle time, so a seed always gives
the same solves. A cycle takes a fixed number of points from each stratum of
the workload's grid. Strata whose points sit near the median solve time are
taken whole in every cycle, so every run times the same set of them and the
seed only orders them; cheap strata are sampled, and there the seed picks
which points (each stratum is walked in a seed-shuffled order, so points
repeat only after the whole stratum has been used). The seed also orders the
whole cycle.

This module imports neither numpy nor dersec at import time: the set-up
timing starts before ``import dersec``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

GAMMA_LOS = (0.5, 0.7)
WC_RATIOS = (2.0, 10.0, 18.0)
M_VALUES = tuple(range(15))

# security-plan grid: balanced trees and the seeds of random_feasible_network
SYM_SHAPES = ((2, 2), (3, 2), (2, 3))
SYM_BM = tuple((B, M) for B in (1, 2, 3, 4) for M in (1, 2))
SECURITY_BM = ((1, 1), (1, 2), (2, 1), (2, 2))
SECURITY_WC = 10.0
NET_SEED_RANGE = range(60)
# networks kept from the front of each filtered seed pool: few enough that a
# cycle solves every (network, B, M) point in about four seconds
SECURITY_POOL_SIZE = {"asym": 12, "het": 6}

# tolerances pinned by the tier-1 suite (acceptance criteria 1, 5, 9 and 11)
VALUE_TOL = 1e-9
CHAIN_SLACK = 1e-9
RESIDUAL_TOL = 1e-10


def feeder_key(gl: float, wc: float, M: int) -> str:
    return f"{gl!r}|{wc!r}|{M}"


def security_key(kind: str, ident, B: int, M: int) -> str:
    if isinstance(ident, tuple):
        ident = "x".join(str(v) for v in ident)
    return f"{kind}|{ident}|{B}|{M}"


_GL_WC = tuple((gl, wc) for gl in GAMMA_LOS for wc in WC_RATIOS)
_WC_PAIRS = tuple((a, b) for i, a in enumerate(WC_RATIOS) for b in WC_RATIOS[i + 1:])


@dataclass(frozen=True)
class Stratum:
    name: str
    points: tuple
    per_cycle: int


class Schedule:
    """Seeded cycles with a fixed per-stratum mix."""

    def __init__(self, strata: tuple[Stratum, ...], rng):
        self.strata = strata
        self.rng = rng
        self._queues: dict[str, list] = {s.name: [] for s in strata}

    def cycle(self) -> list:
        out = []
        for s in self.strata:
            queue = self._queues[s.name]
            for _ in range(s.per_cycle):
                if not queue:
                    queue.extend(self.rng.sample(s.points, len(s.points)))
                out.append(queue.pop())
        self.rng.shuffle(out)
        return out


@dataclass
class Solve:
    """One solve: the point, its wall time and what it returned."""

    point: tuple
    ms: float
    result: object = None
    error: str = ""
    problems: list = field(default_factory=list)
    unconverged: bool = False

    @property
    def failed(self) -> bool:
        return bool(self.error or self.problems or self.unconverged)


def _close(value: float, ref: float, tol: float = VALUE_TOL) -> bool:
    return abs(value - ref) <= tol


class Workload:
    name = ""
    why = ""
    strata: tuple[Stratum, ...] = ()
    # seconds one cycle takes on the host the benchmark was tuned on (2 vCPUs
    # of an Intel Xeon, one BLAS thread); a run is ``cycles(seconds)`` cycles
    cycle_s = 1.0
    # In-process solves are single-threaded and are timed on the process's CPU
    # clock, which leaves out the time a shared host takes the CPU away;
    # cli-sweep measures thread-pool concurrency and start-up, so it is timed
    # on the wall clock.
    clock = "cpu"

    def __init__(self, refs: dict, out_dir: Path):
        self.refs = refs
        self.out_dir = out_dir

    # set-up, split in the phases reported by the traced run
    def build_cases(self) -> None:
        raise NotImplementedError

    def calibrate(self) -> None:
        pass

    def cycles(self, seconds: float) -> int:
        return max(1, round(seconds / self.cycle_s))

    def warm_up(self) -> None:
        """Untimed: one solve per stratum, so lazy imports and first-call
        costs inside numpy and scipy are paid before timing starts."""
        for s in self.strata:
            self.call(s.points[0])

    def run_point(self, point) -> list[Solve]:
        """Timed: solve one scheduled point, on the process's CPU clock."""
        start = time.process_time()
        try:
            result = self.call(point)
        except Exception as exc:  # a raising solve is a failed solve, not a crash
            return [Solve(point, (time.process_time() - start) * 1e3, error=f"{type(exc).__name__}: {exc}")]
        ms = (time.process_time() - start) * 1e3
        return [Solve(point, ms, self.summarize(result))]

    def call(self, point):
        raise NotImplementedError

    def summarize(self, result):
        """What the checks need from a result; the run keeps only this, so its
        peak memory is the program's, not the sum of every result."""
        return result

    def check(self, solve: Solve) -> None:
        """Untimed: fill ``problems`` and ``unconverged``."""
        raise NotImplementedError

    def check_run(self, solves: list[Solve], rng) -> list[str]:
        """Untimed checks over the whole run; returns problems."""
        return []


class _FeederWorkload(Workload):
    """Shared set-up on the 36-bus study feeder (homogeneous37)."""

    def build_cases(self) -> None:
        from dersec import CostParams, homogeneous37
        from dersec.sweep import with_gamma_lo

        self.feeder = homogeneous37()
        self.nets = {gl: with_gamma_lo(self.feeder, gl) for gl in GAMMA_LOS}
        self.params = {
            (gl, wc): CostParams.from_ratio(self.nets[gl], wc)
            for gl in GAMMA_LOS
            for wc in WC_RATIOS
        }

    def ref(self, gl: float, wc: float, M: int) -> dict:
        return self.refs["feeder"]["points"][feeder_key(gl, wc, M)]


class OneshotLinear(_FeederWorkload):
    name = "oneshot-linear"
    why = (
        "exact linear one-shot (candidate set, GammaControlLP, linprog) at points that "
        "need an LP for most candidates and at points that skip the LP entirely"
    )

    cycle_s = 6.5
    strata = (
        # 91 candidates, an LP for each (240-290 ms); all twelve twice in every
        # cycle, 24 of its 29 solves, so the median solve falls inside this
        # band and not at its edge
        Stratum("lp-heavy", tuple((m, 12, wc, gl) for m in ("lpf", "eps") for gl, wc in _GL_WC), 24),
        # 14 or 1 candidates, an LP for each
        Stratum("lp-light-13", tuple((m, 13, wc, gl) for m in ("lpf", "eps") for gl, wc in _GL_WC), 1),
        Stratum("lp-light-14", tuple((m, 14, wc, gl) for m in ("lpf", "eps") for gl, wc in _GL_WC), 1),
        # 3003 candidates, 40 of them need an LP
        Stratum("mixed", tuple(("lpf", 8, wc, gl) for gl, wc in _GL_WC), 1),
        # 3432 candidates, none needs an LP (the bypass for LP pruning)
        Stratum("bypass-heavy", tuple(("lpf", 7, wc, gl) for gl, wc in _GL_WC), 1),
        # 1 to 1001 candidates, none needs an LP
        Stratum("bypass-light", tuple((m, M, wc, gl) for m in ("lpf", "eps") for M in range(5) for gl, wc in _GL_WC), 1),
    )

    def calibrate(self) -> None:
        from dersec import LPF, calibrate_epsilon, eps_lpf

        self.eps = calibrate_epsilon(self.feeder).eps
        self.models = {"lpf": LPF, "eps": eps_lpf(self.eps)}

    def call(self, point):
        import dersec.game

        model, M, wc, gl = point
        return dersec.game.solve_ad_oneshot(self.nets[gl], None, M, self.params[(gl, wc)], self.models[model])

    def summarize(self, result):
        return SimpleNamespace(total=result.loss.total,
                               converged=result.converged and result.phi_star.converged)

    def check(self, solve: Solve) -> None:
        model, M, wc, gl = solve.point
        ref = self.ref(gl, wc, M)
        total = solve.result.total
        if not _close(total, ref[model]):
            solve.problems.append(f"{model} loss {total!r} != reference {ref[model]!r}")
        cap = self.refs["feeder"]["line_loss_cap"]
        if model == "lpf" and not total <= ref["npf"] + CHAIN_SLACK:
            solve.problems.append(f"chain: L_lpf {total!r} > L_npf {ref['npf']!r}")
        if model == "eps" and not ref["npf"] <= total + cap + CHAIN_SLACK:
            solve.problems.append(f"chain: L_npf {ref['npf']!r} > L_eps {total!r} + cap")
        solve.unconverged = not solve.result.converged

    def check_run(self, solves, rng) -> list[str]:
        if not _close(self.eps, self.refs["feeder"]["eps"], 1e-12):
            return [f"calibrated eps {self.eps!r} != reference {self.refs['feeder']['eps']!r}"]
        return []


class IterativeNPF(_FeederWorkload):
    name = "iterative-npf"
    why = (
        "nonlinear path: SLP optimal_response (linprog + solve_npf) and the greedy attack "
        "step, seeded by the LPF one-shot attack as sandwich_bounds does; no GammaControlLP"
    )

    # One stratum per M value, each taken whole in every cycle (34 solves,
    # 0.2-0.9 s each), so every run times the same points and the seed only
    # orders them. At M >= 8 the cost depends on W/C, so those strata hold
    # W/C = 10 and 18 only; they include the four points whose SLP loop runs
    # out of rounds at the seed commit, so every cycle fails the same four.
    cycle_s = 14.0
    strata = tuple(
        Stratum(f"M={M}", tuple((M, wc, gl) for wc in WC_RATIOS for gl in GAMMA_LOS), 6)
        for M in (0, 4, 6)
    ) + tuple(
        Stratum(f"M={M}", tuple((M, wc, gl) for wc in (10.0, 18.0) for gl in GAMMA_LOS), 4)
        for M in (8, 9, 12, 14)
    )

    def build_cases(self) -> None:
        import numpy as np

        super().build_cases()
        self.seed_attacks = {}
        for key, ref in self.refs["feeder"]["points"].items():
            delta = np.zeros(self.feeder.n + 1, dtype=int)
            delta[ref["lpf_delta"]] = 1
            self.seed_attacks[key] = delta

    def call(self, point):
        import dersec.game

        M, wc, gl = point
        return dersec.game.solve_ad_iterative(
            self.nets[gl], None, M, self.params[(gl, wc)],
            seed_attack=self.seed_attacks[feeder_key(gl, wc, M)],
        )

    def check(self, solve: Solve) -> None:
        from dersec import NPF, response_state

        M, wc, gl = solve.point
        ref = self.ref(gl, wc, M)
        res = solve.result
        total = res.loss.total
        if not _close(total, ref["npf"]):
            solve.problems.append(f"npf loss {total!r} != reference {ref['npf']!r}")
        cap = self.refs["feeder"]["line_loss_cap"]
        if not ref["lpf"] <= total + CHAIN_SLACK:
            solve.problems.append(f"chain: L_lpf {ref['lpf']!r} > L_npf {total!r}")
        if not total <= ref["eps"] + cap + CHAIN_SLACK:
            solve.problems.append(f"chain: L_npf {total!r} > L_eps {ref['eps']!r} + cap")
        state = response_state(self.nets[gl], res.psi_star, res.phi_star, NPF)
        worst = max(state.residuals())
        if not worst < RESIDUAL_TOL:
            solve.problems.append(f"NPF residual {worst:.3e} >= {RESIDUAL_TOL}")
        solve.unconverged = not (res.converged and res.phi_star.converged)


class SecurityPlan(Workload):
    name = "security-plan"
    # every instance once per cycle (96 solves, 1-410 ms each), so every run
    # times the same instances and the seed only orders them
    cycle_s = 4.0
    why = (
        "trilevel solve_dad on small networks: closed-form placement, Stage-1 enumeration "
        "over one-shot sub-games, and over solve_ad_exhaustive (many small fresh LPs)"
    )

    def __init__(self, refs, out_dir):
        super().__init__(refs, out_dir)
        pools = self.pools = refs["security"]["pools"]
        grids = (
            ("symmetric", tuple(("sym", s, B, M) for s in SYM_SHAPES for B, M in SYM_BM)),
            ("identical-rx", tuple(("asym", s, B, M) for s in pools["asym"] for B, M in SECURITY_BM)),
            ("heterogeneous-rx", tuple(("het", s, B, M) for s in pools["het"] for B, M in SECURITY_BM)),
        )
        self.strata = tuple(Stratum(name, points, len(points)) for name, points in grids)

    def build_cases(self) -> None:
        from dersec import CostParams, balanced_tree, random_feasible_network

        self.nets = {("sym", s): balanced_tree(*s) for s in SYM_SHAPES}
        for kind in ("asym", "het"):
            for seed in self.pools[kind]:
                self.nets[(kind, seed)] = random_feasible_network(seed, identical_k=(kind == "asym"))
        self.params = {k: CostParams.from_ratio(net, SECURITY_WC) for k, net in self.nets.items()}

    def call(self, point):
        import dersec.security
        from dersec import LPF

        kind, ident, B, M = point
        net = self.nets[(kind, ident)]
        return dersec.security.solve_dad(net, B, M, self.params[(kind, ident)], LPF)

    def summarize(self, result):
        return SimpleNamespace(loss=result.loss,
                               converged=result.ad.converged and result.ad.phi_star.converged)

    def check(self, solve: Solve) -> None:
        kind, ident, B, M = solve.point
        ref = self.refs["security"]["points"][security_key(kind, ident, B, M)]
        loss = solve.result.loss
        if not _close(loss, ref["loss"]):
            solve.problems.append(f"solve_dad loss {loss!r} != reference {ref['loss']!r}")
        if ref["bf"] is not None and not _close(loss, ref["bf"]):
            solve.problems.append(f"solve_dad loss {loss!r} != bf_security {ref['bf']!r}")
        solve.unconverged = not solve.result.converged

    def check_run(self, solves, rng) -> list[str]:
        """Run the brute-force oracle live on two identical-r/x instances."""
        from dersec import LPF, bf_security

        seen = sorted({s.point for s in solves if s.result is not None and s.point[0] != "het" and s.point[2] == 1},
                      key=repr)
        problems = []
        for kind, ident, B, M in rng.sample(seen, min(2, len(seen))):
            key = (kind, ident)
            _, bf = bf_security(self.nets[key], B, M, self.params[key], LPF)
            loss = next(s.result.loss for s in solves if s.point == (kind, ident, B, M) and s.result is not None)
            if not _close(loss, bf):
                problems.append(f"{security_key(kind, ident, B, M)}: solve_dad {loss!r} != live bf_security {bf!r}")
        return problems


class CliSweep(_FeederWorkload):
    name = "cli-sweep"
    why = (
        "dersec sweep as a fresh process on a thread pool of nproc workers: interpreter "
        "start-up, import cost and GIL contention show here and nowhere else"
    )

    clock = "wall"
    cycle_s = 3.3
    # One scheduled point is one ``dersec sweep`` process. Each grid holds rows
    # of about equal cost (one-shot M = 5..7 without LPs; iterative M = 4..7),
    # so the two workers run comparable rows side by side. Every process of a
    # grid has the same M values; the seed draws only W/C and gamma_lo, which
    # barely change the cost below M = 8. One-shot rows are 12 of a cycle's 16,
    # so the median row is a one-shot row and the tail (eleventh largest) falls
    # on the middle one of five iterative processes.
    strata = (
        Stratum("oneshot-grid", tuple(("oneshot", wc1, wc2) for wc1, wc2 in _WC_PAIRS), 1),
        Stratum("iterative-grid", tuple(("iterative", wc, gl) for gl, wc in _GL_WC), 1),
    )

    def __init__(self, refs, out_dir):
        super().__init__(refs, out_dir)
        self.workers = os.cpu_count() or 1
        self.rss_mb = 0.0
        self.jobs = 0
        self.job_wall_ms = 0.0

    def build_cases(self) -> None:
        from dersec import homogeneous37, save_network

        self.feeder = homogeneous37()
        self.network_path = self.out_dir / "feeder.json"
        save_network(self.feeder, self.network_path)

    @staticmethod
    def config(point) -> dict:
        if point[0] == "oneshot":
            _, wc1, wc2 = point
            return {"M_values": [5, 6, 7], "wc_ratios": [wc1, wc2], "gamma_lo_values": list(GAMMA_LOS),
                    "model": "lpf", "engine": "oneshot"}
        _, wc, gl = point
        return {"M_values": [4, 5, 6, 7], "wc_ratios": [wc], "gamma_lo_values": [gl],
                "model": "npf", "engine": "iterative"}

    def command(self, cfg_path: Path, csv_path: Path, workers: int, traced: Path | None = None) -> list[str]:
        args = ["sweep", "--config", str(cfg_path), "--network", str(self.network_path),
                "--out", str(csv_path), "--workers", str(workers)]
        if traced is None:
            return [sys.executable, "-m", "dersec.cli", *args]
        return [sys.executable, str(Path(__file__).with_name("cli_traced.py")), str(traced), *args]

    def launch(self, point, workers: int | None = None, traced: Path | None = None):
        """Run one sweep process; returns (rows, wall ms, exit code, stderr)."""
        self.jobs += 1
        cfg_path = self.out_dir / f"sweep-{self.jobs}.json"
        csv_path = self.out_dir / f"sweep-{self.jobs}.csv"
        cfg_path.write_text(json.dumps(self.config(point)))
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        start = time.perf_counter()
        proc = subprocess.Popen(
            self.command(cfg_path, csv_path, workers or self.workers, traced),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env,
        )
        stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = (time.perf_counter() - start) * 1e3
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stderr.close()
        self.rss_mb = max(self.rss_mb, usage.ru_maxrss / 1024.0)
        rows = []
        if csv_path.exists():
            lines = csv_path.read_text().splitlines()
            header = lines[0].split(",")
            rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        return rows, wall, proc.returncode, stderr.decode(errors="replace")

    def warm_up(self) -> None:
        """Nothing: start-up and first-call costs are what this workload measures."""

    def run_point(self, point) -> list[Solve]:
        rows, wall, code, stderr = self.launch(point)
        self.job_wall_ms += wall
        cfg = self.config(point)
        expected = len(cfg["M_values"]) * len(cfg["wc_ratios"]) * len(cfg["gamma_lo_values"])
        if code != 0 or len(rows) != expected:
            return [Solve(point, wall, error=f"exit {code}, {len(rows)} of {expected} rows: {stderr.strip()[-300:]}")]
        return [self.row_solve(point, r, wall / len(rows)) for r in rows]

    @staticmethod
    def row_solve(point, row: dict, ms: float) -> Solve:
        """A CSV row, timed as its share of the process's wall time (start-up
        included); the row's own ``runtime_ms`` is kept in ``result``."""
        return Solve((point[0], int(row["M"]), float(row["wc_ratio"]), float(row["gamma_lo"])), ms, row)

    def check(self, solve: Solve) -> None:
        from dersec.netio import CSV_HEADER

        engine, M, wc, gl = solve.point
        row = solve.result
        if list(row) != CSV_HEADER.split(","):
            solve.problems.append("CSV header changed")
            return
        if row["error"]:
            solve.error = row["error"]
            return
        ref = self.ref(gl, wc, M)
        expected = ref["lpf"] if engine == "oneshot" else ref["npf_unseeded"]
        # the CSV carries 9 significant digits: allow half a unit in the last one
        got = float(row["total"])
        if not abs(got - expected) <= 5e-9 * abs(expected) + VALUE_TOL:
            solve.problems.append(f"{engine} row total {row['total']} != reference {expected!r}")
        solve.unconverged = row["converged"] != "true"


WORKLOADS = {w.name: w for w in (OneshotLinear, IterativeNPF, SecurityPlan, CliSweep)}
