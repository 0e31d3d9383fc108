"""dersec benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload oneshot-linear --seed 1 --seconds 15 --trace 0

``--trace 0`` runs a fixed number of cycles of seeded solves, about
``--seconds`` of work, untraced, then checks every output and prints the
end-to-end metrics; their timings are divided by the run's host slowdown
(``hostspeed.py``), and the as-measured values are printed beside them.
``--trace 1`` replays one cycle three times (traced, untraced, traced),
prints the per-layer metrics of the last pass, and fails if the work counts
of the two traced passes differ.
Human-readable lines come first; the last line of standard output is one JSON
object. The exit code is 1 when an output check fails and 2 when the
program's sources are missing. See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads, here and in every child process:
# the solves are single-threaded and their matrices small, and idle BLAS
# threads spinning on the other vCPU inflate and scatter the CPU-clock times.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3   # the run's own set-up plus fresh-interpreter probes
MIN_SOLVES = 20     # fewest solves with a tail percentile (ten beyond it)
PROBE_EVERY_MS = 150.0  # solve time between two host-speed probes

sys.path.insert(0, str(HERE))

from hostspeed import HostProbe  # noqa: E402
from tracer import Tracer, merge  # noqa: E402
from workloads import WORKLOADS, CliSweep, Schedule  # noqa: E402


def _ms(seconds: float) -> float:
    return seconds * 1e3


# --------------------------------------------------------------------------
# set-up

def timed_setup(workload) -> dict:
    """Import, case building and calibration, each timed; dersec must not be
    imported before this runs."""
    t0 = time.perf_counter()
    import dersec  # noqa: F401

    t1 = time.perf_counter()
    workload.build_cases()
    t2 = time.perf_counter()
    workload.calibrate()
    t3 = time.perf_counter()
    return {"import_ms": _ms(t1 - t0), "cases_ms": _ms(t2 - t1), "calibrate_ms": _ms(t3 - t2), "setup_s": t3 - t0}


def probe_setups(name: str, count: int) -> list[dict]:
    """Set-up timings from fresh interpreters, one after another."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", name],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


# --------------------------------------------------------------------------
# environment record

def _blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded in this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    libs = sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    out = {}
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = int(fn())
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
    }


# --------------------------------------------------------------------------
# end-to-end statistics

def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it: (value, pct)."""
    n = len(samples)
    if n < MIN_SOLVES:
        return None
    ordered = sorted(samples)
    return ordered[n - 11], 100.0 * (n - 10) / n


def check_all(workload, solves, seed) -> list[str]:
    for s in solves:
        if not s.error:
            workload.check(s)
    problems = [f"{s.point}: {p}" for s in solves for p in s.problems]
    problems += [f"{s.point}: raised {s.error}" for s in solves if s.error]
    return problems + workload.check_run(solves, random.Random(seed + 7919))


def timed_run(workload, seed: int, seconds: float, probe: HostProbe):
    """An untimed warm-up, then a fixed number of whole cycles (about
    ``seconds`` of work on the host the cycle times were measured on), so a
    seed always gives the same solves, attempted and failed counts. The host
    probe runs before the first solve, after the last, and after every
    ``PROBE_EVERY_MS`` of solve time between them."""
    schedule = Schedule(workload.strata, random.Random(seed))
    workload.warm_up()
    solves = []
    since = 0.0
    start, cpu_start = time.perf_counter(), time.process_time()
    probe.sample()
    for _ in range(workload.cycles(seconds)):
        for point in schedule.cycle():
            done = workload.run_point(point)
            solves.extend(done)
            since += sum(s.ms for s in done)
            if since >= PROBE_EVERY_MS:
                probe.sample()
                since = 0.0
    if since:
        probe.sample()
    return solves, time.perf_counter() - start, time.process_time() - cpu_start


def peak_rss_mb(workload) -> float:
    """Peak resident memory of the process that solves: this one, or for
    cli-sweep the largest sweep process."""
    if isinstance(workload, CliSweep):
        return workload.rss_mb
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# traced run

def _layer_table():
    """Per-layer metrics as (name, unit, traced spans the metric needs)."""
    C, MS = "count", "ms"
    rows = [
        ("setup.import_ms", MS, ()), ("setup.cases_ms", MS, ()), ("setup.calibrate_ms", MS, ()),
        ("game.solve_ad_oneshot.calls", C, ("game.solve_ad_oneshot",)),
        ("game.solve_ad_oneshot.self_ms", MS, ("game.solve_ad_oneshot",)),
        ("game.oneshot.candidates", C, ("game.solve_ad_oneshot",)),
        ("game.oneshot.lp_per_candidate", "ratio", ("game.solve_ad_oneshot", "response.linprog")),
        ("game.solve_ad_iterative.calls", C, ("game.solve_ad_iterative",)),
        ("game.solve_ad_iterative.self_ms", MS, ("game.solve_ad_iterative",)),
        ("game.iterative.iterations", C, ("game.solve_ad_iterative",)),
    ]
    for span, extra in (
        ("attack.candidate_attack_set", ("calls", "self_ms")),
        ("attack.optimal_attack_fixed_response", ("calls", "self_ms")),
        ("attack.pivot_optimal_attack", ("calls",)),
        ("attack.impact_matrix", ("calls", "self_ms")),
    ):
        rows += [(f"{span}.{k}", C if k == "calls" else MS, (span,)) for k in extra]
    rows += [
        ("response.gamma_lp.solves", C, ("response.gamma_lp",)),
        ("response.gamma_lp.self_ms", MS, ("response.gamma_lp",)),
    ]
    resp = ("response.optimal_response",)
    rows += [
        ("response.npf.calls", C, resp), ("response.npf.self_ms", MS, resp),
        ("response.npf.slp_lps", C, resp + ("response.linprog",)),
        ("response.npf.slp_lps_max", C, resp + ("response.linprog",)),
        ("response.npf.nonconverged", C, resp),
        ("response.linear.calls", C, resp), ("response.linear.self_ms", MS, resp),
        ("response.linprog.calls", C, ("response.linprog",)),
        ("response.linprog.self_ms", MS, ("response.linprog",)),
    ]
    for part in ("gamma_lp", "npf", "linear"):
        rows += [(f"response.linprog.{part}.calls", C, ("response.linprog",)),
                 (f"response.linprog.{part}.self_ms", MS, ("response.linprog",))]
    rows += [
        ("powerflow.solve_npf.calls", C, ("powerflow.solve_npf",)),
        ("powerflow.solve_npf.self_ms", MS, ("powerflow.solve_npf",)),
        ("powerflow.solve_npf.failed", C, ("powerflow.solve_npf",)),
        ("powerflow.solve_lpf.calls", C, ("powerflow.solve_lpf",)),
        ("powerflow.solve_lpf.self_ms", MS, ("powerflow.solve_lpf",)),
        ("loss.evaluate_loss.calls", C, ("loss.evaluate_loss",)),
        ("loss.evaluate_loss.self_ms", MS, ("loss.evaluate_loss",)),
        ("security.solve_dad.calls", C, ("security.solve_dad",)),
        ("security.solve_dad.self_ms", MS, ("security.solve_dad",)),
        ("security.stage1_subgames", C, ("security.solve_dad",)),
        ("security.solve_ad_exhaustive.calls", C, ("security.solve_ad_exhaustive",)),
        ("security.solve_ad_exhaustive.self_ms", MS, ("security.solve_ad_exhaustive",)),
        ("sweep.run_sweep.wall_ms", MS, ("sweep.run_sweep",)),
        ("sweep.speedup", "ratio", ("sweep.run_sweep",)),
        ("sweep.row_inflation", "ratio", ("game.solve_ad_oneshot", "game.solve_ad_iterative")),
        ("cli.startup_ms", MS, ("cli.main",)),
        ("trace.overhead_share", "share", ()),
    ]
    return rows


LAYER_METRICS = _layer_table()


def work_counts(snap: dict) -> dict:
    """Counts that must repeat exactly between two traced passes over the
    same inputs (every call count except the process-level spans)."""
    counts = {f"{k}.calls": v for k, v in snap["calls"].items() if k not in ("cli.main", "sweep.run_sweep")}
    counts.update(snap["counters"])
    return dict(sorted(counts.items()))


def layer_values(snap: dict, setup: dict, extra: dict) -> dict:
    calls, self_ms, counters = snap["calls"], snap["self_ms"], snap["counters"]
    values = {
        "setup.import_ms": setup["import_ms"],
        "setup.cases_ms": setup["cases_ms"],
        "setup.calibrate_ms": setup["calibrate_ms"],
        "game.oneshot.candidates": counters.get("game.oneshot.candidates", 0),
        "game.oneshot.lp_per_candidate": (
            counters.get("game.oneshot.linprog", 0) / counters["game.oneshot.candidates"]
            if counters.get("game.oneshot.candidates") else 0.0
        ),
        "game.iterative.iterations": counters.get("game.iterative.iterations", 0),
        "response.gamma_lp.solves": calls.get("response.gamma_lp", 0),
        "powerflow.solve_npf.failed": snap["failed"].get("powerflow.solve_npf", 0),
        "security.stage1_subgames": counters.get("security.stage1_subgames", 0),
        "sweep.run_sweep.wall_ms": snap["total_ms"].get("sweep.run_sweep", 0.0),
    }
    for key in ("slp_lps", "slp_lps_max", "nonconverged"):
        values[f"response.npf.{key}"] = counters.get(f"response.npf.{key}", 0)
    values.update(extra)
    out = {}
    for name, unit, needs in LAYER_METRICS:
        if any(span in snap["absent"] for span in needs):
            continue
        if name not in values:
            span, _, kind = name.rpartition(".")
            values[name] = calls.get(span, 0) if kind == "calls" else self_ms.get(span, 0.0)
        out[name] = {"value": values[name], "unit": unit}
    return out


def traced_run(workload, seed: int):
    """Three passes over the same seeded cycle: traced, untraced, traced.
    Returns the passes (untraced, reported traced, other traced), the two
    traced snapshots and the derived metrics."""
    schedule = Schedule(workload.strata, random.Random(seed))
    points = schedule.cycle()
    if isinstance(workload, CliSweep):
        return _traced_cli(workload, points)
    # traced first, so the untraced pass and the reported traced pass both
    # run warm
    passes, snaps, walls = [], [], []
    for traced in (True, False, True):
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        start = time.perf_counter()
        try:
            solves = [s for p in points for s in workload.run_point(p)]
        finally:
            if tracer:
                tracer.uninstall()
        walls.append(time.perf_counter() - start)
        passes.append(solves)
        snaps.append(tracer.snapshot() if tracer else None)
    extra = {"trace.overhead_share": (walls[2] - walls[1]) / walls[1],
             "sweep.speedup": 0.0, "sweep.row_inflation": 0.0, "cli.startup_ms": 0.0}
    return [passes[1], passes[2], passes[0]], snaps[2], snaps[0], extra


def _traced_cli(workload, points):
    """cli-sweep: untraced processes, then traced ones at nproc and 1 worker."""
    solves0, solves1, solves2 = [], [], []
    snaps1, snaps2 = [], []
    walls = [0.0, 0.0, 0.0]
    for i, point in enumerate(points):
        solves0 += workload.run_point(point)
        for workers, snaps, solves, slot in ((workload.workers, snaps1, solves1, 1), (1, snaps2, solves2, 2)):
            path = workload.out_dir / f"trace-{slot}-{i}.json"
            rows, wall, code, stderr = workload.launch(point, workers=workers, traced=path)
            walls[slot] += wall
            if code != 0 or not path.exists():
                raise RuntimeError(f"traced sweep failed (exit {code}): {stderr.strip()[-500:]}")
            snaps.append(json.loads(path.read_text()))
            solves += [workload.row_solve(point, r, wall / max(len(rows), 1)) for r in rows]
    walls[0] = workload.job_wall_ms
    snap1, snap2 = merge(snaps1), merge(snaps2)

    def rows_ms(snap):
        return sum(snap["total_ms"].get(k, 0.0) for k in ("game.solve_ad_oneshot", "game.solve_ad_iterative"))

    run1 = snap1["total_ms"].get("sweep.run_sweep", 0.0)
    extra = {
        "trace.overhead_share": (walls[1] - walls[0]) / walls[0],
        "sweep.speedup": snap2["total_ms"].get("sweep.run_sweep", 0.0) / run1 if run1 else 0.0,
        "sweep.row_inflation": rows_ms(snap1) / rows_ms(snap2) if rows_ms(snap2) else 0.0,
        "cli.startup_ms": (walls[1] - snap1["total_ms"].get("cli.main", 0.0)) / len(points),
    }
    return [solves0, solves1, solves2], snap1, snap2, extra


# --------------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dersec" / "__init__.py").is_file():
        print(f"error: dersec sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    refs = json.loads((HERE / "reference.json").read_text())
    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](refs, run_dir)
        if args.setup_probe:
            print(json.dumps(timed_setup(workload)))
            return 0
        return _run(args, workload)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in turn, each in its own interpreter; the last line maps
    workload to its result line."""
    results, code = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"[{name}] exit {proc.returncode} {proc.stderr.strip()[-500:]}")
            code = 1
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    print(json.dumps(results))
    return code


def _run(args, workload) -> int:
    setups = probe_setups(args.workload, SETUP_SAMPLES - 1)
    setups.append(timed_setup(workload))
    setup = {k: statistics.median(s[k] for s in setups) for k in setups[0]}
    env = environment()
    print(f"workload {workload.name}: {workload.why}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"setup_s samples: {[round(s['setup_s'], 4) for s in setups]}")

    if args.trace:
        passes, snap, again, extra = traced_run(workload, args.seed)
        solves = [s for p in passes for s in p]
        problems = check_all(workload, solves, args.seed)
        first, second = work_counts(snap), work_counts(again)
        if first != second:
            diff = {k: (first.get(k), second.get(k)) for k in set(first) | set(second) if first.get(k) != second.get(k)}
            problems.append(f"work counts differ between two traced passes (nondeterminism): {diff}")
        digest = hashlib.sha1(json.dumps(first, sort_keys=True).encode()).hexdigest()[:12]
        metrics = layer_values(snap, setup, extra)
        record = {"workload": workload.name, "seed": args.seed, "env": env, "setup": setup,
                  "spans": snap, "work_counts": first, "metrics": metrics}
        (OUT / f"trace-{workload.name}-seed{args.seed}.json").write_text(json.dumps(record, indent=1))
        for name, m in metrics.items():
            print(f"{name:45s} {m['value']:>14.6g} {m['unit']}")
        absent = sorted(set(n for n, _, _ in LAYER_METRICS) - set(metrics))
        if absent:
            print(f"absent (traced name no longer exists): {absent}")
        print(f"work-counts digest {digest} over {len(passes[1])} solves")
        attempted = len(passes[1])
        failed = sum(s.failed for s in passes[1])
    else:
        probe = HostProbe()
        solves, wall, cpu = timed_run(workload, args.seed, args.seconds, probe)
        rss = peak_rss_mb(workload)
        problems = check_all(workload, solves, args.seed)
        slowdown = probe.slowdown()
        raw = [s.ms for s in solves]
        times = [ms / slowdown for ms in raw]
        metrics = {
            "solves_per_s": {"value": 1e3 * len(solves) / sum(times), "unit": "1/s"},
            "solve_ms.p50": {"value": statistics.median(times), "unit": "ms"},
        }
        tail_point = tail(times)
        if tail_point is not None:
            metrics["solve_ms.tail"] = {"value": tail_point[0], "unit": "ms"}
        metrics["setup_s"] = {"value": setup["setup_s"], "unit": "s"}
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
        attempted = len(solves)
        failed = sum(s.failed for s in solves)
        for name, m in metrics.items():
            print(f"{name:16s} {m['value']:>12.6g} {m['unit']}")
        print(f"failed_share     {failed / attempted:>12.6g} share ({failed} of {attempted} solves failed)")
        print(f"samples: {len(times)} solves in {wall:.3f} s wall, {cpu:.3f} s CPU; solve times on the "
              f"{workload.clock} clock; tail is "
              + (f"p{tail_point[1]:.1f}" if tail_point else "omitted (fewer than 20 solves)"))
        print(f"host probe: {len(probe.samples)} samples, median {statistics.median(probe.samples):.3f} ms, "
              f"slowdown {slowdown:.4f}; timings above are divided by it; as measured: "
              f"solves_per_s {1e3 * len(raw) / sum(raw):.6g}, solve_ms.p50 {statistics.median(raw):.6g}"
              + (f", solve_ms.tail {tail_point[0] * slowdown:.6g}" if tail_point else ""))

    for problem in problems[:20]:
        print(f"CHECK FAILED {problem}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
