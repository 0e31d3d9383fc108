"""Outside-in tracer for dersec: wraps the package's public functions from the
benchmark's own files, so the program itself carries no spans.

A traced name is patched in every ``dersec`` module that binds the same
object, because modules import each other's functions by name (``game`` binds
``candidate_attack_set``, ``response`` binds ``linprog`` and ``solve_npf``).
Spans nest on a per-thread stack; a span's self time is its duration minus
the durations of its direct child spans. A name that no longer exists is
recorded in ``absent`` and skipped, so a later change that deletes a function
loses that metric instead of crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

# (span name, module, attribute path). ``optimal_response`` is named per call
# as ``response.linear`` or ``response.npf`` from its model argument.
TRACED = (
    ("game.solve_ad_oneshot", "dersec.game", "solve_ad_oneshot"),
    ("game.solve_ad_iterative", "dersec.game", "solve_ad_iterative"),
    ("attack.candidate_attack_set", "dersec.attack", "candidate_attack_set"),
    ("attack.optimal_attack_fixed_response", "dersec.attack", "optimal_attack_fixed_response"),
    ("attack.pivot_optimal_attack", "dersec.attack", "pivot_optimal_attack"),
    ("attack.impact_matrix", "dersec.attack", "impact_matrix"),
    ("response.gamma_lp", "dersec.response", "GammaControlLP.solve"),
    ("response.optimal_response", "dersec.response", "optimal_response"),
    ("response.linprog", "dersec.response", "linprog"),
    ("powerflow.solve_npf", "dersec.powerflow", "solve_npf"),
    ("powerflow.solve_lpf", "dersec.powerflow", "solve_lpf"),
    ("powerflow.solve_lpf", "dersec.powerflow", "solve_eps_lpf"),
    ("loss.evaluate_loss", "dersec.loss", "evaluate_loss"),
    ("security.solve_dad", "dersec.security", "solve_dad"),
    ("security.solve_ad_exhaustive", "dersec.security", "solve_ad_exhaustive"),
    ("sweep.run_sweep", "dersec.sweep", "run_sweep"),
    ("cli.main", "dersec.cli", "main"),
)

# parents that own the LP solves underneath them
_LP_OWNERS = ("response.gamma_lp", "response.npf", "response.linear")
_SUBGAMES = ("game.solve_ad_oneshot", "security.solve_ad_exhaustive")


class _Frame:
    __slots__ = ("name", "start", "child", "lps")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child = 0.0
        self.lps = 0


class Tracer:
    """Span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------
    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> _Frame:
        stack = self._stack()
        if name == "response.linprog":
            owner = next((f for f in reversed(stack) if f.name in _LP_OWNERS), None)
            if owner is not None:
                owner.lps += 1
            if any(f.name == "game.solve_ad_oneshot" for f in stack):
                self._count("game.oneshot.linprog", 1)
        elif name in _SUBGAMES and any(f.name == "security.solve_dad" for f in stack):
            self._count("security.stage1_subgames", 1)
        frame = _Frame(name, time.perf_counter())
        stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, raised: bool, result) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        dur = end - frame.start
        name = frame.name
        if name == "response.linprog":
            owner = next((f for f in reversed(stack) if f.name in _LP_OWNERS), None)
            if owner is not None:
                name = f"response.linprog.{owner.name.split('.', 1)[1]}"
                self._add(name, dur, dur - frame.child, raised)
            name = "response.linprog"
        self._add(name, dur, dur - frame.child, raised)
        if stack:
            stack[-1].child += dur
        if raised:
            return
        if frame.name == "response.npf":
            self._count("response.npf.slp_lps", frame.lps)
            with self._lock:
                self.counters["response.npf.slp_lps_max"] = max(
                    self.counters["response.npf.slp_lps_max"], frame.lps
                )
            if not getattr(result, "converged", True):
                self._count("response.npf.nonconverged", 1)
        elif frame.name == "game.solve_ad_oneshot":
            self._count("game.oneshot.candidates", len(result.trace))
        elif frame.name == "game.solve_ad_iterative":
            self._count("game.iterative.iterations", result.iterations)

    def _add(self, name: str, dur: float, self_dur: float, raised: bool) -> None:
        with self._lock:
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += self_dur
            if raised:
                self.failed[name] += 1

    def _count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    # -- patching -----------------------------------------------------------
    def _wrap(self, name: str, fn):
        tracer = self

        if name == "response.optimal_response":

            def span_name(args, kwargs):
                model = kwargs.get("model", args[3] if len(args) > 3 else None)
                return "response.linear" if model.is_linear else "response.npf"

        else:

            def span_name(args, kwargs):
                return name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(span_name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, True, None)
                raise
            tracer._exit(frame, False, result)
            return result

        return traced

    def install(self) -> None:
        for module_name in sorted({module_name for _, module_name, _ in TRACED}):
            try:
                importlib.import_module(module_name)
            except ModuleNotFoundError:
                pass
        modules = [m for k, m in sys.modules.items() if k == "dersec" or k.startswith("dersec.")]
        installed: set[str] = set()
        missing: set[str] = set()
        for name, module_name, attr in TRACED:
            module = sys.modules.get(module_name)
            owner, _, leaf = attr.rpartition(".")
            target = getattr(module, owner, None) if owner else module
            fn = getattr(target, leaf, None) if target is not None else None
            if fn is None or not callable(fn):
                missing.add(name)
                continue
            installed.add(name)
            wrapped = self._wrap(name, fn)
            if owner:
                # a method: patch the class attribute
                self._patch(target, leaf, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapped)
        self.absent = missing - installed

    def _patch(self, obj, key: str, value) -> None:
        self._patches.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    # -- export ---------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-data aggregate, mergeable across processes."""
        with self._lock:
            return {
                "calls": dict(self.calls),
                "failed": dict(self.failed),
                "total_ms": {k: v * 1e3 for k, v in self.total_s.items()},
                "self_ms": {k: v * 1e3 for k, v in self.self_s.items()},
                "counters": dict(self.counters),
                "absent": sorted(self.absent),
            }


def merge(snapshots: list[dict]) -> dict:
    """Sum snapshots; maxima stay maxima."""
    out = {"calls": {}, "failed": {}, "total_ms": {}, "self_ms": {}, "counters": {}, "absent": set()}
    for snap in snapshots:
        for part in ("calls", "failed", "total_ms", "self_ms", "counters"):
            for key, value in snap[part].items():
                if key.endswith("_max"):
                    out[part][key] = max(out[part].get(key, 0), value)
                else:
                    out[part][key] = out[part].get(key, 0) + value
        out["absent"].update(snap["absent"])
    out["absent"] = sorted(out["absent"])
    return out
