"""Command-line entry points.

Exit codes: 0 on success, 2 on validation errors (bad networks, bad
arguments, infeasible preconditions), 3 on solver non-convergence (in
verify-bounds, of its NPF solve) or when verify-bounds finds that the bound
chain does not hold.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .cases import gen_case
from .errors import DersecError, NonConvergent
from .game import sandwich_bounds, solve_ad
from .loss import CostParams
from .netio import load_network, save_network, sweep_rows_to_csv
from .security import solve_dad
from .sweep import _MODELS, SweepConfig, _delta_string, model_tag, run_sweep, with_gamma_lo

_EXIT_VALIDATION = 2
_EXIT_NONCONVERGENT = 3


def _result_doc(net, result) -> dict:
    return {
        "model": str(result.model),
        "delta_star": _delta_string(net, result.delta_star),
        "attacked_nodes": [int(i) for i in np.flatnonzero(result.delta_star)],
        "loss": {
            "lovr": result.loss.lovr,
            "voll": result.loss.voll,
            "ll": result.loss.ll,
            "total": result.loss.total,
        },
        "gamma": [float(g) for g in result.phi_star.gamma],
        "sp_d": [[float(c.real), float(c.imag)] for c in result.phi_star.sp_d],
        "iterations": result.iterations,
        "converged": bool(result.converged),
    }


def _emit(doc: dict, out: str | None) -> None:
    """Write the JSON document to ``out``, or print it when there is none."""
    text = json.dumps(doc, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _cmd_gen_case(args) -> int:
    net = gen_case(args.kind, seed=args.seed, arity=args.arity, height=args.height)
    save_network(net, args.out)
    print(f"wrote {args.out} ({net.n} nodes, {len(net.der_nodes)} DER nodes)")
    return 0


def _prepared(args):
    net = load_network(args.network)
    if args.gamma_lo is not None:
        net = with_gamma_lo(net, args.gamma_lo)
    params = (
        CostParams.from_ratio(net, args.wc_ratio)
        if args.wc_ratio is not None
        else CostParams.from_network(net)
    )
    return net, params


def _cmd_solve_ad(args) -> int:
    net, params = _prepared(args)
    result = solve_ad(net, None, args.M, params, model_tag(args.model, net))
    _emit(_result_doc(net, result), args.out)
    return 0 if result.converged else _EXIT_NONCONVERGENT


def _cmd_solve_dad(args) -> int:
    net, params = _prepared(args)
    result = solve_dad(net, args.budget, args.M, params, model_tag(args.model, net))
    _emit({
        "budget": args.budget,
        "secured_nodes": [int(i) for i in np.flatnonzero(result.u_star.u)],
        "loss": result.loss,
        "subgame": _result_doc(net, result.ad),
    }, args.out)
    return 0


def _cmd_sweep(args) -> int:
    cfg_doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if not isinstance(cfg_doc, dict):
        raise ValueError("sweep config must be a JSON object")
    for axis in ("M_values", "wc_ratios", "gamma_lo_values"):
        if not isinstance(cfg_doc.get(axis), list):
            raise ValueError(f"sweep config field {axis} must be a list")
    network_path = args.network or cfg_doc.get("network")
    if not isinstance(network_path, str):
        raise ValueError("sweep needs --network or a network path string in the config")
    cfg = SweepConfig(
        M_values=tuple(cfg_doc["M_values"]),
        wc_ratios=tuple(cfg_doc["wc_ratios"]),
        gamma_lo_values=tuple(cfg_doc["gamma_lo_values"]),
        model=cfg_doc.get("model", "lpf"),
    )
    net = load_network(network_path)
    rows = run_sweep(net, cfg, workers=args.workers)
    Path(args.out).write_text(sweep_rows_to_csv(rows), encoding="utf-8")
    failed = sum(1 for r in rows if r.error)
    print(f"wrote {args.out} ({len(rows)} rows, {failed} with errors)")
    return 0


def _cmd_verify_bounds(args) -> int:
    net, params = _prepared(args)
    report = sandwich_bounds(net, None, args.M, params, eps=args.eps)
    converged = bool(report.results["npf"].converged)
    _emit({
        "l_lpf": report.l_lpf,
        "l_npf": report.l_npf,
        "l_eps": report.l_eps,
        "eps": report.eps,
        "slack_term": report.slack_term,
        "holds": bool(report.holds),
        "converged": converged,
    }, None)
    return 0 if report.holds and converged else _EXIT_NONCONVERGENT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dersec")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-case", help="generate a named case network")
    p.add_argument("--kind", required=True,
                   choices=["homogeneous37", "heterogeneous37", "fig2", "balanced_tree"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--arity", type=int, default=2)
    p.add_argument("--height", type=int, default=3)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_case)

    def common(p):
        p.add_argument("--network", required=True)
        p.add_argument("-M", type=int, required=True)
        p.add_argument("--wc-ratio", type=float, default=None, dest="wc_ratio")
        p.add_argument("--gamma-lo", type=float, default=None, dest="gamma_lo")

    p = sub.add_parser("solve-ad", help="solve the attacker-defender sub-game")
    common(p)
    p.add_argument("--model", choices=_MODELS, default="lpf")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve_ad)

    p = sub.add_parser("solve-dad", help="solve the trilevel security game")
    common(p)
    p.add_argument("--budget", "-B", type=int, required=True)
    p.add_argument("--model", choices=["lpf", "eps-lpf"], default="lpf")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve_dad)

    p = sub.add_parser("sweep", help="run a sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--network", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify-bounds", help="certify the sandwich bound chain")
    common(p)
    p.add_argument("--eps", type=float, default=None)
    p.set_defaults(func=_cmd_verify_bounds)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonConvergent as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return _EXIT_NONCONVERGENT
    except (DersecError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
