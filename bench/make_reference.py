"""Regenerate ``reference.json``: the expected output at every grid point the
benchmark can draw, computed once by the program at the commit that defines
the benchmark.

    python3 bench/make_reference.py

Takes about ten minutes on two cores (the eps-LPF one-shot at M = 5..10 needs
an LP for almost every candidate). Regenerate only when a change is meant to
alter the program's answers, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from dersec import (  # noqa: E402
    LPF,
    CostParams,
    balanced_tree,
    bf_security,
    calibrate_epsilon,
    eps_lpf,
    homogeneous37,
    is_symmetric,
    line_loss_cap,
    random_feasible_network,
    solve_ad_iterative,
    solve_ad_oneshot,
    solve_dad,
)
from dersec.errors import TooLargeToEnumerate  # noqa: E402
from dersec.sweep import with_gamma_lo  # noqa: E402

from workloads import (  # noqa: E402
    GAMMA_LOS,
    M_VALUES,
    NET_SEED_RANGE,
    SECURITY_BM,
    SECURITY_POOL_SIZE,
    SECURITY_WC,
    SYM_BM,
    SYM_SHAPES,
    WC_RATIOS,
    feeder_key,
    security_key,
)


def feeder_reference() -> dict:
    feeder = homogeneous37()
    eps = calibrate_epsilon(feeder).eps
    points = {}
    for gl in GAMMA_LOS:
        net = with_gamma_lo(feeder, gl)
        for wc in WC_RATIOS:
            params = CostParams.from_ratio(net, wc)
            for M in M_VALUES:
                lo = solve_ad_oneshot(net, None, M, params, LPF)
                hi = solve_ad_oneshot(net, None, M, params, eps_lpf(eps))
                mid = solve_ad_iterative(net, None, M, params, seed_attack=lo.delta_star)
                bare = solve_ad_iterative(net, None, M, params)
                points[feeder_key(gl, wc, M)] = {
                    "lpf": lo.loss.total,
                    "lpf_delta": [int(i) for i in np.flatnonzero(lo.delta_star)],
                    "eps": hi.loss.total,
                    "npf": mid.loss.total,
                    "npf_converged": bool(mid.converged and mid.phi_star.converged),
                    "npf_unseeded": bare.loss.total,
                    "npf_unseeded_converged": bool(bare.converged),
                }
                print(feeder_key(gl, wc, M), points[feeder_key(gl, wc, M)]["npf"], flush=True)
    return {"eps": eps, "line_loss_cap": line_loss_cap(feeder), "points": points}


def _bf(net, B, M, params):
    try:
        return bf_security(net, B, M, params, LPF)[1]
    except TooLargeToEnumerate:
        return None


def security_reference() -> dict:
    pools = {"asym": [], "het": []}
    for seed in NET_SEED_RANGE:
        net = random_feasible_network(seed, identical_k=True)
        if net.uniform_rx_ratio() is not None and not is_symmetric(net) and 3 <= len(net.der_nodes) <= 7:
            pools["asym"].append(seed)
        net = random_feasible_network(seed, identical_k=False)
        if net.uniform_rx_ratio() is None and 3 <= len(net.der_nodes) <= 5:
            pools["het"].append(seed)
    pools = {kind: seeds[: SECURITY_POOL_SIZE[kind]] for kind, seeds in pools.items()}

    points = {}
    for shape in SYM_SHAPES:
        net = balanced_tree(*shape)
        params = CostParams.from_ratio(net, SECURITY_WC)
        for B, M in SYM_BM:
            loss = solve_dad(net, B, M, params, LPF).loss
            points[security_key("sym", shape, B, M)] = {"loss": loss, "bf": _bf(net, B, M, params)}
    for kind, seeds in pools.items():
        for seed in seeds:
            net = random_feasible_network(seed, identical_k=(kind == "asym"))
            params = CostParams.from_ratio(net, SECURITY_WC)
            for B, M in SECURITY_BM:
                loss = solve_dad(net, B, M, params, LPF).loss
                bf = _bf(net, B, M, params) if kind == "asym" else None
                points[security_key(kind, seed, B, M)] = {"loss": loss, "bf": bf}
        print(kind, len(seeds), "networks", flush=True)
    return {"pools": pools, "points": points}


def main() -> None:
    doc = {"security": security_reference(), "feeder": feeder_reference()}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
