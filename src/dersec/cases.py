"""Case generators: the 36-node study feeders, the 11-node precedence
example, synthetic symmetric trees, and the random instance generator used by
the property and acceptance sweeps.

Every generator lists per-node values and builds through ``_network``; a
field it does not set keeps ``NodeSpec``'s study default (the 5 percent soft
voltage band, C = 7 $/kW, W/C = 10, gamma_lo 0.5), and the substation
voltage and hard bounds are ``build_network``'s.

The 36-node feeder is the main case study: exact line/load/DER
ratings are kept (z = 0.33+0.38j ohm, 15 kW + 4.5 kvar loads, 11.55 kVA DERs,
4 kV at the substation, converted at S_base = 1 MVA, V_base = 4 kV), while
the topology and the 14 DER positions are fixed here and documented below.
"""

from __future__ import annotations

import numpy as np

from .network import Network, NodeSpec, build_network, node_vector
from .powerflow import nominal_injection, solve_npf

S_BASE_MVA = 1.0
V_BASE_KV = 4.0
Z_BASE_OHM = V_BASE_KV**2 / S_BASE_MVA            # 16 ohm

R_PU = 0.33 / Z_BASE_OHM                           # 0.020625
X_PU = 0.38 / Z_BASE_OHM                           # 0.02375
PC_PU = 15.0 / (S_BASE_MVA * 1000.0)               # 0.015
QC_PU = 4.5 / (S_BASE_MVA * 1000.0)                # 0.0045
CAP_PU = 11.55 / (S_BASE_MVA * 1000.0)             # 0.01155


def si_to_per_unit_impedance(ohm: complex, s_base_mva: float = S_BASE_MVA,
                             v_base_kv: float = V_BASE_KV) -> complex:
    return ohm * s_base_mva / v_base_kv**2


def si_to_per_unit_power(kw: float, s_base_mva: float = S_BASE_MVA) -> float:
    return kw / (s_base_mva * 1000.0)


def _network(parents: list[int | None], labels: list[str] | None = None, **values) -> Network:
    """The network over the tree ``parents`` (node 0 the substation, whose
    row keeps ``NodeSpec``'s zeros). Each keyword is a ``NodeSpec`` field
    given one value for every node or an array indexed by node id."""
    labels = labels or [None] * len(parents)
    cols = {name: np.broadcast_to(v, len(parents)) for name, v in values.items()}
    specs = [NodeSpec(id=0, parent=None, label=labels[0])]
    for i in range(1, len(parents)):
        row = {name: float(col[i]) for name, col in cols.items()}
        specs.append(NodeSpec(id=i, parent=parents[i], label=labels[i], **row))
    return build_network(specs)


def _below_nominal_dip(parents: list[int | None], margin: float, **values) -> Network:
    """``_network`` with the soft lower bound ``margin`` below the lowest
    squared voltage of the nominal (no-generation) state, rounded to 9
    decimals, so that small attacks already bind while the nominal state
    stays compliant."""
    probe = _network(parents, **values)
    dip = float(solve_npf(probe, nominal_injection(probe)).nu[1:].min())
    return _network(parents, nu_lo=round(dip - margin, 9), **values)


# Feeder layout: node 1 is an unloaded junction off the substation; nodes 2-8
# form the loaded spine; nodes 9-10 extend the spine as an unloaded DER
# sub-feeder; 12 more unloaded DER buses hang off the spine at the attach
# points below; 14 loaded laterals spread over spine depths 2-8.
_DER_ATTACH = [8, 7, 7, 6, 6, 5, 5, 4, 4, 3, 3, 2]             # nodes 11..22
_LATERAL_ATTACH = [2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 7, 7]   # nodes 23..36
_FEEDER37_PARENTS = [None, 0, *range(1, 8), 8, 9, *_DER_ATTACH, *_LATERAL_ATTACH]
_FEEDER37_LOADED = np.isin(np.arange(37), [*range(2, 9), *range(23, 37)])

HOMOGENEOUS37_DER_NODES = tuple(range(9, 23))


def _feeder37(load_scale, x_scale, der_caps) -> Network:
    """The 36-node feeder with per-node load and reactance scales (arrays
    indexed by node id, or 1.0) and the capabilities of DER nodes 9..22."""
    cap = np.zeros(37)
    cap[9:23] = der_caps
    return _network(
        _FEEDER37_PARENTS,
        r_pu=R_PU,
        x_pu=X_PU * x_scale,
        pc_nom=np.where(_FEEDER37_LOADED, PC_PU * load_scale, 0.0),
        qc_nom=np.where(_FEEDER37_LOADED, QC_PU * load_scale, 0.0),
        der_cap=cap,
    )


def homogeneous37() -> Network:
    """Homogeneous 36-node feeder: identical lines, equal loads, 14 equal DERs."""
    return _feeder37(1.0, 1.0, CAP_PU)


def heterogeneous37(seed: int = 0) -> Network:
    """Same topology with three DER size classes (matched total capability),
    scattered loads, and per-line r/x ratios."""
    rng = np.random.default_rng(seed)
    load_scale = np.ones(37)
    load_scale[1:] = rng.uniform(0.7, 1.3, size=36)
    x_scale = np.ones(37)
    x_scale[1:] = rng.uniform(0.85, 1.15, size=36)

    # three capability classes, balanced so the fleet total matches 14 * base
    n_small = int(rng.integers(3, 6))
    sizes = [0.5 * CAP_PU] * n_small + [1.5 * CAP_PU] * n_small
    sizes += [CAP_PU] * (14 - 2 * n_small)
    rng.shuffle(sizes)
    return _feeder37(load_scale, x_scale, sizes)


# the precedence example's labels in node-id order, each with its parent
_FIG2_PARENTS = {"a": "0", "b": "a", "c": "b", "i": "c", "m": "i",
                 "e": "b", "d": "b", "k": "d", "g": "a", "j": "g"}


def precedence_example() -> Network:
    """The 11-bus precedence example: spine 0-a-b-c-i-m with branches b-e,
    b-d-k, and a-g-j; homogeneous loads and DERs at every node."""
    labels = ["0", *_FIG2_PARENTS]
    parents = [None, *(labels.index(p) for p in _FIG2_PARENTS.values())]
    return _network(parents, labels, r_pu=R_PU, x_pu=X_PU, pc_nom=PC_PU, qc_nom=QC_PU,
                    der_cap=CAP_PU, nu_lo=0.99)


def balanced_tree(arity: int, height: int) -> Network:
    """Symmetric tree, numbered level by level, with identical loads and a
    DER at every node.

    Every line has z = 0.005+0.025j pu, every node the study feeder's load
    (PC_PU + j*QC_PU) and a 0.02 pu DER; gamma_lo, W and C are the study
    defaults. The soft lower bound sits 5e-4 below the nominal dip (see
    ``_below_nominal_dip``).
    """
    if arity < 2 or height < 1:
        raise ValueError("balanced tree needs arity >= 2 and height >= 1")
    n_total = (arity ** (height + 1) - 1) // (arity - 1)
    parents = [None, *((i - 1) // arity for i in range(1, n_total))]
    return _below_nominal_dip(parents, 5e-4, r_pu=0.005, x_pu=0.025, pc_nom=PC_PU,
                              qc_nom=QC_PU, der_cap=0.02)


def fig4_strategies(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """The two budget-6 strategies compared on the height-3 binary tree:
    u2 pushes securing one level down inside one half and one level up in the
    other, making the secured set more spread out. Returns (u1, u2)."""
    if net.n != 14:
        raise ValueError("the comparison is defined on the 14-node binary tree")
    return node_vector(net, [2, 4, 5, 6, 9, 10]), node_vector(net, [1, 3, 4, 5, 11, 13])


def gen_case(kind: str, seed: int = 0, arity: int = 2, height: int = 3) -> Network:
    """Named case lookup used by the CLI."""
    if kind == "homogeneous37":
        return homogeneous37()
    if kind == "heterogeneous37":
        return heterogeneous37(seed)
    if kind == "fig2":
        return precedence_example()
    if kind == "balanced_tree":
        return balanced_tree(arity, height)
    raise ValueError(f"unknown case kind {kind!r}")


def random_feasible_network(
    seed: int,
    n_max: int = 12,
    identical_k: bool = True,
) -> Network:
    """Random small tree with DER capabilities bounded so that net demand
    stays nonnegative under every feasible strategy profile (keeps the
    no-reverse-flow regime and hence the model orderings).
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    parents = [None, *(int(rng.integers(0, i)) for i in range(1, n + 1))]
    r = rng.uniform(0.004, 0.018, size=n + 1)
    x = r / (float(rng.uniform(0.6, 1.4)) if identical_k else rng.uniform(0.6, 1.4, size=n + 1))
    pc = rng.uniform(0.006, 0.02, size=n + 1)
    qc = pc * 0.3
    has_der = rng.random(n + 1) < 0.6
    cap = np.where(
        has_der,
        rng.uniform(0.3, 0.95, size=n + 1) * NodeSpec.gamma_lo * np.minimum(pc, qc),
        0.0,
    )
    # soft bound just below the nominal dip so small attacks already bind
    margin = float(rng.uniform(0.1, 0.6)) * 1e-3
    return _below_nominal_dip(parents, margin, r_pu=r, x_pu=x, pc_nom=pc, qc_nom=qc, der_cap=cap)
