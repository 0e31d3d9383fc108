"""Case generators: the 36-node study feeders, the 11-node precedence
example, synthetic symmetric trees, and the random instance generator used by
the property and acceptance sweeps.

The 36-node feeder is the main case study: exact line/load/DER
ratings are kept (z = 0.33+0.38j ohm, 15 kW + 4.5 kvar loads, 11.55 kVA DERs,
4 kV at the substation, converted at S_base = 1 MVA, V_base = 4 kV), while
the topology and the 14 DER positions are fixed here and documented below.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .network import Network, NodeSpec, build_network
from .powerflow import nominal_injection, solve_npf

S_BASE_MVA = 1.0
V_BASE_KV = 4.0
Z_BASE_OHM = V_BASE_KV**2 / S_BASE_MVA            # 16 ohm

R_PU = 0.33 / Z_BASE_OHM                           # 0.020625
X_PU = 0.38 / Z_BASE_OHM                           # 0.02375
PC_PU = 15.0 / (S_BASE_MVA * 1000.0)               # 0.015
QC_PU = 4.5 / (S_BASE_MVA * 1000.0)                # 0.0045
CAP_PU = 11.55 / (S_BASE_MVA * 1000.0)             # 0.01155
C_PER_PU = 7.0 * 1000.0                            # 7 $/kW -> 7000 $/pu
DEFAULT_WC_RATIO = 10.0

NU_LO_DEFAULT = 0.9025                             # (0.95)^2
NU_HI_DEFAULT = 1.1025                             # (1.05)^2
MU_LO_DEFAULT = 0.8
MU_HI_DEFAULT = 1.21


def si_to_per_unit_impedance(ohm: complex, s_base_mva: float = S_BASE_MVA,
                             v_base_kv: float = V_BASE_KV) -> complex:
    return ohm * s_base_mva / v_base_kv**2


def si_to_per_unit_power(kw: float, s_base_mva: float = S_BASE_MVA) -> float:
    return kw / (s_base_mva * 1000.0)


# Feeder layout: node 1 is an unloaded junction off the substation; nodes 2-8
# form the loaded spine; nodes 9-10 extend the spine as an unloaded DER
# sub-feeder; 12 more unloaded DER buses hang off the spine at the attach
# points below; 14 loaded laterals spread over spine depths 2-8.
_SPINE = list(range(2, 9))
_DER_CHAIN = {9: 8, 10: 9}
_DER_ATTACH = [8, 7, 7, 6, 6, 5, 5, 4, 4, 3, 3, 2]             # nodes 11..22
_LATERAL_ATTACH = [2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 7, 7]   # nodes 23..36

HOMOGENEOUS37_DER_NODES = tuple(range(9, 23))


def _feeder37_nodes(
    load_scale: np.ndarray | None = None,
    x_scale: np.ndarray | None = None,
    caps: dict[int, float] | None = None,
) -> list[NodeSpec]:
    n_total = 37
    parent: dict[int, int | None] = {0: None, 1: 0}
    for k in _SPINE:
        parent[k] = k - 1
    parent.update(_DER_CHAIN)
    for i, at in enumerate(_DER_ATTACH):
        parent[11 + i] = at
    for i, at in enumerate(_LATERAL_ATTACH):
        parent[23 + i] = at

    loaded = set(_SPINE) | set(range(23, 37))
    der = dict.fromkeys(HOMOGENEOUS37_DER_NODES, CAP_PU)
    if caps is not None:
        der = dict(caps)

    ls = np.ones(n_total) if load_scale is None else load_scale
    xs = np.ones(n_total) if x_scale is None else x_scale

    nodes = [NodeSpec(id=0, parent=None, r_pu=0.0, x_pu=0.0)]
    for i in range(1, n_total):
        has_load = i in loaded
        nodes.append(
            NodeSpec(
                id=i,
                parent=parent[i],
                r_pu=R_PU,
                x_pu=X_PU * float(xs[i]),
                pc_nom=PC_PU * float(ls[i]) if has_load else 0.0,
                qc_nom=QC_PU * float(ls[i]) if has_load else 0.0,
                der_cap=der.get(i, 0.0),
                nu_lo=NU_LO_DEFAULT,
                nu_hi=NU_HI_DEFAULT,
                W=DEFAULT_WC_RATIO * C_PER_PU,
                C=C_PER_PU,
                gamma_lo=0.5,
            )
        )
    return nodes


def homogeneous37() -> Network:
    """Homogeneous 36-node feeder: identical lines, equal loads, 14 equal DERs."""
    return build_network(_feeder37_nodes(), nu0=1.0, mu_lo=MU_LO_DEFAULT, mu_hi=MU_HI_DEFAULT)


def heterogeneous37(seed: int = 0) -> Network:
    """Same topology with three DER size classes (matched total capability),
    scattered loads, and per-line r/x ratios."""
    rng = np.random.default_rng(seed)
    n_total = 37
    load_scale = np.ones(n_total)
    load_scale[1:] = rng.uniform(0.7, 1.3, size=n_total - 1)
    x_scale = np.ones(n_total)
    x_scale[1:] = rng.uniform(0.85, 1.15, size=n_total - 1)

    # three capability classes, balanced so the fleet total matches 14 * base
    n_small = int(rng.integers(3, 6))
    sizes = [0.5 * CAP_PU] * n_small + [1.5 * CAP_PU] * n_small
    sizes += [CAP_PU] * (14 - 2 * n_small)
    rng.shuffle(sizes)
    caps = {node: float(s) for node, s in zip(HOMOGENEOUS37_DER_NODES, sizes)}
    return build_network(
        _feeder37_nodes(load_scale=load_scale, x_scale=x_scale, caps=caps),
        nu0=1.0,
        mu_lo=MU_LO_DEFAULT,
        mu_hi=MU_HI_DEFAULT,
    )


FIG2_LABELS = ["a", "b", "c", "i", "m", "e", "d", "k", "g", "j"]


def precedence_example() -> Network:
    """The 11-bus precedence example: spine 0-a-b-c-i-m with branches b-e,
    b-d-k, and a-g-j; homogeneous loads and DERs at every node."""
    parents = {"a": None, "b": "a", "c": "b", "i": "c", "m": "i",
               "e": "b", "d": "b", "k": "d", "g": "a", "j": "g"}
    ids = {lbl: i + 1 for i, lbl in enumerate(FIG2_LABELS)}
    nodes = [NodeSpec(id=0, parent=None, label="0")]
    for lbl in FIG2_LABELS:
        p = parents[lbl]
        nodes.append(
            NodeSpec(
                id=ids[lbl],
                parent=0 if p is None else ids[p],
                r_pu=R_PU,
                x_pu=X_PU,
                pc_nom=PC_PU,
                qc_nom=QC_PU,
                der_cap=CAP_PU,
                nu_lo=0.99,
                nu_hi=NU_HI_DEFAULT,
                W=DEFAULT_WC_RATIO * C_PER_PU,
                C=C_PER_PU,
                gamma_lo=0.5,
                label=lbl,
            )
        )
    return build_network(nodes, nu0=1.0, mu_lo=MU_LO_DEFAULT, mu_hi=MU_HI_DEFAULT)


_TREE_DER_CAP = 0.02
_TREE_Z = 0.005 + 0.025j
_TREE_NU_LO_MARGIN = 5e-4


def balanced_tree(arity: int, height: int) -> Network:
    """Symmetric tree with identical loads and a DER at every node.

    Every line has z = 0.005+0.025j pu, every node the study feeder's load
    (PC_PU + j*QC_PU) and a 0.02 pu DER, with gamma_lo = 0.5 and W/C =
    DEFAULT_WC_RATIO. The soft lower bound sits 5e-4 below the lowest
    no-generation nominal voltage, so that attacks produce violations while
    the nominal state stays compliant.
    """
    if arity < 2 or height < 1:
        raise ValueError("balanced tree needs arity >= 2 and height >= 1")
    parents: list[int | None] = [None]
    prev_level = [0]
    for _ in range(height):
        new_level = []
        for p in prev_level:
            for _ in range(arity):
                parents.append(p)
                new_level.append(len(parents) - 1)
        prev_level = new_level

    def specs(nu_lo: float) -> list[NodeSpec]:
        out = [NodeSpec(id=0, parent=None)]
        for i in range(1, len(parents)):
            out.append(
                NodeSpec(
                    id=i,
                    parent=parents[i],
                    r_pu=_TREE_Z.real,
                    x_pu=_TREE_Z.imag,
                    pc_nom=PC_PU,
                    qc_nom=QC_PU,
                    der_cap=_TREE_DER_CAP,
                    nu_lo=nu_lo,
                    nu_hi=NU_HI_DEFAULT,
                    W=DEFAULT_WC_RATIO * C_PER_PU,
                    C=C_PER_PU,
                    gamma_lo=0.5,
                )
            )
        return out

    probe = build_network(specs(MU_LO_DEFAULT + 1e-6), nu0=1.0,
                          mu_lo=MU_LO_DEFAULT, mu_hi=MU_HI_DEFAULT)
    state = solve_npf(probe, nominal_injection(probe))
    nu_lo = float(state.nu[1:].min()) - _TREE_NU_LO_MARGIN
    return build_network(specs(round(nu_lo, 9)), nu0=1.0,
                         mu_lo=MU_LO_DEFAULT, mu_hi=MU_HI_DEFAULT)


def fig4_strategies(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """The two budget-6 strategies compared on the height-3 binary tree:
    u2 pushes securing one level down inside one half and one level up in the
    other, making the secured set more spread out. Returns (u1, u2)."""
    if net.n != 14:
        raise ValueError("the comparison is defined on the 14-node binary tree")
    u1 = np.zeros(net.n + 1, dtype=int)
    u1[[2, 4, 5, 6, 9, 10]] = 1
    u2 = np.zeros(net.n + 1, dtype=int)
    u2[[1, 3, 4, 5, 11, 13]] = 1
    return u1, u2


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
    parents: list[int | None] = [None]
    for i in range(1, n + 1):
        parents.append(int(rng.integers(0, i)))

    gamma_lo = 0.5
    r = rng.uniform(0.004, 0.018, size=n + 1)
    if identical_k:
        K = float(rng.uniform(0.6, 1.4))
        x = r / K
    else:
        x = r / rng.uniform(0.6, 1.4, size=n + 1)
    pc = rng.uniform(0.006, 0.02, size=n + 1)
    qc = pc * 0.3
    has_der = rng.random(n + 1) < 0.6
    has_der[0] = False
    cap = np.where(
        has_der,
        rng.uniform(0.3, 0.95, size=n + 1) * gamma_lo * np.minimum(pc, qc),
        0.0,
    )

    specs = [NodeSpec(id=0, parent=None)]
    for i in range(1, n + 1):
        specs.append(
            NodeSpec(
                id=i,
                parent=parents[i],
                r_pu=float(r[i]),
                x_pu=float(x[i]),
                pc_nom=float(pc[i]),
                qc_nom=float(qc[i]),
                der_cap=float(cap[i]),
                nu_lo=MU_LO_DEFAULT + 1e-6,
                nu_hi=NU_HI_DEFAULT,
                W=DEFAULT_WC_RATIO * C_PER_PU,
                C=C_PER_PU,
                gamma_lo=gamma_lo,
            )
        )
    probe = build_network(specs, nu0=1.0, mu_lo=MU_LO_DEFAULT, mu_hi=MU_HI_DEFAULT)
    state = solve_npf(probe, nominal_injection(probe))
    # soft bound just below the nominal dip so small attacks already bind
    margin = float(rng.uniform(0.1, 0.6)) * 1e-3
    nu_lo = round(float(state.nu[1:].min()) - margin, 9)
    specs = [specs[0]] + [dataclasses.replace(s, nu_lo=nu_lo) for s in specs[1:]]
    return build_network(specs, nu0=1.0, mu_lo=MU_LO_DEFAULT, mu_hi=MU_HI_DEFAULT)
