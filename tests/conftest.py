import dataclasses

import pytest

from dersec import (
    CostParams,
    balanced_tree,
    build_network,
    homogeneous37,
    precedence_example,
)
from dersec.network import NodeSpec, node_specs, node_vector


def chain_network(
    n,
    z=0.01 + 0.012j,
    load=0.02 + 0.006j,
    caps=None,
    nu_lo=None,
    gamma_lo=0.5,
    wc_ratio=10.0,
    qc_ratio=None,
):
    """Simple 0-1-...-n chain; caps is a dict node -> capability."""
    caps = caps or {}
    qc = load.imag if qc_ratio is None else load.real * qc_ratio
    specs = [NodeSpec(id=0, parent=None)]
    for i in range(1, n + 1):
        specs.append(
            NodeSpec(
                id=i,
                parent=i - 1,
                r_pu=z.real,
                x_pu=z.imag,
                pc_nom=load.real,
                qc_nom=qc,
                der_cap=caps.get(i, 0.0),
                nu_lo=0.9025 if nu_lo is None else nu_lo,
                nu_hi=1.1025,
                W=wc_ratio * 7000.0,
                C=7000.0,
                gamma_lo=gamma_lo,
            )
        )
    return build_network(specs)


def relabel(net, perm):
    """``net`` with node i renamed ``perm[i]``, its values, weights and label
    carried along; ``perm`` permutes 0..N and keeps the substation at 0."""
    perm = [int(p) for p in perm]
    assert perm[0] == 0 and sorted(perm) == list(range(net.n + 1))
    specs = [dataclasses.replace(s, id=perm[s.id], parent=None if s.parent is None else perm[s.parent])
             for s in node_specs(net)]
    return build_network(specs, nu0=net.nu0, mu_lo=net.mu_lo, mu_hi=net.mu_hi)


def two_bus(z=0.01 + 0.01j, load=0.1 + 0.05j):
    return chain_network(1, z=z, load=load)


@pytest.fixture(scope="session")
def homog37():
    return homogeneous37()


@pytest.fixture(scope="session")
def fig2():
    return precedence_example()


@pytest.fixture(scope="session")
def tree22():
    return balanced_tree(2, 2)


@pytest.fixture(scope="session")
def tree32():
    return balanced_tree(3, 2)


@pytest.fixture(scope="session")
def tree23():
    return balanced_tree(2, 3)


def params_for(net, ratio=10.0):
    return CostParams.from_ratio(net, ratio)


def zeros_u(net):
    return node_vector(net)
