import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dersec import (
    Precedence,
    build_network,
    common_path_impedance,
    precedence_compare,
)
from dersec.errors import (
    BoundOrderingViolated,
    CycleDetected,
    DisconnectedNode,
    InvalidNetwork,
    NonPositiveImpedance,
    RootArgument,
)
from dersec.network import NodeSpec

from conftest import two_bus


def random_tree(rng, n):
    parents = [None] + [int(rng.integers(0, i)) for i in range(1, n + 1)]
    specs = [NodeSpec(id=0, parent=None)]
    for i in range(1, n + 1):
        specs.append(
            NodeSpec(id=i, parent=parents[i], r_pu=0.01, x_pu=0.01, pc_nom=0.01,
                     qc_nom=0.003)
        )
    return build_network(specs)


class TestBuild:
    def test_two_node_chain(self):
        net = two_bus()
        assert net.n == 1
        assert net.tree.height == 1
        assert net.tree.paths[1] == (1,)

    def test_unreachable_parent_chain(self):
        specs = [
            NodeSpec(id=0, parent=None),
            NodeSpec(id=1, parent=0, r_pu=0.01, x_pu=0.01),
            NodeSpec(id=2, parent=3, r_pu=0.01, x_pu=0.01),
            NodeSpec(id=3, parent=2, r_pu=0.01, x_pu=0.01),
        ]
        with pytest.raises((DisconnectedNode, CycleDetected)):
            build_network(specs)

    @pytest.mark.parametrize("field", ["gamma_lo", "W", "C", "der_cap"])
    @pytest.mark.parametrize("value", [-0.5, float("nan")])
    def test_out_of_range_node_value_rejected(self, field, value):
        # NaN once passed the range checks, which compared with < 0
        spec = NodeSpec(id=1, parent=0, r_pu=0.01, x_pu=0.012, pc_nom=0.02, der_cap=0.01)
        specs = [NodeSpec(id=0, parent=None), dataclasses.replace(spec, **{field: value})]
        with pytest.raises(InvalidNetwork):
            build_network(specs)

    def test_missing_parent_reference(self):
        specs = [
            NodeSpec(id=0, parent=None),
            NodeSpec(id=1, parent=9, r_pu=0.01, x_pu=0.01),
        ]
        with pytest.raises(DisconnectedNode):
            build_network(specs)

    def test_fig2_topology(self, fig2):
        assert fig2.tree.height == 5
        b = fig2.node_by_label("b")
        subtree_labels = {fig2.label_of(k) for k in fig2.tree.subtree(b)}
        assert subtree_labels == {"b", "c", "i", "m", "e", "d", "k"}
        j = fig2.node_by_label("j")
        assert [fig2.label_of(k) for k in fig2.tree.paths[j]] == ["a", "g", "j"]

    def test_nonpositive_impedance(self):
        specs = [NodeSpec(id=0, parent=None), NodeSpec(id=1, parent=0, r_pu=0.0, x_pu=0.01)]
        with pytest.raises(NonPositiveImpedance):
            build_network(specs)

    def test_bound_ordering(self):
        specs = [
            NodeSpec(id=0, parent=None),
            NodeSpec(id=1, parent=0, r_pu=0.01, x_pu=0.01, nu_lo=0.7),
        ]
        with pytest.raises(BoundOrderingViolated):
            build_network(specs)  # nu_lo below mu_lo

    def test_duplicate_ids(self):
        specs = [
            NodeSpec(id=0, parent=None),
            NodeSpec(id=1, parent=0, r_pu=0.01, x_pu=0.01),
            NodeSpec(id=1, parent=0, r_pu=0.01, x_pu=0.01),
        ]
        with pytest.raises(InvalidNetwork):
            build_network(specs)

    def test_substation_alone_rejected(self):
        with pytest.raises(InvalidNetwork):
            build_network([NodeSpec(id=0, parent=None)])


class TestCommonPathImpedance:
    def test_single_shared_edge(self):
        net = two_bus(z=0.01 + 0.01j)
        assert common_path_impedance(net, 1, 1) == pytest.approx(0.01 + 0.01j)

    def test_fig2_cross_branch(self, fig2):
        i = fig2.node_by_label("i")
        j = fig2.node_by_label("j")
        z_edge = fig2.z[fig2.node_by_label("a")]
        assert common_path_impedance(fig2, i, j) == pytest.approx(z_edge)

    def test_symmetry_random_pairs(self):
        rng = np.random.default_rng(7)
        net = random_tree(rng, 30)
        for _ in range(100):
            i, j = rng.integers(1, 31, size=2)
            assert net.Z[i, j] == net.Z[j, i]

    def test_root_argument(self, fig2):
        with pytest.raises(RootArgument):
            common_path_impedance(fig2, 0, 1)


class TestPrecedence:
    def test_fig2_strict(self, fig2):
        i, j, k = (fig2.node_by_label(c) for c in "ijk")
        assert precedence_compare(fig2, i, j, k) is Precedence.J_PRECEDES_K

    def test_fig2_equal(self, fig2):
        i, e, k = (fig2.node_by_label(c) for c in "iek")
        assert precedence_compare(fig2, i, e, k) is Precedence.EQUAL

    def test_reflexive(self, fig2):
        j = fig2.node_by_label("j")
        assert precedence_compare(fig2, j, j, j) is Precedence.EQUAL

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_transitive(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 50))
        net = random_tree(rng, n)
        pivot, a, b, c = (int(x) for x in rng.integers(1, n + 1, size=4))
        ds = net.tree.shared_depth
        if ds[pivot, a] <= ds[pivot, b] <= ds[pivot, c]:
            assert ds[pivot, a] <= ds[pivot, c]
            if precedence_compare(net, pivot, a, b) is Precedence.J_PRECEDES_K and (
                precedence_compare(net, pivot, b, c) is Precedence.J_PRECEDES_K
            ):
                assert precedence_compare(net, pivot, a, c) is Precedence.J_PRECEDES_K


class TestTreeIndexAgainstNaive:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_caches_match_recomputation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        net = random_tree(rng, n)
        parent = net.tree.parent
        for i in range(1, n + 1):
            path = []
            k = i
            while k != 0:
                path.append(k)
                k = int(parent[k])
            path.reverse()
            assert tuple(path) == net.tree.paths[i]
            assert net.tree.depth[i] == len(path)
        # subtree from naive reachability
        for i in range(n + 1):
            members = {i}
            changed = True
            while changed:
                changed = False
                for k in range(1, n + 1):
                    if parent[k] in members and k not in members:
                        members.add(k)
                        changed = True
            assert set(net.tree.subtree(i)) == members
        # shared-depth versus naive path intersection
        for _ in range(30):
            i, j = (int(x) for x in rng.integers(1, n + 1, size=2))
            inter = set(net.tree.paths[i]) & set(net.tree.paths[j])
            assert net.tree.shared_depth[i, j] == len(inter)
            z_sum = sum(net.z[k] for k in inter)
            assert net.Z[i, j] == pytest.approx(z_sum, abs=1e-15)
