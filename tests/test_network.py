import collections
import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dersec.attack
import dersec.game
import dersec.response
from dersec import (
    LPF,
    Precedence,
    balanced_tree,
    build_network,
    calibrate_epsilon,
    common_path_impedance,
    eps_lpf,
    homogeneous37,
    nominal_injection,
    precedence_compare,
    random_feasible_network,
    sandwich_bounds,
    solve_npf,
)
from dersec.errors import (
    BoundOrderingViolated,
    CycleDetected,
    DisconnectedNode,
    InvalidNetwork,
    NonPositiveImpedance,
    RootArgument,
)
from dersec.network import NodeSpec, node_vector
from dersec.response import GammaControlLP, fixed_angle_setpoints, polygon_setpoints
from dersec.security import is_symmetric, solve_dad
from dersec.sweep import with_gamma_lo

from conftest import params_for, two_bus


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

    @pytest.mark.parametrize("field", ["r_pu", "x_pu", "pc_nom", "qc_nom", "der_cap", "nu0"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value_rejected(self, field, value):
        # a NaN r_pu once passed the r <= 0 test, and an infinite der_cap
        # crashed the one-shot engine; only the JSON reader caught these
        spec = NodeSpec(id=1, parent=0, r_pu=0.01, x_pu=0.012, pc_nom=0.02, qc_nom=0.01, der_cap=0.01)
        if field == "nu0":
            specs, options = [NodeSpec(id=0, parent=None), spec], {"nu0": value}
        else:
            specs, options = [NodeSpec(id=0, parent=None), dataclasses.replace(spec, **{field: value})], {}
        with pytest.raises(InvalidNetwork, match="finite"):
            build_network(specs, **options)

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

    @pytest.mark.parametrize("ids_parents,error,match", [
        (((0, None), (2, 0)), InvalidNetwork, "dense integers"),
        (((0, 1), (1, None)), InvalidNetwork, "exactly node 0"),
        (((0, None), (1, 1)), CycleDetected, "node 1 is its own parent"),
    ], ids=["ids_not_dense", "root_not_node_0", "own_parent"])
    def test_bad_ids_rejected(self, ids_parents, error, match):
        specs = [NodeSpec(id=i, parent=p, r_pu=0.01 if i else 0.0, x_pu=0.01 if i else 0.0)
                 for i, p in ids_parents]
        with pytest.raises(error, match=match):
            build_network(specs)


class TestNodeVector:
    def test_ones_at_the_nodes_alone(self, fig2):
        v = node_vector(fig2, (2, 5))
        assert v.dtype == int and v.shape == (fig2.n + 1,)
        assert v.nonzero()[0].tolist() == [2, 5]

    def test_empty_call_is_the_zero_vector(self, fig2):
        v = node_vector(fig2)
        assert v.dtype == int and v.shape == (fig2.n + 1,)
        assert not v.any()


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

    def test_fig2_strict_reversed(self, fig2):
        i, j, k = (fig2.node_by_label(c) for c in "ijk")
        assert precedence_compare(fig2, i, k, j) is Precedence.K_PRECEDES_J

    @pytest.mark.parametrize("where", range(3))
    def test_root_argument(self, fig2, where):
        nodes = [fig2.node_by_label(c) for c in "ijk"]
        nodes[where] = 0
        with pytest.raises(RootArgument):
            precedence_compare(fig2, *nodes)

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


def _counted(calls, name, original, *args, **kwargs):
    calls.append(name)
    return original(*args, **kwargs)


def _answer(ad) -> str:
    """Everything a sub-game result reports, by ``repr``."""
    return repr((ad.loss, ad.u.tolist(), ad.delta_star.tolist(), ad.phi_star.gamma.tolist(),
                 ad.phi_star.sp_d.tolist(), ad.trace, ad.iterations, ad.converged))


class TestDerivedConstants:
    """Constants built once per network and kept on it."""

    @pytest.mark.parametrize("case,M", [("feeder", 9), ("heterogeneous-rx", 2)])
    def test_shared_network_solves_as_fresh_copies(self, case, M):
        net = {
            "feeder": lambda: with_gamma_lo(homogeneous37(), 0.5),
            "heterogeneous-rx": lambda: random_feasible_network(9, identical_k=False),
        }[case]()
        params = params_for(net, 10.0)
        # every solve on the shared network but the first finds its constants built
        for B in (1, 2, 3):
            shared = solve_dad(net, B, M, params, LPF)
            fresh = solve_dad(dataclasses.replace(net), B, M, params, LPF)
            assert _answer(shared.ad) == _answer(fresh.ad)
        if case == "feeder":
            shared = sandwich_bounds(net, None, 8, params)
            fresh = sandwich_bounds(dataclasses.replace(net), None, 8, params)
            for name in ("lpf", "npf", "eps_lpf"):
                assert _answer(shared.results[name]) == _answer(fresh.results[name])

    @pytest.mark.parametrize("case,M", [("feeder", 12), ("heterogeneous-rx", 2)])
    def test_weights_keep_their_own_model(self, case, M):
        # weights W/C 2, then 10, then 2 again, each under LPF then eps-LPF,
        # on one network: every solve finds the models of the ones before it
        # kept, and answers as on a fresh copy
        net = {
            "feeder": lambda: with_gamma_lo(homogeneous37(), 0.5),
            "heterogeneous-rx": lambda: random_feasible_network(9, identical_k=False),
        }[case]()
        for wc in (2.0, 10.0, 2.0):
            params = params_for(net, wc)
            for model in (LPF, eps_lpf(0.05)):
                shared = dersec.game.solve_ad(net, None, M, params, model)
                fresh = dersec.game.solve_ad(dataclasses.replace(net), None, M, params, model)
                assert _answer(shared) == _answer(fresh)

    def test_kept_arrays_are_read_only(self):
        net = homogeneous37()
        built = []
        value = net.derived("pair", lambda: built.append(1) or (np.zeros(2), np.ones(2)))
        assert net.derived("pair", lambda: built.append(1)) is value and built == [1]
        for part in value:
            with pytest.raises(ValueError, match="read-only"):
                part[0] = 5.0
        sp_d = fixed_angle_setpoints(net)
        lp = GammaControlLP(net, params_for(net, 10.0), LPF, sp_d)
        with pytest.raises(ValueError, match="read-only"):
            lp._lp.nu_mat[0, 0] = 0.0
        # the load-control model is kept per load scale and weights: other
        # weights get their own rows, equal weights the same model
        other = GammaControlLP(net, params_for(net, 2.0), LPF, sp_d)._lp
        assert other is not lp._lp and other._A[2] != lp._lp._A[2]
        assert GammaControlLP(net, params_for(net, 10.0), LPF, sp_d)._lp is lp._lp
        assert GammaControlLP(net, params_for(net, 10.0), eps_lpf(0.05), sp_d)._lp is not lp._lp
        # its rows, bounds, objective and G cannot change
        assert all(isinstance(part, tuple) for part in lp._lp._A)
        for part in (lp._lp._W, lp._lp._b_facet, lp._lp.c, lp._lp._lb, lp._lp._ub, lp.G, lp._WG):
            with pytest.raises(ValueError, match="read-only"):
                part[...] = 0.0
        # set-points are not kept: every call returns a fresh array
        for setpoints in (fixed_angle_setpoints, polygon_setpoints):
            assert setpoints(net) is not setpoints(net)
            setpoints(net)[1] = 0.0

    def test_sweep_impedance_terms_are_kept(self):
        # the power-flow sweep's z, conj(z) and |z|^2 are constants of the
        # network: kept on first use, read-only, and the states they give on a
        # used network equal a fresh copy's bit for bit
        net = homogeneous37()
        inj = nominal_injection(net)
        first = solve_npf(net, inj)
        kept = net._derived["impedance_terms"]
        for got, want in zip(kept, (net.z, np.conj(net.z), np.abs(net.z) ** 2), strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)
            with pytest.raises(ValueError, match="read-only"):
                got[1] = 0.0
        again = solve_npf(net, inj)
        assert all(a is b for a, b in zip(net._derived["impedance_terms"], kept))
        copy = dataclasses.replace(net)
        assert "impedance_terms" not in copy._derived
        fresh = solve_npf(copy, inj)
        for state in (again, fresh):
            for name in ("nu", "ell", "S"):
                assert repr(getattr(state, name).tolist()) == repr(getattr(first, name).tolist())
            assert state.residuals() == first.residuals()

    @pytest.mark.parametrize("model", [LPF, eps_lpf(0.05)])
    def test_used_network_makes_the_same_calls(self, monkeypatch, model):
        # nothing kept is an impact matrix or an LP, so a solve calls them as
        # often on a used network as on a fresh one
        calls = []
        for module, name in ((dersec.game, "impact_matrix"), (dersec.attack, "impact_matrix"),
                             (dersec.response, "linprog")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, functools.partial(_counted, calls, name, original))
        net = with_gamma_lo(homogeneous37(), 0.5)
        params = params_for(net, 10.0)
        counts = []
        for _ in range(2):
            calls.clear()
            solve_dad(net, 2, 9, params, model)
            counts.append(collections.Counter(calls))
        assert net._derived
        assert counts[0] == counts[1]
        assert counts[0]["linprog"] > 0

    def test_rows_that_secure_nothing_are_ranked_once(self, monkeypatch):
        # the families of a row that secures nothing read the impact matrix
        # and M alone and are kept; a row that secures a node is ranked anew
        calls = []
        monkeypatch.setattr(dersec.game, "ranked_families",
                            functools.partial(_counted, calls, "ranked_families", dersec.game.ranked_families))
        net = with_gamma_lo(homogeneous37(), 0.5)
        secured = np.zeros(net.n + 1, dtype=int)
        secured[net.der_nodes[0]] = 1
        for wc in (2.0, 10.0):
            for model in (LPF, eps_lpf(0.05)):
                for u in (None, secured):
                    dersec.game.solve_ad_oneshot(net, u, 12, params_for(net, wc), model)
        assert len(calls) == 1 + 4

    @pytest.mark.parametrize("gamma_lo", [0.5, 0.7])
    def test_unsecured_tables_solve_as_fresh_copies(self, gamma_lo):
        # the seeded table of a row that secures nothing is kept per budget
        # and load scale; a solve that starts from it answers as one that
        # builds it, on a first and on a repeated solve
        net = with_gamma_lo(homogeneous37(), gamma_lo)
        eps = eps_lpf(calibrate_epsilon(net).eps)
        for _ in range(2):
            for wc in (2.0, 10.0, 18.0):
                params = params_for(net, wc)
                for model in (LPF, eps):
                    for M in range(15):
                        shared = dersec.game.solve_ad_oneshot(net, None, M, params, model)
                        fresh = dersec.game.solve_ad_oneshot(dataclasses.replace(net), None, M, params, model)
                        assert _answer(shared) == _answer(fresh)
        kept = {key[1:] for key in net._derived if isinstance(key, tuple) and key[0] == "unsecured_table"}
        assert kept == {(M, scale) for M in range(15) for scale in (1.0, eps.load_scale)}

    def test_secured_rows_after_unsecured_solves(self):
        # once the table of a row that secures nothing is kept, rows that
        # secure a node, an unsecured row after them (which reads only the
        # kept families) and Stage 1 answer as on a fresh copy
        net = with_gamma_lo(homogeneous37(), 0.5)
        params = params_for(net, 10.0)
        secured = np.zeros((2, net.n + 1), dtype=int)
        secured[1, net.der_nodes[-1]] = 1
        for M in (9, 12):
            dersec.game.solve_ad_oneshot(net, None, M, params, LPF)
            for u in (secured[1], secured[::-1], secured):
                shared = dersec.game.solve_ad_oneshot(net, u, M, params, LPF)
                fresh = dersec.game.solve_ad_oneshot(dataclasses.replace(net), u, M, params, LPF)
                assert _answer(shared) == _answer(fresh)
            for B in (0, 2):
                shared = solve_dad(net, B, M, params, LPF).ad
                fresh = solve_dad(dataclasses.replace(net), B, M, params, LPF).ad
                assert _answer(shared) == _answer(fresh)

    def test_unsecured_table_is_read_only(self):
        net = with_gamma_lo(homogeneous37(), 0.5)
        dersec.game.solve_ad_oneshot(net, None, 12, params_for(net, 10.0), LPF)
        table = net._derived[("unsecured_table", 12, 1.0)]
        assert table.fams == net._derived[("unsecured_families", 12)]
        assert table.wide.any()
        for part in (table.taken, table.wide, table.seed_c0):
            assert len(part) == len(table.fams)
            with pytest.raises(ValueError, match="read-only"):
                part[0] = 0

    def test_copies_start_empty(self):
        net = balanced_tree(2, 2)
        gamma_lo = net.gamma_lo.copy()
        gamma_lo[1] = 0.3
        uneven = dataclasses.replace(net, gamma_lo=gamma_lo)
        assert uneven._derived == {}
        # gamma_lo is part of every subtree's signature
        assert is_symmetric(net) and not is_symmetric(uneven)
        even = with_gamma_lo(uneven, 0.5)
        assert even._derived == {}
        assert is_symmetric(even) and not is_symmetric(uneven)
