import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

import dersec.game
from dersec import (
    LPF,
    NPF,
    CostParams,
    balanced_tree,
    compare_strategies,
    fig4_strategies,
    heterogeneous37,
    homogeneous37,
    is_symmetric,
    optimal_security_strategy,
    random_feasible_network,
    sandwich_bounds,
    solve_ad,
    solve_ad_exhaustive,
    solve_ad_oneshot,
    solve_dad,
)
from dersec.errors import AsymmetricNetwork, EnumerationCapExceeded, HeterogeneousRxRatio
from dersec.network import NodeSpec, build_network
from dersec.oracle import _rounded_properties, _subtree_signature, bf_security
from dersec.security import StrategyComparison, _placement, _symmetric
from dersec.sweep import with_gamma_lo

from conftest import params_for
from test_game import _count_lps


def _recursive_symmetric(net):
    """The oracle's definition: equal DER capabilities, and at every node
    with two or more children, equal recursive sibling signatures."""
    caps = net.der_cap[net.der_cap > 0.0]
    if caps.size and float(caps.max() - caps.min()) > 1e-12:
        return False
    props = _rounded_properties(net, CostParams.from_network(net))
    return all(len({_subtree_signature(net, c, props) for c in kids}) <= 1
               for kids in net.tree.children)


_SHAPES = ((2, 2), (3, 2), (2, 3), (4, 1), (3, 3))
_PROPERTIES = (("r", 1.0), ("x", 1.0), ("sc_nom", 1.0), ("sc_nom", 1j), ("der_cap", 1.0),
               ("nu_lo", 1.0), ("nu_hi", 1.0), ("W", 1.0), ("C", 1.0), ("gamma_lo", 1.0))


def _moved(net, name, step):
    """A copy of ``net`` with one property of its last node (a leaf) moved."""
    values = getattr(net, name).copy()
    values[net.n] += step
    return dataclasses.replace(net, **{name: values})


def _secured(u):
    """The node ids a security vector secures."""
    return tuple(np.flatnonzero(u).tolist())


class TestPlacement:
    def test_budget_slack_secures_all(self, tree22):
        u = optimal_security_strategy(tree22, 99, params_for(tree22))
        assert set(_secured(u)) == {int(i) for i in tree22.der_nodes}

    def test_budget_zero(self, tree22):
        u = optimal_security_strategy(tree22, 0, params_for(tree22))
        assert u.sum() == 0

    def test_binary_height3_budget10(self, tree23):
        u = optimal_security_strategy(tree23, 10, params_for(tree23))
        secured = set(_secured(u))
        level3 = set(tree23.tree.level(3))
        assert level3 <= secured
        partial = secured - level3
        # two level-2 nodes, one under each level-1 node, lowest ids first
        assert partial == {3, 5}

    def test_uniform_partial_level(self, tree23):
        u = optimal_security_strategy(tree23, 6, params_for(tree23))
        counts = {}
        for i in _secured(u):
            counts.setdefault(int(tree23.tree.parent[i]), 0)
            counts[int(tree23.tree.parent[i])] += 1
        assert set(counts.values()) <= {1, 2}
        assert u.sum() == 6

    def test_structural_properties(self, tree23):
        for B in range(0, 15):
            u = optimal_security_strategy(tree23, B, params_for(tree23))
            assert u.sum() == min(B, len(tree23.der_nodes))
            for i in np.flatnonzero(u):
                for j in tree23.tree.subtree(int(i)):
                    assert u[j] == 1
                for j in tree23.nodes:
                    if tree23.tree.depth[j] > tree23.tree.depth[i]:
                        assert u[j] == 1

    # every budget up to all DERs, on the two shapes with a partial level
    # spread over more than one sibling group
    _SECURED = {
        (2, 3): [(), (7,), (7, 9), (7, 9, 11), (7, 9, 11, 13), (7, 8, 9, 11, 13),
                 (7, 8, 9, 10, 11, 13), (7, 8, 9, 10, 11, 12, 13), (7, 8, 9, 10, 11, 12, 13, 14),
                 (3, 7, 8, 9, 10, 11, 12, 13, 14), (3, 5, 7, 8, 9, 10, 11, 12, 13, 14),
                 (3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14), (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14),
                 (1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14),
                 (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14)],
        (3, 2): [(), (4,), (4, 7), (4, 7, 10), (4, 5, 7, 10), (4, 5, 7, 8, 10),
                 (4, 5, 7, 8, 10, 11), (4, 5, 6, 7, 8, 10, 11), (4, 5, 6, 7, 8, 9, 10, 11),
                 (4, 5, 6, 7, 8, 9, 10, 11, 12), (1, 4, 5, 6, 7, 8, 9, 10, 11, 12),
                 (1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12), (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)],
    }

    @pytest.mark.parametrize("shape", sorted(_SECURED))
    def test_secured_sets(self, shape):
        net = balanced_tree(*shape)
        want = self._SECURED[shape]
        assert len(want) == len(net.der_nodes) + 1
        params = CostParams.from_ratio(net, 10.0)
        for B, secured in enumerate(want):
            assert _secured(optimal_security_strategy(net, B, params)) == secured

    @pytest.mark.parametrize("B", [-1, 2.5, True])
    def test_rejects_bad_budget(self, tree22, B):
        with pytest.raises(ValueError, match="budget B"):
            optimal_security_strategy(tree22, B, params_for(tree22))

    def test_preconditions(self):
        specs = [
            NodeSpec(id=0, parent=None),
            NodeSpec(id=1, parent=0, r_pu=0.01, x_pu=0.01, pc_nom=0.01, qc_nom=0.003,
                     der_cap=0.005),
            NodeSpec(id=2, parent=0, r_pu=0.02, x_pu=0.02, pc_nom=0.01, qc_nom=0.003,
                     der_cap=0.005),
        ]
        net = build_network(specs)
        with pytest.raises(AsymmetricNetwork):
            optimal_security_strategy(net, 1, params_for(net))
        specs[2] = NodeSpec(id=2, parent=0, r_pu=0.01, x_pu=0.02, pc_nom=0.01,
                            qc_nom=0.003, der_cap=0.005)
        net = build_network(specs)
        with pytest.raises(HeterogeneousRxRatio):
            optimal_security_strategy(net, 1, params_for(net))

    def test_symmetry_is_asked_under_the_solve_weights(self, tree22):
        # asked under the network's own weights, the placement secured node 3
        # and lost 361.3291072388088 where solve_dad secures node 6 and loses
        # 103.45727680970418
        weighted = _weighted(tree22, [6])
        with pytest.raises(AsymmetricNetwork):
            optimal_security_strategy(tree22, 1, weighted)
        assert _secured(solve_dad(tree22, 1, 2, weighted, LPF).ad.u) == (6,)
        u = optimal_security_strategy(tree22, 1, params_for(tree22))
        assert _secured(u) == (3,)
        assert repr(solve_ad(tree22, u, 2, weighted, LPF).loss.total) == "361.3291072388088"

    def test_symmetry_detector(self, tree32, homog37):
        assert is_symmetric(tree32)
        assert not is_symmetric(homog37)


class TestSymmetrySignature:
    """The one-pass ``is_symmetric`` agrees with the recursive signatures."""

    @pytest.mark.parametrize("shape", _SHAPES)
    def test_balanced_trees(self, shape):
        net = balanced_tree(*shape)
        assert is_symmetric(net) == _recursive_symmetric(net) is True

    @pytest.mark.parametrize("seed", range(12))
    def test_random_networks(self, seed):
        for identical_k in (True, False):
            net = random_feasible_network(seed, identical_k=identical_k)
            # equal capabilities too, so the signature pass runs
            equal = dataclasses.replace(net, der_cap=np.where(net.der_cap > 0.0, 0.01, 0.0))
            for case in (net, equal):
                assert is_symmetric(case) == _recursive_symmetric(case)

    def test_feeder(self, homog37):
        assert is_symmetric(homog37) == _recursive_symmetric(homog37) is False

    @pytest.mark.parametrize("tail,symmetric", [(None, False), (1e-6, False), (1e-14, True)])
    def test_difference_below_single_children(self, tail, symmetric):
        # two branches 0-1-3 and 0-2-4: nodes 3 and 4 have no siblings, so a
        # difference between them shows only through their parents' ids
        specs = [NodeSpec(id=0, parent=None)] + [
            NodeSpec(id=i, parent=p, r_pu=0.01, x_pu=0.012, pc_nom=0.02, qc_nom=0.006, der_cap=0.01)
            for i, p in ((1, 0), (2, 0), (3, 1), (4, 2))
        ]
        if tail is None:
            specs = specs[:4]
        else:
            specs[4] = dataclasses.replace(specs[4], pc_nom=0.02 + tail)
        net = build_network(specs)
        assert is_symmetric(net) == _recursive_symmetric(net) is symmetric

    @pytest.mark.parametrize("shape", _SHAPES[:3])
    @pytest.mark.parametrize("name,unit", _PROPERTIES)
    def test_moved_leaf(self, shape, name, unit):
        net = balanced_tree(*shape)
        # 1e-6 survives rounding to 12 digits; 1e-14 does not
        apart = _moved(net, name, 1e-6 * unit)
        assert is_symmetric(apart) == _recursive_symmetric(apart) is False
        close = _moved(net, name, 1e-14 * unit)
        assert is_symmetric(close) == _recursive_symmetric(close) is True


class TestDAD:
    @pytest.mark.parametrize("B,M", [(0, 2), (2, 2), (4, 2), (3, 1)])
    def test_fast_path_equals_bruteforce(self, tree32, B, M):
        params = params_for(tree32, 10.0)
        dad = solve_dad(tree32, B, M, params, LPF)
        _, bf_loss = bf_security(tree32, B, M, params, LPF)
        assert dad.loss == pytest.approx(bf_loss, abs=1e-9)

    @pytest.mark.parametrize("B,M", [(-1, 2), (1.5, 2), (1, -1)])
    def test_bad_budgets_raise(self, tree22, B, M):
        # the asymmetric network once raised math.comb's bare message instead
        for net in (tree22, random_feasible_network(3)):
            with pytest.raises(ValueError, match="budget"):
                solve_dad(net, B, M, params_for(net, 10.0), LPF)

    def test_budget_slack_removes_attack(self, tree22):
        params = params_for(tree22, 10.0)
        dad = solve_dad(tree22, 99, 3, params, LPF)
        assert dad.loss == pytest.approx(0.0, abs=1e-9)

    def test_fallback_on_asymmetric_identical_ratio(self):
        # an asymmetric identical-ratio tree forces the exhaustive stage-1 path
        rng = np.random.default_rng(4)
        specs = [NodeSpec(id=0, parent=None)]
        for i in range(1, 7):
            specs.append(
                NodeSpec(id=i, parent=int(rng.integers(0, i)), r_pu=0.01, x_pu=0.012,
                         pc_nom=0.02, qc_nom=0.006, der_cap=0.01 if i > 2 else 0.0,
                         nu_lo=0.985, W=70000.0, C=7000.0, gamma_lo=0.5)
            )
        net = build_network(specs)
        params = params_for(net, 10.0)
        dad = solve_dad(net, 2, 2, params, LPF)
        # exhaustive check inline
        best = None
        der = [int(i) for i in net.der_nodes]
        for k in range(3):
            for combo in itertools.combinations(der, k):
                u = np.zeros(net.n + 1, dtype=int)
                u[list(combo)] = 1
                val = solve_ad_oneshot(net, u, 2, params, LPF).loss.total
                best = val if best is None else min(best, val)
        assert dad.loss == pytest.approx(best, abs=1e-9)


def _weighted(net, nodes, factor=4.0):
    """``CostParams.from_ratio(net, 10)`` with W at ``nodes`` times ``factor``."""
    params = CostParams.from_ratio(net, 10.0)
    W = params.W.copy()
    W[nodes] *= factor
    return CostParams(W=W, C=params.C)


def _pooled(net, B, M, params):
    """The Stage-1 min-max over every full-budget row, as one pooled solve."""
    combos = list(itertools.combinations(net.der_nodes.tolist(), min(B, len(net.der_nodes))))
    rows = np.zeros((len(combos), net.n + 1), dtype=int)
    for row, combo in zip(rows, combos):
        row[list(combo)] = 1
    return solve_ad(net, rows, M, params, LPF)


def _answer(ad):
    """A sub-game result by ``repr``, arrays written out in full."""
    return repr((ad.loss, ad.u.tolist(), ad.delta_star.tolist(), ad.phi_star.gamma.tolist(),
                 ad.phi_star.sp_d.tolist(), ad.trace, ad.iterations, ad.converged))


class TestStage1Weights:
    """Stage 1 is priced by the solve's weights, not the network's own."""

    @pytest.mark.parametrize("shape,node,loss,secured", [
        ((2, 2), 6, "103.45727680970418", {1: [6], 2: [1, 6]}),
        ((3, 2), 12, "31.970343619396324", {1: [12], 2: [1, 12]}),
    ])
    @pytest.mark.parametrize("B", [1, 2])
    def test_weighted_leaf_is_priced(self, shape, node, loss, secured, B):
        # the network's own weights are symmetric, the solve's are not: the
        # closed-form placement once lost 361.329... and 75.381... here
        net = balanced_tree(*shape)
        params = _weighted(net, [node])
        dad = solve_dad(net, B, 2, params, LPF)
        pooled = _pooled(net, B, 2, params)
        assert repr(dad.loss) == loss and dad.loss == pooled.loss.total
        assert list(_secured(dad.ad.u)) == secured[B] == pooled.u.nonzero()[0].tolist()
        _, bf_loss = bf_security(net, B, 2, params, LPF)
        assert bf_loss == pytest.approx(dad.loss, abs=1e-9)
        assert is_symmetric(net) and not _symmetric(net, params)

    @pytest.mark.parametrize("B", [1, 2, 3])
    def test_level_weights_keep_the_placement(self, B):
        net = balanced_tree(3, 2)
        params = _weighted(net, net.tree.depth == net.tree.height)
        # the pooled min-max ties, and would keep the first row, u = [1, ...]
        dad = solve_dad(net, B, 2, params, LPF)
        assert dad.ad.u.tolist() == _placement(net, B).tolist()
        assert repr(dad.loss) == "85.25424965173099"
        assert dad.loss == pytest.approx(_pooled(net, B, 2, params).loss.total, abs=1e-9)

    def test_network_weights_do_not_price_a_solve(self):
        # solve_dad once moved from u = [3] to u = [1] when only net.W changed
        net = balanced_tree(2, 2)
        W = net.W.copy()
        W[6] *= 4.0
        params = CostParams.from_ratio(net, 10.0)
        answers = []
        for case in (net, dataclasses.replace(net, W=W)):
            dad = solve_dad(case, 1, 2, params, LPF)
            answers.append((
                repr(dad.ad.u.tolist()), repr(dad.loss), _answer(dad.ad),
                _answer(solve_ad(case, None, 2, params, LPF)),
                _answer(solve_ad(case, None, 2, params, NPF)),
                repr(sandwich_bounds(case, None, 2, params)),
            ))
        assert answers[0] == answers[1]
        assert answers[0][0] == repr([0, 0, 0, 1, 0, 0, 0])


class TestDADLiterals:
    """Pinned ``solve_dad`` results (loss by ``repr``, u*, delta*, LPs) on one
    instance per benchmark stratum and on the feeder, so that faster Stage-1
    set-up cannot move them."""

    @pytest.mark.parametrize("case,B,M,loss,secured,attacked,lps", [
        ("symmetric", 2, 2, "31.970343619396324", (4, 7), (1, 5), 1),
        ("identical-rx", 2, 2, "0.0", (2, 3), (6, 7), 0),
        ("heterogeneous-rx", 2, 2, "0.0", (3, 6), (5,), 1),
        ("feeder", 2, 9, "4.203955652620499", (9, 10), tuple(range(11, 20)), 55),
        # the seed settles every family of the first row at 0, so no other
        # row is built and no LP is solved (ranking unexplored rows at -inf
        # solved 742 and 421 LPs)
        ("feeder", 4, 12, "0.0", (9, 10, 11, 12), tuple(range(13, 23)), 0),
        ("feeder", 5, 12, "0.0", (9, 10, 11, 12, 13), tuple(range(14, 23)), 0),
        # rows without an exact loss rank at 0, not below a row that loses 0
        # (at -inf: 9 LPs)
        ("identical-rx-39", 2, 4, "0.0", (1, 9), (2, 4, 6, 10), 3),
        # heterogeneous r/x with a loss above 0: the exhaustive engine's
        # Stage 1 (every heterogeneous-rx stratum point above loses 0.0)
        ("heterogeneous37", 1, 12, "355.8595925109543", (11,),
         (9, 10, 12, 13, 14, 15, 16, 17, 18, 19, 20, 22), 15),
        ("heterogeneous37", 2, 12, "195.52470758629266", (9, 11),
         (10, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22), 91),
    ])
    def test_values(self, monkeypatch, case, B, M, loss, secured, attacked, lps):
        net = {
            "symmetric": lambda: balanced_tree(3, 2),
            "identical-rx": lambda: random_feasible_network(10),
            "identical-rx-39": lambda: random_feasible_network(39),
            "heterogeneous-rx": lambda: random_feasible_network(9, identical_k=False),
            "feeder": lambda: with_gamma_lo(homogeneous37(), 0.5),
            "heterogeneous37": lambda: with_gamma_lo(heterogeneous37(0), 0.5),
        }[case]()
        calls = _count_lps(monkeypatch)
        dad = solve_dad(net, B, M, params_for(net, 10.0), LPF)
        assert repr(dad.loss) == loss
        assert _secured(dad.ad.u) == secured
        assert tuple(np.flatnonzero(dad.ad.delta_star).tolist()) == attacked
        assert len(calls) == lps


class TestStage1Pool:
    """The enumerated Stage 1 is one pooled min-max over full-budget vectors."""

    @pytest.fixture(scope="class")
    def het_stage1(self):
        # heterogeneous r/x with a nonzero Stage-1 value; the parent loop ran
        # one exhaustive sub-game per security vector
        net = with_gamma_lo(heterogeneous37(0), 0.5)
        params = params_for(net, 10.0)
        with pytest.MonkeyPatch.context() as mp:
            calls = _count_lps(mp)
            per_u = []
            for j in net.der_nodes:
                u = np.zeros(net.n + 1, dtype=int)
                u[j] = 1
                per_u.append(solve_ad_exhaustive(net, u, 7, params, LPF).loss.total)
            loop_lps = len(calls)
            del calls[:]
            dad = solve_dad(net, 1, 7, params, LPF)
            dad_lps = len(calls)
        return net, params, per_u, loop_lps, dad, dad_lps

    def test_first_row_settled_at_zero_builds_no_other_row(self, monkeypatch):
        # 2,002 security rows; the seed settles the first row's families at 0
        net = with_gamma_lo(homogeneous37(), 0.5)
        params = params_for(net, 10.0)
        calls = []
        ranked_families = dersec.game.ranked_families

        def counted(*args, **kwargs):
            calls.append(1)
            return ranked_families(*args, **kwargs)

        monkeypatch.setattr(dersec.game, "ranked_families", counted)
        dad = solve_dad(net, 5, 12, params, LPF)
        assert dad.loss == 0.0 and _secured(dad.ad.u) == (9, 10, 11, 12, 13)
        assert len(calls) == 1
        # rows count toward the table cap as they enter, so the rows never
        # built cannot exceed it
        monkeypatch.setattr(dersec.game, "_TABLE_CAP", len(dad.ad.trace))
        assert solve_dad(net, 5, 12, params, LPF).loss == 0.0

    def test_rows_ranked_at_zero_match_bruteforce(self):
        net = random_feasible_network(39)
        params = params_for(net, 10.0)
        dad = solve_dad(net, 2, 4, params, LPF)
        assert dad.loss == bf_security(net, 2, 4, params, LPF)[1]

    def test_heterogeneous_value_is_least_per_u_value(self, het_stage1):
        net, params, per_u, _, dad, _ = het_stage1
        assert min(per_u) > 0.0
        assert dad.loss == pytest.approx(min(per_u), abs=1e-9)
        assert len(_secured(dad.ad.u)) == 1
        direct = solve_ad_exhaustive(net, dad.ad.u, 7, params, LPF)
        assert dad.ad.loss.total == direct.loss.total

    def test_fewer_lps_than_per_u_loop(self, het_stage1):
        *_, loop_lps, _, dad_lps = het_stage1
        assert dad_lps < loop_lps

    @pytest.mark.parametrize("B", [0, 1, 2, 99])
    def test_full_budget_vectors(self, B):
        for net in (random_feasible_network(4), random_feasible_network(9, identical_k=False)):
            assert not is_symmetric(net)
            dad = solve_dad(net, B, 2, params_for(net, 10.0), LPF)
            assert len(_secured(dad.ad.u)) == min(B, len(net.der_nodes))
            assert set(_secured(dad.ad.u)) <= {int(i) for i in net.der_nodes}

    def test_many_rows_with_small_pools_solve(self):
        # 3,432 security vectors, each leaving 7 DERs with 128 attack vectors
        net = heterogeneous37(0)
        params = params_for(net, 10.0)
        dad = solve_dad(net, 7, 7, params, LPF)
        assert len(_secured(dad.ad.u)) == 7
        assert dad.loss == 0.0
        assert solve_ad_exhaustive(net, dad.ad.u, 7, params, LPF).loss.total == 0.0

    def test_table_cap_raises_before_allocating(self):
        # 253 security vectors x 54,264 attack vectors each (23 DERs, B=2, M=6)
        net = random_feasible_network(0, n_max=40, identical_k=False)
        params = params_for(net, 10.0)
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapExceeded):
                solve_dad(net, 2, 6, params, LPF)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 253 * 82160 // 4

    def test_row_cap(self):
        # counted before any row is built or any sub-game solved
        net = random_feasible_network(0, n_max=40, identical_k=False)
        with pytest.raises(EnumerationCapExceeded, match="33649 security strategies exceed cap 20000"):
            solve_dad(net, 5, 1, params_for(net, 10.0), LPF)


class TestComparisons:
    def test_equal_strategies(self, tree32):
        params = params_for(tree32, 10.0)
        u = np.zeros(tree32.n + 1, dtype=int)
        u[[4, 5]] = 1
        cmp = compare_strategies(tree32, u, u, 2, params, LPF)
        assert cmp.relation == "equal"

    def test_fig4_ordering(self, tree23):
        params = params_for(tree23, 10.0)
        u1, u2 = fig4_strategies(tree23)
        for M in (3, 4):
            cmp = compare_strategies(tree23, u1, u2, M, params, LPF)
            assert cmp.loss2 <= cmp.loss1 + 1e-9

    def test_heterogeneous_uses_exhaustive_engine(self):
        net = random_feasible_network(9, identical_k=False)
        assert net.uniform_rx_ratio() is None
        params = params_for(net, 10.0)
        ders = [int(i) for i in net.der_nodes]
        u1 = np.zeros(net.n + 1, dtype=int)
        u1[ders[0]] = 1
        u2 = np.zeros(net.n + 1, dtype=int)
        u2[ders[-1]] = 1
        cmp = compare_strategies(net, u1, u2, 2, params, LPF)
        assert cmp.loss1 == solve_ad_exhaustive(net, u1, 2, params, LPF).loss.total
        assert cmp.loss2 == solve_ad_exhaustive(net, u2, 2, params, LPF).loss.total
        assert cmp.loss1 != cmp.loss2

    @pytest.mark.parametrize("M", [3, 4])
    def test_fig4_relation(self, tree23, M):
        u1, u2 = fig4_strategies(tree23)
        cmp = compare_strategies(tree23, u1, u2, M, params_for(tree23, 10.0), LPF)
        assert cmp.relation == "u2 more secure"

    @pytest.mark.parametrize("swap,relation", [(False, "u2 more secure"), (True, "u1 more secure")])
    def test_heterogeneous_relation(self, swap, relation):
        net = random_feasible_network(9, identical_k=False)
        ders = [int(i) for i in net.der_nodes]
        u1 = np.zeros(net.n + 1, dtype=int)
        u1[ders[0]] = 1
        u2 = np.zeros(net.n + 1, dtype=int)
        u2[ders[-1]] = 1
        if swap:
            u1, u2 = u2, u1
        cmp = compare_strategies(net, u1, u2, 2, params_for(net, 10.0), LPF)
        assert sorted((cmp.loss1, cmp.loss2)) == [0.0, pytest.approx(5.619094742784498, rel=1e-9)]
        assert cmp.relation == relation

    @pytest.mark.parametrize("rows_first", [True, False])
    def test_rows_of_security_vectors_rejected(self, tree22, rows_first):
        # solve_ad would answer rows with the least row's loss: 103.457... for
        # u={1} and u={2} alike
        rows = np.zeros((2, tree22.n + 1), dtype=int)
        rows[0, 1] = rows[1, 2] = 1
        sides, name = ((rows, None), "u1") if rows_first else ((None, rows), "u2")
        with pytest.raises(ValueError, match=f"{name} must be one 0/1 vector"):
            compare_strategies(tree22, *sides, 2, params_for(tree22, 10.0), LPF)

    def test_none_and_strategy_sides(self, tree22):
        params = params_for(tree22, 10.0)
        u = np.zeros(tree22.n + 1, dtype=int)
        u[1] = 1
        cmp = compare_strategies(tree22, None, u, 2, params, LPF)
        assert cmp.loss1 == solve_ad(tree22, None, 2, params, LPF).loss.total
        assert cmp.loss2 == solve_ad(tree22, u, 2, params, LPF).loss.total

    @pytest.mark.parametrize("loss1,loss2,relation", [
        (1.0, 1.0 + 5e-10, "equal"),
        (1.0 + 5e-10, 1.0, "equal"),
        (1.0, 1.0 + 2e-9, "u1 more secure"),
        (1.0 + 2e-9, 1.0, "u2 more secure"),
    ])
    def test_relation_tolerance(self, loss1, loss2, relation):
        assert StrategyComparison(loss1=loss1, loss2=loss2).relation == relation

    def test_child_node_swap_never_hurts(self, tree32):
        # moving a secured bit from an ancestor to a descendant keeps the
        # sub-game value from increasing
        params = params_for(tree32, 10.0)
        M = 2
        for a in (1, 2, 3):
            for b in tree32.tree.subtree(a):
                if b == a:
                    continue
                u = np.zeros(tree32.n + 1, dtype=int)
                u[a] = 1
                u_t = np.zeros(tree32.n + 1, dtype=int)
                u_t[b] = 1
                la = solve_ad_oneshot(tree32, u, M, params, LPF).loss.total
                lb = solve_ad_oneshot(tree32, u_t, M, params, LPF).loss.total
                assert lb <= la + 1e-9

    def test_level_swap_never_hurts(self, tree23):
        # from a subtree-closed strategy, swapping a secured shallow bit with
        # an unsecured deeper bit at maximal shared depth cannot increase loss
        params = params_for(tree23, 10.0)
        u = np.zeros(tree23.n + 1, dtype=int)
        u[[3, 7, 8]] = 1  # node 3 and its children: subtree-closed
        pairs = [
            (i, j)
            for i in np.flatnonzero(u)
            for j in tree23.nodes
            if u[j] == 0 and tree23.tree.depth[j] > tree23.tree.depth[i]
        ]
        best_shared = max(tree23.tree.shared_depth[i, j] for i, j in pairs)
        M = 3
        base = solve_ad_oneshot(tree23, u, M, params, LPF).loss.total
        for i, j in pairs:
            if tree23.tree.shared_depth[i, j] != best_shared:
                continue
            u_t = u.copy()
            u_t[i] = 0
            u_t[j] = 1
            swapped = solve_ad_oneshot(tree23, u_t, M, params, LPF).loss.total
            assert swapped <= base + 1e-9
