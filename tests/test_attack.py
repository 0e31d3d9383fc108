import dataclasses
import itertools

import numpy as np
import pytest

import dersec.attack
from dersec import (
    CostParams,
    LPF,
    candidate_attack_set,
    eps_lpf,
    optimal_attack_fixed_response,
    pivot_optimal_attack,
    solve_ad_exhaustive,
    solve_ad_iterative,
    solve_ad_oneshot,
)
from dersec.attack import (
    ImpactRanking,
    PivotFamily,
    _partition_walks,
    effective_setpoints,
    impact_matrix,
    impact_ranking,
    ranked_families,
)
from dersec.cases import random_feasible_network
from dersec.errors import EnumerationCapExceeded, RootArgument
from dersec.network import NodeSpec, build_network, node_vector
from dersec.response import DefenderResponse, fixed_angle_setpoints, response_state

from conftest import chain_network, zeros_u


def _fig2_fixed_response(fig2):
    sp = fixed_angle_setpoints(fig2)
    return DefenderResponse(sp_d=sp, gamma=np.ones(fig2.n + 1))


class TestAttackerSetpoints:
    def test_capability_value(self, fig2):
        delta = node_vector(fig2, [2])
        got = effective_setpoints(fig2, delta, np.zeros(fig2.n + 1, dtype=complex))
        assert got[2] == -1j * fig2.der_cap[2]
        assert not np.delete(got, 2).any()

    def test_empty_when_no_targets(self, fig2):
        sp_d = fixed_angle_setpoints(fig2)
        assert np.array_equal(effective_setpoints(fig2, zeros_u(fig2), sp_d), sp_d)

    def test_on_disk_boundary(self, fig2):
        delta = np.zeros(fig2.n + 1, dtype=int)
        delta[[2, 5]] = 1
        sg = effective_setpoints(fig2, delta, fixed_angle_setpoints(fig2))
        for i in np.flatnonzero(delta):
            assert np.real(sg[i]) == 0.0
            assert abs(sg[i]) == pytest.approx(fig2.der_cap[i])


    def test_lists_match_arrays(self, fig2):
        # the public edges take array-likes: a list gives the arrays an
        # ndarray gives, of the same dtype
        delta = node_vector(fig2, [2, 5])
        sp_d = fixed_angle_setpoints(fig2)
        sp_a = effective_setpoints(fig2, delta, np.zeros(fig2.n + 1, dtype=complex))
        phi = _fig2_fixed_response(fig2)
        from_list = response_state(fig2, delta.tolist(), phi, LPF)
        assert np.array_equal(from_list.nu, response_state(fig2, delta, phi, LPF).nu)
        for args in ((), (sp_a,)):
            want = effective_setpoints(fig2, delta, sp_d, *args)
            got = effective_setpoints(fig2, delta.tolist(), sp_d.tolist(), *(a.tolist() for a in args))
            assert got.dtype == want.dtype and np.array_equal(got, want)


def _setpoint_at(net, j, value):
    sp = np.zeros(net.n + 1, dtype=complex)
    sp[j] = value
    return sp


class TestVoltageImpact:
    def test_zero_without_der(self, fig2):
        net = dataclasses.replace(fig2, der_cap=np.where(np.arange(fig2.n + 1) == 4, 0.0, fig2.der_cap))
        assert impact_matrix(net, np.zeros(net.n + 1, dtype=complex), LPF)[3, 4] == 0.0

    def test_hand_value(self):
        # Z = 0.02+0.02j between pivot and j via a 2-level chain with z/2 edges
        specs = [
            NodeSpec(id=0, parent=None),
            NodeSpec(id=1, parent=0, r_pu=0.01, x_pu=0.01),
            NodeSpec(id=2, parent=1, r_pu=0.01, x_pu=0.01, der_cap=0.1),
        ]
        net = build_network(specs)
        got = impact_matrix(net, _setpoint_at(net, 2, 0.06 + 0.03j), LPF)[2, 2]
        assert got == pytest.approx(0.0076, abs=1e-12)

    def test_eps_scaling(self, fig2):
        sp = _setpoint_at(fig2, 5, 0.005 + 0.005j)
        a = impact_matrix(fig2, sp, LPF)[4, 5]
        b = impact_matrix(fig2, sp, eps_lpf(0.25))[4, 5]
        assert b == pytest.approx(1.25 * a, rel=1e-12)

    def test_downstream_preference(self, fig2):
        piv = fig2.node_by_label("i")
        j = fig2.node_by_label("j")
        k = fig2.node_by_label("k")
        sp = fixed_angle_setpoints(fig2)
        D = impact_matrix(fig2, sp, LPF)
        dj = D[piv, j]
        dk = D[piv, k]
        assert dj < dk
        e = fig2.node_by_label("e")
        de = D[piv, e]
        assert de == pytest.approx(dk, rel=1e-12)


class TestPivotOptimalAttack:
    def test_fig2_cluster(self, fig2):
        sp = fixed_angle_setpoints(fig2)
        m = fig2.node_by_label("m")
        atk = pivot_optimal_attack(fig2, m, sp, 2, zeros_u(fig2))
        chosen = {fig2.label_of(i) for i in np.flatnonzero(atk.delta)}
        assert chosen == {"i", "m"}

    def test_budget_zero(self, fig2):
        atk = pivot_optimal_attack(fig2, 3, np.zeros(fig2.n + 1, dtype=complex), 0, zeros_u(fig2))
        assert atk.impact == 0.0
        assert atk.delta.sum() == 0

    @pytest.mark.parametrize("M", [-1, 1.5, True])
    def test_public_attack_functions_reject_a_bad_budget(self, fig2, M):
        # a negative budget once returned the empty attack
        sp = fixed_angle_setpoints(fig2)
        u = zeros_u(fig2)
        calls = (
            lambda: pivot_optimal_attack(fig2, 3, sp, M, u),
            lambda: optimal_attack_fixed_response(fig2, _fig2_fixed_response(fig2), M, u,
                                                  CostParams.from_network(fig2)),
            lambda: candidate_attack_set(fig2, sp, M, u),
        )
        for call in calls:
            with pytest.raises(ValueError, match="budget M"):
                call()

    def test_substation_pivot_rejected(self, fig2):
        with pytest.raises(RootArgument, match="pivot"):
            pivot_optimal_attack(fig2, 0, fixed_angle_setpoints(fig2), 2, zeros_u(fig2))

    def test_budget_slack_attacks_everything(self, fig2):
        sp = fixed_angle_setpoints(fig2)
        atk = pivot_optimal_attack(fig2, 5, sp, 99, zeros_u(fig2))
        assert atk.delta.sum() == len(fig2.der_nodes)

    def test_respects_security(self, fig2):
        sp = fixed_angle_setpoints(fig2)
        u = zeros_u(fig2)
        m = fig2.node_by_label("m")
        u[m] = 1
        atk = pivot_optimal_attack(fig2, m, sp, 2, u)
        assert atk.delta[m] == 0
        chosen = {fig2.label_of(i) for i in np.flatnonzero(atk.delta)}
        assert chosen == {"i", "c"}  # next two deepest on the pivot path


class TestOptimalAttackFixedResponse:
    def test_budget_zero(self, fig2):
        phi = _fig2_fixed_response(fig2)
        delta = optimal_attack_fixed_response(fig2, phi, 0, zeros_u(fig2), CostParams.from_network(fig2))
        assert delta.sum() == 0

    def test_fig2_optimum(self, fig2):
        phi = _fig2_fixed_response(fig2)
        delta = optimal_attack_fixed_response(fig2, phi, 2, zeros_u(fig2), CostParams.from_network(fig2))
        chosen = {fig2.label_of(i) for i in np.flatnonzero(delta)}
        assert chosen == {"i", "m"}


def _reference_walk(row, pool, budget):
    """The greedy partition walk one pivot at a time: equal-impact partitions
    (within 1e-15 + 1e-9 relative of their first impact) in decreasing order,
    ties to the lower id, taken whole while they fit."""
    d = row.tolist()
    groups = []
    for j in sorted((int(j) for j in pool), key=lambda j: (-d[j], j)):
        if groups and abs(d[groups[-1][0]] - d[j]) <= 1e-15 + 1e-9 * abs(d[j]):
            groups[-1].append(j)
        else:
            groups.append([j])
    taken = []
    for g in groups:
        if budget <= 0:
            break
        if budget < len(g):
            return taken, sorted(g), budget
        taken.extend(g)
        budget -= len(g)
    return taken, [], 0


def _tied_impacts(rng, rows, n):
    """Impacts drawn from few levels, some nudged inside and some outside the
    tie tolerance, so partitions are wide and their edges are tested."""
    levels = rng.choice([0.0, 1e-3, 2e-3, 5e-3], size=(rows, n + 1))
    nudge = rng.choice([0.0, 0.0, 4e-10, 3e-9, -4e-10], size=levels.shape)
    return levels * (1.0 + nudge)


class TestPartitionWalks:
    @pytest.mark.parametrize("seed", range(20))
    def test_rows_match_the_one_pivot_walk(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        D = _tied_impacts(rng, 9, n)
        pool = np.sort(rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n + 1)), replace=False))
        for budget in range(pool.size + 1):
            for row, walk in zip(D, _partition_walks(impact_ranking(D, pool), budget)):
                taken, boundary, fill = _reference_walk(row, pool, budget)
                assert walk == (tuple(sorted(taken)), tuple(boundary), fill)

    @pytest.mark.parametrize("budget,walk", [
        (1, PivotFamily((), (1, 2), 1)),
        (2, PivotFamily((1, 2))),
    ])
    def test_chain_of_near_ties(self, budget, walk):
        # each impact is within the tie tolerance of its neighbour, but the
        # third is not within it of the partition's first, so it starts a
        # new partition; a neighbour-to-neighbour test would put all three
        # in one
        ranking = ImpactRanking(np.array([[1, 2, 3]]), np.array([[1.0, 1.0 - 0.6e-9, 1.0 - 1.2e-9]]))
        assert _partition_walks(ranking, budget) == [walk]

    @pytest.mark.parametrize("seed", range(20))
    def test_one_ranking_serves_every_security_row(self, seed):
        # the engine ranks every DER once and drops each row's secured nodes;
        # each row must get the families of a ranking of its own pool
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        ders = rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n + 1)), replace=False)
        net = chain_network(n, caps={int(j): 0.01 for j in ders})
        D = _tied_impacts(rng, n + 1, n)
        secured = rng.integers(0, 2, size=(12, n + 1))
        ranking = impact_ranking(D[1:], net.der_nodes)
        for M in range(ders.size + 2):
            for u in secured:
                families = ranked_families(ranking, M, u)
                pool = net.der_nodes[u[net.der_nodes] == 0]
                assert families == ranked_families(impact_ranking(D[1:], pool), M, u)
                walks = {PivotFamily(tuple(sorted(taken)), tuple(boundary), fill)
                         for taken, boundary, fill in (_reference_walk(row, pool, M) for row in D[1:])}
                assert set(families) == walks


class TestCandidateSet:
    def test_budget_zero_single_empty_vector(self, fig2):
        sp = fixed_angle_setpoints(fig2)
        assert candidate_attack_set(fig2, sp, 0, zeros_u(fig2)) == ((),)

    def test_generic_instance_is_small(self):
        # a chain with distinct impedances makes every impact distinct
        rng = np.random.default_rng(5)
        specs = [NodeSpec(id=0, parent=None)]
        for i in range(1, 9):
            specs.append(
                NodeSpec(
                    id=i, parent=i - 1,
                    r_pu=float(rng.uniform(0.004, 0.02)),
                    x_pu=float(rng.uniform(0.004, 0.02)),
                    pc_nom=0.01, qc_nom=0.003,
                    der_cap=float(rng.uniform(0.001, 0.004)),
                )
            )
        net = build_network(specs)
        sp = 0.5 * net.der_cap * np.exp(1j * 0.7)
        D = impact_matrix(net, sp, LPF)
        for pivot in net.nodes:
            vals = D[pivot][net.der_cap > 0]
            assert len(np.unique(np.round(vals, 14))) == len(vals)
        cands = candidate_attack_set(net, sp, 3, np.zeros(9, dtype=int))
        assert len(cands) <= len(net.der_nodes)

    def test_lpf_and_eps_sets_identical(self):
        for seed in range(15):
            net = random_feasible_network(seed)
            sp = fixed_angle_setpoints(net)
            # eps-LPF scales every impact by 1 + eps, so one candidate set
            # serves both linear models
            lpf = impact_matrix(net, sp, LPF)
            assert np.allclose(impact_matrix(net, sp, eps_lpf(0.3)), 1.3 * lpf, rtol=1e-15, atol=0.0)
            params = CostParams.from_ratio(net, 2.0)
            a = solve_ad_oneshot(net, None, 2, params, LPF)
            b = solve_ad_oneshot(net, None, 2, params, eps_lpf(0.3))
            cands = set(candidate_attack_set(net, sp, 2, np.zeros(net.n + 1, dtype=int)))
            assert {e.delta for e in a.trace + b.trace} <= cands

    def test_gamma_independent(self):
        # the candidate set is computed without gamma; the substance is that
        # it contains a loss-maximizing attack for ANY fixed load control
        from dersec import evaluate_loss, response_state
        from dersec.oracle import bf_attack_fixed_response
        from dersec.response import DefenderResponse

        for seed in range(10):
            net = random_feasible_network(seed, n_max=8)
            if len(net.der_nodes) == 0:
                continue
            u = np.zeros(net.n + 1, dtype=int)
            sp = fixed_angle_setpoints(net)
            cand_set = set(candidate_attack_set(net, sp, 2, u))
            rng = np.random.default_rng(seed)
            params = CostParams.from_network(net)
            for _ in range(2):
                gamma = rng.uniform(net.gamma_lo, 1.0)
                gamma[0] = 1.0
                phi = DefenderResponse(sp_d=sp, gamma=gamma)
                _, best = bf_attack_fixed_response(net, phi, 2, u, params=params)
                achieved = max(
                    evaluate_loss(
                        response_state(net, node_vector(net, nodes), phi, LPF),
                        gamma,
                        params,
                    ).total
                    for nodes in cand_set
                )
                assert achieved == pytest.approx(best, abs=1e-9), seed

    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_contains_every_deterministic_pivot_attack(self, fig2, M):
        nets = [fig2] + [random_feasible_network(seed) for seed in (1, 4, 7)]
        for net in nets:
            u = zeros_u(net)
            sp = fixed_angle_setpoints(net)
            cands = set(candidate_attack_set(net, sp, M, u))
            for pivot in net.nodes:
                atk = pivot_optimal_attack(net, pivot, sp, M, u)
                assert tuple(np.flatnonzero(atk.delta)) in cands, (net.n, pivot)

    @pytest.mark.parametrize("net_id,M", [*((seed, 2) for seed in range(15)),
                                          *(("feeder", M) for M in (3, 7, 12))])
    def test_families_expand_to_the_enumerated_set(self, homog37, net_id, M):
        net = homog37 if net_id == "feeder" else random_feasible_network(net_id)
        u = zeros_u(net)
        sp = fixed_angle_setpoints(net)
        D = impact_matrix(net, sp, LPF)
        pool = np.flatnonzero(net.der_cap > 0.0)
        families = ranked_families(impact_ranking(D[1:], pool), M, u)
        # the enumeration the engine used to run: every pivot's walk with each
        # fill-subset of its boundary partition written out
        enumerated = set()
        for pivot in net.nodes:
            taken, boundary, fill = _reference_walk(D[pivot], pool, min(M, pool.size))
            for combo in itertools.combinations(boundary, fill):
                enumerated.add(tuple(sorted(taken + list(combo))))
        members = [v for f in families for v in f.members()]
        assert set(members) == enumerated == set(candidate_attack_set(net, sp, M, u))
        assert len(families) == len(set(families)) <= net.n
        assert [f.first() for f in families] == sorted(f.first() for f in families)

    def test_overflow_raises(self, homog37, monkeypatch):
        sp = fixed_angle_setpoints(homog37)
        monkeypatch.setattr(dersec.attack, "_CANDIDATE_CAP", 200)
        with pytest.raises(EnumerationCapExceeded):
            candidate_attack_set(homog37, sp, 7, zeros_u(homog37))

    def test_cap_counts_distinct_vectors(self, homog37):
        # the per-pivot completion counts sum to 24,030 here; only the 3,432
        # distinct vectors count against the default cap of 10,000
        sp = fixed_angle_setpoints(homog37)
        assert len(candidate_attack_set(homog37, sp, 7, zeros_u(homog37))) == 3432

    def test_impact_matrix_matches_state_difference(self, fig2):
        # the tabulated impact must equal the exact voltage drop
        # produced by switching one DER to its worst-case set-point
        from dersec.powerflow import injection, solve_lpf

        sp = fixed_angle_setpoints(fig2)
        D = impact_matrix(fig2, sp, LPF)
        base = solve_lpf(fig2, injection(fig2, np.ones(fig2.n + 1), sp))
        j = fig2.node_by_label("k")
        sg = sp.copy()
        sg[j] = -1j * fig2.der_cap[j]
        attacked = solve_lpf(fig2, injection(fig2, np.ones(fig2.n + 1), sg))
        assert np.allclose(base.nu - attacked.nu, D[:, j], atol=1e-14)


def _random_secured(net, rng):
    u = np.zeros(net.n + 1, dtype=int)
    u[net.der_nodes[rng.random(net.der_nodes.size) < 0.4]] = 1
    return u


def _assert_result_skips(res, u):
    assert not u[res.delta_star == 1].any()
    for entry in res.trace:
        assert not u[list(entry.delta)].any(), entry.delta


class TestSecuredDERsAreNeverAttacked:
    """The response layer does not read u, so security holds only if no
    attack vector is ever drawn with a secured DER in it."""

    @pytest.mark.parametrize("seed", range(8))
    def test_attack_functions(self, seed):
        net = random_feasible_network(seed)
        rng = np.random.default_rng(seed)
        sp = fixed_angle_setpoints(net)
        for _ in range(3):
            u = _random_secured(net, rng)
            gamma = rng.uniform(net.gamma_lo, 1.0)
            gamma[0] = 1.0
            phi = DefenderResponse(sp_d=sp, gamma=gamma)
            for M in range(net.der_nodes.size + 1):
                vectors = [optimal_attack_fixed_response(net, phi, M, u, CostParams.from_network(net))]
                for pivot in net.nodes:
                    vectors.append(pivot_optimal_attack(net, pivot, sp, M, u).delta)
                for nodes in candidate_attack_set(net, sp, M, u):
                    vectors.append(node_vector(net, nodes))
                for delta in vectors:
                    assert not u[delta == 1].any(), (seed, M, np.flatnonzero(delta))

    @pytest.mark.parametrize("seed", range(6))
    def test_linear_engines_with_rows(self, seed):
        rng = np.random.default_rng(100 + seed)
        for engine, identical_k in ((solve_ad_oneshot, True), (solve_ad_exhaustive, False)):
            net = random_feasible_network(seed, identical_k=identical_k)
            params = CostParams.from_ratio(net, 10.0)
            rows = np.array([_random_secured(net, rng) for _ in range(4)])
            for M in (1, 2, 3):
                res = engine(net, rows, M, params, LPF)
                assert any(np.array_equal(res.u, row) for row in rows)
                _assert_result_skips(res, res.u)
                for u in rows:
                    _assert_result_skips(engine(net, u, M, params, LPF), u)

    @pytest.mark.parametrize("seed", range(4))
    def test_iterative_engine(self, seed):
        net = random_feasible_network(seed, n_max=7)
        u = _random_secured(net, np.random.default_rng(200 + seed))
        res = solve_ad_iterative(net, u, 2, CostParams.from_ratio(net, 10.0))
        _assert_result_skips(res, u)
