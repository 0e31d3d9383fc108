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
    solve_ad_oneshot,
    voltage_impact,
)
from dersec.attack import _partition_walks, attack_strategy, impact_matrix, pivot_families
from dersec.cases import random_feasible_network
from dersec.errors import EnumerationCapExceeded, RootArgument
from dersec.network import NodeSpec, build_network
from dersec.response import DefenderResponse, fixed_angle_setpoints

from conftest import zeros_u


def _to_delta(net, nodes):
    d = np.zeros(net.n + 1, dtype=int)
    d[list(nodes)] = 1
    return d


def _fig2_fixed_response(fig2):
    u = zeros_u(fig2)
    sp = fixed_angle_setpoints(fig2, u, np.zeros(fig2.n + 1, dtype=int))
    return DefenderResponse(sp_d=sp, gamma=np.ones(fig2.n + 1))


class TestAttackerSetpoints:
    def test_capability_value(self, fig2):
        delta = _to_delta(fig2, [2])
        got = attack_strategy(fig2, delta).sp_a
        assert got[2] == -1j * fig2.der_cap[2]
        assert not np.delete(got, 2).any()

    def test_empty_when_no_targets(self, fig2):
        assert not attack_strategy(fig2, zeros_u(fig2)).sp_a.any()

    def test_on_disk_boundary(self, fig2):
        delta = np.zeros(fig2.n + 1, dtype=int)
        delta[[2, 5]] = 1
        psi = attack_strategy(fig2, delta)
        for i in np.flatnonzero(delta):
            assert np.real(psi.sp_a[i]) == 0.0
            assert abs(psi.sp_a[i]) == pytest.approx(fig2.der_cap[i])


class TestVoltageImpact:
    def test_zero_without_der(self, fig2):
        assert voltage_impact(fig2, 3, 4, 0.0, 0.0, LPF) == 0.0

    def test_hand_value(self):
        # Z = 0.02+0.02j between pivot and j via a 2-level chain with z/2 edges
        specs = [
            NodeSpec(id=0, parent=None),
            NodeSpec(id=1, parent=0, r_pu=0.01, x_pu=0.01),
            NodeSpec(id=2, parent=1, r_pu=0.01, x_pu=0.01, der_cap=0.1),
        ]
        net = build_network(specs)
        got = voltage_impact(net, 2, 2, 0.06 + 0.03j, 0.1, LPF)
        assert got == pytest.approx(0.0076, abs=1e-12)

    def test_eps_scaling(self, fig2):
        a = voltage_impact(fig2, 4, 5, 0.005 + 0.005j, fig2.der_cap[5], LPF)
        b = voltage_impact(fig2, 4, 5, 0.005 + 0.005j, fig2.der_cap[5], eps_lpf(0.25))
        assert b == pytest.approx(1.25 * a, rel=1e-12)

    def test_downstream_preference(self, fig2):
        piv = fig2.node_by_label("i")
        j = fig2.node_by_label("j")
        k = fig2.node_by_label("k")
        sp = fixed_angle_setpoints(fig2, zeros_u(fig2), np.zeros(fig2.n + 1, dtype=int))
        dj = voltage_impact(fig2, piv, j, sp[j], fig2.der_cap[j], LPF)
        dk = voltage_impact(fig2, piv, k, sp[k], fig2.der_cap[k], LPF)
        assert dj < dk
        e = fig2.node_by_label("e")
        de = voltage_impact(fig2, piv, e, sp[e], fig2.der_cap[e], LPF)
        assert de == pytest.approx(dk, rel=1e-12)

    def test_root_argument(self, fig2):
        with pytest.raises(RootArgument):
            voltage_impact(fig2, 0, 1, 0.0, 0.1, LPF)


class TestPivotOptimalAttack:
    def test_fig2_cluster(self, fig2):
        sp = fixed_angle_setpoints(fig2, zeros_u(fig2), np.zeros(fig2.n + 1, dtype=int))
        m = fig2.node_by_label("m")
        atk = pivot_optimal_attack(fig2, m, sp, 2, zeros_u(fig2))
        chosen = {fig2.label_of(i) for i in np.flatnonzero(atk.delta)}
        assert chosen == {"i", "m"}

    def test_budget_zero(self, fig2):
        atk = pivot_optimal_attack(fig2, 3, np.zeros(fig2.n + 1, dtype=complex), 0, zeros_u(fig2))
        assert atk.impact == 0.0
        assert atk.delta.sum() == 0

    def test_budget_slack_attacks_everything(self, fig2):
        sp = fixed_angle_setpoints(fig2, zeros_u(fig2), np.zeros(fig2.n + 1, dtype=int))
        atk = pivot_optimal_attack(fig2, 5, sp, 99, zeros_u(fig2))
        assert atk.delta.sum() == len(fig2.der_nodes)

    def test_respects_security(self, fig2):
        sp = fixed_angle_setpoints(fig2, zeros_u(fig2), np.zeros(fig2.n + 1, dtype=int))
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
        delta = optimal_attack_fixed_response(fig2, phi, 0, zeros_u(fig2))
        assert delta.sum() == 0

    def test_fig2_optimum(self, fig2):
        phi = _fig2_fixed_response(fig2)
        delta = optimal_attack_fixed_response(fig2, phi, 2, zeros_u(fig2))
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


class TestPartitionWalks:
    @pytest.mark.parametrize("seed", range(20))
    def test_rows_match_the_one_pivot_walk(self, seed):
        # impacts drawn from few levels, some nudged inside and some outside
        # the tie tolerance, so partitions are wide and their edges are tested
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        levels = rng.choice([0.0, 1e-3, 2e-3, 5e-3], size=(9, n + 1))
        nudge = rng.choice([0.0, 0.0, 4e-10, 3e-9, -4e-10], size=levels.shape)
        D = levels * (1.0 + nudge)
        pool = np.sort(rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n + 1)), replace=False))
        for budget in range(pool.size + 1):
            for row, walk in zip(D, _partition_walks(D, pool, budget)):
                taken, boundary, fill = _reference_walk(row, pool, budget)
                assert walk == (tuple(sorted(taken)), tuple(boundary), fill)


class TestCandidateSet:
    def test_budget_zero_single_empty_vector(self, fig2):
        sp = fixed_angle_setpoints(fig2, zeros_u(fig2), np.zeros(fig2.n + 1, dtype=int))
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
            sp = fixed_angle_setpoints(net, np.zeros(net.n + 1, dtype=int),
                                       np.zeros(net.n + 1, dtype=int))
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
        from dersec.attack import attack_strategy
        from dersec.oracle import bf_attack_fixed_response
        from dersec.response import DefenderResponse

        for seed in range(10):
            net = random_feasible_network(seed, n_max=8)
            if len(net.der_nodes) == 0:
                continue
            u = np.zeros(net.n + 1, dtype=int)
            sp = fixed_angle_setpoints(net, u, np.zeros(net.n + 1, dtype=int))
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
                        response_state(
                            net,
                            attack_strategy(net, _to_delta(net, nodes)),
                            phi,
                            LPF,
                        ),
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
            sp = fixed_angle_setpoints(net, u, np.zeros(net.n + 1, dtype=int))
            cands = set(candidate_attack_set(net, sp, M, u))
            for pivot in net.nodes:
                atk = pivot_optimal_attack(net, pivot, sp, M, u)
                assert tuple(np.flatnonzero(atk.delta)) in cands, (net.n, pivot)

    @pytest.mark.parametrize("net_id,M", [*((seed, 2) for seed in range(15)),
                                          *(("feeder", M) for M in (3, 7, 12))])
    def test_families_expand_to_the_enumerated_set(self, homog37, net_id, M):
        net = homog37 if net_id == "feeder" else random_feasible_network(net_id)
        u = zeros_u(net)
        sp = fixed_angle_setpoints(net, u, np.zeros(net.n + 1, dtype=int))
        D = impact_matrix(net, sp, LPF)
        families = pivot_families(net, D, M, u)
        # the enumeration the engine used to run: every pivot's walk with each
        # fill-subset of its boundary partition written out
        pool = np.flatnonzero(net.der_cap > 0.0)
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
        sp = fixed_angle_setpoints(homog37, zeros_u(homog37), np.zeros(37, dtype=int))
        monkeypatch.setattr(dersec.attack, "_CANDIDATE_CAP", 200)
        with pytest.raises(EnumerationCapExceeded):
            candidate_attack_set(homog37, sp, 7, zeros_u(homog37))

    def test_cap_counts_distinct_vectors(self, homog37):
        # the per-pivot completion counts sum to 24,030 here; only the 3,432
        # distinct vectors count against the default cap of 10,000
        sp = fixed_angle_setpoints(homog37, zeros_u(homog37), np.zeros(37, dtype=int))
        assert len(candidate_attack_set(homog37, sp, 7, zeros_u(homog37))) == 3432

    def test_impact_matrix_matches_state_difference(self, fig2):
        # the tabulated impact must equal the exact voltage drop
        # produced by switching one DER to its worst-case set-point
        from dersec.powerflow import injection, solve_lpf

        u = zeros_u(fig2)
        sp = fixed_angle_setpoints(fig2, u, np.zeros(fig2.n + 1, dtype=int))
        D = impact_matrix(fig2, sp, LPF)
        base = solve_lpf(fig2, injection(fig2, np.ones(fig2.n + 1), sp))
        j = fig2.node_by_label("k")
        sg = sp.copy()
        sg[j] = -1j * fig2.der_cap[j]
        attacked = solve_lpf(fig2, injection(fig2, np.ones(fig2.n + 1), sg))
        assert np.allclose(base.nu - attacked.nu, D[:, j], atol=1e-14)
