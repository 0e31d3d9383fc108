import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dersec.game
import dersec.response
from dersec import (
    CostParams,
    LPF,
    calibrate_epsilon,
    eps_lpf,
    evaluate_loss,
    line_loss_cap,
    optimal_response,
    response_state,
    sandwich_bounds,
    solve_ad,
    solve_ad_exhaustive,
    solve_ad_iterative,
    solve_ad_oneshot,
)
from dersec.attack import PivotFamily, attack_strategy, candidate_attack_set, impact_matrix, pivot_families
from dersec.cases import heterogeneous37, random_feasible_network
from dersec.errors import EnumerationCapExceeded, HeterogeneousRxRatio
from dersec.network import NodeSpec, build_network
from dersec.oracle import bf_ad
from dersec.response import DefenderResponse, GammaControlLP, fixed_angle_setpoints
from dersec.sweep import with_gamma_lo

from conftest import params_for, zeros_u


class TestOneShot:
    def test_budget_zero(self, tree22):
        params = params_for(tree22)
        res = solve_ad_oneshot(tree22, None, 0, params, LPF)
        assert res.delta_star.sum() == 0
        assert res.loss.lovr == 0.0
        assert res.loss.voll == 0.0

    def test_requires_identical_ratio(self):
        specs = [
            NodeSpec(id=0, parent=None),
            NodeSpec(id=1, parent=0, r_pu=0.01, x_pu=0.01, pc_nom=0.01, qc_nom=0.003,
                     der_cap=0.005),
            NodeSpec(id=2, parent=1, r_pu=0.01, x_pu=0.02, pc_nom=0.01, qc_nom=0.003,
                     der_cap=0.005),
        ]
        net = build_network(specs)
        with pytest.raises(HeterogeneousRxRatio):
            solve_ad_oneshot(net, None, 1, CostParams.from_network(net), LPF)

    @pytest.mark.parametrize("ratio", [2.0, 10.0])
    def test_matches_exhaustive_oracle(self, tree32, ratio):
        params = params_for(tree32, ratio)
        for M in range(4):
            mine = solve_ad_oneshot(tree32, None, M, params, LPF)
            _, _, bf_loss = bf_ad(tree32, zeros_u(tree32), M, params, LPF)
            assert mine.loss.total == pytest.approx(bf_loss, abs=1e-9)

    def test_eps_model_same_attack_set_when_binding(self, tree32):
        params = params_for(tree32, 2.0)  # no shedding; LOVR binds
        eps = calibrate_epsilon(tree32).eps
        lo = solve_ad_oneshot(tree32, None, 2, params, LPF)
        hi = solve_ad_oneshot(tree32, None, 2, params, eps_lpf(eps))
        if lo.loss.lovr > 0 and hi.loss.lovr > 0:
            assert np.array_equal(lo.delta_star, hi.delta_star)

    def test_monotone_in_budget(self, tree23):
        params = params_for(tree23, 10.0)
        prev = -1.0
        for M in range(0, 7):
            res = solve_ad_oneshot(tree23, None, M, params, LPF)
            assert res.loss.total >= prev - 1e-9
            prev = res.loss.total

    def test_security_monotonicity(self, tree32):
        params = params_for(tree32, 10.0)
        base = solve_ad_oneshot(tree32, None, 2, params, LPF).loss.total
        u = zeros_u(tree32)
        u[[4, 5, 6]] = 1
        secured = solve_ad_oneshot(tree32, u, 2, params, LPF).loss.total
        assert secured <= base + 1e-9
        u2 = u.copy()
        u2[[7, 8]] = 1
        more = solve_ad_oneshot(tree32, u2, 2, params, LPF).loss.total
        assert more <= secured + 1e-9


def _count_lps(monkeypatch):
    calls = []
    solve_lp = dersec.response.linprog

    def counted(*args):
        calls.append(1)
        return solve_lp(*args)

    monkeypatch.setattr(dersec.response, "linprog", counted)
    return calls


def _per_candidate_losses(net, M, params, model):
    """Each candidate's own load-control LP loss, by candidate."""
    u = zeros_u(net)
    sp = fixed_angle_setpoints(net, u, u)
    lp = GammaControlLP(net, params, model, sp, u=u)
    losses = {}
    for nodes in candidate_attack_set(net, sp, M, u):
        delta = zeros_u(net)
        delta[list(nodes)] = 1
        gamma = lp.solve(delta)
        phi = DefenderResponse(sp_d=sp, gamma=gamma)
        state = response_state(net, attack_strategy(net, delta), phi, model, u=u)
        losses[nodes] = evaluate_loss(state, gamma, params).total
    return losses


class TestOneShotPool:
    def _check(self, net, M, params, model):
        res = solve_ad_oneshot(net, None, M, params, model)
        losses = _per_candidate_losses(net, M, params, model)
        assert res.loss.total == pytest.approx(max(losses.values()), abs=1e-9)
        # one entry per family of the winning row: its least member, a
        # candidate, and the family's bound, never below that member's loss
        assert all(losses[e.delta] <= e.loss + 1e-9 for e in res.trace)
        assert tuple(np.flatnonzero(res.delta_star)) in {e.delta for e in res.trace}
        # pooled bounds and the power-flow loss differ by rounding only
        assert max(e.loss for e in res.trace) <= res.loss.total + 1e-9

    @pytest.mark.parametrize("seed", [0, 4, 7, 13])
    def test_random_networks(self, seed):
        net = random_feasible_network(seed, identical_k=True)
        params = params_for(net, 10.0)
        eps = calibrate_epsilon(net).eps
        for M in (2, 4, 6):
            for model in (LPF, eps_lpf(eps)):
                self._check(net, M, params, model)

    @pytest.mark.parametrize("M", [7, 12])
    def test_feeder(self, homog37, M):
        net = with_gamma_lo(homog37, 0.5)
        params = params_for(net, 10.0)
        for model in (LPF, eps_lpf(calibrate_epsilon(homog37).eps)):
            self._check(net, M, params, model)

    @pytest.mark.parametrize("M", [1, 2])
    def test_open_families_are_split(self, M, monkeypatch):
        # three equal branches off one trunk node, a DER at each end: at the
        # trunk the DERs tie, so one family holds an attack on every branch.
        # The response to one branch's attack leaves the others unprotected,
        # so the family's bound stays open and the family is split.
        def spec(i, parent, cap=0.0):
            return NodeSpec(id=i, parent=parent, r_pu=0.05, x_pu=0.06, pc_nom=0.1, qc_nom=0.03,
                            der_cap=cap, gamma_lo=0.5)

        specs = [NodeSpec(id=0, parent=None), spec(1, 0)]
        for end in (3, 5, 7):
            specs += [spec(end - 1, 1), spec(end, end - 1, 0.06)]
        net = build_network(specs)
        params = params_for(net, 10.0)
        splits = []
        split = PivotFamily.split
        monkeypatch.setattr(PivotFamily, "split", lambda f, node: splits.append(node) or split(f, node))
        self._check(net, M, params, LPF)
        assert splits
        # rows securing one DER each share the table, and with it the splits
        rows = _single_der_rows(net, [3, 5, 7])
        per_row = [solve_ad_oneshot(net, row, M, params, LPF).loss.total for row in rows]
        assert solve_ad_oneshot(net, rows, M, params, LPF).loss.total == pytest.approx(min(per_row), abs=1e-9)

    def test_feeder_needs_few_lps(self, homog37, monkeypatch):
        net = with_gamma_lo(homog37, 0.5)
        params = params_for(net, 10.0)
        model = eps_lpf(calibrate_epsilon(homog37).eps)
        calls = _count_lps(monkeypatch)
        res = solve_ad_oneshot(net, None, 12, params, model)
        # the six pivot families of the 91 candidates, and the one vector solved
        assert len(res.trace) == 7
        assert 1 <= len(calls) <= 3


class TestFamilyBound:
    """A family's value under a response is its largest member loss."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 40), M=st.integers(1, 4), draw=st.integers(0, 2**32 - 1))
    def test_family_value_is_the_largest_member_loss(self, seed, M, draw):
        net = random_feasible_network(seed, n_max=8)
        params = params_for(net, 10.0)
        u = zeros_u(net)
        seed_sp = fixed_angle_setpoints(net, u, u)
        families = pivot_families(net, impact_matrix(net, seed_sp, LPF), M, u)
        rng = np.random.default_rng(draw)
        for model in (LPF, eps_lpf(0.3)):
            index = {f: k for k, f in enumerate(families)}
            table = dersec.game._FamilyTable(GammaControlLP(net, params, model, seed_sp), index)
            # the seed's set-points, then set-points anywhere in the DER half-disks
            for sp in (seed_sp, net.der_cap * np.sqrt(rng.uniform(size=net.n + 1))
                       * np.exp(1j * np.pi * rng.uniform(-0.5, 0.5, size=net.n + 1))):
                gamma = rng.uniform(net.gamma_lo, 1.0)
                gamma[0] = 1.0
                phi = DefenderResponse(sp_d=sp, gamma=gamma)
                for family, value in zip(families, table.value(phi)):
                    losses = []
                    for nodes in family.members():
                        delta = zeros_u(net)
                        delta[list(nodes)] = 1
                        state = response_state(net, attack_strategy(net, delta), phi, model)
                        losses.append(evaluate_loss(state, gamma, params).total)
                    assert value == pytest.approx(max(losses), abs=1e-9)


class TestOneShotLiterals:
    """Values, attacks and LP counts on the study feeder, as computed when
    the engine still enumerated every candidate vector."""

    @pytest.mark.parametrize("M,model,total,attacked,lps", [
        (5, "lpf", 0.0, range(9, 14), 0),
        (5, "eps", 108.41697701200906, range(9, 14), 1),
        (7, "lpf", 0.0, range(9, 16), 0),
        (7, "eps", 395.6708439329782, range(9, 16), 1),
        (8, "lpf", 79.14236279046796, range(9, 17), 1),
        (8, "eps", 541.147198095723, range(9, 17), 1),
        (12, "lpf", 468.7452509252807, range(9, 21), 1),
        (12, "eps", 1621.5636089074496, range(9, 21), 1),
    ])
    def test_feeder(self, homog37, monkeypatch, M, model, total, attacked, lps):
        net = with_gamma_lo(homog37, 0.5)
        tag = LPF if model == "lpf" else eps_lpf(calibrate_epsilon(homog37).eps)
        calls = _count_lps(monkeypatch)
        res = solve_ad_oneshot(net, None, M, params_for(net, 10.0), tag)
        assert res.loss.total == total
        assert np.flatnonzero(res.delta_star).tolist() == list(attacked)
        assert len(calls) == lps


def _per_vector_value(net, M, params, model):
    """Max over every attack vector of its own joint response LP loss."""
    u = zeros_u(net)
    best = -np.inf
    count = 0
    ders = [int(i) for i in net.der_nodes]
    for k in range(min(M, len(ders)) + 1):
        for combo in itertools.combinations(ders, k):
            delta = zeros_u(net)
            delta[list(combo)] = 1
            psi = attack_strategy(net, delta)
            phi = optimal_response(net, psi, params, model, u=u)
            state = response_state(net, psi, phi, model, u=u)
            best = max(best, evaluate_loss(state, phi.gamma, params).total)
            count += 1
    return best, count


class TestExhaustivePool:
    @pytest.mark.parametrize("seed,M", [(4, 3), (9, 1), (9, 2), (9, 3)])
    @pytest.mark.parametrize("wc", [2.0, 10.0])
    def test_heterogeneous_matches_per_vector_max(self, seed, M, wc, monkeypatch):
        net = random_feasible_network(seed, identical_k=False)
        assert net.uniform_rx_ratio() is None
        params = params_for(net, wc)
        expected, n_vectors = _per_vector_value(net, M, params, LPF)
        assert expected > 0.0
        calls = _count_lps(monkeypatch)
        res = solve_ad_exhaustive(net, None, M, params, LPF)
        assert res.loss.total == pytest.approx(expected, abs=1e-9)
        assert len(res.trace) == n_vectors
        assert max(e.loss for e in res.trace) <= res.loss.total + 1e-9
        assert len(calls) < n_vectors

    @pytest.mark.parametrize("seed,M", [(9, 2), (4, 3)])
    def test_pooled_bounds_build_one_model(self, seed, M, monkeypatch):
        # one load-control model for the pool, one per solved response; a
        # response's pooled bound reuses the pool's model
        net = random_feasible_network(seed, identical_k=False)
        builds, responses = [], []
        build = dersec.response._ResponseModel.__init__
        respond = dersec.game.optimal_response

        def counted_build(self, *args, **kwargs):
            builds.append(1)
            build(self, *args, **kwargs)

        def counted_respond(*args, **kwargs):
            responses.append(1)
            return respond(*args, **kwargs)

        monkeypatch.setattr(dersec.response._ResponseModel, "__init__", counted_build)
        monkeypatch.setattr(dersec.game, "optimal_response", counted_respond)
        solve_ad_exhaustive(net, None, M, params_for(net, 10.0), LPF)
        assert responses and len(builds) == 1 + len(responses)

    def test_identical_ratio_agrees_with_oneshot(self, tree32):
        params = params_for(tree32, 10.0)
        for M in range(4):
            pooled = solve_ad_exhaustive(tree32, None, M, params, LPF)
            oneshot = solve_ad_oneshot(tree32, None, M, params, LPF)
            # the joint LP's inner facet polygon costs up to 1e-3 of loss
            assert pooled.loss.total == pytest.approx(oneshot.loss.total, abs=1e-3)


def _single_der_rows(net, ders):
    rows = np.zeros((len(ders), net.n + 1), dtype=int)
    rows[np.arange(len(ders)), ders] = 1
    return rows


class TestSecurityRows:
    """A 2-D ``u`` holds rows of alternative security vectors."""

    @pytest.fixture(scope="class")
    def feeder(self, homog37):
        net = with_gamma_lo(homog37, 0.5)
        return net, params_for(net, 10.0), solve_ad_oneshot, 9, [int(i) for i in net.der_nodes]

    @pytest.fixture(scope="class")
    def heterogeneous(self):
        net = with_gamma_lo(heterogeneous37(0), 0.5)
        return net, params_for(net, 10.0), solve_ad_exhaustive, 6, list(range(12, 23))

    @pytest.mark.parametrize("case", ["feeder", "heterogeneous"])
    def test_one_row_is_the_one_vector_call(self, case, request):
        net, params, engine, M, ders = request.getfixturevalue(case)
        u = zeros_u(net)
        u[ders[0]] = 1
        flat = engine(net, u, M, params, LPF)
        rows = engine(net, u[None, :], M, params, LPF)
        assert rows.loss.total == flat.loss.total
        assert np.array_equal(rows.delta_star, flat.delta_star)
        assert rows.trace == flat.trace
        assert np.array_equal(rows.u, u) and np.array_equal(flat.u, u)

    @pytest.mark.parametrize("case", ["feeder", "heterogeneous"])
    def test_rows_give_the_least_row_value(self, case, request):
        net, params, engine, M, ders = request.getfixturevalue(case)
        rows = _single_der_rows(net, ders)
        per_row = [engine(net, row, M, params, LPF).loss.total for row in rows]
        assert min(per_row) > 0.0
        res = engine(net, rows, M, params, LPF)
        assert res.loss.total == pytest.approx(min(per_row), abs=1e-9)
        picked = next(k for k, row in enumerate(rows) if np.array_equal(row, res.u))
        assert per_row[picked] == pytest.approx(min(per_row), abs=1e-9)
        # the trace is the winning row's sub-game: its own attack vectors
        own = engine(net, res.u, M, params, LPF)
        assert [e.delta for e in res.trace] == [e.delta for e in own.trace]
        assert all(not res.u[list(e.delta)].any() for e in res.trace)
        assert max(e.loss for e in res.trace) <= res.loss.total + 1e-9

    def test_family_rows_stop_at_the_table_cap(self, feeder, monkeypatch):
        net, params, _, M, ders = feeder
        rows = _single_der_rows(net, ders)
        sp = fixed_angle_setpoints(net, zeros_u(net), zeros_u(net))
        first = pivot_families(net, impact_matrix(net, sp, LPF), M, rows[0])
        # a row holds at most one family per pivot, however many vectors
        assert len(first) <= net.n < len(candidate_attack_set(net, sp, M, rows[0]))
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return pivot_families(*args, **kwargs)

        monkeypatch.setattr(dersec.game, "pivot_families", counted)
        monkeypatch.setattr(dersec.game, "_TABLE_CAP", len(first) + 1)
        with pytest.raises(EnumerationCapExceeded):
            solve_ad_oneshot(net, rows, M, params, LPF)
        assert len(calls) == 2


def _same_result(a, b):
    assert a.loss == b.loss
    assert np.array_equal(a.delta_star, b.delta_star)
    assert a.trace == b.trace
    assert (a.model, a.iterations, a.converged) == (b.model, b.iterations, b.converged)


class TestSolveAd:
    """``solve_ad`` takes the engine from the model and the network."""

    def test_identical_ratio_linear_is_oneshot(self, tree22):
        params = params_for(tree22, 10.0)
        for model in (LPF, eps_lpf(calibrate_epsilon(tree22).eps)):
            _same_result(solve_ad(tree22, None, 2, params, model),
                         solve_ad_oneshot(tree22, None, 2, params, model))

    @pytest.mark.parametrize("M,value", [(1, 5.619094742784498), (2, 13.463519101430073)])
    def test_heterogeneous_linear_is_exhaustive(self, M, value):
        net = random_feasible_network(9, identical_k=False)
        assert net.uniform_rx_ratio() is None
        params = params_for(net, 10.0)
        res = solve_ad(net, None, M, params, LPF)
        _same_result(res, solve_ad_exhaustive(net, None, M, params, LPF))
        assert res.loss.total == pytest.approx(value, abs=1e-9)

    def test_npf_is_unseeded_iterative(self, tree22):
        from dersec import NPF

        params = params_for(tree22, 10.0)
        res = solve_ad(tree22, None, 2, params, NPF)
        _same_result(res, solve_ad_iterative(tree22, None, 2, params))
        assert res.model == NPF


class TestIterative:
    def test_budget_zero_single_iteration(self, tree22):
        params = params_for(tree22)
        res = solve_ad_iterative(tree22, None, 0, params)
        assert res.converged
        assert res.iterations == 1
        assert res.delta_star.sum() == 0

    def test_homogeneous_converges_quickly(self, homog37):
        params = params_for(homog37, 10.0)
        for M in (1, 5, 9, 14):
            res = solve_ad_iterative(homog37, None, M, params)
            assert res.converged
            assert res.iterations <= 3

    def test_visited_seed_adds_no_step(self, tree22):
        # a seed equal to the no-attack vector is already visited
        params = params_for(tree22, 10.0)
        seeded = solve_ad_iterative(tree22, None, 2, params, seed_attack=zeros_u(tree22))
        _same_result(seeded, solve_ad_iterative(tree22, None, 2, params))

    def test_trace_best_sequence_nondecreasing(self, homog37):
        params = params_for(homog37, 10.0)
        res = solve_ad_iterative(homog37, None, 9, params)
        best = -np.inf
        for entry in res.trace:
            best = max(best, entry.loss)
        assert res.loss.total == pytest.approx(best, abs=1e-12)

    def test_randomized_completion_keeps_pivot_impact(self, homog37):
        from dersec.attack import pivot_optimal_attack
        from dersec.response import fixed_angle_setpoints

        u = zeros_u(homog37)
        sp = fixed_angle_setpoints(homog37, u, np.zeros(37, dtype=int))
        pivot = 24  # shallow lateral: every DER ties, so the boundary is wide
        det = pivot_optimal_attack(homog37, pivot, sp, 5, u)
        rnd = pivot_optimal_attack(
            homog37, pivot, sp, 5, u, rng=np.random.default_rng(3)
        )
        assert det.impact == pytest.approx(rnd.impact, rel=1e-12)
        assert det.delta.sum() == rnd.delta.sum() == 5

    def test_result_loss_recomputable(self, homog37):
        from dersec import evaluate_loss, response_state

        params = params_for(homog37, 10.0)
        for result in (
            solve_ad_oneshot(homog37, None, 9, params, LPF),
            solve_ad_iterative(homog37, None, 9, params),
        ):
            state = response_state(
                homog37, result.psi_star, result.phi_star, result.model
            )
            again = evaluate_loss(state, result.phi_star.gamma, params)
            assert again.total == pytest.approx(result.loss.total, abs=1e-10)

    def test_small_net_close_to_grid_oracle(self):
        from conftest import chain_network
        from dersec import NPF
        from dersec.oracle import GridSpec

        net = chain_network(3, z=0.02 + 0.024j, load=0.025 + 0.008j,
                            caps={2: 0.012, 3: 0.012}, nu_lo=0.9965)
        params = CostParams(W=net.W / 7000.0, C=net.C / 7000.0)
        res = solve_ad_iterative(net, None, 2, params)
        _, _, bf_loss = bf_ad(
            net, zeros_u(net), 2, params, NPF,
            grid=GridSpec(gamma_step=0.1, setpoint_angle_step=np.pi / 40,
                          setpoint_mag_step=0.25),
        )
        # grid response is weaker than the exact response, so the oracle's
        # max-min is an upper bound within one grid cell
        assert res.loss.total <= bf_loss + 1e-9
        assert bf_loss - res.loss.total < 2e-2


class TestSandwich:
    def test_budget_zero_holds(self, tree22):
        params = params_for(tree22)
        rep = sandwich_bounds(tree22, None, 0, params)
        assert rep.holds
        assert rep.l_lpf == 0.0

    def test_homogeneous_hard_point(self, homog37):
        from dersec.sweep import with_gamma_lo

        net = with_gamma_lo(homog37, 0.5)
        params = CostParams.from_ratio(net, 10.0)
        rep = sandwich_bounds(net, None, 7, params)
        assert rep.holds
        assert rep.slack_term == pytest.approx(line_loss_cap(net))

    def test_random_instances_hold(self):
        for seed in range(12):
            net = random_feasible_network(seed)
            params = params_for(net, 10.0)
            rep = sandwich_bounds(net, None, 2, params)
            assert rep.holds, (seed, rep)
