import functools
import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dersec.game
import dersec.response
from dersec import (
    CostParams,
    LPF,
    balanced_tree,
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
from dersec.attack import (
    PivotFamily,
    candidate_attack_set,
    impact_matrix,
    impact_ranking,
    ranked_families,
)
from dersec.cases import heterogeneous37, homogeneous37, random_feasible_network
from dersec.errors import EnumerationCapExceeded, HeterogeneousRxRatio
from dersec.network import NodeSpec, build_network
from dersec.oracle import bf_ad
from dersec.response import (
    DefenderResponse,
    GammaControlLP,
    fixed_angle_setpoints,
    polygon_setpoints,
)
from dersec.security import solve_dad
from dersec.sweep import with_gamma_lo

from conftest import params_for, relabel, zeros_u


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
    sp = fixed_angle_setpoints(net)
    lp = GammaControlLP(net, params, model, sp)
    losses = {}
    for nodes in candidate_attack_set(net, sp, M, u):
        delta = zeros_u(net)
        delta[list(nodes)] = 1
        gamma = lp.solve(delta)
        phi = DefenderResponse(sp_d=sp, gamma=gamma)
        state = response_state(net, delta, phi, model)
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
        seed_sp = fixed_angle_setpoints(net)
        families = ranked_families(impact_ranking(impact_matrix(net, seed_sp, LPF)[1:], net.der_nodes), M, u)
        rng = np.random.default_rng(draw)
        for model in (LPF, eps_lpf(0.3)):
            table = dersec.game._FamilyTable(GammaControlLP(net, params, model, seed_sp),
                                             impact_matrix(net, seed_sp, model)[1:])
            assert table.add(families) == list(range(len(families)))
            # the seed's set-points, then set-points anywhere in the DER half-disks
            for sp in (seed_sp, net.der_cap * np.sqrt(rng.uniform(size=net.n + 1))
                       * np.exp(1j * np.pi * rng.uniform(-0.5, 0.5, size=net.n + 1))):
                gamma = rng.uniform(net.gamma_lo, 1.0)
                gamma[0] = 1.0
                phi = DefenderResponse(sp_d=sp, gamma=gamma)
                for family, value in zip(families, table.value(phi), strict=True):
                    losses = []
                    for nodes in family.members():
                        delta = zeros_u(net)
                        delta[list(nodes)] = 1
                        state = response_state(net, delta, phi, model)
                        losses.append(evaluate_loss(state, gamma, params).total)
                    assert value == pytest.approx(max(losses), abs=1e-9)


    @pytest.mark.parametrize("M", [3, 8, 12])
    def test_boundary_sums_add_the_largest_impacts_in_order(self, homog37, M):
        # a wide family's drop at a node adds its fill largest boundary
        # impacts one at a time, largest first; a loop checks it bit for bit
        net = with_gamma_lo(homog37, 0.5)
        sp = fixed_angle_setpoints(net)
        D = impact_matrix(net, sp, LPF)[1:]
        families = list(ranked_families(impact_ranking(D, net.der_nodes), M, zeros_u(net)))
        # split children give boundaries of other widths
        families += [c for f in families if f.boundary for c in f.split(f.boundary[0])]
        table = dersec.game._FamilyTable(GammaControlLP(net, params_for(net, 10.0), LPF, sp), D)
        table.add(families)
        assert table.wide.any()
        drop = table.taken @ D.T
        for r, f in enumerate(table.fams):
            for p in range(net.n) if f.boundary else ():
                ranked = sorted(D[p, list(f.boundary)].tolist(), reverse=True)
                drop[r, p] += functools.reduce(operator.add, ranked[: f.fill])
        assert np.array_equal(table.intercept(sp), table.impacts(sp)[1] - drop)


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

    # each entry's least member is nodes 9..M+7 and one more node; the wide
    # families among them are bounded through their boundary sums
    @pytest.mark.parametrize("M,model,trace", [
        (8, "lpf", [(16, "79.14236279047573")] * 7 + [(17, "79.14236279047573")]
         + [(j, "79.14236279046796") for j in (18, 19, 20, 21)] + [(22, "68.80334078968042")]),
        (8, "eps", [(16, "541.1471980957307")] * 7 + [(17, "541.1471980957307")]
         + [(j, "541.147198095723") for j in (18, 19, 20, 21, 22)]),
        (12, "lpf", [(20, "468.7452509252807")] * 5 + [(j, "468.7452509252807") for j in (21, 22)]),
        (12, "eps", [(20, "1621.5636089074574")] * 5 + [(21, "1621.5636089074574"),
                                                         (22, "1504.2585085099217")]),
    ])
    def test_trace_bounds(self, homog37, M, model, trace):
        net = with_gamma_lo(homog37, 0.5)
        tag = LPF if model == "lpf" else eps_lpf(calibrate_epsilon(homog37).eps)
        res = solve_ad_oneshot(net, None, M, params_for(net, 10.0), tag)
        assert [(e.delta, repr(e.loss)) for e in res.trace] == [
            ((*range(9, M + 8), j), loss) for j, loss in trace]


def _per_vector_value(net, M, params, model):
    """Max over every attack vector of its own joint response LP loss."""
    best = -np.inf
    count = 0
    ders = [int(i) for i in net.der_nodes]
    for k in range(min(M, len(ders)) + 1):
        for combo in itertools.combinations(ders, k):
            delta = zeros_u(net)
            delta[list(combo)] = 1
            phi = optimal_response(net, delta, params, model)
            state = response_state(net, delta, phi, model)
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
        # the trace lists every full-budget vector
        ders = len(net.der_nodes)
        assert len(res.trace) == math.comb(ders, min(M, ders))
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

    def test_zero_bound_set_by_another_response(self, monkeypatch):
        # loaded nodes 1-2 on high-reactance edges; DERs 3 (off node 1), 4 and
        # 5 (off node 2) on near-resistive stubs, whose own-edge seed angles
        # give almost no reactive support; no load may be shed
        specs = [NodeSpec(id=0, parent=None)]
        for i, x in ((1, 0.05), (2, 0.1)):
            specs.append(NodeSpec(id=i, parent=i - 1, r_pu=0.01, x_pu=x, pc_nom=0.02,
                                  qc_nom=0.006, nu_lo=0.9966, gamma_lo=1.0))
        for i, parent, cap in ((3, 1, 0.005), (4, 2, 0.0055), (5, 2, 0.005)):
            specs.append(NodeSpec(id=i, parent=parent, r_pu=0.002, x_pu=1e-5, der_cap=cap,
                                  nu_lo=0.9966, gamma_lo=1.0))
        net = build_network(specs)
        params = params_for(net, 10.0)
        seed = DefenderResponse(polygon_setpoints(net), np.ones(net.n + 1))
        delta = np.eye(net.n + 1, dtype=int)[3]
        assert evaluate_loss(response_state(net, delta, seed, LPF), seed.gamma, params).total > 1.0
        assert _per_vector_value(net, 1, params, LPF)[0] == pytest.approx(0.0, abs=1e-9)
        calls = _count_lps(monkeypatch)
        res = solve_ad_exhaustive(net, None, 1, params, LPF)
        # DER 4's response, solved first, closes DER 3's bound at 0 without
        # its own LP, and DER 5's closes the row; the tie goes to the first
        # vector, with the response that closed its bound
        assert len(calls) == 2
        assert [(e.delta, e.loss) for e in res.trace] == [((3,), 0.0), ((4,), 0.0), ((5,), 0.0)]
        assert np.flatnonzero(res.delta_star).tolist() == [3]
        assert res.loss.total == 0.0


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
        sp = fixed_angle_setpoints(net)
        pool = net.der_nodes[rows[0][net.der_nodes] == 0]
        first = dersec.game.ranked_families(impact_ranking(impact_matrix(net, sp, LPF)[1:], pool), M, rows[0])
        # a row holds at most one family per pivot, however many vectors
        assert len(first) <= net.n < len(candidate_attack_set(net, sp, M, rows[0]))
        calls = []
        ranked_families = dersec.game.ranked_families

        def counted(*args, **kwargs):
            calls.append(1)
            return ranked_families(*args, **kwargs)

        monkeypatch.setattr(dersec.game, "ranked_families", counted)
        monkeypatch.setattr(dersec.game, "_TABLE_CAP", len(first) + 1)
        with pytest.raises(EnumerationCapExceeded):
            solve_ad_oneshot(net, rows, M, params, LPF)
        assert len(calls) == 2

    def test_a_bound_that_is_not_a_number_is_named(self, feeder, monkeypatch):
        net, params, _, M, _ = feeder
        monkeypatch.setattr(dersec.game._FamilyTable, "value",
                            lambda table, phi, ks=slice(None): np.full(len(table.fams), np.nan)[ks])
        with pytest.raises(ValueError, match="security row 0: .* bound is not a number"):
            solve_ad_oneshot(net, None, M, params, LPF)


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

    @pytest.mark.parametrize("M", [-1, 1.5, True])
    def test_engines_reject_a_bad_budget(self, tree22, M):
        params = params_for(tree22, 10.0)
        solves = (
            lambda: solve_ad_oneshot(tree22, None, M, params, LPF),
            lambda: solve_ad_exhaustive(tree22, None, M, params, LPF),
            lambda: solve_ad_iterative(tree22, None, M, params),
        )
        for solve in solves:
            with pytest.raises(ValueError, match="budget M"):
                solve()

    @pytest.mark.parametrize("case", ["no-rows", "short", "3-d", "entry-of-2", "entry-of-half"])
    def test_linear_engines_reject_a_bad_security_vector(self, tree22, case):
        # each once failed deep in the solve, or (entry 2) ran as secured
        n = tree22.n + 1
        u = zeros_u(tree22)
        u = {
            "no-rows": np.zeros((0, n), dtype=int),
            "short": u[:-1],
            "3-d": u[None, None],
            "entry-of-2": np.where(np.arange(n) == tree22.der_nodes[0], 2, 0),
            "entry-of-half": np.where(np.arange(n) == tree22.der_nodes[0], 0.5, 0.0),
        }[case]
        params = params_for(tree22, 10.0)
        for engine in (solve_ad_oneshot, solve_ad_exhaustive):
            with pytest.raises(ValueError, match="u must be a 0/1 vector or rows of them"):
                engine(tree22, u, 1, params, LPF)

    def test_linear_engines_read_one_row_as_the_vector(self, tree22):
        params = params_for(tree22, 10.0)
        u = zeros_u(tree22)
        u[tree22.der_nodes[0]] = 1
        for engine in (solve_ad_oneshot, solve_ad_exhaustive):
            _same_result(engine(tree22, u[None].astype(bool), 2, params, LPF), engine(tree22, u, 2, params, LPF))

    def test_nonlinear_solves_reject_rows_of_security_vectors(self, tree22, monkeypatch):
        from dersec import NPF

        # two rows once ended in an IndexError after the LPF solve
        rows = np.zeros((2, tree22.n + 1), dtype=int)
        rows[0, tree22.der_nodes[0]] = 1
        params = params_for(tree22, 10.0)
        calls = _count_lps(monkeypatch)
        solves = (
            lambda: solve_ad(tree22, rows, 1, params, NPF),
            lambda: solve_ad_iterative(tree22, rows, 1, params),
            lambda: sandwich_bounds(tree22, rows, 1, params),
        )
        for solve in solves:
            with pytest.raises(ValueError, match="u of a nonlinear solve must be one 0/1 vector"):
                solve()
        assert calls == []

    @pytest.mark.parametrize("entry,match", [
        ("solve_ad_oneshot", "one-shot engine applies to linear models only"),
        ("solve_ad_exhaustive", "exhaustive engine applies to linear models only"),
        ("GammaControlLP", "load-control LP applies to linear models only"),
        ("solve_dad", "solve_dad applies to linear models"),
    ])
    def test_linear_entry_points_reject_npf(self, tree22, entry, match, monkeypatch):
        from dersec import NPF, solve_dad

        params = params_for(tree22, 10.0)
        calls = _count_lps(monkeypatch)
        solve = {
            "solve_ad_oneshot": lambda: solve_ad_oneshot(tree22, None, 1, params, NPF),
            "solve_ad_exhaustive": lambda: solve_ad_exhaustive(tree22, None, 1, params, NPF),
            "GammaControlLP": lambda: GammaControlLP(tree22, params, NPF, polygon_setpoints(tree22)),
            "solve_dad": lambda: solve_dad(tree22, 1, 1, params, NPF),
        }[entry]
        with pytest.raises(ValueError, match=match):
            solve()
        assert calls == []

    def test_npf_is_lpf_seeded_iterative(self, tree22):
        from dersec import NPF

        het = random_feasible_network(9, identical_k=False)
        for net, lpf_engine in ((tree22, solve_ad_oneshot), (het, solve_ad_exhaustive)):
            params = params_for(net, 10.0)
            res = solve_ad(net, None, 2, params, NPF)
            seed = lpf_engine(net, None, 2, params, LPF).delta_star
            _same_result(res, solve_ad_iterative(net, None, 2, params, seed_attack=seed))
            assert res.model == NPF

    def test_npf_feeder_point_pays_two_responses(self, homog37, monkeypatch):
        # the unseeded start answered the empty attack first: 3 responses
        from dersec import NPF

        net = with_gamma_lo(homog37, 0.5)
        calls = []
        monkeypatch.setattr(dersec.game, "optimal_response",
                            lambda *args: calls.append(args) or optimal_response(*args))
        solve_ad(net, None, 6, CostParams.from_ratio(net, 10.0), NPF)
        assert len(calls) == 2

    def test_npf_raises_above_the_cap_where_lpf_does(self, monkeypatch):
        from dersec import NPF
        from dersec.sweep import SweepConfig, run_sweep

        # 14 DERs: 14 full-budget vectors at M=1, 91 at M=2, 364 at M=3
        net = with_gamma_lo(heterogeneous37(0), 0.5)
        params = params_for(net, 10.0)
        monkeypatch.setattr(dersec.game, "_EXHAUSTIVE_CAP", 100)
        raised = {}
        for model in (LPF, NPF):
            for M in range(5):
                try:
                    solve_ad(net, None, M, params, model)
                    raised[model, M] = False
                except EnumerationCapExceeded:
                    raised[model, M] = True
        assert [raised[LPF, M] for M in range(5)] == [False, False, False, True, True]
        assert all(raised[NPF, M] == raised[LPF, M] for M in range(5))
        cfg = SweepConfig(M_values=(2, 3), wc_ratios=(10.0,), gamma_lo_values=(0.5,), model="npf")
        ok, capped = run_sweep(heterogeneous37(0), cfg)
        assert ok.error == ""
        assert capped.error.startswith("EnumerationCapExceeded")


class TestIterative:
    def test_seed_attack_taking_a_secured_der_raises(self, tree22):
        u = zeros_u(tree22)
        u[tree22.der_nodes[0]] = 1
        seed = zeros_u(tree22)
        seed[tree22.der_nodes[:2]] = 1
        with pytest.raises(ValueError, match="secures"):
            solve_ad_iterative(tree22, u, 2, params_for(tree22), seed_attack=seed)

    @pytest.mark.parametrize("case", ["over-budget", "entry-of-2", "no-der-node", "short"])
    def test_seed_attack_off_the_budget_rule_raises(self, case):
        # DERs at 2, 3, 6 and 8; at M=1 a seed is empty or takes one of them
        net = random_feasible_network(3)
        seed = zeros_u(net)
        if case == "over-budget":
            seed[[2, 3, 6, 8]] = 1
        elif case == "entry-of-2":
            seed[2] = 2
        elif case == "no-der-node":
            seed[1] = 1
        else:
            seed = seed[:-1]
        with pytest.raises(ValueError, match="seed_attack"):
            solve_ad_iterative(net, None, 1, params_for(net), seed_attack=seed)

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
        # an empty seed is the unseeded solve's own start attack
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

    def test_result_loss_recomputable(self, homog37):
        from dersec import evaluate_loss, response_state

        params = params_for(homog37, 10.0)
        for result in (
            solve_ad_oneshot(homog37, None, 9, params, LPF),
            solve_ad_iterative(homog37, None, 9, params),
        ):
            state = response_state(
                homog37, result.delta_star, result.phi_star, result.model
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


class TestIterativeLiterals:
    """Pinned seeded solves on the feeder (loss by ``repr``, delta*, trace,
    SLP LPs): each starts at its seed, the bench's LPF attack, and never
    responds to the empty attack."""

    POINTS = {
        (10.0, 8): ("116.27572077692784", tuple(range(9, 17)), False, 58, (
            (tuple(range(9, 17)), "116.27572077692784"),
            ((9, 10, 11, 12, 13, 17, 18, 19), "27.44722110175926"),
        )),
        (2.0, 12): ("398.1467368886581", tuple(range(9, 21)), True, 4, (
            (tuple(range(9, 21)), "398.1467368886581"),
            ((*range(9, 19), 21, 22), "360.2030229751753"),
        )),
    }

    @pytest.fixture(scope="class")
    def solved(self, homog37):
        net = with_gamma_lo(homog37, 0.5)
        out = {}
        with pytest.MonkeyPatch.context() as mp:
            calls = _count_lps(mp)
            for (wc, M), (_, seed_nodes, *_) in self.POINTS.items():
                seed = zeros_u(net)
                seed[list(seed_nodes)] = 1
                del calls[:]
                res = solve_ad_iterative(net, None, M, params_for(net, wc), seed_attack=seed)
                out[wc, M] = (res, len(calls))
        return out

    @pytest.mark.parametrize("wc,M", list(POINTS))
    def test_values(self, solved, wc, M):
        loss, attacked, phi_converged, lps, trace = self.POINTS[wc, M]
        res, calls = solved[wc, M]
        assert repr(res.loss.total) == loss
        assert tuple(np.flatnonzero(res.delta_star).tolist()) == attacked
        assert (res.iterations, res.converged, res.phi_star.converged) == (2, True, phi_converged)
        assert tuple((e.delta, repr(e.loss)) for e in res.trace) == trace
        assert calls == lps

    def test_seeded_trace_skips_the_empty_attack(self, solved, tree22):
        results = [res for res, _ in solved.values()]
        for M in (1, 2, 3):
            seed = zeros_u(tree22)
            seed[tree22.der_nodes[-M:]] = 1
            res = solve_ad_iterative(tree22, None, M, params_for(tree22), seed_attack=seed)
            assert res.trace[0].delta == tuple(np.flatnonzero(seed).tolist())
            results.append(res)
        for res in results:
            assert () not in [e.delta for e in res.trace]

    @pytest.mark.parametrize("cap,case,M,seeded,iterations,converged", [
        (0, "tree22", 1, True, 0, False),
        (0, "net3", 1, False, 0, False),
        (1, "tree22", 0, False, 1, True),
        (1, "tree22", 1, True, 1, False),
        (1, "net3", 1, False, 1, False),
        (1, "net3", 2, True, 1, True),
    ])
    def test_step_cap(self, monkeypatch, tree22, cap, case, M, seeded, iterations, converged):
        # the cap counts attack steps after the start attack, seeded or not
        net = tree22 if case == "tree22" else random_feasible_network(3)
        seed = None
        if seeded:
            seed = zeros_u(net)
            seed[net.der_nodes[-M:]] = 1
        monkeypatch.setattr(dersec.game, "_ITERATIVE_MAX_ITER", cap)
        res = solve_ad_iterative(net, None, M, params_for(net), seed_attack=seed)
        assert (res.iterations, res.converged) == (iterations, converged)
        assert len(res.trace) == cap + 1 - converged


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

    def test_heterogeneous_instances_hold(self):
        # every model goes through solve_ad, so heterogeneous r/x takes the
        # exhaustive engine instead of raising HeterogeneousRxRatio
        for seed in range(6):
            net = random_feasible_network(seed, identical_k=False)
            params = params_for(net, 10.0)
            rep = sandwich_bounds(net, None, 2, params)
            assert rep.holds, (seed, rep)
            assert rep.l_lpf == solve_ad_exhaustive(net, None, 2, params, LPF).loss.total


class TestRelabel:
    def test_lpf_loss_ignores_node_numbering(self):
        # renaming the nodes, their values and weights carried along, must not
        # move a linear loss. At W/C 10 the random trees mostly lose nothing at
        # these budgets, so the balanced trees, which lose, come too. Each case
        # carries the attack budgets of its solve_dad calls.
        cases = [(random_feasible_network(seed, identical_k=ik), (1,))
                 for ik in (True, False) for seed in range(30)]
        cases += [(balanced_tree(a, h), (1, 2, 3)) for a, h in ((2, 2), (3, 2), (2, 3))]
        rng = np.random.default_rng(0)
        for k, (net, dad_budgets) in enumerate(cases):
            moved = relabel(net, [0, *rng.permutation(np.arange(1, net.n + 1))])
            p, q = params_for(net, 10.0), params_for(moved, 10.0)
            answers = [(("solve_ad", M), solve_ad(net, None, M, p, LPF).loss.total,
                        solve_ad(moved, None, M, q, LPF).loss.total) for M in (1, 2, 3)]
            answers += [(("solve_dad", B, M), solve_dad(net, B, M, p, LPF).loss,
                         solve_dad(moved, B, M, q, LPF).loss) for B in (1, 2) for M in dad_budgets]
            for what, base, got in answers:
                assert abs(got - base) <= 1e-9 * abs(base), (k, what, base, got)


_JOINT_SCALE = 3.7


@pytest.fixture(scope="class")
def weighted_lpf_losses():
    """LPF losses at each attack budget of three inputs that lose something,
    each under three per-node weightings of x U(0.25, 4) around W/C 10, and
    under the same weights times ``_JOINT_SCALE``: (case, budgets, losses,
    scaled losses) per weighting."""
    rng = np.random.default_rng(0)
    inputs = [(with_gamma_lo(homogeneous37(), 0.5), range(1, 15)),
              (balanced_tree(2, 3), range(1, 6)), (balanced_tree(3, 2), range(1, 6))]
    out = []
    for k, (net, budgets) in enumerate(inputs):
        ratio = params_for(net, 10.0)
        for w in range(3):
            p = CostParams(W=ratio.W * rng.uniform(0.25, 4.0, net.n + 1),
                           C=ratio.C * rng.uniform(0.25, 4.0, net.n + 1))
            scaled = CostParams(W=_JOINT_SCALE * p.W, C=_JOINT_SCALE * p.C)
            out.append(((k, w), budgets, [solve_ad(net, None, M, p, LPF).loss.total for M in budgets],
                        [solve_ad(net, None, M, scaled, LPF).loss.total for M in budgets]))
    return out


class TestWeightedRelations:
    def test_joint_weight_scaling_scales_the_lpf_loss(self, weighted_lpf_losses):
        # the LPF loss is linear in (W, C) together: no line losses to price
        for case, budgets, losses, scaled in weighted_lpf_losses:
            for M, base, got in zip(budgets, losses, scaled):
                want = _JOINT_SCALE * base
                assert abs(got - want) <= 1e-9 * abs(want), (case, M, base, got)

    def test_lpf_loss_never_falls_as_the_budget_grows(self, weighted_lpf_losses):
        for case, budgets, losses, _ in weighted_lpf_losses:
            assert all(a <= b for a, b in zip(losses, losses[1:])), (case, list(budgets), losses)
