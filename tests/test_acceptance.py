"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS line with its
measured figures (run with ``pytest tests/test_acceptance.py -s``). Expected
values come from exhaustive oracles, closed-form arithmetic, or the case
generators' documented ratings; tolerances are pinned here and nowhere else.

 1. Sandwich bounds on 200 random feasible instances and the full 36-node
    sweep grid (1e-9 slack, < 5 min).
 2. Componentwise model ordering on 100 random feasible instances (1e-10).
 3. Linear-model scaling identities (1e-12).
 4. Greedy attack equals brute force on 500 random instances (< 2 min).
 5. One-shot engine equals brute-force sub-game on identical-ratio trees.
 6. Worst-case false set-point confirmed by a quarter-disk grid search.
 7. Defender angle confirmed by a half-degree sweep.
 8. Candidate-set equivalence across the two linear models.
 9. Bottom-up placement equals brute-force security; spread-out strategy
    dominates the clustered one on the 14-node tree.
10. Qualitative sweep behaviors on the 36-node feeder (< 10 min).
11. Power-flow residuals and relaxation exactness on every solve.
"""

import math
import time

import numpy as np
import pytest

from dersec import (
    CostParams,
    LPF,
    NPF,
    balanced_tree,
    bf_ad,
    bf_attack_fixed_response,
    bf_security,
    calibrate_epsilon,
    eps_lpf,
    evaluate_loss,
    fig4_strategies,
    fixed_angle_setpoints,
    homogeneous37,
    injection,
    line_loss_cap,
    nominal_injection,
    optimal_attack_fixed_response,
    response_state,
    sandwich_bounds,
    solve_ad_iterative,
    solve_ad_oneshot,
    solve_dad,
    solve_eps_lpf,
    solve_lpf,
    solve_npf,
    validate_assumptions,
)
from dersec.attack import attack_strategy, candidate_attack_set, impact_matrix
from dersec.cases import random_feasible_network
from dersec.response import DefenderResponse, GammaControlLP
from dersec.sweep import with_gamma_lo

from conftest import chain_network, zeros_u

WC_RATIOS = (2.0, 10.0, 18.0)
GAMMA_LOS = (0.5, 0.7)
M_VALUES = tuple(range(15))


def _random_action_profile(net, rng):
    """A feasible (psi, phi) pair with worst-case false set-points."""
    gamma = rng.uniform(net.gamma_lo, 1.0)
    gamma[0] = 1.0
    theta = rng.uniform(0.0, math.pi / 2.0, net.n + 1)
    mag = rng.uniform(0.0, 1.0, net.n + 1) * net.der_cap
    sp_d = mag * np.exp(1j * theta)
    delta = np.zeros(net.n + 1, dtype=int)
    pool = list(net.der_nodes)
    if pool:
        take = rng.choice(pool, size=rng.integers(0, len(pool) + 1), replace=False)
        delta[take] = 1
    psi = attack_strategy(net, delta)
    return psi, DefenderResponse(sp_d=sp_d, gamma=gamma)


@pytest.fixture(scope="module")
def feeder():
    return homogeneous37()


@pytest.fixture(scope="module")
def sweep_results(feeder):
    """One-shot results for both linear models plus iterative results over
    the full (M, W/C, gamma_lo) grid; shared by criteria 1, 10, and 11.
    Returns (results, elapsed seconds) so the runtime budgets can count the
    solve time itself."""
    start = time.perf_counter()
    eps = calibrate_epsilon(feeder).eps
    out = {}
    for gl in GAMMA_LOS:
        net = with_gamma_lo(feeder, gl)
        for wc in WC_RATIOS:
            params = CostParams.from_ratio(net, wc)
            for M in M_VALUES:
                lo = solve_ad_oneshot(net, None, M, params, LPF)
                hi = solve_ad_oneshot(net, None, M, params, eps_lpf(eps))
                mid = solve_ad_iterative(
                    net, None, M, params, seed_attack=lo.delta_star
                )
                out[(gl, wc, M)] = (lo, mid, hi)
    return out, time.perf_counter() - start


class TestCriterion1Sandwich:
    def test_sandwich(self, feeder, sweep_results):
        results, solve_time = sweep_results
        start = time.perf_counter()
        slack_feeder = line_loss_cap(feeder)
        for (gl, wc, M), (lo, mid, hi) in results.items():
            assert lo.loss.total <= mid.loss.total + 1e-9, (gl, wc, M)
            assert mid.loss.total <= hi.loss.total + slack_feeder + 1e-9, (gl, wc, M)

        checked = 0
        for seed in range(200):
            net = random_feasible_network(seed, n_max=12)
            state = solve_npf(net, nominal_injection(net))
            assert validate_assumptions(net, state).all_pass
            params = CostParams.from_ratio(net, 10.0)
            rep = sandwich_bounds(net, None, 2, params)
            assert rep.holds, seed
            checked += 1
        elapsed = time.perf_counter() - start + solve_time
        assert elapsed < 300.0
        print(
            f"\n[PASS] criterion 1: sandwich bounds hold on {checked} random "
            f"instances and 90 feeder points ({elapsed:.0f}s)"
        )


class TestCriterion2ModelOrdering:
    def test_componentwise_ordering(self):
        tol = 1e-10
        for seed in range(100):
            net = random_feasible_network(seed)
            rng = np.random.default_rng(seed + 5_000)
            psi, phi = _random_action_profile(net, rng)
            sg = np.where((psi.delta == 1), psi.sp_a, phi.sp_d)
            sg = np.where(net.der_cap > 0, sg, 0)
            inj = injection(net, phi.gamma, sg)
            eps = calibrate_epsilon(net).eps
            lo = solve_lpf(net, inj)
            mid = solve_npf(net, inj)
            hi = solve_eps_lpf(net, inj, eps)
            assert np.all(np.real(lo.S[1:]) <= np.real(mid.S[1:]) + tol)
            assert np.all(np.real(mid.S[1:]) <= np.real(hi.S[1:]) + tol)
            assert np.all(np.imag(lo.S[1:]) <= np.imag(mid.S[1:]) + tol)
            assert np.all(np.imag(mid.S[1:]) <= np.imag(hi.S[1:]) + tol)
            assert np.all(lo.nu[1:] + tol >= mid.nu[1:])
            assert np.all(mid.nu[1:] + tol >= hi.nu[1:])
            assert np.all(lo.ell[1:] <= mid.ell[1:] + tol)
            assert np.all(mid.ell[1:] <= hi.ell[1:] + tol)
        print("\n[PASS] criterion 2: model ordering componentwise on 100 instances")


class TestCriterion3ScalingIdentities:
    def test_identities(self):
        for seed in range(100):
            net = random_feasible_network(seed)
            rng = np.random.default_rng(seed + 9_000)
            psi, phi = _random_action_profile(net, rng)
            sg = np.where((psi.delta == 1), psi.sp_a, phi.sp_d)
            sg = np.where(net.der_cap > 0, sg, 0)
            inj = injection(net, phi.gamma, sg)
            eps = 0.21
            lo = solve_lpf(net, inj)
            hi = solve_eps_lpf(net, inj, eps)
            assert np.allclose(hi.S[1:], (1 + eps) * lo.S[1:], rtol=0, atol=1e-12)
            assert np.allclose(
                hi.nu - net.nu0, (1 + eps) * (lo.nu - net.nu0), rtol=0, atol=1e-12
            )
        print("\n[PASS] criterion 3: scaling identities to 1e-12 on 100 instances")


class TestCriterion4GreedyExactness:
    def test_greedy_equals_bruteforce(self):
        start = time.perf_counter()
        runs = 0
        for seed in range(500):
            net = random_feasible_network(seed, n_max=10)
            if len(net.der_nodes) == 0:
                continue
            u = zeros_u(net)
            sp = fixed_angle_setpoints(net, u, np.zeros(net.n + 1, dtype=int))
            phi = DefenderResponse(sp_d=sp, gamma=np.ones(net.n + 1))
            params = CostParams.from_network(net)
            M = int(np.random.default_rng(seed).integers(1, 4))
            greedy = optimal_attack_fixed_response(net, phi, M, u)
            psi = attack_strategy(net, greedy)
            st = response_state(net, psi, phi, LPF)
            mine = evaluate_loss(st, phi.gamma, params).total
            _, bf_loss = bf_attack_fixed_response(net, phi, M, u, params=params)
            assert mine == pytest.approx(bf_loss, abs=1e-9), (seed, M)
            runs += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        print(
            f"\n[PASS] criterion 4: greedy = brute force on {runs} instances "
            f"({elapsed:.0f}s)"
        )


class TestCriterion5OneShotExactness:
    def test_oneshot_equals_bruteforce(self):
        trees = [balanced_tree(2, 2), balanced_tree(3, 2), balanced_tree(2, 3)]
        eps_cache = {id(t): calibrate_epsilon(t).eps for t in trees}
        count = 0
        for tree in trees:
            params = CostParams.from_ratio(tree, 10.0)
            for M in range(4):
                for model in (LPF, eps_lpf(eps_cache[id(tree)])):
                    mine = solve_ad_oneshot(tree, None, M, params, model)
                    _, _, bf_loss = bf_ad(tree, zeros_u(tree), M, params, model)
                    assert mine.loss.total == pytest.approx(bf_loss, abs=1e-9)
                    count += 1
        print(f"\n[PASS] criterion 5: one-shot = brute force on {count} tree solves")


class TestCriterion6AttackerSetpoint:
    def test_grid_confirms_corner(self):
        net = chain_network(3, z=0.02 + 0.024j, load=0.02 + 0.012j,
                            caps={2: 0.01, 3: 0.015}, nu_lo=0.9975, qc_ratio=0.6)
        params = CostParams.from_ratio(net, 18.0)
        u = zeros_u(net)
        delta = np.zeros(4, dtype=int)
        delta[3] = 1
        sp_d = fixed_angle_setpoints(net, u, delta)
        lp = GammaControlLP(net, params, LPF, sp_d, u=u)
        cap = float(net.der_cap[3])
        step = 0.01 * cap

        best = (-np.inf, None)
        pc = np.real(net.sc_nom)[1:]
        for i in range(101):
            for j in range(101):
                if i * i + j * j > 100 * 100 + 1e-9:
                    continue
                sp_a = np.zeros(4, dtype=complex)
                sp_a[3] = complex(i * step, -j * step)
                gamma = lp.solve(delta, sp_a=sp_a)
                nu = lp.nu_intercept(delta, sp_a) - lp.G @ gamma[1 + lp.loaded]
                lovr = float(np.max(params.W[1:] * np.maximum(net.nu_lo[1:] - nu, 0)))
                voll = float(np.sum(params.C[1:] * (1 - gamma[1:]) * pc))
                total = lovr + voll
                if total > best[0]:
                    best = (total, (i, j))
        i, j = best[1]
        analytic = (0, 100)  # 0 - j*cap
        assert abs(i - analytic[0]) <= 1 and abs(j - analytic[1]) <= 1
        print(
            f"\n[PASS] criterion 6: grid argmax at ({i*step:.5f}, {-j*step:.5f}) "
            f"matches 0 - j*cap within one cell"
        )


class TestCriterion7DefenderAngle:
    def test_halfdegree_sweep(self):
        net = chain_network(4, z=0.015 + 0.018j, load=0.02 + 0.006j,
                            caps={2: 0.01, 3: 0.01, 4: 0.01}, nu_lo=0.996)
        params = CostParams.from_ratio(net, 2.0)
        delta = np.zeros(5, dtype=int)
        delta[4] = 1
        psi = attack_strategy(net, delta)
        gamma = np.ones(5)
        thetas = np.radians(np.arange(0.0, 90.0 + 0.25, 0.5))
        lovr = []
        for t in thetas:
            sp = np.where(net.der_cap > 0, net.der_cap * np.exp(1j * t), 0)
            sp[4] = 0.0
            st = response_state(net, psi, DefenderResponse(sp, gamma), LPF)
            lovr.append(evaluate_loss(st, gamma, params).lovr)
        best = thetas[int(np.argmin(lovr))]
        target = math.atan2(1.0, float(net.uniform_rx_ratio()))
        assert abs(best - target) <= math.radians(0.5) + 1e-12
        print(
            f"\n[PASS] criterion 7: sweep minimum {math.degrees(best):.2f} deg vs "
            f"arccot K = {math.degrees(target):.2f} deg"
        )


class TestCriterion8AttackSetEquivalence:
    def test_sets_and_optima_coincide(self):
        sets_checked = 0
        optima_checked = 0
        for seed in range(100):
            net = random_feasible_network(seed)
            if len(net.der_nodes) == 0:
                continue
            u = zeros_u(net)
            sp = fixed_angle_setpoints(net, u, np.zeros(net.n + 1, dtype=int))
            eps = calibrate_epsilon(net).eps
            # eps-LPF scales every impact by 1 + eps, so the LPF candidate
            # set serves both models
            lpf = impact_matrix(net, sp, LPF)
            assert np.allclose(impact_matrix(net, sp, eps_lpf(eps)), (1.0 + eps) * lpf,
                               rtol=1e-15, atol=0.0), seed

            # a full-budget attack binds the soft bound on many instances
            M = max(1, len(net.der_nodes) - 1)
            params = CostParams.from_ratio(net, 2.0)
            lo = solve_ad_oneshot(net, u, M, params, LPF)
            hi = solve_ad_oneshot(net, u, M, params, eps_lpf(eps))
            cands = set(candidate_attack_set(net, sp, M, u))
            assert {e.delta for e in lo.trace + hi.trace} <= cands, seed
            sets_checked += 1
            if lo.loss.lovr > 0 and hi.loss.lovr > 0:
                # the eps-model winner must be an LPF winner too (value test
                # is robust to ties inside the optimal set)
                lp = GammaControlLP(net, params, LPF, sp, u=u)
                gamma = lp.solve(hi.delta_star)
                st = response_state(
                    net, attack_strategy(net, hi.delta_star),
                    DefenderResponse(sp, gamma), LPF, u=u,
                )
                crossed = evaluate_loss(st, gamma, params).total
                assert crossed == pytest.approx(lo.loss.total, abs=1e-9), seed
                optima_checked += 1
        assert optima_checked > 10
        print(
            f"\n[PASS] criterion 8: both models stay in the LPF candidate set on "
            f"{sets_checked} instances; optima coincide on {optima_checked} binding instances"
        )


class TestCriterion9SecurityOptimality:
    def test_placement_matches_bruteforce(self):
        count = 0
        for tree in (balanced_tree(2, 2), balanced_tree(3, 2), balanced_tree(2, 3)):
            params = CostParams.from_ratio(tree, 10.0)
            budgets = range(0, 5)
            for B in budgets:
                for M in (1, 2):
                    dad = solve_dad(tree, B, M, params, LPF)
                    _, bf_loss = bf_security(tree, B, M, params, LPF)
                    assert dad.loss == pytest.approx(bf_loss, abs=1e-9), (tree.n, B, M)
                    count += 1
        print(f"\n[PASS] criterion 9a: placement = brute force on {count} cases")

    def test_spread_strategy_dominates(self, tree23=None):
        tree = balanced_tree(2, 3)
        u1, u2 = fig4_strategies(tree)
        params = CostParams.from_ratio(tree, 10.0)
        for M in (3, 4):
            l1 = solve_ad_oneshot(tree, u1, M, params, LPF).loss.total
            l2 = solve_ad_oneshot(tree, u2, M, params, LPF).loss.total
            assert l2 <= l1 + 1e-9
        print("\n[PASS] criterion 9b: spread-out securing dominates clustered")


class TestCriterion10QualitativeSweep:
    def test_sweep_behaviors(self, feeder, sweep_results):
        results, solve_time = sweep_results
        start = time.perf_counter()
        floor_tol = 1e-9

        for gl in GAMMA_LOS:
            m_stars = []
            for wc in WC_RATIOS:
                voll = [results[(gl, wc, M)][0].loss.voll for M in M_VALUES]
                lovr = [results[(gl, wc, M)][0].loss.lovr for M in M_VALUES]

                # (a) value of lost load never decreases and is flat past M*
                assert all(b >= a - floor_tol for a, b in zip(voll, voll[1:]))
                m_star = 0
                for M in range(len(voll) - 1, 0, -1):
                    if voll[M] > voll[M - 1] + floor_tol:
                        m_star = M
                        break
                m_stars.append(m_star)

                # (b) post-onset marginal growth of the regulation loss only
                # shrinks: increments after the first positive value
                increments = [b - a for a, b in zip(lovr, lovr[1:])]
                onset = next((k for k, v in enumerate(lovr) if v > floor_tol), None)
                if onset is not None:
                    tail = increments[onset:]
                    assert all(
                        b <= a + 1e-9 for a, b in zip(tail, tail[1:])
                    ), (gl, wc, lovr)

            # (a) the flattening point grows with the weight ratio
            assert all(b >= a for a, b in zip(m_stars, m_stars[1:])), (gl, m_stars)

        # (c) no load control at ratio 2; saturated control at ratio 18
        for gl in GAMMA_LOS:
            for M in M_VALUES:
                res = results[(gl, 2.0, M)][0]
                assert np.all(res.phi_star.gamma[1:] >= 1.0 - 1e-9), (gl, M)
            g = results[(gl, 18.0, 14)][0].phi_star.gamma
            loaded = np.abs(feeder.sc_nom[1:]) > 0
            assert g[1:][loaded].min() == pytest.approx(gl, abs=1e-9)

        # (d) the alternation always certifies within three steps
        for key, (_, mid, _) in results.items():
            assert mid.converged, key
            assert mid.iterations <= 3, key

        elapsed = time.perf_counter() - start + solve_time
        assert elapsed < 600.0
        print(
            f"\n[PASS] criterion 10: qualitative sweep behaviors reproduced "
            f"({len(results)} points, {elapsed:.0f}s)"
        )


class TestCriterion11SolverHealth:
    def test_residuals_and_exactness(self, feeder, sweep_results):
        worst_pf = 0.0
        worst_cone = 0.0
        for seed in range(20):
            net = random_feasible_network(seed)
            st = solve_npf(net, nominal_injection(net))
            worst_pf = max(worst_pf, max(st.residuals()))

        par = feeder.tree.parent
        results, _ = sweep_results
        for gl in GAMMA_LOS:
            net = with_gamma_lo(feeder, gl)
            for wc in WC_RATIOS:
                for M in (3, 9, 14):
                    _, mid, _ = results[(gl, wc, M)]
                    st = response_state(net, mid.psi_star, mid.phi_star, NPF)
                    worst_pf = max(worst_pf, max(st.residuals()))
                    cone = np.max(
                        np.abs(st.ell[1:] * st.nu[par[1:]] - np.abs(st.S[1:]) ** 2)
                    )
                    worst_cone = max(worst_cone, float(cone))
        assert worst_pf < 1e-10
        assert worst_cone < 1e-6
        print(
            f"\n[PASS] criterion 11: residuals {worst_pf:.2e} < 1e-10, "
            f"relaxation gap {worst_cone:.2e} < 1e-6"
        )
