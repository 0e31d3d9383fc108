import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from scipy.sparse import csc_array

import dersec.response
from dersec import (
    CostParams,
    LPF,
    NPF,
    calibrate_epsilon,
    eps_lpf,
    evaluate_loss,
    heterogeneous37,
    fixed_angle_setpoints,
    optimal_response,
    response_state,
)
from dersec.attack import effective_setpoints
from dersec.cases import random_feasible_network
from dersec.errors import HeterogeneousRxRatio, InfeasibleLP, NonConvergent
from dersec.game import solve_ad_oneshot
from dersec.network import NodeSpec, build_network
from dersec.oracle import GridSpec, _grid_min_response
from dersec.response import DefenderResponse, GammaControlLP, _columnwise, linprog
from dersec.sweep import with_gamma_lo

from conftest import chain_network, params_for, zeros_u


class TestFixedAngleSetpoints:
    def test_table_impedance_angle(self, homog37):
        sp = fixed_angle_setpoints(homog37)
        d = homog37.der_nodes[0]
        K = 0.33 / 0.38
        theta = math.atan2(1.0, K)
        assert theta == pytest.approx(0.8557046, abs=1e-6)
        assert sp[d] == pytest.approx(
            0.01155 * complex(math.cos(theta), math.sin(theta)), abs=1e-9
        )
        assert sp[d].real == pytest.approx(0.00757, abs=2e-5)
        assert sp[d].imag == pytest.approx(0.00872, abs=2e-5)

    def test_resistive_limit(self):
        net = chain_network(2, z=0.02 + 0.02e-6j, caps={2: 0.01})
        sp = fixed_angle_setpoints(net)
        assert sp[2].real == pytest.approx(0.01, rel=1e-9)
        assert sp[2].imag == pytest.approx(0.0, abs=1e-8)

    def test_compromised_nodes_omitted(self, homog37):
        delta = np.zeros(37, dtype=int)
        attacked, rest = homog37.der_nodes[:3], homog37.der_nodes[3:]
        delta[list(attacked)] = 1
        closed = fixed_angle_setpoints(homog37)
        sg = effective_setpoints(homog37, delta, closed)
        assert np.array_equal(sg[attacked], -1j * homog37.der_cap[attacked])
        assert np.array_equal(sg[rest], closed[rest])
        assert np.all(np.abs(closed[rest]) > 0)
        assert np.all(sg[np.flatnonzero(homog37.der_cap == 0.0)] == 0)

    def test_heterogeneous_ratio_raises(self):
        specs = [
            NodeSpec(id=0, parent=None),
            NodeSpec(id=1, parent=0, r_pu=0.01, x_pu=0.01, der_cap=0.01),
            NodeSpec(id=2, parent=1, r_pu=0.01, x_pu=0.02, der_cap=0.01),
        ]
        net = build_network(specs)
        with pytest.raises(HeterogeneousRxRatio):
            fixed_angle_setpoints(net)

    def test_angle_sweep_confirms_minimum(self):
        # identical-K 4-node chain, fixed gamma, one attacked DER; sweep the
        # common uncompromised angle at half-degree steps
        net = chain_network(4, z=0.015 + 0.018j, load=0.02 + 0.006j,
                            caps={2: 0.01, 3: 0.01, 4: 0.01}, nu_lo=0.996)
        params = params_for(net, 2.0)
        delta = np.zeros(5, dtype=int)
        delta[4] = 1
        gamma = np.ones(5)

        def lovr_at(theta):
            sp = np.where(net.der_cap > 0, net.der_cap * np.exp(1j * theta), 0)
            sp[4] = 0.0
            from dersec.response import DefenderResponse

            state = response_state(net, delta, DefenderResponse(sp, gamma), LPF)
            return evaluate_loss(state, gamma, params).lovr

        thetas = np.radians(np.arange(0.0, 90.0 + 0.25, 0.5))
        values = [lovr_at(t) for t in thetas]
        best = thetas[int(np.argmin(values))]
        target = math.atan2(1.0, 0.015 / 0.018)
        assert abs(best - target) <= math.radians(0.5) + 1e-12


class TestOptimalLoadControl:
    def test_no_attack_no_shedding(self, homog37):
        params = params_for(homog37, 10.0)
        sp = fixed_angle_setpoints(homog37)
        gamma = GammaControlLP(homog37, params, LPF, sp).solve(np.zeros(37, dtype=int))
        assert np.all(gamma == 1.0)

    def test_no_violation_returns_ones_without_an_lp(self, homog37, monkeypatch):
        # gamma = 1 is returned without an LP when it produces no violation;
        # a violating attack costs exactly one LP
        net = with_gamma_lo(homog37, 0.5)
        lp = GammaControlLP(net, params_for(net, 10.0), LPF, fixed_angle_setpoints(net))
        calm, violating = zeros_u(net), zeros_u(net)
        violating[list(net.der_nodes[:12])] = 1

        def solved(delta):
            out = []
            lps = _captured_lps(monkeypatch, lambda: out.append(lp.solve(delta)))
            return out[0], len(lps)

        gamma, lps = solved(calm)
        assert gamma.tolist() == [1.0] * (net.n + 1) and lps == 0
        gamma, lps = solved(violating)
        assert lps == 1 and gamma.min() < 1.0

    def test_high_ratio_reaches_floor(self):
        # every loaded node shares >= 2 path edges with the violated area and
        # the violation outlasts the full control capability
        net = chain_network(3, z=0.02 + 0.024j, load=0.02 + 0.012j,
                            caps={3: 0.03}, nu_lo=0.9995, qc_ratio=0.6)
        params = params_for(net, 18.0)
        delta = np.zeros(4, dtype=int)
        delta[3] = 1
        sp = fixed_angle_setpoints(net)
        gamma = GammaControlLP(net, params, LPF, sp).solve(delta)
        assert np.all(gamma[1:] == pytest.approx(net.gamma_lo[1:], abs=1e-9))

    def test_low_ratio_no_control(self, homog37):
        params = params_for(homog37, 2.0)
        delta = np.zeros(37, dtype=int)
        delta[list(homog37.der_nodes)] = 1
        sp = fixed_angle_setpoints(homog37)
        gamma = GammaControlLP(homog37, params, LPF, sp).solve(delta)
        assert np.all(gamma == 1.0)

    def test_matches_scan_on_single_knob(self):
        # one load, one attacked DER: the LP must match a dense scan over gamma
        net = chain_network(2, z=0.02 + 0.024j, load=0.03 + 0.02j,
                            caps={2: 0.025}, nu_lo=0.998)
        params = params_for(net, 12.0)
        delta = np.zeros(3, dtype=int)
        delta[2] = 1
        sp = fixed_angle_setpoints(net)
        gamma = GammaControlLP(net, params, LPF, sp).solve(delta)

        def total(g1, g2):
            g = np.array([1.0, g1, g2])
            st = response_state(net, delta, DefenderResponse(sp, g), LPF)
            return evaluate_loss(st, g, params).total

        lp_val = total(gamma[1], gamma[2])
        grid = np.linspace(0.5, 1.0, 251)
        # the whole grid at once: LPF flows sum each subtree's net loads, and
        # squared voltages drop by 2 Re(conj(z) S) along each root path
        g = np.stack([np.ones(grid.size**2), *(a.ravel() for a in np.meshgrid(grid, grid, indexing="ij"))])
        sg = effective_setpoints(net, delta, sp)
        S = net.tree.subtree_mask @ (g * net.sc_nom[:, None] - sg[:, None])
        S[0] = 0.0
        nu = net.nu0 - net.tree.subtree_mask.T @ (2.0 * np.real(np.conj(net.z)[:, None] * S))
        lovr = np.max(params.W[1:, None] * np.maximum(net.nu_lo[1:, None] - nu[1:], 0.0), axis=0)
        voll = np.sum(params.C[1:, None] * (1.0 - g[1:]) * np.real(net.sc_nom[1:, None]), axis=0)
        scan = (lovr + voll).reshape(grid.size, grid.size)
        # the batched grid is the per-point loss at the corners and inside
        corners = [(0, 0), (0, 250), (250, 0), (250, 250)]
        for i, j in corners + [(125, 125), (1, 249), (37, 180), (200, 63), (249, 2)]:
            assert scan[i, j] == pytest.approx(total(grid[i], grid[j]), rel=0.0, abs=1e-12)
        assert lp_val <= scan.min() + 1e-9


class TestOptimalResponse:
    def test_linear_matches_gamma_lp_at_fixed_angle(self, tree22):
        # identical-K symmetric tree: joint optimization cannot beat the
        # closed-form set-points, so values agree
        params = params_for(tree22, 10.0)
        delta = np.zeros(tree22.n + 1, dtype=int)
        delta[[3, 4]] = 1
        phi = optimal_response(tree22, delta, params, LPF)
        st = response_state(tree22, delta, phi, LPF)
        joint = evaluate_loss(st, phi.gamma, params).total

        sp = fixed_angle_setpoints(tree22)
        gamma = GammaControlLP(tree22, params, LPF, sp).solve(delta)
        from dersec.response import DefenderResponse

        st2 = response_state(tree22, delta, DefenderResponse(sp, gamma), LPF)
        fixed = evaluate_loss(st2, gamma, params).total
        # the closed form is exactly optimal; the joint LP works on an inner
        # polygon of the disk, so it can only lose the facet granularity
        assert fixed <= joint + 1e-9
        assert joint - fixed < 1e-3

    def test_npf_failed_candidate_halves_the_radius(self, homog37, monkeypatch):
        # a candidate whose power flow fails is rejected and the next round
        # searches half as far; the best state found so far is kept
        params = params_for(homog37, 10.0)
        delta = np.zeros(37, dtype=int)
        delta[homog37.der_nodes[-4:]] = 1
        real = dersec.response.response_state
        start = DefenderResponse(sp_d=dersec.response._warm_setpoints(homog37), gamma=np.ones(37))
        start_loss = evaluate_loss(real(homog37, delta, start, NPF), start.gamma, params).total
        calls, radii = [], []

        def flaky(*args):
            calls.append(args)
            if len(calls) == 2:     # the first candidate; the first call is the start
                raise NonConvergent(1e-3, 200)
            return real(*args)

        trust_box = dersec.response._ResponseModel.trust_box
        monkeypatch.setattr(dersec.response, "response_state", flaky)
        monkeypatch.setattr(dersec.response._ResponseModel, "trust_box",
                            lambda lp, x, radius: radii.append(radius) or trust_box(lp, x, radius))
        phi = optimal_response(homog37, delta, params, NPF)
        assert radii[:2] == [1.0, 0.5]
        assert evaluate_loss(real(homog37, delta, phi, NPF), phi.gamma, params).total <= start_loss

    def test_npf_no_attack_prefers_active_power(self, homog37):
        params = params_for(homog37, 10.0)
        delta = np.zeros(37, dtype=int)
        phi = optimal_response(homog37, delta, params, NPF)
        sp = phi.sp_d[homog37.der_nodes]
        assert np.all(sp.real >= sp.imag - 1e-12)
        st = response_state(homog37, delta, phi, NPF)
        base = evaluate_loss(st, phi.gamma, params).total
        # beats the naive fixed-angle dispatch on line losses
        sp_fixed = fixed_angle_setpoints(homog37)
        from dersec.response import DefenderResponse

        st_fixed = response_state(
            homog37, delta, DefenderResponse(sp_fixed, np.ones(37)), NPF
        )
        assert base <= evaluate_loss(st_fixed, np.ones(37), params).total + 1e-12

    def test_npf_attacked_angles_near_arccot_k(self, homog37):
        params = params_for(homog37, 2.0)  # no shedding: violation stays active
        delta = np.zeros(37, dtype=int)
        delta[list(homog37.der_nodes[:10])] = 1
        phi = optimal_response(homog37, delta, params, NPF)
        free = [d for d in homog37.der_nodes if delta[d] == 0]
        angles = np.degrees(np.angle(phi.sp_d[free]))
        target = math.degrees(math.atan2(1.0, 0.33 / 0.38))
        assert np.all(np.abs(angles - target) < 10.0)

    def test_npf_matches_grid_oracle_small(self):
        net = chain_network(3, z=0.02 + 0.024j, load=0.025 + 0.008j,
                            caps={2: 0.012, 3: 0.012}, nu_lo=0.9965)
        # unit-scale costs so the 1e-3 agreement tolerance is meaningful
        params = CostParams(W=net.W * (10.0 / 7000.0 / 10.0), C=net.C / 7000.0)
        delta = np.zeros(4, dtype=int)
        delta[3] = 1
        phi = optimal_response(net, delta, params, NPF)
        st = response_state(net, delta, phi, NPF)
        mine = evaluate_loss(st, phi.gamma, params).total
        grid_loss, _ = _grid_min_response(
            net, delta, np.zeros(4, dtype=int), params,
            GridSpec(gamma_step=0.05, setpoint_angle_step=math.radians(2.0),
                     setpoint_mag_step=0.1),
        )
        assert mine <= grid_loss + 1e-3

    def test_npf_relaxation_exactness(self, homog37):
        params = params_for(homog37, 10.0)
        delta = np.zeros(37, dtype=int)
        delta[list(homog37.der_nodes[:6])] = 1
        phi = optimal_response(homog37, delta, params, NPF)
        st = response_state(homog37, delta, phi, NPF)
        par = homog37.tree.parent
        resid = np.abs(st.ell[1:] * st.nu[par[1:]] - np.abs(st.S[1:]) ** 2)
        assert resid.max() < 1e-6

    def test_feasibility_is_exact(self, homog37):
        params = params_for(homog37, 18.0)
        delta = np.zeros(37, dtype=int)
        delta[list(homog37.der_nodes[:8])] = 1
        for model in (LPF, NPF):
            phi = optimal_response(homog37, delta, params, model)
            assert np.all(phi.gamma[1:] >= homog37.gamma_lo[1:] - 1e-12)
            assert np.all(phi.gamma[1:] <= 1.0 + 1e-12)
            assert np.all(np.abs(phi.sp_d) <= homog37.der_cap + 1e-12)
            assert np.all(np.real(phi.sp_d) >= -1e-12)

    def test_heterogeneous_angles_in_interval(self):
        # heterogeneous r/x: optimal angles must fall in [arccot Kmax, arccot Kmin]
        rng = np.random.default_rng(2)
        specs = [NodeSpec(id=0, parent=None)]
        for i in range(1, 7):
            K = float(rng.uniform(0.6, 1.4))
            r = 0.015
            specs.append(
                NodeSpec(id=i, parent=i - 1, r_pu=r, x_pu=r / K,
                         pc_nom=0.02, qc_nom=0.006, der_cap=0.01 if i >= 4 else 0.0,
                         nu_lo=0.99, W=2.0 * 7000.0, C=7000.0, gamma_lo=0.5)
            )
        net = build_network(specs)
        params = CostParams.from_network(net)
        delta = np.zeros(7, dtype=int)
        delta[6] = 1
        phi = optimal_response(net, delta, params, LPF)
        K = net.r[1:] / net.x[1:]
        lo_ang = math.atan2(1.0, K.max())
        hi_ang = math.atan2(1.0, K.min())
        pad = math.radians(3.0)  # facet granularity
        for d in (4, 5):
            ang = math.atan2(phi.sp_d[d].imag, phi.sp_d[d].real)
            assert lo_ang - pad <= ang <= hi_ang + pad
            assert abs(phi.sp_d[d]) == pytest.approx(net.der_cap[d], rel=2e-3)


class TestOneModel:
    """The load-control LP and the joint linear response are two
    configurations of one response model."""

    @pytest.mark.parametrize("seed,identical_k", [
        (0, True), (4, True), (4, False), (7, False), (9, False), (13, True), (13, False),
    ])
    def test_no_free_setpoint_configurations_agree(self, seed, identical_k):
        # every vulnerable DER compromised: the joint LP has no free set-point
        net = random_feasible_network(seed, identical_k=identical_k)
        params = params_for(net, 10.0)
        delta = (net.der_cap > 0.0).astype(int)
        no_sp = np.zeros(net.n + 1, dtype=complex)
        losses = []
        for model in (LPF, eps_lpf(calibrate_epsilon(net).eps)):
            phi = optimal_response(net, delta, params, model)
            joint = evaluate_loss(response_state(net, delta, phi, model), phi.gamma, params).total
            gamma = GammaControlLP(net, params, model, no_sp).solve(delta)
            st = response_state(net, delta, DefenderResponse(no_sp, gamma), model)
            assert evaluate_loss(st, gamma, params).total == pytest.approx(joint, abs=1e-9)
            losses.append(joint)
        assert max(losses) > 0.0

    @pytest.mark.parametrize("case", ["heterogeneous37-0", "heterogeneous37-2", "homogeneous37",
                                      "random-3", "random-8"])
    def test_rows_match_a_dense_build(self, case, homog37):
        # the LP rows, emitted column by column, equal the CSC form of the
        # dense matrix of epigraph rows over 96 facet rows per free DER
        kind, _, seed = case.partition("-")
        net = {"heterogeneous37": heterogeneous37, "random": random_feasible_network}.get(
            kind, lambda _: homog37)(int(seed or 0))
        params = params_for(net, 10.0)
        rng = np.random.default_rng(len(case))
        for kappa in (1.0, 1.0123):
            for size in (0, 1, net.der_nodes.size // 2, net.der_nodes.size):
                free = np.sort(rng.choice(net.der_nodes, size=size, replace=False))
                model = dersec.response._ResponseModel(net, params, kappa, free)
                epigraph = -(params.W[1:, None] * model.nu_mat)
                epigraph[:, -1] = -1.0
                facets = np.zeros((96 * size, epigraph.shape[1]))
                b_facet = np.zeros(96 * size)
                angles = (np.arange(96) + 0.5) * ((math.pi / 2.0) / 96)
                for d, node in enumerate(free.tolist()):
                    rows = slice(96 * d, 96 * (d + 1))
                    facets[rows, model.loaded.size + 2 * d] = np.cos(angles)
                    facets[rows, model.loaded.size + 2 * d + 1] = np.sin(angles)
                    b_facet[rows] = net.der_cap[node] * math.cos((math.pi / 2.0) / 96 / 2.0)
                csc = csc_array(np.concatenate([epigraph, facets]))
                start, index, value = model._A
                assert list(start) == csc.indptr.tolist()
                assert list(index) == csc.indices.tolist()
                assert list(value) == csc.data.tolist()
                assert model._b_facet.tolist() == b_facet.tolist()

    @pytest.mark.parametrize("case", ["homogeneous37", "heterogeneous37"])
    def test_gamma_block_is_common_path_form(self, case, homog37):
        net = homog37 if case == "homogeneous37" else heterogeneous37(0)
        pc = np.real(net.sc_nom)[1:]
        qc = np.imag(net.sc_nom)[1:]
        sp = np.zeros(net.n + 1, dtype=complex)
        for model in (LPF, eps_lpf(calibrate_epsilon(net).eps)):
            lp = GammaControlLP(net, params_for(net, 10.0), model, sp)
            cols = 1 + lp.loaded
            expected = 2.0 * model.load_scale * (
                np.real(net.Z)[1:, cols] * pc[lp.loaded] + np.imag(net.Z)[1:, cols] * qc[lp.loaded]
            )
            assert np.max(np.abs(lp.G - expected)) <= 1e-15


def _captured_lps(monkeypatch, run) -> list[tuple]:
    """The arguments of every LP the response module solves inside ``run()``."""
    lps = []

    def capture(c, A_ub, b_ub, lb, ub, *, presolve=False):
        lps.append((c.copy(), A_ub, b_ub.copy(), lb.copy(), ub.copy(), presolve))
        return linprog(c, A_ub, b_ub, lb, ub, presolve=presolve)

    with monkeypatch.context() as mp:
        mp.setattr(dersec.response, "linprog", capture)
        run()
    return lps


def _scipy_x(c, A_ub, b_ub, lb, ub, presolve) -> np.ndarray:
    start, index, value = A_ub
    A = csc_array((value, index, start), shape=(b_ub.size, c.size)).toarray()
    res = scipy.optimize.linprog(c, A_ub=A, b_ub=b_ub, bounds=np.column_stack([lb, ub]),
                                 method="highs", options={"presolve": presolve})
    assert res.success, res.message
    return res.x


def _own_x(c, A_ub, b_ub, lb, ub, presolve) -> np.ndarray:
    return linprog(c, A_ub, b_ub, lb, ub, presolve=presolve)


class TestLinprog:
    """The direct HiGHS call returns scipy's ``linprog`` solution bit for bit,
    under the presolve setting of each model class: off for the linear
    models' LPs, on for the SLP rounds."""

    def test_gamma_lp_matches_scipy(self, homog37, monkeypatch):
        net = with_gamma_lo(homog37, 0.5)
        params = params_for(net, 10.0)
        delta = zeros_u(net)
        delta[list(net.der_nodes[:12])] = 1
        lp = GammaControlLP(net, params, LPF, fixed_angle_setpoints(net))
        lps = _captured_lps(monkeypatch, lambda: lp.solve(delta))
        assert len(lps) == 1
        assert lps[0][-1] is False
        assert np.array_equal(_own_x(*lps[0]), _scipy_x(*lps[0]))

    def test_linear_response_matches_scipy(self, monkeypatch):
        net = with_gamma_lo(heterogeneous37(0), 0.5)
        params = params_for(net, 10.0)
        delta = zeros_u(net)
        delta[list(net.der_nodes[::2])] = 1
        lps = _captured_lps(monkeypatch, lambda: optimal_response(net, delta, params, LPF))
        assert len(lps) == 1
        assert lps[0][-1] is False
        assert np.array_equal(_own_x(*lps[0]), _scipy_x(*lps[0]))

    def test_slp_rounds_match_scipy(self, homog37, monkeypatch):
        net = with_gamma_lo(homog37, 0.5)
        params = params_for(net, 10.0)
        delta = solve_ad_oneshot(net, None, 8, params, LPF).delta_star
        lps = _captured_lps(monkeypatch, lambda: optimal_response(net, delta, params, NPF))
        assert len(lps) > 1
        for args in lps:
            assert args[-1] is True
            assert np.array_equal(_own_x(*args), _scipy_x(*args))

    def test_infeasible_raises(self):
        # x <= -1 with 0 <= x <= 1
        A = _columnwise(np.array([[1.0]]))
        with pytest.raises(InfeasibleLP):
            linprog(np.array([1.0]), A, np.array([-1.0]), np.zeros(1), np.ones(1))

    @pytest.mark.parametrize("nan_in", ["c", "b_ub"])
    def test_nan_input_raises(self, nan_in):
        args = {"c": np.array([1.0, 1.0]), "b_ub": np.array([1.0])}
        args[nan_in][0] = np.nan
        A = _columnwise(np.array([[1.0, 1.0]]))
        with pytest.raises(ValueError):
            linprog(args["c"], A, args["b_ub"], np.zeros(2), np.ones(2))

    def test_nonfinite_matrix_raises(self):
        with pytest.raises(ValueError):
            _columnwise(np.array([[1.0, np.inf]]))


def _sparse_matrices():
    """Dense matrices with empty rows and columns, signed zeros and nonzero
    magnitudes from 1e-300 to 1e300."""
    rng = np.random.default_rng(20160106)
    out = [np.zeros((4, 3)), np.zeros((1, 5)), np.array([[0.0, -2.5, 0.0, 1e-300, -1e300]])]
    for _ in range(20):
        m, n = rng.integers(1, 30, size=2)
        A = rng.choice([-1.0, 1.0], size=(m, n)) * 10.0 ** rng.uniform(-300, 300, size=(m, n))
        A[rng.random((m, n)) > rng.uniform(0.05, 0.6)] = 0.0
        A[rng.random(m) < 0.2, :] = 0.0
        A[:, rng.random(n) < 0.2] = 0.0
        A[rng.random((m, n)) < 0.05] = -0.0
        out.append(A)
    return out


class TestColumnwise:
    @pytest.mark.parametrize("A", _sparse_matrices())
    def test_matches_scipy_csc(self, A):
        start, index, value = _columnwise(A)
        csc = csc_array(A)
        assert start == csc.indptr.tolist()
        assert index == csc.indices.tolist()
        assert value == csc.data.tolist()
        assert all(type(v) is float for v in value)


def _fresh_python(code: str, *path: Path) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter with ``path`` and ``src`` first on
    PYTHONPATH."""
    src = Path(__file__).resolve().parents[1] / "src"
    entries = [*map(str, path), str(src), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, entries))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


class TestHighsLoading:
    """The HiGHS extension is loaded from its file, once per process."""

    @pytest.mark.parametrize("module", ["dersec", "dersec.cli"])
    def test_import_leaves_out_scipy_optimize_and_sparse(self, module):
        out = _fresh_python(
            f"import sys, {module}\n"
            "print(sorted({'scipy.optimize', 'scipy.sparse'} & set(sys.modules)))"
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("module", ["dersec", "dersec.cli"])
    def test_import_runs_no_scipy_initialiser(self, module):
        # the extension's folder comes from scipy's import spec, so the
        # scipy package itself is never imported
        out = _fresh_python(f"import sys, {module}\nprint('scipy' in sys.modules)")
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

    def test_missing_scipy_is_an_import_error(self):
        out = _fresh_python("import sys\nsys.modules['scipy'] = None\nimport dersec")
        assert out.returncode != 0
        assert "ImportError: dersec needs scipy" in out.stderr

    @pytest.mark.parametrize("first, second", [("dersec.response", "scipy.optimize"),
                                               ("scipy.optimize", "dersec.response")])
    def test_either_import_order_shares_one_module(self, first, second):
        out = _fresh_python(
            f"import {first}\n"
            f"import {second}\n"
            "import sys\n"
            "import numpy as np\n"
            "assert sys.modules['scipy.optimize._highspy._core'] is dersec.response._highs\n"
            "res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0],\n"
            "                             bounds=(0, 1), method='highs')\n"
            "x = dersec.response.linprog(np.array([1.0, 2.0]),\n"
            "                            dersec.response._columnwise(np.array([[-1.0, -1.0]])),\n"
            "                            np.array([-1.0]), np.zeros(2), np.ones(2))\n"
            "assert res.success and np.array_equal(res.x, x) and x.tolist() == [1.0, 0.0]\n"
        )
        assert out.returncode == 0, out.stderr

    def test_missing_extension_names_the_folder(self, tmp_path):
        (tmp_path / "scipy").mkdir()
        (tmp_path / "scipy" / "__init__.py").write_text("")
        out = _fresh_python("import dersec", tmp_path)
        assert out.returncode != 0
        assert "ImportError" in out.stderr
        assert str(tmp_path / "scipy" / "optimize" / "_highspy") in out.stderr
