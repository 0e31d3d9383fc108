import numpy as np
import pytest

from dersec import (
    Injection,
    calibrate_epsilon,
    eps_lpf,
    injection,
    nominal_injection,
    solve_eps_lpf,
    solve_lpf,
    solve_npf,
    validate_assumptions,
)
from dersec.cases import random_feasible_network
from dersec.errors import NegativeSquaredVoltage, NonConvergent

from conftest import chain_network, two_bus

# frozen 2-bus nonlinear solution, from an independent 1-D root find on ell
TWO_BUS_ELL = 0.012537644371620141
TWO_BUS_P = 0.1001253764437162
TWO_BUS_NU = 0.9969974924711257


def _inj(net, s_complex_by_node):
    sc = np.zeros(net.n + 1, dtype=complex)
    for node, s in s_complex_by_node.items():
        sc[node] = s
    return Injection(sc=sc, sg=np.zeros(net.n + 1, dtype=complex))


class TestInjection:
    def test_lists_match_arrays(self, homog37):
        # the public edge takes array-likes: lists give the arrays ndarrays give
        gamma = np.linspace(0.5, 1.0, homog37.n + 1)
        sg = 0.5 * homog37.der_cap * np.exp(0.3j)
        want = injection(homog37, gamma, sg)
        got = injection(homog37, gamma.tolist(), sg.tolist())
        for a, b in ((got.sc, want.sc), (got.sg, want.sg)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        # and are checked as arrays are
        with pytest.raises(ValueError, match="capability"):
            injection(homog37, [1.0] * (homog37.n + 1), (2.0 * homog37.der_cap).tolist())
        with pytest.raises(ValueError, match="nominal"):
            injection(homog37, [1.5] * (homog37.n + 1), [0.0] * (homog37.n + 1))


class TestLPF:
    def test_zero_injection(self, homog37):
        st = solve_lpf(homog37, _inj(homog37, {}))
        assert np.all(st.S == 0)
        assert np.allclose(st.nu, homog37.nu0)
        assert np.all(st.ell == 0)

    @pytest.mark.parametrize("eps", [0.0, 0.2])
    def test_residuals_of_a_linear_state(self, homog37, eps):
        # the lossless equations hold; the loss terms z*ell alone reach ~4e-3 here
        st = solve_eps_lpf(homog37, nominal_injection(homog37), eps)
        assert max(st.residuals()) < 1e-12
        assert float(abs(homog37.z * st.ell).max()) > 1e-3

    def test_two_bus_hand_value(self):
        net = two_bus()
        st = solve_lpf(net, _inj(net, {1: 0.1 + 0.05j}))
        assert st.S[1] == pytest.approx(0.1 + 0.05j, abs=1e-15)
        assert st.nu[1] == pytest.approx(0.997, abs=1e-15)

    def test_closed_form_matches_recursion(self):
        for seed in range(10):
            net = random_feasible_network(seed)
            inj = nominal_injection(net)
            st = solve_lpf(net, inj)
            s = inj.net_load
            nu_closed = net.nu0 - 2.0 * (
                np.real(net.Z) @ np.real(s) + np.imag(net.Z) @ np.imag(s)
            )
            assert np.allclose(st.nu, nu_closed, atol=1e-12)

    def test_linearity_of_flows_and_drops(self):
        net = random_feasible_network(3)
        rng = np.random.default_rng(0)
        sa = rng.random(net.n + 1) * 0.01 + 1j * rng.random(net.n + 1) * 0.003
        sb = rng.random(net.n + 1) * 0.01 + 1j * rng.random(net.n + 1) * 0.003
        sa[0] = sb[0] = 0
        za = np.zeros(net.n + 1, dtype=complex)
        st_a = solve_lpf(net, Injection(sc=sa, sg=za))
        st_b = solve_lpf(net, Injection(sc=sb, sg=za))
        st_ab = solve_lpf(net, Injection(sc=sa + sb, sg=za))
        assert np.allclose(st_ab.S, st_a.S + st_b.S, atol=1e-12)
        drop = lambda st: st.nu - net.nu0
        assert np.allclose(drop(st_ab), drop(st_a) + drop(st_b), atol=1e-12)

    def test_negative_voltage_raises(self):
        net = two_bus(z=0.04 + 0.04j)
        with pytest.raises(NegativeSquaredVoltage):
            solve_lpf(net, _inj(net, {1: 8.0 + 6.0j}))


class TestEpsLPF:
    def test_eps_zero_equals_lpf(self):
        net = two_bus()
        inj = _inj(net, {1: 0.1 + 0.05j})
        a = solve_lpf(net, inj)
        b = solve_eps_lpf(net, inj, 0.0)
        assert np.allclose(a.S, b.S)
        assert np.allclose(a.nu, b.nu)

    def test_two_bus_hand_value(self):
        net = two_bus()
        st = solve_eps_lpf(net, _inj(net, {1: 0.1 + 0.05j}), 0.1)
        assert st.S[1] == pytest.approx(0.11 + 0.055j, abs=1e-15)
        assert st.nu[1] == pytest.approx(0.9967, abs=1e-15)

    def test_scaling_identities(self):
        for seed in range(20):
            net = random_feasible_network(seed)
            inj = nominal_injection(net)
            eps = 0.17
            lo = solve_lpf(net, inj)
            hi = solve_eps_lpf(net, inj, eps)
            assert np.allclose(hi.S[1:], (1 + eps) * lo.S[1:], rtol=0, atol=1e-12)
            assert np.allclose(
                hi.nu - net.nu0, (1 + eps) * (lo.nu - net.nu0), rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("eps", [-0.1, float("nan"), float("inf")])
    def test_bad_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps"):
            eps_lpf(eps)


class TestNPF:
    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan")])
    def test_bad_tol_rejected(self, tol):
        # a NaN tol once ran every sweep and raised NonConvergent
        net = two_bus()
        with pytest.raises(ValueError, match="tol"):
            solve_npf(net, _inj(net, {1: 0.1 + 0.05j}), tol=tol)

    def test_zero_injection(self, homog37):
        st = solve_npf(homog37, _inj(homog37, {}))
        assert np.all(st.S == 0)
        assert np.allclose(st.nu, homog37.nu0)

    def test_two_bus_frozen_oracle(self):
        net = two_bus()
        st = solve_npf(net, _inj(net, {1: 0.1 + 0.05j}), tol=1e-13)
        assert st.ell[1] == pytest.approx(TWO_BUS_ELL, abs=1e-12)
        assert np.real(st.S[1]) == pytest.approx(TWO_BUS_P, abs=1e-12)
        assert st.nu[1] == pytest.approx(TWO_BUS_NU, abs=1e-12)
        # flow above the lossless flow, voltage below it
        lpf = solve_lpf(net, _inj(net, {1: 0.1 + 0.05j}))
        assert np.real(st.S[1]) > np.real(lpf.S[1])
        assert st.nu[1] < lpf.nu[1]

    def test_residuals_below_tolerance(self, homog37):
        st = solve_npf(homog37, nominal_injection(homog37))
        assert max(st.residuals()) < 1e-10

    def test_conservation_at_every_node(self):
        net = random_feasible_network(11)
        st = solve_npf(net, nominal_injection(net))
        s = st.injection.net_load
        for j in net.nodes:
            inflow = st.S[j]
            out = sum(st.S[c] for c in net.tree.children[j])
            assert inflow - (out + s[j] + net.z[j] * st.ell[j]) == pytest.approx(
                0, abs=1e-10
            )

    def test_matches_batch_oracle(self):
        # the oracle's per-node batch sweep is independent ground truth; its
        # flows follow from its losses by the conservation recursion
        from dersec.oracle import _solve_npf_batch

        for seed in range(20):
            net = random_feasible_network(seed)
            inj = nominal_injection(net)
            st = solve_npf(net, inj)
            nu, ell, resid = _solve_npf_batch(net, inj.net_load[:, None])
            assert resid[0] < 1e-10, seed
            S = inj.net_load + net.z * ell[:, 0]
            for j in net.tree.order[:0:-1]:
                S[net.tree.parent[j]] += S[j]
            S[0] = 0.0
            assert np.allclose(st.nu, nu[:, 0], rtol=0, atol=1e-10), seed
            assert np.allclose(st.ell, ell[:, 0], rtol=0, atol=1e-10), seed
            assert np.allclose(st.S, S, rtol=0, atol=1e-10), seed

    def test_nonconvergent_outside_regime(self):
        net = two_bus(z=0.03 + 0.03j)
        with pytest.raises((NonConvergent, NegativeSquaredVoltage)):
            solve_npf(net, _inj(net, {1: 4.0 + 2.0j}), max_iter=30)

    def test_model_ordering_sample(self):
        for seed in range(25):
            net = random_feasible_network(seed)
            inj = nominal_injection(net)
            eps = calibrate_epsilon(net).eps
            lo = solve_lpf(net, inj)
            mid = solve_npf(net, inj)
            hi = solve_eps_lpf(net, inj, eps)
            tol = 1e-10
            assert np.all(np.real(lo.S[1:]) <= np.real(mid.S[1:]) + tol)
            assert np.all(np.real(mid.S[1:]) <= np.real(hi.S[1:]) + tol)
            assert np.all(np.imag(lo.S[1:]) <= np.imag(mid.S[1:]) + tol)
            assert np.all(np.imag(mid.S[1:]) <= np.imag(hi.S[1:]) + tol)
            assert np.all(lo.nu[1:] >= mid.nu[1:] - tol)
            assert np.all(mid.nu[1:] >= hi.nu[1:] - tol)
            assert np.all(lo.ell[1:] <= mid.ell[1:] + tol)
            assert np.all(mid.ell[1:] <= hi.ell[1:] + tol)

    def test_height_scaled_flow_bound(self):
        for seed in range(15):
            net = random_feasible_network(seed)
            inj = nominal_injection(net)
            cal = calibrate_epsilon(net)
            lo = solve_lpf(net, inj)
            mid = solve_npf(net, inj)
            H = net.tree.height
            for j in net.nodes:
                scale = (1.0 - cal.eps0) ** -(H - len(net.tree.paths[j]) + 1)
                assert np.real(mid.S[j]) <= np.real(lo.S[j]) * scale + 1e-10
                assert np.imag(mid.S[j]) <= np.imag(lo.S[j]) * scale + 1e-10


class TestCalibration:
    def test_closed_form_arithmetic(self):
        assert (1 - 0.05) ** -3 - 1 == pytest.approx(0.1663508, abs=1e-7)

    def test_lossless_limit(self):
        net = chain_network(3, load=0.0 + 0.0j)
        cal = calibrate_epsilon(net)
        assert cal.eps0 == 0.0
        assert cal.eps == 0.0

    def test_loss_ratio_of_one_raises(self):
        # a purely reactive load: the real flow on its edge is the edge's own
        # loss, so the loss ratio r*ell/P reaches 1
        with pytest.raises(NegativeSquaredVoltage, match="eps0 = 1.000 >= 1"):
            calibrate_epsilon(two_bus(load=0.0 + 0.1j))

    def test_homogeneous_case_range(self, homog37):
        cal = calibrate_epsilon(homog37)
        assert 0.0 < cal.eps0 < 0.1
        assert cal.eps == pytest.approx((1 - cal.eps0) ** -homog37.tree.height - 1)


class TestAssumptionValidator:
    def test_homogeneous_all_pass(self, homog37):
        st = solve_npf(homog37, nominal_injection(homog37))
        report = validate_assumptions(homog37, st)
        assert report.all_pass, report.failures

    def test_impedance_cap_violation_names_edge(self):
        cap = 0.8**2 / (4 * 0.8 + 8)
        net = chain_network(2, z=complex(cap + 0.01, 0.01), load=0.001 + 0.0003j)
        st = solve_npf(net, nominal_injection(net))
        report = validate_assumptions(net, st)
        assert not report.small_impedance
        assert "1" in report.failures["small_impedance"]

    def test_soft_bound_names_npf_nodes(self):
        # nominal voltages 0.99837, 0.99728, 0.99673 under NPF (LPF alike)
        net = chain_network(3, nu_lo=0.998)
        report = validate_assumptions(net, solve_npf(net, nominal_injection(net)))
        assert not report.voltage_quality
        assert report.failures == {"voltage_quality": "soft bound violated at nodes [2, 3]"}

    def test_soft_bound_names_lpf_only_node(self):
        # node 2 generating 1.34: NPF nu_2 = 1.10052 keeps the soft bound
        # 1.1025, LPF nu_2 = 1.10564 leaves it
        net = chain_network(2, z=0.02 + 0.02j, load=0.01 + 0.003j, caps={2: 1.34})
        sg = np.zeros(3, dtype=complex)
        sg[2] = 1.34
        st = solve_npf(net, injection(net, np.ones(3), sg))
        assert st.nu[2] <= 1.1025 < solve_lpf(net, st.injection).nu[2]
        report = validate_assumptions(net, st)
        assert not report.voltage_quality
        assert report.failures["voltage_quality"] == "soft bound violated at nodes [2]"

    def test_hard_bound_violation_names_node(self):
        # nominal NPF voltages 0.849 and 0.777 against the hard floor 0.8
        net = chain_network(2, z=0.05 + 0.05j, load=0.5 + 0.2j)
        report = validate_assumptions(net, solve_npf(net, nominal_injection(net)))
        assert not report.safety
        assert report.failures["safety"] == "hard bound violated at nodes [2]"
        assert report.failures["voltage_quality"] == "soft bound violated at nodes [1, 2]"

    def test_reverse_flow_detected(self):
        net = chain_network(2, caps={2: 0.05}, load=0.005 + 0.0015j)
        sg = np.zeros(3, dtype=complex)
        sg[2] = 0.03 + 0.01j  # leaf generation above total demand
        st = solve_npf(net, injection(net, np.ones(3), sg))
        report = validate_assumptions(net, st)
        assert not report.no_reverse_flow
        assert "2" in report.failures["no_reverse_flow"]
