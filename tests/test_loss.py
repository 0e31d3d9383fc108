import numpy as np
import pytest

from dersec import (
    LPF,
    NPF,
    CostParams,
    balanced_tree,
    evaluate_loss,
    homogeneous37,
    line_loss_cap,
    nominal_injection,
    optimal_attack_fixed_response,
    optimal_response,
    pivot_optimal_attack,
    response_state,
    sandwich_bounds,
    solve_ad,
    solve_dad,
    solve_npf,
)
from dersec.errors import GammaOutOfRange
from dersec.cases import random_feasible_network
from dersec.network import NodeSpec, build_network
from dersec.powerflow import Injection, solve_lpf
from dersec.response import DefenderResponse, fixed_angle_setpoints
from dersec.sweep import with_gamma_lo


def _single_node_net(W=2.0, C=1.0, pc=0.15, nu_lo=0.9025):
    specs = [
        NodeSpec(id=0, parent=None),
        NodeSpec(id=1, parent=0, r_pu=0.01, x_pu=0.01, pc_nom=pc, qc_nom=0.3 * pc,
                 nu_lo=nu_lo, W=W, C=C, gamma_lo=0.5),
    ]
    return build_network(specs)


def test_hand_computed_breakdown():
    net = _single_node_net()
    params = CostParams.from_network(net)
    inj = Injection(sc=net.sc_nom * 0.8, sg=np.zeros(2, dtype=complex))
    state = solve_lpf(net, inj)
    # pin the voltage to the hand-worked value via a synthetic state
    state = type(state)(
        net=net, model=state.model,
        nu=np.array([1.0, 0.89]), ell=state.ell, S=state.S, injection=inj,
    )
    got = evaluate_loss(state, np.array([1.0, 0.8]), params)
    assert got.lovr == pytest.approx(0.025, abs=1e-12)
    assert got.voll == pytest.approx(0.03, abs=1e-12)
    assert got.total == pytest.approx(0.055, abs=1e-12)


def test_no_violation_no_shedding(homog37):
    params = CostParams.from_network(homog37)
    st = solve_npf(homog37, nominal_injection(homog37))
    got = evaluate_loss(st, np.ones(homog37.n + 1), params)
    assert got.lovr == 0.0
    assert got.voll == 0.0
    assert got.ll > 0.0
    assert got.total == got.ll


def test_zero_weights_kill_lovr(homog37):
    params = CostParams(W=np.zeros(homog37.n + 1), C=homog37.C)
    sc = homog37.sc_nom * 3.0  # deep violations
    st = solve_npf(homog37, Injection(sc=sc, sg=np.zeros(homog37.n + 1, dtype=complex)))
    got = evaluate_loss(st, np.ones(homog37.n + 1), params)
    assert got.lovr == 0.0


def test_gamma_out_of_range(homog37):
    params = CostParams.from_network(homog37)
    st = solve_npf(homog37, nominal_injection(homog37))
    bad = np.ones(homog37.n + 1)
    bad[3] = 0.2
    with pytest.raises(GammaOutOfRange):
        evaluate_loss(st, bad, params)


def test_include_ll_defaults_by_model(homog37):
    params = CostParams.from_network(homog37)
    inj = nominal_injection(homog37)
    npf = solve_npf(homog37, inj)
    lpf = solve_lpf(homog37, inj)
    ones = np.ones(homog37.n + 1)
    assert evaluate_loss(npf, ones, params).ll > 0.0
    assert evaluate_loss(lpf, ones, params).ll == 0.0


def test_monotone_in_voltage_and_gamma():
    net = _single_node_net(W=3.0, C=2.0)
    params = CostParams.from_network(net)
    inj = nominal_injection(net)
    base = solve_lpf(net, inj)
    lowered = type(base)(
        net=net, model=base.model, nu=base.nu - 0.01, ell=base.ell, S=base.S,
        injection=inj,
    )
    ones = np.ones(2)
    assert (
        evaluate_loss(lowered, ones, params).lovr
        >= evaluate_loss(base, ones, params).lovr
    )
    shed = np.array([1.0, 0.9])
    assert (
        evaluate_loss(base, shed, params).voll
        > evaluate_loss(base, ones, params).voll
    )


def test_line_loss_cap_holds_on_feasible_instances():
    for seed in range(20):
        net = random_feasible_network(seed)
        st = solve_npf(net, nominal_injection(net))
        ll = float(np.sum(net.r[1:] * st.ell[1:]))
        assert ll <= line_loss_cap(net) + 1e-12


def _solve_case(case, weights):
    """The sub-game answer, by ``repr``, of ``case`` on a fresh network, under
    ``CostParams.from_ratio(net, 10)`` given as arrays or as lists."""
    if case == "solve_ad_npf":
        net = with_gamma_lo(homogeneous37(), 0.5)
    else:
        net = balanced_tree(2, 2)
    params = CostParams.from_ratio(net, 10.0)
    if weights == "lists":
        params = CostParams(W=list(params.W), C=list(params.C))
    for w in (params.W, params.C):
        assert w.dtype == np.float64 and not w.flags.writeable
    if case == "solve_ad_npf":
        ad, u = solve_ad(net, None, 4, params, NPF), None
    else:
        dad = solve_dad(net, 1, 1, params, LPF)
        ad, u = dad.ad, dad.ad.u.tolist()
    return repr((u, ad.loss, ad.u.tolist(), ad.delta_star.tolist(), ad.phi_star.gamma.tolist(),
                 ad.phi_star.sp_d.tolist(), ad.iterations, ad.converged))


@pytest.mark.parametrize("case", ["solve_ad_npf", "solve_dad_lpf"])
def test_list_weights_solve_as_the_arrays_do(case):
    # lists once reached the response model unconverted and raised TypeError
    assert _solve_case(case, "lists") == _solve_case(case, "arrays")


def test_weights_are_owned_copies():
    W = np.full(3, 2.0)
    params = CostParams(W=W, C=[1, 1, 1])
    W[1] = 5.0
    assert params.W.tolist() == [2.0, 2.0, 2.0]
    assert params.C.dtype == np.float64
    with pytest.raises(ValueError):
        params.W[1] = 5.0


@pytest.mark.parametrize("length", [7, 38, 1])
def test_weight_length_is_checked_against_the_network(length):
    # a wrong length once failed deep in the response model with numpy's
    # "operands could not be broadcast together"
    net = homogeneous37()
    params = CostParams(W=np.full(length, 7e4), C=np.full(length, 7e3))
    delta = np.zeros(net.n + 1, dtype=int)
    phi = DefenderResponse(sp_d=fixed_angle_setpoints(net), gamma=np.ones(net.n + 1))
    state = response_state(net, delta, phi, LPF)
    calls = (
        lambda: solve_ad(net, None, 2, params, LPF),
        lambda: solve_ad(net, None, 2, params, NPF),
        lambda: solve_dad(net, 1, 2, params, LPF),
        lambda: optimal_response(net, delta, params, LPF),
        lambda: optimal_response(net, delta, params, NPF),
        lambda: evaluate_loss(state, phi.gamma, params),
        lambda: optimal_attack_fixed_response(net, phi, 2, delta, params),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"weights W and C need 37 entries"):
            call()


def test_networks_and_weights_compare_by_identity():
    # equal-valued objects once raised "truth value of an array is ambiguous"
    nets = balanced_tree(2, 2), balanced_tree(2, 2)
    params = [CostParams.from_ratio(net, 10.0) for net in nets]
    for a, b in (nets, params):
        assert a == a and a != b
        assert len({a, b, a}) == 2


def _equal_records(kind):
    """Two equal-valued records of ``kind`` that hold arrays, built apart."""
    net = balanced_tree(2, 2)
    params = CostParams.from_ratio(net, 10.0)
    sp = fixed_angle_setpoints(net)
    make = {
        "ADResult": lambda: solve_ad(net, None, 2, params, LPF),
        "DADResult": lambda: solve_dad(net, 1, 2, params, LPF),
        "DefenderResponse": lambda: solve_ad(net, None, 2, params, LPF).phi_star,
        "PivotAttack": lambda: pivot_optimal_attack(net, 3, sp, 2, np.zeros(net.n + 1, dtype=int)),
        "BoundsReport": lambda: sandwich_bounds(net, None, 1, params),
        "State": lambda: solve_lpf(net, nominal_injection(net)),
        "Injection": lambda: nominal_injection(net),
        "TreeIndex": lambda: balanced_tree(2, 2).tree,
    }[kind]
    return make(), make()


@pytest.mark.parametrize("kind", ["ADResult", "DADResult", "DefenderResponse", "PivotAttack",
                                  "BoundsReport", "State", "Injection", "TreeIndex"])
def test_records_that_hold_arrays_compare_by_identity(kind):
    # field-wise == on their arrays once raised "truth value of an array is
    # ambiguous", and hash raised "unhashable type"
    a, b = _equal_records(kind)
    assert type(a).__name__ == kind
    assert a == a and a != b
    assert len({a, b, a}) == 2
