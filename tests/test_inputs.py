"""Every public per-node input goes through the one shape rule of ``network``,
and every node id through its one id check: a short array, a row of them or
an out-of-range id raises ValueError naming the input (RootArgument for the
substation) instead of broadcasting or wrapping."""

import numpy as np
import pytest

from dersec import CostParams, LPF, evaluate_loss, homogeneous37, injection, solve_lpf
from dersec.attack import (
    candidate_attack_set,
    effective_setpoints,
    impact_matrix,
    optimal_attack_fixed_response,
    pivot_optimal_attack,
)
from dersec.errors import RootArgument
from dersec.network import check_shape, common_path_impedance, is_per_node, precedence_compare
from dersec.response import (
    DefenderResponse,
    GammaControlLP,
    fixed_angle_setpoints,
    optimal_response,
    response_state,
)

from conftest import zeros_u


@pytest.fixture(scope="module")
def feeder():
    net = homogeneous37()
    sp = fixed_angle_setpoints(net)
    phi = DefenderResponse(sp_d=sp, gamma=np.ones(net.n + 1))
    return net, sp, phi, CostParams.from_ratio(net, 10.0)


def _shape_calls(net, sp, phi, params):
    """(name of the bad input, call with it), one per public per-node input."""
    delta = np.zeros(net.n + 1, dtype=int)
    sg = effective_setpoints(net, delta, sp)
    state = solve_lpf(net, injection(net, phi.gamma, sg))
    return [
        ("gamma", lambda bad: injection(net, bad, sg)),
        ("sg", lambda bad: injection(net, phi.gamma, bad)),
        ("gamma", lambda bad: evaluate_loss(state, bad, params)),
        ("delta", lambda bad: response_state(net, bad, phi, LPF)),
        ("delta", lambda bad: effective_setpoints(net, bad, sp)),
        ("sp_d", lambda bad: effective_setpoints(net, delta, bad)),
        ("sp_a", lambda bad: effective_setpoints(net, delta, sp, bad)),
        ("sp_d", lambda bad: impact_matrix(net, bad, LPF)),
        ("sp_d", lambda bad: GammaControlLP(net, params, LPF, bad)),
        ("u", lambda bad: pivot_optimal_attack(net, 5, sp, 2, bad)),
        ("u", lambda bad: optimal_attack_fixed_response(net, phi, 2, bad, params)),
        ("u", lambda bad: candidate_attack_set(net, sp, 2, bad)),
        ("delta", lambda bad: optimal_response(net, bad, params, LPF)),
    ]


class TestPerNodeShape:
    @pytest.mark.parametrize("case", range(13))
    @pytest.mark.parametrize("form", ["one entry", "two entries", "one entry short", "a row", "a scalar"])
    def test_a_wrong_shape_is_rejected_by_name(self, feeder, case, form):
        # unchecked, a short array broadcast: injection(net, [0.5], sg) halved
        # every load, evaluate_loss priced gamma [1.0, 0.5] as a voll of 1102.5,
        # an attack vector [1] attacked every DER, the attack entries
        # returned the empty attack and a one-entry sp_d spread over every node
        net = feeder[0]
        name, call = _shape_calls(*feeder)[case]
        good = {"u": zeros_u(net), "delta": np.zeros(net.n + 1, dtype=int),
                "gamma": np.ones(net.n + 1)}.get(name, np.zeros(net.n + 1, dtype=complex))
        bad = {"one entry": good[:1], "two entries": np.ones(2, dtype=good.dtype), "one entry short": good[:-1],
               "a row": good[None], "a scalar": good[0]}[form]
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            call(bad)

    @pytest.mark.parametrize("case", range(13))
    def test_the_right_shape_is_taken_as_a_list(self, feeder, case):
        net = feeder[0]
        name, call = _shape_calls(*feeder)[case]
        good = {"u": [0] * (net.n + 1), "delta": [0] * (net.n + 1), "gamma": [1.0] * (net.n + 1)}
        call(good.get(name, [0j] * (net.n + 1)))

    @pytest.mark.parametrize("bad", [[1], np.full(37, 2)])
    def test_the_attack_entries_read_the_values_of_u(self, feeder, bad):
        # unchecked, u=[1] and a u full of 2s both gave the empty attack
        net, sp, phi, params = feeder
        calls = (
            lambda: pivot_optimal_attack(net, 5, sp, 2, bad),
            lambda: optimal_attack_fixed_response(net, phi, 2, bad, params),
            lambda: candidate_attack_set(net, sp, 2, bad),
            lambda: response_state(net, bad, phi, LPF),
            lambda: optimal_response(net, bad, params, LPF),
        )
        for call in calls:
            with pytest.raises(ValueError, match=r"^(u|delta) must be one 0/1 vector over nodes 0\.\.36$"):
                call()

    def test_the_rule(self, feeder):
        net = feeder[0]
        assert is_per_node(net, np.zeros(37))
        assert not is_per_node(net, np.zeros((1, 37)))
        assert is_per_node(net, np.zeros((3, 37)), rows=True)
        assert not is_per_node(net, np.zeros((0, 37)), rows=True)
        assert not is_per_node(net, np.zeros(37), rows=True)
        assert check_shape(net, [1, 2] + [0] * 35, "v", complex).dtype == complex
        with pytest.raises(ValueError, match=r"^v must be one vector over nodes 0\.\.36, got shape \(36,\)$"):
            check_shape(net, np.zeros(36), "v")


class TestNodeIds:
    @pytest.mark.parametrize("bad", [-1, 37, 1.0, True, "3"])
    def test_pivot_optimal_attack(self, feeder, bad):
        # unchecked, pivot -1 wrapped to node 36's attack and 37 raised IndexError
        net, sp = feeder[:2]
        with pytest.raises(ValueError, match=r"^pivot must be a node id in 1\.\.36"):
            pivot_optimal_attack(net, bad, sp, 2, zeros_u(net))

    @pytest.mark.parametrize("bad", [-1, 37])
    @pytest.mark.parametrize("where", range(2))
    def test_common_path_impedance(self, feeder, bad, where):
        # unchecked, (-1, 3) wrapped to Z[36, 3]
        ids = [3, 4]
        ids[where] = bad
        with pytest.raises(ValueError, match=rf"^{'ij'[where]} must be a node id"):
            common_path_impedance(feeder[0], *ids)

    @pytest.mark.parametrize("bad", [-1, 37])
    @pytest.mark.parametrize("where", range(3))
    def test_precedence_compare(self, feeder, bad, where):
        # unchecked, (-1, 3, 4) wrapped to pivot 36
        ids = [2, 3, 4]
        ids[where] = bad
        with pytest.raises(ValueError, match=rf"^{('pivot', 'j', 'k')[where]} must be a node id"):
            precedence_compare(feeder[0], *ids)

    def test_the_substation_stays_a_root_argument(self, feeder):
        net, sp = feeder[:2]
        for call in (lambda: pivot_optimal_attack(net, 0, sp, 2, zeros_u(net)),
                     lambda: common_path_impedance(net, 3, 0),
                     lambda: precedence_compare(net, 2, 0, 4)):
            with pytest.raises(RootArgument, match="non-substation"):
                call()

    def test_numpy_ids_are_node_ids(self, feeder):
        net = feeder[0]
        assert common_path_impedance(net, np.int64(3), np.int32(4)) == complex(net.Z[3, 4])
