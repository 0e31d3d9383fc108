import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dersec

from dersec import (
    CostParams,
    LPF,
    NPF,
    balanced_tree,
    bf_ad,
    bf_attack_fixed_response,
    bf_security,
    optimal_attack_fixed_response,
)
from dersec.cases import heterogeneous37, random_feasible_network
from dersec.errors import HeterogeneousRxRatio, TooLargeToEnumerate
from dersec.network import NodeSpec, build_network
from dersec.oracle import GridSpec, _grid_min_response
from dersec.response import DefenderResponse, fixed_angle_setpoints

from conftest import chain_network, params_for, relabel, zeros_u


def _fixed_phi(net):
    sp = fixed_angle_setpoints(net)
    return DefenderResponse(sp_d=sp, gamma=np.ones(net.n + 1))


class TestBFAttack:
    def test_budget_zero(self, fig2):
        delta, _ = bf_attack_fixed_response(fig2, _fixed_phi(fig2), 0, zeros_u(fig2),
                                            CostParams.from_network(fig2))
        assert delta.sum() == 0

    def test_fig2_cluster(self, fig2):
        delta, _ = bf_attack_fixed_response(fig2, _fixed_phi(fig2), 2, zeros_u(fig2),
                                            CostParams.from_network(fig2))
        assert {fig2.label_of(i) for i in np.flatnonzero(delta)} == {"i", "m"}

    def test_guard(self):
        net = chain_network(25, caps={i: 0.001 for i in range(1, 26)},
                            load=0.002 + 0.0006j)
        with pytest.raises(TooLargeToEnumerate):
            bf_attack_fixed_response(net, _fixed_phi(net), 12, zeros_u(net),
                                     CostParams.from_network(net))

    def test_agreement_with_greedy_on_random_instances(self):
        for seed in range(60):
            net = random_feasible_network(seed, n_max=10)
            if len(net.der_nodes) == 0:
                continue
            phi = _fixed_phi(net)
            params = CostParams.from_network(net)
            for M in (1, 2, 3):
                greedy = optimal_attack_fixed_response(net, phi, M, zeros_u(net), params)
                from dersec import evaluate_loss, response_state

                st = response_state(net, greedy, phi, LPF)
                g_loss = evaluate_loss(st, phi.gamma, params).total
                _, bf_loss = bf_attack_fixed_response(
                    net, phi, M, zeros_u(net), params=params
                )
                assert g_loss == pytest.approx(bf_loss, abs=1e-9), (seed, M)


class TestBFAD:
    def test_budget_zero(self, tree22):
        params = params_for(tree22)
        _, _, loss = bf_ad(tree22, zeros_u(tree22), 0, params, LPF)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_linear_oracle_needs_identical_rx(self):
        net = heterogeneous37()
        with pytest.raises(HeterogeneousRxRatio, match="identical r/x"):
            bf_ad(net, zeros_u(net), 1, CostParams.from_network(net), LPF)

    def test_npf_grid_refinement_stabilizes(self):
        net = chain_network(2, z=0.02 + 0.024j, load=0.03 + 0.012j,
                            caps={2: 0.015}, nu_lo=0.998)
        params = CostParams(W=net.W / 7000.0, C=net.C / 7000.0)
        grid = GridSpec(gamma_step=0.2, setpoint_angle_step=np.pi / 10,
                        setpoint_mag_step=0.5)
        values = []
        for _ in range(3):
            _, _, loss = bf_ad(net, zeros_u(net), 1, params, NPF, grid=grid)
            values.append(loss)
            grid = grid.refined()
        # refining the defender grid can only lower the reported max-min
        assert values[1] <= values[0] + 1e-12
        assert values[2] <= values[1] + 1e-12
        assert abs(values[2] - values[1]) < 1e-3

    def test_relabeling_invariance(self):
        net = random_feasible_network(23, n_max=7)
        params = CostParams.from_network(net)
        _, _, base = bf_ad(net, zeros_u(net), 2, params, LPF)

        # permute non-root ids with a tree-order-preserving relabeling
        rng = np.random.default_rng(1)
        order = net.tree.order[1:]
        new_id = {0: 0}
        next_id = 1
        for node in order:  # BFS order guarantees parents first
            new_id[int(node)] = next_id
            next_id += 1
        # shuffle ids among nodes at equal depth to keep parents valid
        by_depth = {}
        for node in order:
            by_depth.setdefault(int(net.tree.depth[node]), []).append(int(node))
        mapping = {0: 0}
        for depth, nodes in by_depth.items():
            shuffled = list(nodes)
            rng.shuffle(shuffled)
            for a, b in zip(nodes, shuffled):
                mapping[a] = new_id[b]
        # mapping may break parent<child id ordering, which build_network allows
        relabeled = relabel(net, [mapping[i] for i in range(net.n + 1)])
        params2 = CostParams.from_network(relabeled)
        _, _, permuted = bf_ad(relabeled, zeros_u(relabeled), 2, params2, LPF)
        assert permuted == pytest.approx(base, abs=1e-9)


class TestBFSecurity:
    def test_budget_zero_forced(self, tree22):
        params = params_for(tree22)
        u, _ = bf_security(tree22, 0, 2, params, LPF)
        assert u.sum() == 0

    def test_full_budget_reaches_no_attack_value(self, tree22):
        params = params_for(tree22)
        _, loss = bf_security(tree22, len(tree22.der_nodes), 3, params, LPF)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_guard(self, homog37):
        # 14 DERs: 2,163,841 attack vectors of up to 4 nodes times as many
        # security vectors exceed the 1,000,000 guard, which raises before any solve
        with pytest.raises(TooLargeToEnumerate, match="security enumeration"):
            bf_security(homog37, 4, 4, params_for(homog37), LPF)


def _mixed_chain():
    """0-1-2-3-4 chain and unit-scale costs: node 2 has no demand, so no
    gamma axis; nodes 2, 3 and 4 carry DERs."""
    specs = [NodeSpec(id=0, parent=None)]
    for i in range(1, 5):
        pc, qc = (0.0, 0.0) if i == 2 else (0.025, 0.008)
        specs.append(NodeSpec(id=i, parent=i - 1, r_pu=0.02, x_pu=0.024, pc_nom=pc, qc_nom=qc,
                              der_cap=0.0 if i == 1 else 0.012, nu_lo=0.9965))
    net = build_network(specs)
    return net, CostParams(W=net.W / 7000.0, C=net.C / 7000.0)


_GRID = GridSpec(gamma_step=0.25, setpoint_angle_step=math.pi / 4, setpoint_mag_step=0.5)
_SP = 0.008485281374238571 + 0.00848528137423857j


class TestPinnedAnswers:
    """Oracle answers pinned bit for bit (by repr) so that a rewrite of the
    oracles keeps the ground truth exactly."""

    @pytest.mark.parametrize("attacked, secured, loss, sp_d", [
        # node 3 compromised, node 4 attacked but secured, node 2 free
        ([3, 4], [4], "0.025375437234569913", [0j, 0j, _SP, 0j, _SP]),
        # every DER compromised: no set-point axis
        ([2, 3, 4], [], "0.10455522092205827", [0j] * 5),
    ])
    def test_grid_min_response(self, attacked, secured, loss, sp_d):
        net, params = _mixed_chain()
        delta, u = np.zeros(5, dtype=int), np.zeros(5, dtype=int)
        delta[attacked] = 1
        u[secured] = 1
        value, phi = _grid_min_response(net, delta, u, params, _GRID)
        assert repr(value) == loss
        assert phi.gamma.tolist() == [1.0, 1.0, 1.0, 0.5, 0.5]
        assert phi.sp_d.tolist() == sp_d

    def test_bf_ad_npf(self):
        net, params = _mixed_chain()
        delta, phi, loss = bf_ad(net, np.array([0, 0, 0, 0, 1]), 2, params, NPF, grid=_GRID)
        assert repr(loss) == "0.051911942417531866"
        assert delta.tolist() == [0, 0, 1, 1, 0]
        assert phi.gamma.tolist() == [1.0, 1.0, 1.0, 0.5, 0.5]
        assert phi.sp_d.tolist() == [0j, 0j, 0j, 0j, _SP]

    def test_bf_ad_lpf_secured(self):
        tree = balanced_tree(3, 2)
        u = np.zeros(tree.n + 1, dtype=int)
        u[[1, 5]] = 1
        delta, phi, loss = bf_ad(tree, u, 2, params_for(tree, 30.0), LPF)
        assert repr(loss) == "85.25424965173099"
        assert np.flatnonzero(delta).tolist() == [4, 6]
        gamma = [1.0] * 13
        gamma[4] = gamma[6] = 0.5940273826108048
        assert phi.gamma.tolist() == gamma
        assert phi.sp_d.tolist() == [0j] + [0.0039223227027636795 + 0.0196116135138184j] * 12

    def test_bf_security(self):
        tree = balanced_tree(3, 2)
        u, loss = bf_security(tree, 2, 2, params_for(tree, 30.0), LPF)
        assert repr(loss) == "85.25424965173099"
        assert u.tolist() == [0] * 13

    def test_grid_guard_raises_before_allocating(self):
        net, params = _mixed_chain()
        # 14 gamma values on each of 3 loaded nodes x 11 set-points on each of
        # 3 free DERs: 3.65M points, above the 2M guard
        grid = GridSpec(gamma_step=0.04, setpoint_angle_step=math.pi / 8, setpoint_mag_step=0.5)
        delta = np.zeros(5, dtype=int)
        tracemalloc.start()
        try:
            with pytest.raises(TooLargeToEnumerate):
                _grid_min_response(net, delta, np.zeros(5, dtype=int), params, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the grid itself would take 5 rows of 8 bytes per point
        assert peak < 14**3 * 11**3


class TestGridSpec:
    def test_positive_steps_required(self):
        with pytest.raises(ValueError):
            GridSpec(gamma_step=0.0)

    def test_refinement_halves(self):
        g = GridSpec(gamma_step=0.2, setpoint_angle_step=0.4, setpoint_mag_step=0.5)
        r = g.refined()
        assert r.gamma_step == pytest.approx(0.1)
        assert r.setpoint_angle_step == pytest.approx(0.2)


def _broken(net, case):
    """(budget, u, params, message) of a call whose input named by ``case``
    is wrong: the weights, the budget (M or B) or the security vector."""
    n1 = net.n + 1
    budget, u, params = 2, np.zeros(n1, dtype=int), CostParams.from_ratio(net, 10.0)
    what, how = case.split(" ", 1)
    if what == "W,C":
        size = n1 - 1 if how == "short" else n1 + 1
        params = CostParams(W=np.full(size, 7e4), C=np.full(size, 7e3))
        return budget, u, params, f"cost weights W and C need {n1} entries"
    if what == "u":
        return budget, np.zeros(1, dtype=int), params, "u must be one 0/1 vector"
    budget = -1 if how == "negative" else 1.5
    return budget, u, params, f"budget {what} must be a non-negative integer, got {budget}"


_CASES = ["W,C short", "W,C long", "M negative", "M non-integer", "u length-1"]


class TestOracleInputs:
    """Each oracle entry checks its inputs before enumerating: a ValueError
    naming the input, not a silent broadcast value or a failure deep inside."""

    @pytest.mark.parametrize("case", _CASES)
    def test_bf_attack_fixed_response(self, tree22, case):
        M, u, params, message = _broken(tree22, case)
        with pytest.raises(ValueError, match=message):
            bf_attack_fixed_response(tree22, _fixed_phi(tree22), M, u, params)

    @pytest.mark.parametrize("model", [LPF, NPF], ids=["lpf", "npf"])
    @pytest.mark.parametrize("case", _CASES)
    def test_bf_ad(self, tree22, case, model):
        M, u, params, message = _broken(tree22, case)
        with pytest.raises(ValueError, match=message):
            bf_ad(tree22, u, M, params, model)

    @pytest.mark.parametrize("case", _CASES[:-1] + ["B negative", "B non-integer"])
    def test_bf_security(self, tree22, case):
        budget, _, params, message = _broken(tree22, case)
        B, M = (budget, 2) if case.startswith("B") else (2, budget)
        with pytest.raises(ValueError, match=message):
            bf_security(tree22, B, M, params, LPF)


def _imports(module):
    """(source module, imported name) of every import in a dersec module,
    relative sources resolved to dersec names; the name is None for a plain
    ``import``."""
    tree = ast.parse((Path(dersec.__file__).parent / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                source = "dersec" + ("." + source if source else "")
            for alias in node.names:
                yield source, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None


class TestOracleIndependence:
    """The oracles stay independent of the engines they check."""

    # every name oracle.py takes from an engine module; a new one is a
    # deliberate edit here
    _ENGINE_NAMES = {
        ("dersec.response", "DefenderResponse"),
        ("dersec.response", "GammaControlLP"),
        ("dersec.response", "fixed_angle_setpoints"),
        ("dersec.response", "response_state"),
    }

    def test_oracle_engine_imports_are_allowlisted(self):
        engines = {"attack", "game", "response", "security"}
        used = {(src, name) for src, name in _imports("oracle")
                if src.removeprefix("dersec.") in engines
                or (src == "dersec" and name in engines)}
        assert used == self._ENGINE_NAMES

    def test_oracle_uses_no_private_engine_name(self):
        private = [(src, name) for src, name in _imports("oracle")
                   if src.startswith("dersec") and name and name.startswith("_")]
        assert private == []

    @pytest.mark.parametrize("module", sorted(p.stem for p in Path(dersec.__file__).parent.glob("*.py")))
    def test_no_module_imports_a_private_name(self, module):
        # a name one module needs from another is public in its owner
        private = [(src, name) for src, name in _imports(module)
                   if src.startswith("dersec") and name and name.startswith("_")]
        assert private == []

    @pytest.mark.parametrize("module", ["attack", "game", "response", "security"])
    def test_engines_do_not_import_the_oracle(self, module):
        sources = {src for src, _ in _imports(module)}
        sources |= {f"{src}.{name}" for src, name in _imports(module) if name}
        assert not any(s == "dersec.oracle" or s.startswith("dersec.oracle.") for s in sources)
