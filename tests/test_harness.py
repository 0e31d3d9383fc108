import dataclasses
import hashlib
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dersec.cli
import dersec.game
import dersec.sweep
from dersec import (
    LPF,
    NPF,
    CostParams,
    balanced_tree,
    compare_strategies,
    gen_case,
    heterogeneous37,
    homogeneous37,
    load_network,
    network_from_json,
    network_to_json,
    nominal_injection,
    optimal_response,
    precedence_example,
    random_feasible_network,
    response_state,
    sandwich_bounds,
    save_network,
    solve_ad,
    solve_ad_exhaustive,
    solve_ad_iterative,
    solve_ad_oneshot,
    solve_dad,
    solve_npf,
    validate_assumptions,
)
from dersec.cases import (
    CAP_PU,
    HOMOGENEOUS37_DER_NODES,
    R_PU,
    X_PU,
    si_to_per_unit_impedance,
    si_to_per_unit_power,
)
from dersec.cli import main as cli_main
from dersec.errors import InvalidNetwork, NonConvergent
from dersec.netio import CSV_HEADER, sweep_rows_to_csv
from dersec.sweep import SweepConfig, SweepRow, _delta_string, run_sweep, with_gamma_lo


class TestCases:
    def test_per_unit_conversion(self):
        z = si_to_per_unit_impedance(0.33 + 0.38j)
        assert z == pytest.approx(0.020625 + 0.02375j, abs=1e-12)
        assert R_PU / X_PU == pytest.approx(0.33 / 0.38, rel=1e-12)
        assert si_to_per_unit_power(15.0) == pytest.approx(0.015)
        assert CAP_PU == pytest.approx(0.01155)

    def test_homogeneous_layout(self, homog37):
        assert homog37.n == 36
        assert len(homog37.der_nodes) == 14
        assert tuple(homog37.der_nodes) == HOMOGENEOUS37_DER_NODES
        assert homog37.uniform_rx_ratio() == pytest.approx(0.33 / 0.38)
        # DER buses carry no demand; every demand equals the table rating
        loads = homog37.sc_nom[1:][np.abs(homog37.sc_nom[1:]) > 0]
        assert np.allclose(loads, 0.015 + 0.0045j)
        assert np.all(homog37.sc_nom[list(homog37.der_nodes)] == 0)

    def test_homogeneous_passes_assumptions(self, homog37):
        st = solve_npf(homog37, nominal_injection(homog37))
        rep = validate_assumptions(homog37, st)
        assert rep.all_pass, rep.failures

    def test_heterogeneous_deterministic(self):
        a = network_to_json(heterogeneous37(seed=7))
        b = network_to_json(heterogeneous37(seed=7))
        assert a == b
        c = network_to_json(heterogeneous37(seed=8))
        assert a != c

    def test_heterogeneous_properties(self):
        net = heterogeneous37(seed=3)
        caps = net.der_cap[list(HOMOGENEOUS37_DER_NODES)]
        assert len(np.unique(np.round(caps, 9))) == 3
        assert caps.sum() == pytest.approx(14 * CAP_PU, rel=1e-12)
        assert net.uniform_rx_ratio() is None

    def test_generated_networks_are_pinned(self):
        # the bench's inputs among them: a refactor of the generators must
        # leave every value and label bit for bit as it was
        nets = [
            homogeneous37(),
            *(heterogeneous37(seed) for seed in range(4)),
            precedence_example(),
            *(balanced_tree(a, h) for a, h in ((2, 2), (3, 2), (2, 3))),
            *(random_feasible_network(seed, identical_k=ik) for ik in (True, False) for seed in range(50)),
        ]
        digest = hashlib.sha1()
        for net in nets:
            digest.update(network_to_json(net).encode())
            digest.update(repr(net.labels).encode())
        assert digest.hexdigest() == "2142ca0668cb4e0fdb032226b87783097d582bc1"

    def test_gen_case_dispatch(self):
        assert gen_case("fig2").n == 10
        assert gen_case("balanced_tree", arity=2, height=2).n == 6
        with pytest.raises(ValueError):
            gen_case("nope")


class TestJSON:
    def test_round_trip(self, homog37):
        doc = network_to_json(homog37)
        back = network_from_json(doc)
        assert back.n == homog37.n
        assert np.array_equal(back.tree.parent, homog37.tree.parent)
        for field in ("r", "x", "der_cap", "nu_lo", "nu_hi", "W", "C", "gamma_lo"):
            assert np.allclose(getattr(back, field), getattr(homog37, field))
        assert np.allclose(back.sc_nom, homog37.sc_nom)
        assert network_to_json(back) == doc

    def test_unknown_document_field_rejected(self, homog37):
        doc = json.loads(network_to_json(homog37))
        doc["surprise"] = 1
        with pytest.raises(InvalidNetwork):
            network_from_json(json.dumps(doc))

    def test_unknown_node_field_rejected(self, homog37):
        doc = json.loads(network_to_json(homog37))
        doc["nodes"][3]["color"] = "red"
        with pytest.raises(InvalidNetwork):
            network_from_json(json.dumps(doc))

    def test_missing_field_rejected(self, homog37):
        doc = json.loads(network_to_json(homog37))
        del doc["nodes"][2]["gamma_lo"]
        with pytest.raises(InvalidNetwork):
            network_from_json(json.dumps(doc))

    @pytest.mark.parametrize("field", ["r_pu", "x_pu", "pc_nom", "qc_nom", "der_cap"])
    def test_substation_values_rejected(self, field, tree22):
        # the model ignores these at node 0, yet they once leaked in: der_cap
        # put the substation among the DER nodes, r_pu and x_pu into Z
        doc = json.loads(network_to_json(tree22))
        doc["nodes"][0][field] = 0.01
        with pytest.raises(InvalidNetwork, match="substation"):
            network_from_json(json.dumps(doc))

    def test_save_load(self, tmp_path, tree22):
        path = tmp_path / "net.json"
        save_network(tree22, path)
        assert load_network(path).n == tree22.n


class TestCSV:
    def test_header_exact(self):
        assert CSV_HEADER == (
            "M,wc_ratio,gamma_lo,model,lovr,voll,ll,total,"
            "iterations,converged,delta_star,runtime_ms,error"
        )

    def test_row_rendering(self):
        rows = [
            SweepRow(M=3, wc_ratio=10.0, gamma_lo=0.5, model="lpf", lovr=1.23456789012,
                     voll=2.0, ll=0.0, total=3.23456789012, iterations=1,
                     converged=True, delta_star="0101", runtime_ms=12.5),
            SweepRow(M=4, wc_ratio=2.0, gamma_lo=0.7, model="npf",
                     runtime_ms=1.0, error="NonConvergent: boom"),
        ]
        text = sweep_rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[1] == "3,10,0.5,lpf,1.23456789,2,0,3.23456789,1,true,0101,12.5,"
        assert lines[2] == "4,2,0.7,npf,,,,,,,,1,NonConvergent: boom"


class TestSweep:
    @pytest.mark.parametrize("axis", ["M_values", "wc_ratios", "gamma_lo_values"])
    def test_empty_axis_rejected(self, axis):
        axes = {"M_values": (1,), "wc_ratios": (10.0,), "gamma_lo_values": (0.5,), axis: ()}
        with pytest.raises(ValueError, match="sweep axes must be nonempty"):
            SweepConfig(**axes)

    def test_zero_budget_rows(self, tree22):
        cfg = SweepConfig(M_values=(0,), wc_ratios=(10.0,), gamma_lo_values=(0.5,))
        rows = run_sweep(tree22, cfg)
        assert len(rows) == 1
        assert rows[0].lovr == 0.0
        assert rows[0].voll == 0.0
        assert rows[0].delta_star == "0" * tree22.n

    def test_rows_sorted_and_deterministic(self, tree22):
        cfg = SweepConfig(M_values=(2, 0), wc_ratios=(10.0, 2.0), gamma_lo_values=(0.5,))
        rows_seq = run_sweep(tree22, cfg)
        rows_par = run_sweep(tree22, cfg, workers=4)
        keys = [(r.M, r.wc_ratio, r.gamma_lo) for r in rows_seq]
        assert keys == sorted(keys)
        assert [
            (r.M, r.wc_ratio, r.gamma_lo, r.total) for r in rows_seq
        ] == [(r.M, r.wc_ratio, r.gamma_lo, r.total) for r in rows_par]

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_count_below_one_rejected(self, tree22, workers):
        cfg = SweepConfig(M_values=(0,), wc_ratios=(10.0,), gamma_lo_values=(0.5,))
        with pytest.raises(ValueError, match="workers"):
            run_sweep(tree22, cfg, workers=workers)

    def test_one_network_per_gamma_lo(self, monkeypatch, tree22):
        # the rows on one gamma_lo share its network and its derived constants
        made = []

        def counted(net, gamma_lo):
            made.append(gamma_lo)
            return with_gamma_lo(net, gamma_lo)

        monkeypatch.setattr(dersec.sweep, "with_gamma_lo", counted)
        cfg = SweepConfig(M_values=(0, 1, 2), wc_ratios=(2.0, 10.0), gamma_lo_values=(0.5, 0.7))
        assert len(run_sweep(tree22, cfg)) == 12
        assert made == [0.5, 0.7]

    def test_threads_fill_one_store(self):
        # more threads than cores, switching often, build the constants of
        # the one gamma_lo network at once; every row still equals its
        # serial one
        cfg = SweepConfig(M_values=tuple(range(1, 9)), wc_ratios=(2.0, 10.0, 18.0), gamma_lo_values=(0.5,))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rows_par = run_sweep(homogeneous37(), cfg, workers=8)
        finally:
            sys.setswitchinterval(interval)
        rows_seq = run_sweep(homogeneous37(), cfg, workers=1)
        assert [repr((r.total, r.delta_star, r.error)) for r in rows_par] == [
            repr((r.total, r.delta_star, r.error)) for r in rows_seq
        ]

    def test_config_has_no_engine(self):
        names = [f.name for f in dataclasses.fields(SweepConfig)]
        assert names == ["M_values", "wc_ratios", "gamma_lo_values", "model"]

    def test_heterogeneous_lpf_rows_are_exhaustive(self):
        net = random_feasible_network(9, identical_k=False)
        cfg = SweepConfig(M_values=(1, 2), wc_ratios=(10.0,), gamma_lo_values=(0.5,))
        net_gl = with_gamma_lo(net, 0.5)
        for row in run_sweep(net, cfg):
            assert row.error == ""
            expected = solve_ad_exhaustive(net_gl, None, row.M, CostParams.from_ratio(net_gl, 10.0), LPF)
            assert row.total == expected.loss.total
            assert row.ll == 0.0

    def test_npf_rows_are_iterative(self, tree22):
        cfg = SweepConfig(M_values=(0, 2), wc_ratios=(10.0,), gamma_lo_values=(0.5,), model="npf")
        net = with_gamma_lo(tree22, 0.5)
        for row in run_sweep(tree22, cfg):
            params = CostParams.from_ratio(net, 10.0)
            seed = solve_ad_oneshot(net, None, row.M, params, LPF).delta_star
            expected = solve_ad_iterative(net, None, row.M, params, seed_attack=seed)
            assert row.error == ""
            assert (row.total, row.ll, row.iterations) == (
                expected.loss.total, expected.loss.ll, expected.iterations)
        # the linear rows of the same grid carry no line loss
        assert all(r.ll == 0.0 for r in run_sweep(tree22, dataclasses.replace(cfg, model="lpf")))

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="model"):
            SweepConfig(M_values=(1,), wc_ratios=(10.0,), gamma_lo_values=(0.5,),
                        model="lfp")


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "dersec.cli", *args],
        capture_output=True, text=True,
    )


# document edits that once escaped network validation: as a TypeError
# traceback, or (the NaN and the substation DER) into the network that was
# built
_MALFORMED = {
    "substation_der": lambda doc: doc["nodes"][0].update(der_cap=0.01),
    "nodes_not_a_list": lambda doc: doc.update(nodes=5),
    "node_not_an_object": lambda doc: doc.update(nodes=[1, 2]),
    "node_value_not_a_number": lambda doc: doc["nodes"][1].update(r_pu=[1]),
    "node_value_not_finite": lambda doc: doc["nodes"][1].update(r_pu=float("nan")),
    "parent_not_a_number": lambda doc: doc["nodes"][1].update(parent=[0]),
    "id_not_an_integer": lambda doc: doc["nodes"][1].update(id=1.5),
    "parent_not_an_integer": lambda doc: doc["nodes"][1].update(parent=0.5),
    "document_value_not_a_number": lambda doc: doc.update(nu0=[1.0]),
}

# sub-game inputs out of range, each once solved (exit 0, loss 0), crashed
# with a traceback (W/C or eps NaN or inf) or rejected only by a later gamma
# check
_BAD_SUBGAME_ARGS = {
    "budget_negative": ["solve-ad", "-M", "-1"],
    "wc_ratio_negative": ["solve-ad", "-M", "1", "--wc-ratio", "-1"],
    "wc_ratio_nan": ["solve-ad", "-M", "1", "--wc-ratio", "nan"],
    "wc_ratio_inf": ["solve-ad", "-M", "1", "--wc-ratio", "inf"],
    "gamma_lo_negative": ["solve-ad", "-M", "1", "--gamma-lo", "-0.5"],
    "gamma_lo_above_one": ["solve-ad", "-M", "1", "--gamma-lo", "1.5"],
    "gamma_lo_nan": ["solve-ad", "-M", "1", "--gamma-lo", "nan"],
    "security_budget_negative": ["solve-dad", "-M", "2", "-B", "-1", "--wc-ratio", "10"],
    "eps_nan": ["verify-bounds", "-M", "1", "--eps", "nan"],
    "eps_inf": ["verify-bounds", "-M", "1", "--eps", "inf"],
}

# sweep axes out of range, each once written out as rows with total 0, run
# as a number (true and false as 1 and 0) or crashed with a traceback (M 2.5
# and the strings)
_BAD_SWEEP_AXES = {
    "M_negative": ("M_values", [-1]),
    "M_not_an_integer": ("M_values", [2.5]),
    "wc_ratio_negative": ("wc_ratios", [-3.0]),
    "wc_ratio_not_a_number": ("wc_ratios", ["10"]),
    "gamma_lo_negative": ("gamma_lo_values", [-0.2]),
    "gamma_lo_not_a_number": ("gamma_lo_values", ["0.5"]),
    "wc_ratio_bool": ("wc_ratios", [True]),
    "gamma_lo_bool": ("gamma_lo_values", [False]),
}


class TestCLI:
    def test_gen_solve_verify_flow(self, tmp_path):
        net_path = tmp_path / "net.json"
        out = _cli("gen-case", "--kind", "balanced_tree", "--arity", "2",
                   "--height", "2", "--out", str(net_path))
        assert out.returncode == 0, out.stderr

        res_path = tmp_path / "result.json"
        out = _cli("solve-ad", "--network", str(net_path), "-M", "2",
                   "--wc-ratio", "10", "--model", "lpf",
                   "--out", str(res_path))
        assert out.returncode == 0, out.stderr
        doc = json.loads(res_path.read_text())
        assert doc["converged"] is True
        assert set(doc["loss"]) == {"lovr", "voll", "ll", "total"}

        out = _cli("verify-bounds", "--network", str(net_path), "-M", "2",
                   "--wc-ratio", "10")
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["holds"] is True

    def test_solve_ad_iterative_engine(self, tmp_path):
        net_path = tmp_path / "net.json"
        _cli("gen-case", "--kind", "balanced_tree", "--arity", "2", "--height", "2",
             "--out", str(net_path))
        out = _cli("solve-ad", "--network", str(net_path), "-M", "2",
                   "--wc-ratio", "10", "--model", "npf")
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert doc["model"] == "npf"
        assert doc["converged"] is True

    def test_solve_ad_heterogeneous_lpf(self, tmp_path):
        net = random_feasible_network(9, identical_k=False)
        net_path = tmp_path / "net.json"
        save_network(net, net_path)
        out = _cli("solve-ad", "--network", str(net_path), "-M", "2",
                   "--wc-ratio", "10", "--model", "lpf")
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        expected = solve_ad_exhaustive(net, None, 2, CostParams.from_ratio(net, 10.0), LPF)
        assert doc["loss"]["total"] == pytest.approx(expected.loss.total, abs=1e-12)
        assert doc["model"] == "lpf"

    def test_solve_ad_help_lists_no_engine(self):
        out = _cli("solve-ad", "--help")
        assert out.returncode == 0
        assert "--model" in out.stdout and "--engine" not in out.stdout

    def test_solve_dad(self, tmp_path):
        net_path = tmp_path / "net.json"
        _cli("gen-case", "--kind", "balanced_tree", "--arity", "2", "--height", "2",
             "--out", str(net_path))
        out = _cli("solve-dad", "--network", str(net_path), "-M", "2", "-B", "3",
                   "--wc-ratio", "10")
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert len(doc["secured_nodes"]) == 3

    def test_sweep_command(self, tmp_path):
        net_path = tmp_path / "net.json"
        _cli("gen-case", "--kind", "balanced_tree", "--arity", "2", "--height", "2",
             "--out", str(net_path))
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({
            "M_values": [0, 2], "wc_ratios": [10.0], "gamma_lo_values": [0.5],
            "model": "lpf", "engine": "oneshot",
        }))
        csv_path = tmp_path / "rows.csv"
        out = _cli("sweep", "--config", str(cfg_path), "--network", str(net_path),
                   "--out", str(csv_path))
        assert out.returncode == 0, out.stderr
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3

    def test_validation_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"nope\": 1}")
        out = _cli("solve-ad", "--network", str(bad), "-M", "1")
        assert out.returncode == 2

    @pytest.mark.parametrize("shape", sorted(_MALFORMED))
    def test_malformed_network_exit_code(self, shape, tmp_path, capsys, tree22):
        doc = json.loads(network_to_json(tree22))
        _MALFORMED[shape](doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert cli_main(["solve-ad", "--network", str(bad), "-M", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_bad_config_exit_code(self, tmp_path):
        net_path = tmp_path / "net.json"
        _cli("gen-case", "--kind", "balanced_tree", "--arity", "2", "--height", "2",
             "--out", str(net_path))
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({
            "M_values": [0], "wc_ratios": [10.0], "gamma_lo_values": [0.5],
            "model": "lfp", "engine": "oneshot",
        }))
        out = _cli("sweep", "--config", str(cfg_path), "--network", str(net_path),
                   "--out", str(tmp_path / "rows.csv"))
        assert out.returncode == 2
        assert "lfp" in out.stderr
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize("shape", sorted(_BAD_SUBGAME_ARGS))
    @pytest.mark.parametrize("case", ["balanced_tree", "asymmetric"])
    def test_bad_subgame_input_exit_code(self, shape, case, tmp_path, capsys, tree22):
        net_path = tmp_path / "net.json"
        save_network(tree22 if case == "balanced_tree" else random_feasible_network(3), net_path)
        command, *args = _BAD_SUBGAME_ARGS[shape]
        assert cli_main([command, "--network", str(net_path), *args]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "gamma outside" not in err

    @pytest.mark.parametrize("shape", sorted(_BAD_SWEEP_AXES))
    def test_sweep_bad_axis_exit_code(self, shape, tmp_path, capsys, tree22):
        net_path = tmp_path / "net.json"
        save_network(tree22, net_path)
        axes = {"M_values": [1], "wc_ratios": [10.0], "gamma_lo_values": [0.5]}
        axis, values = _BAD_SWEEP_AXES[shape]
        axes[axis] = values
        # rejected when the config is built, before any row is solved
        with pytest.raises(ValueError):
            SweepConfig(**{k: tuple(v) for k, v in axes.items()})
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({**axes, "model": "lpf"}))
        out_path = tmp_path / "rows.csv"
        argv = ["sweep", "--config", str(cfg_path), "--network", str(net_path), "--out", str(out_path)]
        assert cli_main(argv) == 2
        assert "error:" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("config", [
        [1, 2],
        {"M_values": 5, "wc_ratios": [10.0], "gamma_lo_values": [0.5]},
        {"M_values": [1], "wc_ratios": [10.0], "gamma_lo_values": [0.5], "network": 5},
    ], ids=["top_level_list", "axis_not_a_list", "network_not_a_path"])
    def test_sweep_config_shape_exit_code(self, config, tmp_path, capsys, tree22):
        # each once exited 1 with a TypeError traceback
        net_path = tmp_path / "net.json"
        save_network(tree22, net_path)
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "rows.csv"
        argv = ["sweep", "--config", str(cfg_path), "--out", str(out_path)]
        if "network" not in config:
            argv += ["--network", str(net_path)]
        assert cli_main(argv) == 2
        assert "error: sweep" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_sweep_bad_worker_count_exit_code(self, workers, tmp_path, capsys, tree22):
        net_path = tmp_path / "net.json"
        save_network(tree22, net_path)
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({"M_values": [1], "wc_ratios": [10.0], "gamma_lo_values": [0.5]}))
        out_path = tmp_path / "rows.csv"
        argv = ["sweep", "--config", str(cfg_path), "--network", str(net_path), "--out", str(out_path),
                "--workers", workers]
        assert cli_main(argv) == 2
        assert "error: workers" in capsys.readouterr().err
        assert not out_path.exists()

    def _tree22_argv(self, tmp_path, tree22, command="solve-ad"):
        net_path = tmp_path / "net.json"
        save_network(tree22, net_path)
        return [command, "--network", str(net_path), "-M", "2", "--wc-ratio", "10"]

    def test_solve_ad_nonconvergent_exit_code(self, tmp_path, capsys, tree22, monkeypatch):
        def diverge(*args):
            raise NonConvergent(1e-3, 200)

        monkeypatch.setattr(dersec.cli, "solve_ad", diverge)
        assert cli_main(self._tree22_argv(tmp_path, tree22)) == 3
        assert "solver did not converge" in capsys.readouterr().err

    def test_solve_ad_unconverged_result_exit_code(self, tmp_path, capsys, tree22, monkeypatch):
        solve = dersec.cli.solve_ad
        monkeypatch.setattr(dersec.cli, "solve_ad",
                            lambda *args: dataclasses.replace(solve(*args), converged=False))
        assert cli_main(self._tree22_argv(tmp_path, tree22)) == 3
        assert json.loads(capsys.readouterr().out)["converged"] is False

    def test_verify_bounds_chain_broken_exit_code(self, tmp_path, capsys, tree22, monkeypatch):
        bounds = dersec.cli.sandwich_bounds
        monkeypatch.setattr(dersec.cli, "sandwich_bounds",
                            lambda *args, **kw: dataclasses.replace(bounds(*args, **kw), holds=False))
        assert cli_main(self._tree22_argv(tmp_path, tree22, "verify-bounds")) == 3
        assert json.loads(capsys.readouterr().out)["holds"] is False

    def test_verify_bounds_nonconvergent_exit_code(self, tmp_path, capsys, tree22, monkeypatch):
        bounds = dersec.cli.sandwich_bounds

        def unconverged(*args, **kw):
            report = bounds(*args, **kw)
            npf = dataclasses.replace(report.results["npf"], converged=False)
            return dataclasses.replace(report, results={**report.results, "npf": npf})

        monkeypatch.setattr(dersec.cli, "sandwich_bounds", unconverged)
        assert cli_main(self._tree22_argv(tmp_path, tree22, "verify-bounds")) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["holds"] is True and doc["converged"] is False

    def test_sweep_config_engine_key_ignored(self, tmp_path):
        net_path = tmp_path / "net.json"
        _cli("gen-case", "--kind", "balanced_tree", "--arity", "2", "--height", "2",
             "--out", str(net_path))
        grid = {"M_values": [0, 2], "wc_ratios": [10.0], "gamma_lo_values": [0.5], "model": "npf"}
        tables = []
        for extra in ({"engine": "iterative"}, {}):
            cfg_path = tmp_path / "sweep.json"
            cfg_path.write_text(json.dumps({**grid, **extra}))
            csv_path = tmp_path / "rows.csv"
            out = _cli("sweep", "--config", str(cfg_path), "--network", str(net_path),
                       "--out", str(csv_path))
            assert out.returncode == 0, out.stderr
            header, *rows = csv_path.read_text().strip().split("\n")
            skip = header.split(",").index("runtime_ms")
            tables.append([[c for k, c in enumerate(r.split(",")) if k != skip] for r in rows])
        assert tables[0] == tables[1]
        assert all(row[-1] == "" and row[3] == "npf" for row in tables[0])


def test_solvers_write_nothing_and_solve_ad_prints_one_document(capfd, tmp_path, tree22):
    # the CLI's stdout must stay one parseable document, so no solver may
    # write to fd 1 or 2 (capfd also captures writes from compiled code)
    params = CostParams.from_ratio(tree22, 10.0)
    het = random_feasible_network(9, identical_k=False)
    capfd.readouterr()
    assert solve_ad(tree22, None, 2, params, LPF).iterations == 1        # one-shot
    solve_ad(het, None, 2, CostParams.from_ratio(het, 10.0), LPF)         # exhaustive
    assert solve_ad(tree22, None, 2, params, NPF).model == NPF           # iterative
    solve_dad(tree22, 2, 2, params, LPF)
    assert capfd.readouterr() == ("", "")

    net_path = tmp_path / "net.json"
    save_network(tree22, net_path)
    out = _cli("solve-ad", "--network", str(net_path), "-M", "2", "--wc-ratio", "10")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["model"] == "lpf"


def test_solve_ad_npf_process_prints_one_document_and_nothing_else(tmp_path, tree22):
    # a fresh process with pipes also sees what compiled code flushes to fd 1
    # or 2 only at exit
    net_path = tmp_path / "net.json"
    save_network(tree22, net_path)
    out = _cli("solve-ad", "--network", str(net_path), "-M", "2", "--wc-ratio", "10",
               "--model", "npf")
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert json.loads(out.stdout)["model"] == "npf"


@pytest.mark.parametrize("case,M", [("homogeneous37", 6), ("random8", 1)])
def test_every_npf_entry_point_returns_the_same_result(tmp_path, case, M):
    # random_feasible_network(8) at M=1 is a point where the unseeded greedy
    # found a weaker attack (node 7) than the LPF-seeded one (node 1)
    net = homogeneous37() if case == "homogeneous37" else random_feasible_network(8)
    net_gl = with_gamma_lo(net, 0.5)
    params = CostParams.from_ratio(net_gl, 10.0)
    res = solve_ad(net_gl, None, M, params, NPF)
    want = (res.loss.total, _delta_string(net, res.delta_star))

    got = {}
    (row,) = run_sweep(net, SweepConfig(M_values=(M,), wc_ratios=(10.0,), gamma_lo_values=(0.5,),
                                        model="npf"))
    got["run_sweep"] = (row.total, row.delta_star)
    rep = sandwich_bounds(net_gl, None, M, params)
    got["sandwich_bounds"] = (rep.l_npf, _delta_string(net, rep.results["npf"].delta_star))
    comparison = compare_strategies(net_gl, np.zeros(net.n + 1, dtype=int), np.zeros(net.n + 1, dtype=int),
                                    M, params, NPF)
    net_path = tmp_path / "net.json"
    save_network(net, net_path)
    common = ("--network", str(net_path), "-M", str(M), "--wc-ratio", "10", "--gamma-lo", "0.5")
    doc = json.loads(_cli("solve-ad", *common, "--model", "npf").stdout)
    got["dersec solve-ad"] = (doc["loss"]["total"], doc["delta_star"])
    assert got == dict.fromkeys(got, want)
    assert (comparison.loss1, comparison.loss2) == (want[0], want[0])
    assert json.loads(_cli("verify-bounds", *common).stdout)["l_npf"] == want[0]
    if case == "random8":
        assert solve_ad_iterative(net_gl, None, M, params).loss.total < want[0]


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def _bench_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_bench_traced_names_stay_bound():
    # the bench tracer drops the metrics of a traced name that no longer
    # resolves, so a change that deletes one quietly changes the bench output
    tracer = _bench_tracer()
    assert tracer.TRACED
    for span, module_name, attr in tracer.TRACED:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part, None)
        assert callable(target), (span, module_name, attr)


@pytest.mark.parametrize("case", ["oneshot-linear", "security-plan-sym", "security-plan-het"])
def test_used_network_makes_every_traced_call(case):
    # the bench's traced run fails when a second pass over the same networks
    # makes fewer traced calls than the first, as a per-network store of a
    # traced call's result would; every traced count must repeat here too
    make, solve = {
        "oneshot-linear": (lambda: with_gamma_lo(homogeneous37(), 0.5),
                           lambda net, params: solve_ad_oneshot(net, None, 12, params, LPF)),
        "security-plan-sym": (lambda: balanced_tree(3, 2),
                              lambda net, params: solve_dad(net, 2, 2, params, LPF)),
        "security-plan-het": (lambda: random_feasible_network(9, identical_k=False),
                              lambda net, params: solve_dad(net, 1, 2, params, LPF)),
    }[case]
    net = make()
    params = CostParams.from_ratio(net, 10.0)
    counts = []
    for _ in range(2):
        tracer = _bench_tracer().Tracer()
        tracer.install()
        try:
            solve(net, params)
        finally:
            tracer.uninstall()
        assert not tracer.absent
        counts.append(dict(tracer.calls))
    assert counts[0] == counts[1]
    assert counts[0]["response.linprog"] > 0 and counts[0]["attack.impact_matrix"] > 0


def test_bench_call_shapes_stay_valid():
    # the bench tracer names an optimal_response span from its model, read
    # as the fourth positional argument, and the bench workloads build their
    # cases and call these entry points positionally; a signature change
    # there breaks the bench run, not this suite's own calls
    assert list(inspect.signature(optimal_response).parameters)[3] == "model"
    net, params, psi, phi, delta = (object() for _ in range(5))
    calls = (
        (solve_ad_oneshot, (net, None, 3, params, LPF), {}),
        (solve_ad_iterative, (net, None, 3, params), {"seed_attack": delta}),
        (solve_dad, (net, 1, 2, params, LPF), {}),
        (response_state, (net, psi, phi, NPF), {}),
        (homogeneous37, (), {}),
        (balanced_tree, (2, 3), {}),
        (random_feasible_network, (0,), {"identical_k": True}),
        (with_gamma_lo, (net, 0.5), {}),
        (CostParams.from_ratio, (net, 10.0), {}),
        (save_network, (net, "feeder.json"), {}),
    )
    for fn, args, kwargs in calls:
        inspect.signature(fn).bind(*args, **kwargs)


def test_bench_seed_attacks_stay_valid(monkeypatch):
    # iterative-npf seeds every solve with the reference's LPF attack; a seed
    # the engine rejects raises inside the bench run, so check each one here
    # and stop each solve at its first response
    class Checked(Exception):
        pass

    def stop(*args):
        raise Checked

    monkeypatch.setattr(dersec.game, "optimal_response", stop)
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
    points = json.loads(path.read_text())["feeder"]["points"]
    feeder = homogeneous37()
    assert len(points) == 90
    for key, ref in points.items():
        gl, wc, M = key.split("|")
        net = with_gamma_lo(feeder, float(gl))
        seed = np.zeros(net.n + 1, dtype=int)
        seed[ref["lpf_delta"]] = 1
        with pytest.raises(Checked):
            solve_ad_iterative(net, None, int(M), CostParams.from_ratio(net, float(wc)), seed_attack=seed)
