import io
import json
import math
import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    reference_sweep_rows,
    reference_verdict,
    trajectory_csv,
    whole_run_samples,
)
from platoonkit import (
    NumericalError,
    ParameterError,
    build_platoon,
    dde_sim,
    eig_sym,
    ground,
    make_reference_set,
    robustness,
)
from platoonkit.cli import main
from platoonkit.experiments import (
    COMMANDS,
    KEYS,
    ScenarioConfig,
    _fmt,
    _sweep_rows,
    emit_config,
    finalize_config,
    fit_loglog,
    load_config_file,
    run_delay_grid,
    run_remove_add_sweep,
    run_report,
    run_scaling,
    run_simulate,
    run_verify,
)

TWO_OVER_SQRT3 = 2.0 / math.sqrt(3.0)
# a small run of each platoon subcommand
QUICK = {
    "report": ["--n", "5", "--k", "2"],
    "sweep-remove": ["--n", "5", "--k", "2"],
    "sweep-add": ["--n", "5", "--k", "2"],
    "delay-grid": ["--n", "5", "--k", "2", "--taus", "0.1", "--horizon", "1"],
    "scaling": ["--n", "8", "--k", "1", "--ns", "8,9,10,11,12"],
    "simulate": ["--n", "5", "--k", "2", "--horizon", "1"],
}
# the refusal of a run of more than dde_sim.MAX_STEPS steps
TOO_LONG = f"longer than the {dde_sim.MAX_STEPS:,} steps one run may take"


class TestConfig:
    def test_file_parse_and_merge(self, tmp_path):
        cfg_file = tmp_path / "scenario.cfg"
        cfg_file.write_text(
            "[platoon]\n"
            "n = 36\n"
            "k = 4\n"
            "arrangement = md\n"
            "\n"
            "[experiment]\n"
            "name = delay-grid\n"
            "taus = 0.05 0.09, 0.1 0.4\n"
            "seed = 7\n"
            "\n"
            "[output]\n"
            "dir = out\n"
        )
        raw = load_config_file(str(cfg_file))
        cfg = finalize_config(raw, "delay-grid")
        assert cfg.n == 36 and cfg.k == 4
        assert cfg.experiment == "delay-grid"
        assert cfg.taus == (0.05, 0.09, 0.1, 0.4)
        assert cfg.seed == 7 and cfg.outdir == "out"

    def test_validations(self):
        with pytest.raises(ParameterError, match="must supply n and k"):
            finalize_config({"n": "5"}, "report")
        with pytest.raises(ParameterError, match="the report subcommand does not read bogus"):
            finalize_config({"n": "5", "k": "2", "bogus": "1"}, "report")
        with pytest.raises(ParameterError, match="nonempty taus"):
            finalize_config({"n": "5", "k": "2"}, "delay-grid")
        with pytest.raises(ParameterError, match="at least 5"):
            finalize_config({"n": "5", "k": "2", "ns": "8 16"}, "scaling")
        with pytest.raises(ParameterError, match="at least 5 distinct n values, got 1"):
            finalize_config({"n": "5", "k": "2", "ns": "8 8 8 8 8"}, "scaling")
        with pytest.raises(ParameterError, match="requires refs"):
            finalize_config({"n": "5", "k": "2", "arrangement": "explicit"}, "report")
        with pytest.raises(ParameterError, match="refs require arrangement=explicit"):
            finalize_config({"n": "5", "k": "2", "refs": "3"}, "report")
        assert finalize_config({"n": "5", "k": "2", "sweep_csv": "On"}, "report").sweep_csv is True
        with pytest.raises(ParameterError, match="bad value for sweep_csv: 'maybe'"):
            finalize_config({"n": "5", "k": "2", "sweep_csv": "maybe"}, "report")
        # the experiment is not a flag: a foreign one can only come this way
        with pytest.raises(ParameterError, match=re.escape(
                "the report subcommand runs name = report, not 'bogus'")):
            finalize_config({"n": "5", "k": "2", "experiment": "bogus"}, "report")
        with pytest.raises(ParameterError, match="the scaling subcommand runs name = scaling, "
                           "not 'delay-grid'"):
            finalize_config({"n": "5", "k": "2", "experiment": "delay-grid",
                             "ns": "8 16 32 64 128"}, "scaling")
        with pytest.raises(ParameterError):
            finalize_config({"n": "5", "k": "2", "refs": "0", "arrangement": "explicit"}, "report")
        with pytest.raises(ParameterError, match="self-undelayed mode applies to the velocity"):
            finalize_config({"n": "5", "k": "2", "dynamics": "formation", "tau": "0.1",
                             "delay_mode": "self-undelayed"}, "simulate")

    def test_one_row_per_config_field(self):
        assert tuple(KEYS) == tuple(f.name for f in fields(ScenarioConfig))
        for cmd in COMMANDS.values():
            assert set(cmd.keys) <= set(KEYS)

    @pytest.mark.parametrize("argv", [
        ["report", "--n", "36", "--k", "4", "--arrangement", "md", "--seed", "0",
         "--gamma", "1.0", "--sweep-csv", "--out", "battery/report"],
        ["sweep-remove", "--n", "36", "--k", "4", "--seed", "3", "--out", "o"],
        ["sweep-add", "--n", "5", "--k", "2", "--arrangement", "explicit", "--refs", "2,4"],
        ["delay-grid", "--n", "10", "--k", "2", "--taus", "0,0.1", "--horizon", "40",
         "--step", "0.002"],
        ["scaling", "--n", "8", "--k", "1", "--ns", "8,16,32,64,128", "--seed", "2"],
        ["simulate", "--n", "36", "--k", "4", "--dynamics", "velocity", "--tau", "5",
         "--delay-mode", "self-undelayed", "--horizon", "500", "--step", "0.005",
         "--disturbance", "sin", "--amplitude", "0.3", "--omega", "1.7"],
    ], ids=lambda argv: argv[0])
    def test_emit_config_round_trips(self, tmp_path, capsys, argv):
        assert main([*argv, "--emit-config"]) == 0
        text = capsys.readouterr().out
        cfg_file = tmp_path / "emitted.cfg"
        cfg_file.write_text(text)
        assert main([argv[0], "--config", str(cfg_file), "--emit-config"]) == 0
        assert capsys.readouterr().out == text

    def test_explicit_and_single_arrangements(self):
        cfg = finalize_config({"n": "5", "k": "2", "arrangement": "explicit", "refs": "3"},
                              "report")
        assert cfg.reference_set().refs == (3,)
        # one chosen reference is an explicit set of one; "single" is no arrangement
        cfg = finalize_config({"n": "5", "k": "2", "arrangement": "explicit", "refs": "2"},
                              "report")
        assert cfg.reference_set().refs == (2,)
        with pytest.raises(ParameterError, match="arrangement must be one of"):
            finalize_config({"n": "5", "k": "2", "arrangement": "single"}, "report")
        with pytest.raises(ParameterError, match="the report subcommand does not read position"):
            finalize_config({"n": "5", "k": "2", "position": "2"}, "report")


class TestRunners:
    def test_report_desk_values(self, tmp_path):
        cfg = ScenarioConfig(n=36, k=4)
        run_report(cfg, tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert abs(doc["lambda1"] - 1.0) <= 1e-9
        assert abs(doc["hinf_velocity"] - 1.0) <= 1e-9
        assert abs(doc["hinf_formation"] - TWO_OVER_SQRT3) <= 1e-9
        assert doc["min_refs_nonexpansive"] == 4
        summary = (tmp_path / "report.txt").read_text()
        assert "P(36,4)" in summary and "references [5, 14, 23, 32]" in summary

    def test_report_p52_hand_values(self, tmp_path):
        cfg = ScenarioConfig(n=5, k=2, arrangement="explicit", refs=(3,))
        run_report(cfg, tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        hand = [1.0, 3 - math.sqrt(2), 3.0, 3 + math.sqrt(2)]
        assert doc["lg_spectrum"] == pytest.approx(hand, abs=1e-9)
        assert doc["delay_velocity_max"] == pytest.approx(0.35584964447221523)

    def test_hinf_sweep_files(self, tmp_path):
        cfg = ScenarioConfig(n=10, k=2, sweep_csv=True)
        paths = run_report(cfg, tmp_path)
        assert (tmp_path / "freq_velocity.csv").exists()
        assert (tmp_path / "freq_formation.csv").exists()
        head = (tmp_path / "freq_velocity.csv").read_text().splitlines()[0]
        assert head == "omega,gain"
        assert len(paths) == 4

    def test_report_sweeps_each_dynamics_once(self, tmp_path, monkeypatch):
        # the report's peaks and the frequency CSVs come from the same sweeps
        calls = []
        sweep = robustness.sweep_hinf

        def counted(gs, dynamics, *args, **kwargs):
            calls.append(dynamics)
            return sweep(gs, dynamics, *args, **kwargs)

        monkeypatch.setattr(robustness, "sweep_hinf", counted)
        run_report(ScenarioConfig(n=12, k=2, sweep_csv=True), tmp_path)
        assert sorted(calls) == ["formation", "velocity"]
        doc = json.loads((tmp_path / "report.json").read_text())
        for dyn in ("velocity", "formation"):
            gains = np.loadtxt(tmp_path / f"freq_{dyn}.csv", delimiter=",", skiprows=1)[:, 1]
            assert doc["swept"][f"{dyn}_peak"] == pytest.approx(gains.max(), rel=1e-11)

    def test_remove_sweep_breaks_bound(self, tmp_path):
        cfg = ScenarioConfig(n=10, k=2)  # MD refs {3, 8}
        run_remove_add_sweep(cfg, "remove", tmp_path)
        lines = (tmp_path / "sweep_remove.csv").read_text().splitlines()
        assert lines[1] == "position,lambda1,hinf_velocity,hinf_formation"
        rows = [line.split(",") for line in lines[2:]]
        assert [int(r[0]) for r in rows] == [3, 8]
        assert all(float(r[2]) > 1.0 for r in rows)

    def test_add_sweep_strictly_improves(self, tmp_path):
        cfg = ScenarioConfig(n=10, k=2)
        run_remove_add_sweep(cfg, "add", tmp_path)
        lines = (tmp_path / "sweep_add.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 8
        assert all(float(r[2]) < 1.0 for r in rows)

    def test_sweep_requires_md(self, tmp_path):
        cfg = ScenarioConfig(n=10, k=2, arrangement="explicit", refs=(1,))
        with pytest.raises(ParameterError, match="requires arrangement=md"):
            run_remove_add_sweep(cfg, "remove", tmp_path)

    def test_delay_grid_zero_delay_stable(self, tmp_path):
        cfg = ScenarioConfig(
            n=5, k=2, arrangement="explicit", refs=(3,),
            experiment="delay-grid", taus=(0.0,), horizon=40.0, step=0.002,
        )
        run_delay_grid(cfg, tmp_path)
        lines = (tmp_path / "delay_grid.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 2
        assert all(r[2] == "true" for r in rows)  # both dynamics stable

    def test_delay_grid_scalar_flip_within_one_cell(self, tmp_path):
        # scalar instance: exact boundary pi/2; the verdict must flip inside
        # the grid cell containing it
        taus = (1.3, 1.5, 1.7, 1.9)
        cfg = ScenarioConfig(
            n=2, k=1, arrangement="explicit", refs=(1,),
            experiment="delay-grid", taus=taus, horizon=400.0, step=0.01,
        )
        run_delay_grid(cfg, tmp_path)
        lines = (tmp_path / "delay_grid.csv").read_text().splitlines()
        verdicts = {}
        for line in lines[2:]:
            cells = line.split(",")
            if cells[1] == "velocity":
                verdicts[float(cells[0])] = cells[2] == "true"
        flips = [
            (a, b) for a, b in zip(taus, taus[1:]) if verdicts[a] and not verdicts[b]
        ]
        assert len(flips) == 1
        lo, hi = flips[0]
        assert lo <= math.pi / 2 <= hi

    def test_delay_grid_annotations(self, tmp_path):
        cfg = ScenarioConfig(
            n=5, k=2, arrangement="explicit", refs=(3,),
            experiment="delay-grid", taus=(0.01, 3.0), horizon=40.0, step=0.002,
        )
        run_delay_grid(cfg, tmp_path)
        lines = (tmp_path / "delay_grid.csv").read_text().splitlines()
        header = lines[1].split(",")
        assert header[-5:] == ["below_pi_8k", "below_pi_2k", "below_inv_4k", "below_pi_2lmax",
                               "below_formation_exact"]
        small = lines[2].split(",")
        big = lines[4].split(",")
        assert small[-5:] == ["true", "true", "true", "true", "true"]
        assert big[-5:] == ["false", "false", "false", "false", "false"]

    def test_delay_grid_never_simulates(self, tmp_path, monkeypatch):
        # each run is classified by verdict, which holds the delay window
        # and one chunk of rows, never by a whole-run trajectory
        def no_simulate(*args, **kwargs):
            raise AssertionError("run_delay_grid called simulate")

        monkeypatch.setattr(dde_sim, "simulate", no_simulate)
        real_verdict = dde_sim.verdict
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real_verdict(*args, **kwargs)

        monkeypatch.setattr(dde_sim, "verdict", counted)
        cfg = ScenarioConfig(
            n=5, k=2, arrangement="explicit", refs=(3,),
            experiment="delay-grid", taus=(0.0, 0.1, 0.5), horizon=20.0, step=0.01,
        )
        run_delay_grid(cfg, tmp_path)
        assert [d.tau for d in calls] == [0.0, 0.0, 0.1, 0.1, 0.5, 0.5]

    def test_report_gamma_line(self, tmp_path, capsys):
        assert main(["report", "--n", "36", "--k", "4", "--gamma", "1.0",
                     "--out", str(tmp_path)]) == 0
        assert ("gamma = 1: necessary_ok = false, sufficient_ok = false, boundary_case = true"
                in (tmp_path / "report.txt").read_text().splitlines())

    def test_scaling_small(self, tmp_path):
        cfg = ScenarioConfig(n=8, k=1, experiment="scaling", ns=(8, 12, 16, 20, 24))
        run_scaling(cfg, tmp_path)
        doc = json.loads((tmp_path / "scaling.json").read_text())
        assert doc["md"]["velocity_bound_ok"] is True
        assert doc["md"]["formation_bound_ok"] is True
        assert doc["single"]["velocity"]["slope"] > 1.5
        lines = (tmp_path / "scaling.csv").read_text().splitlines()
        assert lines[1] == "n,arrangement,lambda1,hinf_velocity,hinf_formation"
        assert len(lines) == 2 + 2 * 5


def sweep_outcome(sweep, n, k, mode):
    """The rows of one sweep as the hex of each cell, so that equal means
    bit for bit, or the message of the ParameterError that refused it."""
    try:
        return [[float(cell).hex() for cell in row] for row in sweep(n, k, mode)]
    except ParameterError as exc:
        return str(exc)


def gathered(n, k, mode):
    return _sweep_rows(ScenarioConfig(n=n, k=k), mode)


class TestSweepRows:
    """_sweep_rows gathers each position's grounded Laplacian from one
    platoon Laplacian; conftest.reference_sweep_rows grounds each position
    anew, as the sweeps did before."""

    @pytest.mark.parametrize("mode", ["remove", "add"])
    @pytest.mark.parametrize("n, k", [(36, 4), (48, 2)])
    def test_md_platoons_match_the_per_position_path(self, n, k, mode):
        got = sweep_outcome(gathered, n, k, mode)
        assert isinstance(got, list) and got
        assert got == sweep_outcome(reference_sweep_rows, n, k, mode)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_platoons_match_the_per_position_path(self, seed):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(2, 41)), int(rng.integers(1, 7))
        for mode in ("remove", "add"):
            assert (sweep_outcome(gathered, n, k, mode)
                    == sweep_outcome(reference_sweep_rows, n, k, mode)), (n, k, mode)

    @pytest.mark.parametrize("n, k", [(2, 1), (3, 1), (5, 2), (7, 3), (4, 6)])
    def test_removing_the_only_reference_gives_unbounded_gains(self, n, k):
        pos = (n + 1) // 2  # the one MD reference, at the platoon's middle
        assert gathered(n, k, "remove") == [[pos, 0.0, math.inf, math.inf]]
        assert reference_sweep_rows(n, k, "remove") == [[pos, 0.0, math.inf, math.inf]]

    def test_adding_the_last_follower_is_refused(self, tmp_path, capsys):
        message = "no followers left: all vehicles are references"
        with pytest.raises(ParameterError, match=message):
            gathered(2, 1, "add")
        assert sweep_outcome(reference_sweep_rows, 2, 1, "add") == message
        assert main(["sweep-add", "--n", "2", "--k", "1", "--out", str(tmp_path / "o")]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["remove", "add"])
    def test_peak_within_the_platoon_charge(self, mode):
        # topology._check_size charges a platoon four n x n float arrays; a
        # sweep holds its Laplacian across all its positions within that
        n = 300
        gathered(12, 3, mode)  # untraced: a first call also loads what later calls reuse
        tracemalloc.start()
        try:
            gathered(n, 3, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * n * n


class TestFitLoglog:
    def test_exact_power_law(self):
        ns = [8, 16, 32, 64, 128]
        vals = [0.5 * n ** 2 for n in ns]
        fit = fit_loglog(ns, vals)
        assert fit["slope"] == pytest.approx(2.0, abs=1e-12)
        assert not fit["excluded_smallest"]

    def test_outlier_smallest_excluded(self):
        # a boundary-effect outlier at the smallest n gets dropped once there
        # are enough clean points for its residual to exceed 3x the median
        ns = [2 ** p for p in range(2, 11)]
        vals = [100.0 * ns[0] ** 3] + [float(n ** 3) for n in ns[1:]]
        fit = fit_loglog(ns, vals)
        assert fit["excluded_smallest"]
        assert fit["slope"] == pytest.approx(3.0, abs=1e-9)


class TestCli:
    def test_report_and_determinism(self, tmp_path, capsys):
        args = ["report", "--n", "36", "--k", "4", "--out", str(tmp_path / "a")]
        assert main(args) == 0
        assert main(["report", "--n", "36", "--k", "4", "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "s.cfg"
        cfg_file.write_text("[platoon]\nn = 10\nk = 2\n")
        code = main(["report", "--config", str(cfg_file), "--n", "12", "--emit-config"])
        assert code == 0
        out = capsys.readouterr().out
        assert "n = 12" in out and "k = 2" in out

    def test_unreadable_config_file_exit_2(self, tmp_path, capsys):
        assert main(["report", "--config", str(tmp_path), "--n", "5", "--k", "2"]) == 2
        assert f"error: cannot read config file {tmp_path}" in capsys.readouterr().err

    def test_parameter_error_exit_2(self, tmp_path, capsys):
        code = main(["report", "--n", "5", "--k", "2", "--arrangement", "explicit",
                     "--refs", "0", "--out", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_n_exit_2(self, tmp_path, capsys):
        assert main(["report", "--k", "2", "--out", str(tmp_path)]) == 2

    def test_numerical_error_exit_3(self, tmp_path, capsys, monkeypatch):
        import platoonkit.cli as cli_mod

        def boom(cfg, outdir):
            raise NumericalError("eigensolver did not converge")

        monkeypatch.setattr(cli_mod.experiments, "run_report", boom)
        code = main(["report", "--n", "5", "--k", "2", "--out", str(tmp_path)])
        assert code == 3

    def test_simulate_writes_trajectory(self, tmp_path, capsys):
        code = main([
            "simulate", "--n", "5", "--k", "2", "--arrangement", "explicit",
            "--refs", "3", "--dynamics", "velocity", "--tau", "0.1",
            "--horizon", "20", "--step", "0.005", "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("# n=5, k=2, kind=velocity")
        assert lines[1].startswith("t,norm,x_1")
        assert "stable=true" in (tmp_path / "verdict.txt").read_text()

    def test_delay_grid_cli_and_determinism(self, tmp_path, capsys):
        argv = ["delay-grid", "--n", "5", "--k", "2", "--arrangement", "explicit",
                "--refs", "3", "--taus", "0,0.2", "--horizon", "40",
                "--step", "0.002", "--seed", "5"]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "delay_grid.csv").read_bytes()
        b = (tmp_path / "b" / "delay_grid.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize("argv", [
        ["simulate", "--tau", "nan"],
        ["delay-grid", "--taus", "0.1,nan"],
        ["simulate", "--tau", "0.1", "--horizon", "inf"],
        ["simulate", "--tau", "0.1", "--step", "nan"],
        ["simulate", "--tau", "inf"],
        ["report", "--gamma", "nan"],
        ["simulate", "--tau", "0.1", "--horizon", "20", "--disturbance", "noise",
         "--amplitude", "inf"],
        ["simulate", "--tau", "0.1", "--horizon", "20", "--disturbance", "sin",
         "--amplitude", "nan"],
        ["simulate", "--tau", "0.1", "--horizon", "20", "--disturbance", "sin",
         "--amplitude", "1", "--omega", "inf"],
        ["simulate", "--dynamics", "formation", "--delay-mode", "self-undelayed",
         "--tau", "0.1"],
        ["simulate", "--tau", "abc"],
        ["simulate", "--n", "5.0"],
        ["simulate", "--delay-mode", "bogus"],
    ])
    def test_non_finite_delay_inputs_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        # rejected with the config, before any platoon is built; so are a
        # mode the dynamics lacks and flag values that do not parse, which
        # returns 2 instead of raising SystemExit
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the config was rejected")

        monkeypatch.setattr("platoonkit.experiments._analysis", no_work)
        code = main(argv[:1] + ["--n", "5", "--k", "2", "--out", str(tmp_path)] + argv[1:])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "verdict.txt").exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--seed", "-1"],
        ["report", "--n", "1"],
        ["report", "--arrangement", "explicit", "--refs", "0"],
        ["scaling", "--ns", "8,16,32,64,1"],
        ["report", "--gamma", "0"],
        ["simulate", "--tau", "-0.1"],
        ["simulate", "--step", "0"],
        ["report", "--gamma", "1e-320"],  # 1/gamma overflows to inf
        ["simulate", "--disturbance", "noise", "--amplitude", "-0.3", "--horizon", "20"],
        # the draws span 2 * amplitude, which overflows
        ["simulate", "--disturbance", "noise", "--amplitude", "9e307", "--horizon", "20"],
        # omega t overflows at t = 1.798, and sin(inf) is NaN
        ["simulate", "--disturbance", "sin", "--amplitude", "0.3", "--omega", "1e308",
         "--horizon", "20"],
    ])
    def test_out_of_range_config_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        # refused from the table of bounds, or by the disturbance, before any
        # platoon is built
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the config was rejected")

        monkeypatch.setattr("platoonkit.experiments._analysis", no_work)
        monkeypatch.setattr("platoonkit.experiments._norms_for", no_work)
        monkeypatch.setattr("platoonkit.topology.build_platoon", no_work)
        # verify takes no platoon flags
        platoon = [] if argv[0] == "verify" else ["--n", "5", "--k", "2", "--out", str(tmp_path)]
        code = main(argv[:1] + platoon + argv[1:])
        assert code == 2
        assert "must be a finite" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("argv, name", [
        (["simulate", "--tau", "5e-324"], "tau"),
        (["delay-grid", "--taus", "0.1,1e-320", "--horizon", "20"], "taus"),
    ])
    def test_delay_whose_default_step_underflows_exit_2(self, tmp_path, capsys, monkeypatch,
                                                        argv, name):
        # tau / 40 underflows: refused under the delay's own name, before any
        # run (delay-grid would otherwise simulate tau = 0.1 first)
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the config was rejected")

        monkeypatch.setattr("platoonkit.experiments._analysis", no_work)
        code = main(argv[:1] + ["--n", "5", "--k", "2", "--out", str(tmp_path)] + argv[1:])
        assert code == 2
        assert f"error: {name} value" in capsys.readouterr().err
        # with a step given, the delay rounds to zero steps and runs undelayed
        monkeypatch.undo()
        assert main(["simulate", "--n", "5", "--k", "2", "--tau", "5e-324", "--step", "0.01",
                     "--horizon", "1", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("argv, key", [
        (["report", "--arrangement", "bogus"], "arrangement"),
        (["simulate", "--dynamics", "bogus"], "dynamics"),
        (["simulate", "--delay-mode", "bogus"], "delay_mode"),
        (["simulate", "--disturbance", "bogus"], "disturbance"),
        # removed spellings: an undelayed run is --tau 0, one chosen
        # reference is --arrangement explicit --refs p
        (["simulate", "--delay-mode", "none"], "delay_mode"),
        (["report", "--arrangement", "single"], "arrangement"),
        (["report", "--position", "2"], "--position"),
        # refs are read only with arrangement=explicit
        (["report", "--refs", "1"], "refs"),
    ])
    def test_bad_choice_or_unread_refs_exit_2(self, tmp_path, capsys, monkeypatch, argv, key):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the config was rejected")

        monkeypatch.setattr("platoonkit.experiments._analysis", no_work)
        code = main(argv[:1] + ["--n", "10", "--k", "1", "--out", str(tmp_path)] + argv[1:])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and key in err.split("error:", 1)[1]
        assert not list(tmp_path.iterdir())

    def test_refs_without_explicit_in_config_file_exit_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "s.cfg"
        cfg_file.write_text("[platoon]\nn = 10\nk = 1\nrefs = 1\n")
        out = tmp_path / "out"
        assert main(["report", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert "error: refs require arrangement=explicit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sweep-add", "--n", "8", "--k", "1", "--arrangement", "explicit", "--refs", "3"],
        ["delay-grid", "--n", "5", "--k", "2", "--taus", "0.1,1e-10", "--horizon", "20"],
    ])
    def test_refused_run_leaves_no_directory_it_made(self, tmp_path, capsys, argv):
        # each runner refuses after cli.main has made --out
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        # a directory that was there before stays
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert tmp_path.is_dir()

    def test_refused_run_leaves_no_parent_it_made(self, tmp_path, capsys, monkeypatch):
        # mkdir makes every missing parent of --out; the refused run removes
        # them all, and keeps the one that was there before
        monkeypatch.chdir(tmp_path)
        argv = ["sweep-add", "--n", "8", "--k", "1", "--arrangement", "explicit", "--refs", "3"]
        assert main(argv + ["--out", "nest/a/b"]) == 2
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        (tmp_path / "nest").mkdir()
        assert main(argv + ["--out", "nest/a/b"]) == 2
        assert list(tmp_path.iterdir()) == [tmp_path / "nest"]
        assert not list((tmp_path / "nest").iterdir())

    @pytest.mark.parametrize("beneath", [False, True], ids=["file", "beneath-a-file"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_that_is_or_is_beneath_a_file_exit_2(self, tmp_path, capsys, command, beneath):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / "sub" if beneath else afile
        assert main([command, *QUICK[command], "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert afile.read_text() == "kept\n"
        assert list(tmp_path.iterdir()) == [afile]

    def test_scaling_needs_five_distinct_sizes(self, tmp_path, capsys, monkeypatch):
        # five copies of one size would fit each log-log slope to one point
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("an eigensolve ran before the config was rejected")

        monkeypatch.setattr("platoonkit.spectral.eig_sym", no_eigensolve)
        assert main(["scaling", "--n", "8", "--k", "1", "--ns", "8,8,8,8,8",
                     "--out", str(tmp_path)]) == 2
        assert "distinct n values, got 1" in capsys.readouterr().err

    def test_self_undelayed_formation_without_delay_runs(self, tmp_path, capsys):
        # tau = 0 runs undelayed in any mode, so the mode is not refused
        assert main(["simulate", "--n", "5", "--k", "2", "--dynamics", "formation",
                     "--delay-mode", "self-undelayed", "--horizon", "1",
                     "--out", str(tmp_path)]) == 0

    def test_delay_grid_checks_every_run_before_the_first(self, tmp_path, capsys, monkeypatch):
        # tau = 1e-10 takes the default step 2.5e-12: 8e12 steps over the
        # horizon, refused before tau = 0.1 is simulated
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before every run was checked")

        monkeypatch.setattr("platoonkit.dde_sim.simulate", no_run)
        monkeypatch.setattr("platoonkit.dde_sim.verdict", no_run)
        argv = ["delay-grid", "--n", "5", "--k", "2", "--taus", "0.1,1e-10", "--horizon", "20",
                "--out", str(tmp_path)]
        assert main(argv) == 2
        assert TOO_LONG in capsys.readouterr().err
        assert not (tmp_path / "delay_grid.csv").exists()

    def test_delay_grid_too_many_steps_is_refused_by_length(self, tmp_path, capsys, monkeypatch):
        # 1e10 steps: the verdict's buffer of 2m + 4 = 20,004 rows would fit,
        # so the refusal names the steps and their bound, not memory
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr("platoonkit.dde_sim.verdict", no_run)
        out = tmp_path / "grid"
        argv = ["delay-grid", "--n", "36", "--k", "4", "--taus", "0.1", "--horizon", "100000",
                "--step", "0.00001", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "a run of 1e+10 steps, with 1e+04 more for its delay," in err
        assert TOO_LONG in err
        assert "GiB" not in err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [[], ["--disturbance", "sin", "--amplitude", "0.1"]])
    @pytest.mark.parametrize("horizon", ["1e14", "1e300"])
    def test_buffers_too_large_exit_2(self, tmp_path, capsys, extra, horizon):
        # 1e15 steps of a 4-dimensional state is 28 PiB of history alone;
        # 1e300 / 0.1 steps does not fit a machine integer
        argv = ["simulate", "--n", "5", "--k", "2", "--tau", "0.1", "--horizon", horizon,
                "--step", "0.1", "--out", str(tmp_path)]
        assert main(argv + extra) == 2
        assert TOO_LONG in capsys.readouterr().err
        assert not (tmp_path / "verdict.txt").exists()

    def test_failed_allocation_exit_2(self, tmp_path, capsys, monkeypatch):
        # a buffer that fits physical memory but not the process's limits:
        # the streamed run's sliding buffer, its delay window of m + 5 = 105
        # rows plus one chunk of rows, is refused; smaller arrays are not
        real_empty = np.empty
        refused = []

        def refuse_window(shape, *args, **kwargs):
            rows = int(np.atleast_1d(shape)[0])
            if rows >= dde_sim._CHUNK_ROWS:
                refused.append(rows)
                raise MemoryError
            return real_empty(shape, *args, **kwargs)

        monkeypatch.setattr("platoonkit.dde_sim.np.empty", refuse_window)
        argv = ["simulate", "--n", "5", "--k", "2", "--tau", "0.1", "--horizon", "20",
                "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "cannot allocate" in capsys.readouterr().err
        assert refused == [105 + dde_sim._CHUNK_ROWS]
        assert not (tmp_path / "trajectory.csv").exists()
        assert not (tmp_path / "verdict.txt").exists()

    def test_platoon_too_large_for_memory_exit_2(self, tmp_path, capsys, monkeypatch):
        # with 4 MiB of memory, the 5000 x 5000 Laplacian is refused before
        # the reference set or any array is built
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the size was refused")

        monkeypatch.setattr("platoonkit.errors._physical_memory", lambda: 4.0 * 2**20)
        monkeypatch.setattr("platoonkit.topology.make_reference_set", no_work)
        monkeypatch.setattr("platoonkit.topology.PlatoonTopology.laplacian", no_work)
        assert main(["report", "--n", "5000", "--k", "1", "--out", str(tmp_path)]) == 2
        assert "GiB of buffers" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_out_of_memory_exit_2(self, tmp_path, capsys, monkeypatch):
        # a Laplacian that fits physical memory but not the process's limits
        def refuse(self):
            raise MemoryError("Unable to allocate 1.68 GiB for an array")

        monkeypatch.setattr("platoonkit.topology.PlatoonTopology.laplacian", refuse)
        assert main(["report", "--n", "5", "--k", "2", "--out", str(tmp_path)]) == 2
        assert "error: Unable to allocate" in capsys.readouterr().err

    def test_verify_violation_exit_4(self, capsys, monkeypatch):
        import platoonkit.cli as cli_mod

        def broken():
            return ["some check"], ["verify FAIL: some check"]

        monkeypatch.setattr(cli_mod.experiments, "run_verify", broken)
        assert main(["verify"]) == 4

    def test_failing_check_fails_verify(self, capsys, monkeypatch):
        monkeypatch.setattr("platoonkit.robustness.min_refs_nonexpansive", lambda n, k: 5)
        assert main(["verify"]) == 4
        captured = capsys.readouterr()
        assert "verify FAIL: P(36,4) min refs = 4" in captured.out.splitlines()
        assert captured.err == "verification FAILED: 1 check(s)\n"

    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        assert "verification passed" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--n", "5", "--k", "2", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["simulate", "--tau"], "argument --tau: expected one argument"),
        ([], "required: command"),
        # verify draws from one fixed seed, and takes no option
        (["verify", "--seed", "1"], "unrecognized arguments: --seed 1"),
    ])
    def test_malformed_command_line_returns_2(self, capsys, argv, message):
        # returned, not raised as SystemExit, with argparse's usage message
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: platoonkit")
        assert message in err

    @pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
    def test_help_returns_0(self, capsys, argv):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: platoonkit")
        assert "--help" in out

    def test_scenario_json_flag_is_gone(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text('{"n": 5, "k": 2, "refs": [3]}')
        assert main(["report", "--scenario", str(scenario), "--emit-config"]) == 2
        assert "unrecognized arguments: --scenario" in capsys.readouterr().err
        # the flags say what the JSON fragment said, to the emitted byte
        assert main(["report", "--n", "5", "--k", "2", "--arrangement", "explicit",
                     "--refs", "3", "--emit-config"]) == 0
        assert capsys.readouterr().out == (
            "[platoon]\nn = 5\nk = 2\narrangement = explicit\nrefs = 3\n\n"
            "[experiment]\n\n[output]\n\n")

    @pytest.mark.parametrize("argv, config, error", [
        (["sweep-add"], "[platoon]\nn = 10\nk = 1\n[experiment]\ntau = 5\n"
         "dynamics = formation\nns = 8 16\nhorizon = 3\ngamma = 0.5\n",
         "error: the sweep-add subcommand does not read tau, dynamics, ns, horizon, gamma"),
        (["scaling", "--n", "8", "--k", "1", "--ns", "8,16,32,64,128", "--arrangement",
          "explicit", "--refs", "3"], None,
         "platoonkit scaling: error: unrecognized arguments: --arrangement explicit --refs 3"),
        (["scaling", "--ns", "8,16,32,64,128"], "[platoon]\nn = 8\nk = 1\n"
         "arrangement = explicit\nrefs = 3\n",
         "error: the scaling subcommand does not read arrangement, refs"),
        (["scaling", "--n", "8", "--k", "1", "--ns", "8,16,32,64,128", "--arrangement", "md"],
         None, "platoonkit scaling: error: unrecognized arguments: --arrangement md"),
        (["delay-grid", "--taus", "0.1"], "[platoon]\nn = 5\nk = 2\n[experiment]\n"
         "name = scaling\n",
         "error: the delay-grid subcommand runs name = delay-grid, not 'scaling'"),
        # an undisturbed run reads neither disturbance key, noise no omega
        (["simulate", "--n", "8", "--k", "1", "--amplitude", "0.3", "--omega", "2",
          "--horizon", "20"], None, "error: disturbance none does not read amplitude"),
        (["simulate", "--n", "8", "--k", "1", "--disturbance", "noise", "--omega", "2"],
         None, "error: disturbance noise does not read omega"),
        (["simulate"], "[platoon]\nn = 8\nk = 1\n[experiment]\ndisturbance = noise\n"
         "amplitude = 0.3\nomega = 2\n", "error: disturbance noise does not read omega"),
    ], ids=["sweep-add-config", "scaling-flags", "scaling-config", "scaling-md-flag",
            "delay-grid-name", "undisturbed-flags", "noise-omega-flag", "noise-omega-config"])
    def test_unread_key_exit_2(self, tmp_path, capsys, argv, config, error):
        # a key the subcommand, or its disturbance, does not read is refused,
        # as a flag or in a config file, and the error line names the key and
        # the subcommand or the disturbance
        out = tmp_path / "out"
        if config is not None:
            (tmp_path / "s.cfg").write_text(config)
            argv = [*argv, "--config", str(tmp_path / "s.cfg")]
        assert main([*argv, "--out", str(out)]) == 2
        assert error in capsys.readouterr().err.splitlines()
        assert not out.exists()

    def test_config_key_spelled_only_as_the_table_spells_it(self, tmp_path, capsys):
        cfg_file = tmp_path / "s.cfg"
        cfg_file.write_text("[platoon]\nn = 8\nk = 2\n[output]\noutdir = elsewhere\n")
        assert main(["report", "--config", str(cfg_file)]) == 2
        assert "unknown key 'outdir'" in capsys.readouterr().err

    def test_config_name_hinf_sweep_exit_2(self, tmp_path, capsys):
        # sweep_csv = true is the one way to ask for the frequency CSVs
        cfg_file = tmp_path / "s.cfg"
        cfg_file.write_text(
            "[platoon]\nn = 8\nk = 2\n\n[experiment]\nname = hinf-sweep\n"
        )
        out = tmp_path / "out"
        assert main(["report", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: the report subcommand runs name = report, not 'hinf-sweep'"]
        assert not out.exists()


NUMBERS = st.one_of(st.floats(), st.integers(-10**30, 10**30))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(command=st.sampled_from(sorted(COMMANDS)), data=st.data())
def test_any_numeric_config_value_exits_0_or_2(tmp_path_factory, command, data):
    # every numeric key the command reads, one value or a list, through the
    # config file (the path that takes any string); NaN, infinities,
    # subnormals and integers far beyond memory must end as success or a
    # parameter error
    numeric = sorted(key for key in COMMANDS[command].keys if KEYS[key].parse in (int, float))
    values = data.draw(st.dictionaries(
        st.sampled_from(numeric),
        st.one_of(NUMBERS, st.lists(NUMBERS, min_size=1, max_size=3)),
        min_size=1,
    ))
    needed = {"delay-grid": {"taus": [0.1]}, "scaling": {"ns": [8, 16, 32, 64, 128]}}
    config = {"n": 5, "k": 2, **needed.get(command, {}), **values}
    lines = ["[experiment]"] + [
        f"{key} = {' '.join(map(repr, v)) if isinstance(v, list) else repr(v)}"
        for key, v in config.items()
    ]
    path = tmp_path_factory.mktemp("cfg") / "s.cfg"
    path.write_text("\n".join(lines) + "\n")
    assert main([command, "--config", str(path), "--emit-config"]) in (0, 2)


class TestDelayGridSufficiencyOnMd:
    def test_below_sufficient_bounds_classifies_stable(self, tmp_path):
        # tau below pi/(8k) (velocity) and below 1/(4k) (formation) must come
        # out stable on a minimally dense arrangement
        cfg = ScenarioConfig(
            n=10, k=2, experiment="delay-grid", taus=(0.1,), horizon=100.0, step=1e-3
        )
        run_delay_grid(cfg, tmp_path)
        lines = (tmp_path / "delay_grid.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        assert all(r[2] == "true" for r in rows)
        assert all(r[6] == "true" and r[8] == "true" for r in rows)


class TestVerifyBattery:
    def test_no_failures(self):
        failures, lines = run_verify()
        assert failures == []
        assert all(line.startswith("verify ok:") for line in lines)


def assert_same_text(got: str, want: str) -> None:
    """Equal texts, else the first line that differs: pytest's own diff of
    two texts of many thousand rows takes minutes."""
    got, want = got.splitlines(True), want.splitlines(True)
    same = [a == b for a, b in zip(got, want)]
    first = same.index(False) if False in same else len(same)
    assert (first, len(got)) == (len(want), len(want)), (got[first:first + 1], want[first:first + 1])


class TestSimulateStreamsTheWholeRun:
    """`simulate` writes trajectory.csv as the run slides, never holding it:
    its files must equal simulate(...) formatted whole and its verdict,
    byte for byte, and the verdict reference_verdict's on its norms.  The sliding buffer holds the delay window and
    max(batch, _CHUNK_ROWS) steps, so a run longer than that slides."""

    GS = ground(build_platoon(5, 2), make_reference_set(5, [3]))
    BASE = ["--n", "5", "--k", "2", "--arrangement", "explicit", "--refs", "3", "--seed", "4"]

    def _system(self, kind):
        spec = eig_sym(self.GS.lg)
        if kind == "velocity":
            return dde_sim.velocity_system(self.GS), robustness.delay_margin_velocity(spec)
        return dde_sim.formation_system(self.GS), robustness.delay_margin_formation(spec, 2).exact

    def _check(self, tmp_path, mode, kind, tau, h, nsteps, diverged):
        sysm, _ = self._system(kind)
        horizon = (nsteps + 0.3) * h
        assert main(["simulate", *self.BASE, "--dynamics", kind, "--delay-mode", mode,
                     "--tau", repr(tau), "--step", repr(h), "--horizon", repr(horizon),
                     "--out", str(tmp_path)]) == 0
        x0 = np.random.default_rng(4).uniform(-1.0, 1.0, sysm.dim)
        traj = dde_sim.simulate(sysm, dde_sim.DelaySpec(tau, mode), x0, horizon, h)
        assert traj.verdict.diverged == diverged
        assert_same_text((tmp_path / "trajectory.csv").read_text(), trajectory_csv(traj))
        want = traj.verdict
        assert want == reference_verdict(traj)
        assert (tmp_path / "verdict.txt").read_text() == (
            f"stable={_fmt(want.stable)}, decay_ratio={_fmt(want.decay_ratio)}, "
            f"horizon={_fmt(want.horizon)}, tau_effective={_fmt(traj.meta['tau_effective'])}\n")

    @pytest.mark.parametrize("mode, kind, m, nsteps", [
        ("full", "velocity", 0, 3000),  # tau = 0, shorter than the window
        ("full", "formation", 0, 10923),  # three batches of 4096
        ("full", "velocity", 1, 9000),
        ("full", "formation", 2, 9000),
        ("full", "velocity", 3, 41000),  # slides ten times
        ("full", "formation", 150, 2384),  # no slide
        ("full", "velocity", 150, 11920),  # two slides
        ("self-undelayed", "velocity", 2, 5000),
        ("self-undelayed", "velocity", 150, 11920),
    ])
    def test_every_mode_and_window(self, tmp_path, mode, kind, m, nsteps):
        _, margin = self._system(kind)
        # a horizon of 40, or a quarter of the margin in the fully delayed
        # runs: the runs decay without diverging
        h = 40.0 / nsteps if m == 0 else min(40.0 / nsteps, 0.25 * margin / m)
        self._check(tmp_path, mode, kind, m * h, h, nsteps, False)

    @pytest.mark.parametrize("kind", ["velocity", "formation"])
    def test_diverged_run_cut_after_a_slide(self, tmp_path, kind):
        # the divergence marker is the file's last line
        _, margin = self._system(kind)
        tau = 3.0 * margin
        self._check(tmp_path, "full", kind, tau, tau / 150, 200 * 150, True)
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[-1] == "# diverged=true (run truncated at state norm > 1e12)"
        assert dde_sim._CHUNK_ROWS < len(lines) - 3 < 200 * 150

    @staticmethod
    def _whole_run_sampler(dist, dim, h, nsteps):
        """sample(lo, hi) over the samples of a run drawn whole, apart from
        the production sampler (conftest.whole_run_samples): the grid rows
        of steps lo .. hi and the midpoints of steps lo .. hi - 1, of any
        window within the run."""
        grid, mid = whole_run_samples(dist, dim, h, nsteps)

        def sample(lo, hi):
            assert 0 <= lo <= hi <= nsteps
            return grid[lo : hi + 1], mid[lo:hi]

        return sample

    @pytest.mark.parametrize("disturbance", ["sin", "noise"])
    @pytest.mark.parametrize("delay", [
        pytest.param(["--tau", "0"], id="undelayed"),  # batches of a chunk
        # batches of 99 steps, across chunk ends
        pytest.param(["--tau", "0.1"], id="full"),
        pytest.param(["--tau", "0.1", "--delay-mode", "self-undelayed"], id="self-undelayed"),
        # two steps of delay: batches of one step
        pytest.param(["--tau", "0.002"], id="one-step-batches"),
    ])
    def test_disturbance_sampled_per_chunk_equals_whole_run(self, tmp_path, monkeypatch,
                                                            disturbance, delay):
        # 20,000 steps, five chunks of samples; noise reads no omega
        omega = ["--omega", "1.7"] if disturbance == "sin" else []
        argv = ["simulate", *self.BASE, *delay, "--horizon", "20", "--step", "0.001",
                "--disturbance", disturbance, "--amplitude", "0.3", *omega]
        assert main(argv + ["--out", str(tmp_path / "chunked")]) == 0
        whole = self._whole_run_sampler
        for cls in (dde_sim.SinusoidDisturbance, dde_sim.NoiseDisturbance):
            monkeypatch.setattr(cls, "sampler",
                                lambda dist, dim, step: whole(dist, dim, step, 20_000))
        assert main(argv + ["--out", str(tmp_path / "whole")]) == 0
        for name in ("trajectory.csv", "verdict.txt"):
            assert_same_text((tmp_path / "chunked" / name).read_text(),
                             (tmp_path / "whole" / name).read_text())

    def test_memory_does_not_grow_with_the_run(self, tmp_path, monkeypatch):
        # run_simulate over four times the horizon peaks where the shorter
        # run does, below the longer run's own states.  Smaller chunks keep
        # the traced runs short; the bound holds per row.
        monkeypatch.setattr(dde_sim, "_CHUNK_ROWS", 1024)

        def run(horizon):
            run_simulate(ScenarioConfig(n=5, k=2, arrangement="explicit", refs=(3,),
                                        experiment="simulate", tau=0.1, horizon=horizon,
                                        step=5e-3), tmp_path)

        run(40.0)  # untraced: a first run also loads what later runs reuse
        peaks = []
        for horizon in (40.0, 160.0):
            tracemalloc.start()
            try:
                run(horizon)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.05 * peaks[0]
        assert max(peaks) < 8 * (160.0 / 5e-3 + 1) * len(self.GS.lg)
