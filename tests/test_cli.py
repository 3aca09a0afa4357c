import argparse
import csv
import json

import pytest

from cdpkit import cli
from cdpkit.cli import main
from cdpkit.core import (
    DegenerateStepError,
    EvaluatorFaultError,
    OutOfNeighborhoodError,
    RankDeficiencyError,
    SolveTrace,
)


def run(argv):
    return main(argv)


class TestValidate:
    def test_oblique_passes(self, capsys):
        assert run(["validate", "--family", "oblique", "--m", "20",
                    "--q", "3"]) == 0
        out = capsys.readouterr().out
        assert "passed: True" in out

    def test_bad_dimensions_give_usage_error(self):
        assert run(["validate", "--family", "oblique", "--m", "0",
                    "--q", "3"]) == 2

    def test_generic_without_constraint_map_rejected(self):
        assert run(["validate", "--family", "generic"]) == 2

    def test_json_output_is_parseable(self, capsys):
        assert run(["validate", "--family", "sphere", "--n", "6",
                    "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert 1.85 <= payload["quadratic_decrease_slope"] <= 2.15

    def test_symplectic_stiefel_passes(self, capsys):
        assert run(["validate", "--family", "symplectic_stiefel", "--m", "6",
                    "--q", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["family"] == "symplectic_stiefel(6,2)"
        assert payload["passed"] is True


class TestSolve:
    def test_balanced_cut_transformed_pipeline(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code = run(["solve", "--family", "balanced_cut", "--m", "30",
                    "--q", "2", "--rho", "0.2", "--seed", "7",
                    "--pipeline", "cdp", "--json", "--out", str(trace)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["Feasibility"] <= 1e-6
        with trace.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) >= 1
        assert {"iter", "f", "feas", "stat", "beta", "sigma", "inner_iter",
                "inner_status", "time"} <= set(rows[0])
        assert int(rows[0]["inner_iter"]) > 0

    def test_config_beta_is_used_and_flag_overrides_it(self, tmp_path):
        config = tmp_path / "cut.yaml"
        config.write_text("family: balanced_cut\nm: 10\nq: 2\nrho: 0.3\n"
                          "seed: 1\nbeta: 50.0\n")
        trace = tmp_path / "trace.csv"
        for extra, beta in (([], "50.0"), (["--beta", "20"], "20.0")):
            run(["solve", "--config", str(config), "--out", str(trace),
                 "--json", *extra])
            with trace.open() as fh:
                assert next(csv.DictReader(fh))["beta"] == beta

    def test_gamma_flag_reaches_the_instance(self):
        argv = ["solve", "--family", "center_of_mass", "--m", "6", "--q", "2",
                "--N", "5", "--r", "0.1", "--gamma", "2.0"]
        _, instance, _, _ = cli._load_from_args(
            cli.build_parser().parse_args(argv))
        assert list(instance.params.gamma) == [2.0]
        assert instance.params.tau.size == 0
        assert run(argv) == 0

    def test_beta_flag_on_a_list_config_is_a_configuration_error(
            self, tmp_path, capsys):
        # --beta replaces the parsed config's beta, so the document is
        # checked first; it used to be merged into the raw document.
        config = tmp_path / "grid.yaml"
        config.write_text(
            "- {family: balanced_cut, m: 8, q: 2, rho: 0.3, seed: 1}\n")
        assert run(["solve", "--config", str(config), "--beta", "1"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err

    def test_trace_file_has_lf_line_ends_and_every_row_field(self, tmp_path):
        trace = tmp_path / "trace.csv"
        run(["solve", "--family", "balanced_cut", "--m", "10", "--q", "2",
             "--rho", "0.3", "--out", str(trace)])
        text = trace.read_bytes().decode()
        assert "\r" not in text
        header = text.splitlines()[0].split(",")
        assert header == list(SolveTrace.CSV_COLUMNS)

    def test_out_in_a_missing_directory_is_usage_error(self, tmp_path,
                                                       monkeypatch, capsys):
        # Refused before the solve runs, not after it.
        monkeypatch.setattr(cli.solver, "alm_solve_cdp", None)
        assert run(["solve", "--family", "balanced_cut", "--m", "10",
                    "--q", "2", "--rho", "0.3",
                    "--out", str(tmp_path / "missing" / "t.csv")]) == 2
        assert "configuration error: --out" in capsys.readouterr().err

    def test_out_naming_a_directory_is_usage_error(self, tmp_path,
                                                   monkeypatch, capsys):
        # Refused before the solve runs, not after it.
        monkeypatch.setattr(cli.solver, "alm_solve_cdp", None)
        assert run(["solve", "--family", "balanced_cut", "--m", "10",
                    "--q", "2", "--rho", "0.3", "--out", str(tmp_path)]) == 2
        assert "configuration error: --out" in capsys.readouterr().err

    def test_pipelines_agree_on_objective(self, capsys):
        values = {}
        for pipe in ("cdp", "nlp"):
            assert run(["solve", "--family", "balanced_cut", "--m", "30",
                        "--q", "2", "--rho", "0.2", "--seed", "7",
                        "--pipeline", pipe, "--json"]) == 0
            values[pipe] = json.loads(capsys.readouterr().out)["Function value"]
        rel = abs(values["cdp"] - values["nlp"]) / abs(values["nlp"])
        assert rel <= 1e-4

    def test_rho_in_exponent_notation_solves(self, capsys):
        # The start point used to be rebuilt by re-parsing the problem name,
        # where int("1e-05") raised a bare ValueError.
        code = run(["solve", "--family", "balanced_cut", "--m", "10",
                    "--q", "2", "--rho", "1e-5", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Traceback" not in captured.err
        assert json.loads(captured.out)["status"] == "converged"

    def test_config_with_an_instance_flag_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "cut.yaml"
        config.write_text("family: balanced_cut\nm: 10\nq: 2\nrho: 0.3\n"
                          "seed: 1\n")
        assert run(["solve", "--config", str(config), "--m", "40"]) == 2
        assert "--m" in capsys.readouterr().err

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        assert run(["solve", "--config", str(tmp_path / "nope.yaml")]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_flag_of_the_other_family_is_usage_error(self, capsys):
        assert run(["solve", "--family", "balanced_cut", "--m", "10",
                    "--q", "2", "--rho", "0.3", "--N", "5"]) == 2
        assert "family.N" in capsys.readouterr().err

    def test_exhausted_budget_exits_nonzero(self, capsys):
        code = run(["solve", "--family", "balanced_cut", "--m", "40",
                    "--q", "2", "--rho", "0.2", "--seed", "1",
                    "--budget", "0.001", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["status"] == "max_time"


class TestProbe:
    def test_center_of_mass_probe_passes(self, capsys):
        code = run(["probe", "--family", "center_of_mass", "--m", "6",
                    "--q", "2", "--N", "5", "--r", "0.5", "--seed", "2",
                    "--probes", "20", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert 1.85 <= payload["quadratic_decrease_slope"] <= 2.15

    def test_config_file_probes_as_the_same_flags(self, tmp_path, capsys):
        # The probe samples with the config's seed, wherever it came from.
        config = tmp_path / "cut.yaml"
        config.write_text("family: balanced_cut\nm: 20\nq: 2\nrho: 0.3\n"
                          "seed: 3\n")
        outputs = []
        for source in (["--config", str(config)],
                       ["--family", "balanced_cut", "--m", "20", "--q", "2",
                        "--rho", "0.3", "--seed", "3"]):
            assert run(["probe", *source, "--probes", "10", "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_zero_beta_probe_is_advisory(self, capsys):
        code = run(["probe", "--family", "center_of_mass", "--m", "6",
                    "--q", "2", "--N", "5", "--r", "0.5", "--seed", "2",
                    "--beta", "0", "--probes", "20", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["beta_met"] is False
        assert payload["decrease_condition_met"] is False

    def test_both_verdicts_come_from_one_estimate(self, monkeypatch, capsys):
        calls = []

        def counted(*args, _bound=cli.diagnostics._bound_constants):
            calls.append(args)
            return _bound(*args)

        monkeypatch.setattr(cli.diagnostics, "_bound_constants", counted)
        assert run(["probe", "--family", "balanced_cut", "--m", "10",
                    "--q", "2", "--rho", "0.3", "--probes", "10"]) == 0
        assert len(calls) == 1


class TestBench:
    def test_grid_file_produces_csv_and_markdown(self, tmp_path, capsys):
        grid = tmp_path / "grid.yaml"
        grid.write_text(
            "- {family: balanced_cut, m: 8, q: 2, rho: 0.3, seed: 1}\n")
        out = tmp_path / "records.csv"
        assert run(["bench", "--grid", str(grid), "--out", str(out),
                    "--budget", "60"]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert out.with_suffix(".md").exists()

    def test_grid_without_out_prints_csv_then_markdown(self, tmp_path,
                                                       capsys):
        grid = tmp_path / "grid.yaml"
        grid.write_text(
            "- {family: balanced_cut, m: 10, q: 2, rho: 0.3, seed: 1}\n")
        assert run(["bench", "--grid", str(grid), "--budget", "60"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("problem,pipeline,fval,stationarity,"
                              "feasibility,time,status\n")
        assert "\n| problem " in out
        assert list(tmp_path.iterdir()) == [grid]  # no file written

    def test_failed_run_exits_one_and_still_writes(self, tmp_path):
        grid = tmp_path / "grid.yaml"
        grid.write_text(
            "- {family: balanced_cut, m: 20, q: 2, rho: 0.3, seed: 3}\n")
        out = tmp_path / "records.csv"
        assert run(["bench", "--grid", str(grid), "--out", str(out),
                    "--budget", "0.000001"]) == 1
        with out.open() as fh:
            assert [row["status"] for row in csv.DictReader(fh)] \
                == ["max_time", "max_time"]
        assert out.with_suffix(".md").exists()

    def test_out_in_a_missing_directory_is_usage_error(self, tmp_path,
                                                       monkeypatch, capsys):
        # Refused before the grid runs, not after it.
        monkeypatch.setattr(cli.bench, "run_experiment", None)
        grid = tmp_path / "grid.yaml"
        grid.write_text(
            "- {family: balanced_cut, m: 8, q: 2, rho: 0.3, seed: 1}\n")
        assert run(["bench", "--grid", str(grid),
                    "--out", str(tmp_path / "missing" / "r.csv")]) == 2
        assert "configuration error: --out" in capsys.readouterr().err

    def test_out_naming_a_directory_is_usage_error(self, tmp_path,
                                                   monkeypatch, capsys):
        # Refused before the grid runs, not after it.
        monkeypatch.setattr(cli.bench, "run_experiment", None)
        grid = tmp_path / "grid.yaml"
        grid.write_text(
            "- {family: balanced_cut, m: 8, q: 2, rho: 0.3, seed: 1}\n")
        assert run(["bench", "--grid", str(grid), "--out", str(tmp_path)]) == 2
        assert "configuration error: --out" in capsys.readouterr().err

    def test_missing_grid_file_is_usage_error(self, tmp_path):
        assert run(["bench", "--grid", str(tmp_path / "nope.yaml")]) == 2

    @pytest.mark.parametrize("text", [
        "- {m: 8, q: 2, rho: 0.3, seed: 1}\n",
        "- {family: balanced_cut, m: 8, q: 2, rho: 0.3}\n",
        "family: balanced_cut\nm: 8\nq: 2\nrho: 0.3\nseed: 1\n",
        "- {family: balanced_cut, m: 8, q: 2, rho: dense, seed: 1}\n",
        "- {family: balanced_cut, m: 8\n",
        "- {family: balanced_cut, m: 8, q: 2, rho: 0.3, seed: 1, bta: 50}\n",
    ], ids=["no-family", "no-seed", "mapping", "non-numeric-rho", "not-yaml",
            "unknown-key"])
    def test_malformed_grid_is_usage_error(self, tmp_path, capsys, text):
        grid = tmp_path / "grid.yaml"
        grid.write_text(text)
        assert run(["bench", "--grid", str(grid)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_exponent_rho_read_as_string_is_cast(self, tmp_path):
        # YAML reads 1e-1 (no decimal point) as a string; the grid casts it
        # to 0.1, as load_problem does.
        grid = tmp_path / "grid.yaml"
        grid.write_text("- {family: balanced_cut, m: 8, q: 2, rho: 1e-1, seed: 1}\n")
        out = tmp_path / "records.csv"
        assert run(["bench", "--grid", str(grid), "--out", str(out),
                    "--budget", "60"]) == 0
        with out.open() as fh:
            assert {row["problem"] for row in csv.DictReader(fh)} \
                == {"balanced_cut(m=8,q=2,rho=0.1,seed=1)"}


class TestExitCodes:
    @pytest.mark.parametrize("error", [
        RankDeficiencyError("Gram matrix singular"),
        OutOfNeighborhoodError("iterated map diverged"),
        EvaluatorFaultError("eval_A non-finite"),
        DegenerateStepError("step underflows"),
    ])
    def test_solver_side_error_is_a_failure(self, monkeypatch, capsys, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli.solver, "alm_solve_cdp", fail)
        code = run(["solve", "--family", "balanced_cut", "--m", "10",
                    "--q", "2", "--rho", "0.3"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and str(error) in err

    def test_negative_penalty_is_a_usage_error(self, capsys):
        # The penalty flags are parsed as finite non-negative numbers.
        assert run(["solve", "--family", "balanced_cut", "--m", "10",
                    "--q", "2", "--rho", "0.3", "--beta", "-1"]) == 2
        assert "non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--beta", "nan"), ("--tau", "nan"), ("--gamma", "nan"),
        ("--budget", "nan"), ("--budget", "0"), ("--budget", "-1"),
        ("--seed", "-1"),
    ])
    def test_bad_number_is_a_usage_error(self, flag, value):
        # NaN compares false with everything, so each check must reject it
        # explicitly; --gamma is checked although the cut has no
        # inequalities for it to fill.
        assert run(["solve", "--family", "balanced_cut", "--m", "10",
                    "--q", "2", "--rho", "0.3", flag, value]) == 2

    def test_bad_bench_budget_is_a_usage_error(self, tmp_path):
        grid = tmp_path / "grid.yaml"
        grid.write_text(
            "- {family: balanced_cut, m: 8, q: 2, rho: 0.3, seed: 1}\n")
        for value in ("nan", "0", "-1"):
            assert run(["bench", "--grid", str(grid),
                        "--budget", value]) == 2

    def test_nan_radius_is_a_usage_error(self, capsys):
        assert run(["solve", "--family", "center_of_mass", "--m", "6",
                    "--q", "2", "--N", "5", "--r", "nan"]) == 2
        assert "r must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("pipeline, code", [("cdp", 2), ("nlp", 0)])
    def test_zero_beta_is_refused_only_where_it_must_adapt(self, pipeline,
                                                           code, capsys):
        # An adapting cdp solve could never grow beta from 0; the direct
        # pipeline has no beta and solves the same instance.
        assert run(["solve", "--family", "balanced_cut", "--m", "10",
                    "--q", "2", "--rho", "0.3", "--beta", "0",
                    "--pipeline", pipeline]) == code
        assert ("beta = 0" in capsys.readouterr().err) == (code == 2)

    @pytest.mark.parametrize("flag, value", [
        ("--probes", "0"), ("--probes", "-1"), ("--tol", "nan"),
        ("--tol", "0"), ("--tol", "-1"), ("--tol", "inf"), ("--seed", "-1")])
    def test_bad_validate_setting_is_a_usage_error(self, flag, value, capsys):
        # Not a failed check: no probe ran, or no tolerance can be met.
        assert run(["validate", "--family", "oblique", "--m", "4", "--q", "2",
                    flag, value]) == 2
        assert "passed" not in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_probe_without_samples_is_a_usage_error(self, value, capsys):
        # No sampled constants, so no threshold to report as met.
        assert run(["probe", "--family", "balanced_cut", "--m", "10",
                    "--q", "2", "--rho", "0.3", "--probes", value]) == 2
        assert "beta_met" not in capsys.readouterr().out

    def test_nan_beta_from_a_config_is_a_usage_error(self, tmp_path, capsys):
        # A config's beta reaches PenaltyParams without the flag's check.
        config = tmp_path / "cut.yaml"
        config.write_text("family: balanced_cut\nm: 10\nq: 2\nrho: 0.3\n"
                          "seed: 0\nbeta: .nan\n")
        assert run(["solve", "--config", str(config)]) == 2
        assert "finite" in capsys.readouterr().err


class TestParser:
    def test_unknown_subcommand_is_usage_error(self):
        assert run(["frobnicate"]) == 2

    def test_missing_subcommand_is_usage_error(self):
        assert run([]) == 2

    def test_each_subcommand_takes_only_its_flags(self):
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        instance = {"--family", "--m", "--q", "--N", "--r", "--rho", "--seed",
                    "--beta", "--tau", "--gamma", "--config"}
        expected = {
            "validate": {"--family", "--m", "--q", "--n", "--seed", "--probes",
                         "--tol", "--json"},
            "solve": instance | {"--pipeline", "--budget", "--out", "--json"},
            "probe": instance | {"--probes", "--json"},
            "bench": {"--grid", "--budget", "--out"},
        }
        flags = {name: {opt for action in p._actions
                        if not isinstance(action, argparse._HelpAction)
                        for opt in action.option_strings}
                 for name, p in subparsers.choices.items()}
        assert flags == expected
        assert [len(flags[name]) for name in expected] == [8, 15, 13, 3]

    @pytest.mark.parametrize("argv", [
        ["bench", "--grid", "g.yaml", "--json"],
        ["validate", "--family", "oblique", "--m", "5", "--q", "2",
         "--config", "x.yaml"],
        ["validate", "--family", "balanced_cut", "--m", "5", "--q", "2"],
        ["probe", "--family", "balanced_cut", "--m", "10", "--q", "2",
         "--rho", "0.3", "--tol", "1"],
    ], ids=["bench-json", "validate-config", "validate-instance-family",
            "probe-tol"])
    def test_flag_the_subcommand_does_not_read_is_usage_error(self, argv):
        assert run(argv) == 2
