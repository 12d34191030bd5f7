"""Tests for CSV ingestion, config round-trips, and the command-line surface."""

import csv
import json
import math

import numpy as np
import pytest

import synthconf as sc
from synthconf import DgpSpec, PanelData, ParseError, RunConfig, read_panel_csv, write_panel_csv
from synthconf import estimators
from synthconf.cli import main, parse_estimator
from synthconf.io import SEED_ENV_VAR


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestReadWide:
    def test_small_file(self, tmp_path):
        path = tmp_path / "panel.csv"
        write_lines(path, ["time,a,b", "1,1.5,2.5", "2,3.5,4.5", "3,5.5,6.5"])
        panel = read_panel_csv(path, t0=2, treated="a")
        assert panel.n_periods == 3 and panel.n_controls == 1
        np.testing.assert_allclose(panel.treated, [1.5, 3.5, 5.5])

    def test_rows_sorted_by_time(self, tmp_path):
        path = tmp_path / "panel.csv"
        write_lines(path, ["time,a,b", "3,5.5,6.5", "1,1.5,2.5", "2,3.5,4.5"])
        panel = read_panel_csv(path, t0=2, treated="a")
        np.testing.assert_allclose(panel.treated, [1.5, 3.5, 5.5])

    def test_treated_column_moved_first(self, tmp_path):
        path = tmp_path / "panel.csv"
        write_lines(path, ["time,a,b,c", "1,1,2,3", "2,4,5,6", "3,7,8,9"])
        panel, names = read_panel_csv(path, t0=2, treated="b", return_names=True)
        assert names == ["b", "a", "c"]
        np.testing.assert_allclose(panel.treated, [2, 5, 8])

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "panel.csv"
        write_lines(path, ["time,a,b", "1,1.0,2.0", "2,3.0"])
        with pytest.raises(ParseError, match="line 3"):
            read_panel_csv(path, t0=1, treated="a")

    def test_non_numeric_cell_reports_line_and_column(self, tmp_path):
        path = tmp_path / "panel.csv"
        write_lines(path, ["time,a,b", "1,1.0,2.0", "2,oops,4.0"])
        with pytest.raises(ParseError, match="line 3.*'a'"):
            read_panel_csv(path, t0=1, treated="a")

    def test_duplicate_time_rejected(self, tmp_path):
        path = tmp_path / "panel.csv"
        write_lines(path, ["time,a,b", "1,1,2", "1,3,4"])
        with pytest.raises(ParseError, match="duplicate"):
            read_panel_csv(path, t0=1, treated="a")

    def test_unknown_treated_unit(self, tmp_path):
        path = tmp_path / "panel.csv"
        write_lines(path, ["time,a,b", "1,1,2", "2,3,4"])
        with pytest.raises(ParseError, match="not found"):
            read_panel_csv(path, t0=1, treated="z")

    def test_missing_t0_rejected(self, tmp_path):
        path = tmp_path / "panel.csv"
        write_lines(path, ["time,a,b", "1,1,2", "2,3,4"])
        with pytest.raises(ParseError, match="t0"):
            read_panel_csv(path, treated="a")

    def test_missing_file_is_a_parse_error_naming_it(self, tmp_path):
        path = tmp_path / "nope.csv"
        with pytest.raises(ParseError, match="nope.csv"):
            read_panel_csv(path, t0=3, treated="a")

    def test_duplicate_unit_names_rejected(self, tmp_path):
        path = tmp_path / "panel.csv"
        write_lines(path, ["time,a,a", "1,1,2", "2,3,4"])
        with pytest.raises(ParseError, match="duplicate unit names"):
            read_panel_csv(path, t0=1, treated="a")

    @pytest.mark.parametrize("layout", ["wide", "long"])
    def test_repeated_treated_unit_rejected(self, tmp_path, layout):
        # Regression: treated=["a", "a"] built a panel with column a twice.
        path = tmp_path / "panel.csv"
        if layout == "wide":
            write_lines(path, ["time,a,b,c,d", "1,1,2,3,4", "2,5,6,7,8", "3,9,1,2,3"])
        else:
            write_lines(path, ["unit,time,outcome", *(f"{u},{t},{t}" for u in "abcd" for t in (1, 2, 3))])
        with pytest.raises(ParseError, match="'a' is named more than once"):
            read_panel_csv(path, layout=layout, t0=2, treated=["a", "a"])


class TestReadLong:
    def test_row_order_irrelevant(self, tmp_path):
        sorted_path = tmp_path / "sorted.csv"
        shuffled_path = tmp_path / "shuffled.csv"
        rows = [
            "unit,time,outcome",
            "a,1,1.0", "a,2,2.0", "a,3,3.0",
            "b,1,4.0", "b,2,5.0", "b,3,6.0",
        ]
        write_lines(sorted_path, rows)
        write_lines(shuffled_path, [rows[0]] + [rows[5], rows[2], rows[6], rows[1], rows[4], rows[3]])
        a = read_panel_csv(sorted_path, layout="long", t0=2, treated="a")
        b = read_panel_csv(shuffled_path, layout="long", t0=2, treated="a")
        np.testing.assert_array_equal(a.outcomes, b.outcomes)

    def test_duplicate_observation_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        write_lines(path, ["unit,time,outcome", "a,1,1.0", "a,1,2.0", "b,1,0.0"])
        with pytest.raises(ParseError, match="line 3.*duplicate"):
            read_panel_csv(path, layout="long", t0=1, treated="a")

    def test_unbalanced_panel_rejected(self, tmp_path):
        path = tmp_path / "unbalanced.csv"
        write_lines(path, ["unit,time,outcome", "a,1,1.0", "a,2,2.0", "b,1,0.0"])
        with pytest.raises(ParseError, match="unbalanced"):
            read_panel_csv(path, layout="long", t0=1, treated="a")

    def test_covariate_columns(self, tmp_path):
        path = tmp_path / "cov.csv"
        write_lines(path, [
            "unit,time,outcome,x1",
            "a,1,1.0,0.5", "a,2,2.0,0.6",
            "b,1,4.0,0.7", "b,2,5.0,0.8",
        ])
        panel = read_panel_csv(path, layout="long", t0=1, treated="a")
        assert panel.covariates.shape == (2, 2, 1)
        assert panel.covariates[0, 0, 0] == 0.5


class TestRoundTrip:
    def test_write_read_is_numerically_exact(self, tmp_path):
        panel = sc.simulate_panel(DgpSpec(t0=9, n_controls=4, seed=31))
        path = tmp_path / "rt.csv"
        write_panel_csv(panel, path)
        back = read_panel_csv(path, t0=9, treated="treated1")
        np.testing.assert_array_equal(back.outcomes, panel.outcomes)

    def test_config_file_round_trip(self, tmp_path):
        cfg = RunConfig(
            command="test", data="panel.csv", t0=19, treated=("rhode",),
            estimator="classo:K=1", q=1.0, alpha=0.1, alpha0=(0.0, -0.25),
            seed=7, out="results",
        )
        path = tmp_path / "run.cfg"
        cfg.to_file(path)
        assert RunConfig.from_file(path) == cfg

    def test_config_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        write_lines(path, ["command=test", "banana=1"])
        with pytest.raises(ParseError, match="banana"):
            RunConfig.from_file(path)

    def test_config_treated_names_are_stripped(self, tmp_path):
        path = tmp_path / "run.cfg"
        write_lines(path, ["command=test", "treated=rhode, ny"])
        assert RunConfig.from_file(path).treated == ("rhode", "ny")

    def test_config_bad_value_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        write_lines(path, ["command=simulate", "reps=abc"])
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("synthconf: error: line 2:")
        assert "'abc'" in err and "'reps'" in err

    def test_config_unknown_dgp_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        write_lines(path, ["command=simulate", "dgp=DGP9", "reps=5"])
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("synthconf: error:") and "DGP9" in err


class TestParseEstimator:
    def test_grammar(self):
        assert parse_estimator("sc").kind == "sc"
        assert parse_estimator("classo:K=2").radius == 2.0
        assert parse_estimator("elastic-net:lam=0.5,alpha=0.7").alpha == 0.7
        assert parse_estimator("factor:k=3").n_factors == 3
        fused = parse_estimator("fused:base=did,lags=2")
        assert fused.base.kind == "did" and fused.n_lags == 2
        assert parse_estimator("classo") == sc.EstimatorSpec.classo()
        assert parse_estimator("matrix_completion:K=4") == sc.EstimatorSpec.matrix_completion(4.0)

    NOTATIONS = {
        "did": ("did", sc.EstimatorSpec.did()),
        "sc": ("sc", sc.EstimatorSpec.sc()),
        "classo": ("classo:K=2", sc.EstimatorSpec.classo(2.0)),
        "lasso": ("lasso:lam=0.5", sc.EstimatorSpec.lasso(0.5)),
        "elastic_net": ("elastic-net:lam=0.5,alpha=0.7", sc.EstimatorSpec.elastic_net(0.5, 0.7)),
        "factor": ("factor:k=3", sc.EstimatorSpec.factor(3)),
        "interactive_fe": ("interactive-fe:k=2", sc.EstimatorSpec.interactive_fe(2)),
        "matrix_completion": ("matrix-completion", sc.EstimatorSpec.matrix_completion()),
        "ar": ("ar:lags=2", sc.EstimatorSpec.ar(2)),
        "fused": ("fused:base=classo:K=2,lags=1",
                  sc.EstimatorSpec.fused(sc.EstimatorSpec.classo(2.0), 1)),
        # The base takes the keys that ``fused`` does not own.
        "fused_elastic_net": ("fused:base=elastic-net:lam=1,alpha=0.5,lags=1",
                              sc.EstimatorSpec.fused(sc.EstimatorSpec.elastic_net(1.0, 0.5), 1)),
    }

    @pytest.mark.parametrize("case", [*estimators._ESTIMATORS, "fused_elastic_net"])
    def test_round_trip_every_kind(self, case):
        notation, spec = self.NOTATIONS[case]
        assert parse_estimator(notation) == spec

    def test_errors(self):
        with pytest.raises(sc.SynthconfError):
            parse_estimator("ridge")
        with pytest.raises(sc.SynthconfError):
            parse_estimator("lasso")  # missing lam

    @pytest.mark.parametrize("notation, key, valid", [
        ("classo:k=2", "'k'", "K"),
        ("did:lam=1", "'lam'", "none"),
        ("fused:lags=1,alpha=0.5", "'alpha'", "base, lags"),
        ("fused:base=lasso:lam=1,alpha=0.5,lags=1", "'alpha'", "lam"),
    ])
    def test_unknown_key_names_valid_keys(self, notation, key, valid):
        with pytest.raises(sc.SynthconfError, match=f"unknown parameter {key}; valid parameters: {valid}$"):
            parse_estimator(notation)


@pytest.fixture
def fixture_csv(tmp_path):
    panel = sc.simulate_panel(DgpSpec(t0=12, n_controls=5, weights_kind="DGP2", seed=2024))
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path, unit_names=["rhode", "c1", "c2", "c3", "c4", "c5"])
    return path


class TestCmdTest:
    def test_golden_output(self, fixture_csv, tmp_path):
        # Frozen output of the deterministic fixture.  The statistic is the
        # one of the exact synthetic-control weights (an enumeration of all
        # supports agrees to 2e-15).
        out = tmp_path / "out"
        rc = main([
            "test", "--data", str(fixture_csv), "--t0", "12", "--treated", "rhode",
            "--estimator", "sc", "--seed", "0", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["p_value"] == pytest.approx(8 / 13, abs=0)
        assert doc["statistic"] == pytest.approx(0.21280907727160275, rel=1e-9)
        assert doc["n_permutations"] == 13
        assert doc["schema_version"] == "1"
        assert doc["estimator"] == "sc"
        residuals = (out / "residuals.csv").read_text().splitlines()
        assert residuals[0] == "period,residual"
        assert len(residuals) == 14

    def test_fits_once_and_reports_that_fit(self, fixture_csv, tmp_path, monkeypatch):
        calls = []
        fit_sc = estimators.fit_sc
        monkeypatch.setattr(estimators, "fit_sc", lambda *a: calls.append(a) or fit_sc(*a))
        out = tmp_path / "out"
        rc = main([
            "test", "--data", str(fixture_csv), "--t0", "12", "--treated", "rhode",
            "--estimator", "sc", "--out", str(out),
        ])
        assert rc == 0
        assert len(calls) == 1
        panel = read_panel_csv(fixture_csv, t0=12, treated="rhode")
        direct = sc.fit(sc.adjust_under_null(panel, np.zeros(panel.n_post)), sc.EstimatorSpec.sc())
        doc = json.loads((out / "result.json").read_text())
        diagnostics = doc["estimator_diagnostics"]
        assert diagnostics["iterations"] == direct.diagnostics.iterations
        assert diagnostics["converged"] == direct.diagnostics.converged
        assert diagnostics["final_objective"] == direct.diagnostics.final_objective
        assert diagnostics["kkt_residual"] == direct.diagnostics.kkt_residual

    def test_rerun_byte_identical_except_timestamp(self, fixture_csv, tmp_path):
        import re

        args = ["test", "--data", str(fixture_csv), "--t0", "12", "--treated", "rhode",
                "--estimator", "did", "--out", str(tmp_path / "out")]
        main(args)
        first = (tmp_path / "out" / "result.json").read_bytes()
        main(args)
        second = (tmp_path / "out" / "result.json").read_bytes()
        strip = lambda raw: re.sub(rb'"timestamp": "[^"]*"', b"", raw)
        assert strip(first) == strip(second)

    def test_alpha0_flag(self, fixture_csv, tmp_path):
        rc = main([
            "test", "--data", str(fixture_csv), "--t0", "12", "--treated", "rhode",
            "--estimator", "did", "--alpha0", "0.5", "--out", str(tmp_path / "out"),
        ])
        assert rc == 0

    def test_validation_failure_exit_code(self, fixture_csv, tmp_path):
        rc = main([
            "test", "--data", str(fixture_csv), "--t0", "12", "--treated", "nobody",
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 1

    def test_config_file_drives_run(self, fixture_csv, tmp_path):
        cfg = RunConfig(
            command="test", data=str(fixture_csv), t0=12, treated=("rhode",),
            estimator="sc", out=str(tmp_path / "out"), seed=0,
        )
        cfg_path = tmp_path / "run.cfg"
        cfg.to_file(cfg_path)
        rc = main(["test", "--config", str(cfg_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "out" / "result.json").read_text())
        assert doc["p_value"] == pytest.approx(8 / 13, abs=0)


class TestCmdCi:
    def test_csv_has_grid_rows_per_period(self, fixture_csv, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "ci", "--data", str(fixture_csv), "--t0", "12", "--treated", "rhode",
            "--estimator", "did", "--grid=-3:3:41", "--out", str(out),
        ])
        assert rc == 0
        with open(out / "ci.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["period", "candidate", "p_value", "accepted"]
        assert len(rows) == 1 + 41  # one post period, 41 candidates
        doc = json.loads((out / "result.json").read_text())
        assert len(doc["intervals"]) == 1
        assert doc["intervals"][0]["period"] == 13

    def test_descending_grid_gives_ordered_intervals(self, fixture_csv, tmp_path):
        docs = []
        for i, grid in enumerate(("--grid=-3:3:13", "--grid=3:-3:13")):
            out = tmp_path / f"out{i}"
            assert main(["ci", "--data", str(fixture_csv), "--t0", "12", "--treated", "rhode",
                         "--estimator", "did", grid, "--out", str(out)]) == 0
            docs.append(json.loads((out / "result.json").read_text())["intervals"])
        assert docs[1] == docs[0]
        assert docs[0][0]["lower"] <= docs[0][0]["upper"]

    def test_empty_interval_has_null_bounds(self, fixture_csv, tmp_path):
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="no candidate effect accepted"):
            assert main(["ci", "--data", str(fixture_csv), "--t0", "12", "--treated", "rhode",
                         "--grid=100:101:3", "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        doc = json.loads((out / "result.json").read_text(), parse_constant=reject)
        interval = doc["intervals"][0]
        assert interval["empty"] is True
        assert interval["lower"] is None and interval["upper"] is None

    def test_intervals_report_solver_steps(self, fixture_csv, tmp_path):
        out = tmp_path / "out"
        assert main(["ci", "--data", str(fixture_csv), "--t0", "12", "--treated", "rhode",
                     "--estimator", "sc", "--grid=-2:2:9", "--out", str(out)]) == 0
        panel = read_panel_csv(fixture_csv, t0=12, treated="rhode")
        entry = sc.pointwise_ci(panel, 13, sc.EstimatorSpec.sc(), grid=np.linspace(-2, 2, 9))
        interval = json.loads((out / "result.json").read_text())["intervals"][0]
        assert interval["iterations"] == entry.iterations > 0
        assert interval["nonconverged"] == entry.nonconverged == 0

    def test_estimator_named_by_label(self, fixture_csv, tmp_path):
        out = tmp_path / "out"
        assert main(["ci", "--data", str(fixture_csv), "--t0", "12", "--treated", "rhode",
                     "--estimator", "classo", "--grid=-1:1:3", "--out", str(out)]) == 0
        assert json.loads((out / "result.json").read_text())["estimator"] == "classo(K=1)"


class TestCmdPlacebo:
    def test_runs_and_writes_residuals(self, fixture_csv, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "placebo", "--data", str(fixture_csv), "--t0", "12", "--treated", "rhode",
            "--estimator", "sc", "--tau", "2", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["tau"] == 2
        assert 0 < doc["p_value"] <= 1
        assert len((out / "residuals.csv").read_text().splitlines()) == 13  # header + 12 pre rows

    def test_result_keys_match_test_plus_tau(self, fixture_csv, tmp_path):
        common = ["--data", str(fixture_csv), "--t0", "12", "--treated", "rhode",
                  "--estimator", "sc"]
        assert main(["test", *common, "--out", str(tmp_path / "test")]) == 0
        assert main(["placebo", *common, "--tau", "2", "--out", str(tmp_path / "placebo")]) == 0
        test_doc = json.loads((tmp_path / "test" / "result.json").read_text())
        placebo_doc = json.loads((tmp_path / "placebo" / "result.json").read_text())
        assert set(placebo_doc) == set(test_doc) | {"tau"}
        assert placebo_doc["command"] == "placebo"
        assert placebo_doc["window"] == [1, 12]
        assert placebo_doc["estimator_diagnostics"]["converged"]

    def test_missing_tau_is_an_error(self, fixture_csv, tmp_path):
        rc = main([
            "placebo", "--data", str(fixture_csv), "--t0", "12", "--treated", "rhode",
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 1


class TestBadValues:
    """A bad flag value ends in ``synthconf: error:`` and exit 1, not a traceback."""

    @pytest.fixture
    def wide_csv(self, tmp_path):
        panel = PanelData(np.random.default_rng(5).standard_normal((23, 4)), t0=20)
        path = tmp_path / "wide.csv"
        write_panel_csv(panel, path, unit_names=["treated", "c1", "c2", "c3"])
        return path

    @pytest.mark.parametrize("argv", [
        ["test", "--permutations", "iid"],
        ["test", "--q", "0.5"],
        ["test", "--permutations", "iid-sampled", "--n-perm", "0"],
        ["ci", "--alpha", "1.5"],
        ["ci", "--grid=-1:1:0"],
        ["test", "--estimator", "lasso:lam=-1"],
        ["test", "--estimator", "elastic-net:lam=inf,alpha=0.5"],
        ["ci", "--grid", "nan:1:5"],
        ["ci", "--estimator", "did", "--grid", "nan:1:5"],
    ], ids=["iid_too_long", "q_below_one", "no_samples", "alpha_above_one", "empty_grid",
            "negative_lam", "infinite_lam", "nan_grid_sc", "nan_grid_did"])
    def test_flag_value_is_an_error(self, wide_csv, tmp_path, capsys, argv):
        rc = main([*argv, "--data", str(wide_csv), "--t0", "20", "--treated", "treated",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "synthconf: error:" in capsys.readouterr().err

    def test_repeated_treated_unit(self, wide_csv, tmp_path, capsys):
        rc = main(["test", "--data", str(wide_csv), "--t0", "20", "--treated", "treated,treated",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "named more than once" in capsys.readouterr().err

    def test_missing_data_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        rc = main(["test", "--data", str(missing), "--t0", "3", "--treated", "a",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("synthconf: error:") and "nope.csv" in err

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        rc = main(["test", "--config", str(missing)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("synthconf: error:") and "nope.cfg" in err

    @pytest.mark.parametrize("flags", [["--reps", "0"], ["--alpha", "2"]], ids=["reps", "alpha"])
    def test_simulate_reps_and_alpha(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        rc = main(["simulate", "--estimator", "did", "--sim-t0", "5", "--controls", "3",
                   "--reps", "5", *flags, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("synthconf: error:")
        assert not (out / "result.json").exists()


class TestIidWithLags:
    """Full i.i.d. enumeration over the window that a lag model leaves."""

    @pytest.fixture
    def short_csv(self, tmp_path):
        rng = np.random.default_rng(9)
        panel = PanelData(rng.standard_normal((9, 4)), t0=7)
        path = tmp_path / "short.csv"
        write_panel_csv(panel, path, unit_names=["treated", "c1", "c2", "c3"])
        return path

    @pytest.mark.parametrize("estimator", ["ar:lags=1", "fused:base=did,lags=1"])
    def test_test_placebo_ci(self, short_csv, tmp_path, estimator):
        common = ["--data", str(short_csv), "--t0", "7", "--treated", "treated",
                  "--estimator", estimator, "--permutations", "iid"]
        out = tmp_path / "test"
        assert main(["test", *common, "--out", str(out)]) == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["n_permutations"] == math.factorial(9 - 1)

        out = tmp_path / "placebo"
        assert main(["placebo", *common, "--tau", "2", "--out", str(out)]) == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["n_permutations"] == math.factorial(7 - 1)

        out = tmp_path / "ci"
        assert main(["ci", *common, "--grid=-1:1:3", "--out", str(out)]) == 0
        with open(out / "ci.csv", newline="") as fh:
            p_values = [float(row["p_value"]) for row in csv.DictReader(fh)]
        n_perm = math.factorial(7 + 1 - 1)
        assert len(p_values) == 2 * 3
        assert all(round(p * n_perm) == pytest.approx(p * n_perm, abs=1e-6) for p in p_values)


class TestCmdSimulate:
    def test_writes_table_row(self, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "simulate", "--dgp", "DGP1", "--estimator", "did", "--sim-t0", "10",
            "--controls", "4", "--reps", "50", "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        with open(out / "simulation.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["dgp"] == "DGP1"
        assert 0.0 <= float(rows[0]["rejection_rate"]) <= 1.0

    def test_iid_on_a_short_design(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--permutations", "iid", "--sim-t0", "4", "--controls", "4",
                   "--reps", "5", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "result.json").read_text())
        assert 0.0 <= doc["rejection_rate"] <= 1.0

    def test_matches_library_call(self, tmp_path):
        out = tmp_path / "out"
        main([
            "simulate", "--dgp", "DGP2", "--estimator", "did", "--sim-t0", "12",
            "--controls", "5", "--reps", "80", "--seed", "11", "--out", str(out),
        ])
        doc = json.loads((out / "result.json").read_text())
        expected = sc.run_size_experiment(
            DgpSpec(t0=12, n_controls=5, weights_kind="DGP2", seed=11),
            sc.EstimatorSpec.did(),
            n_reps=80,
        )
        assert doc["rejection_rate"] == expected.rejection_rate


class TestSeedEnvVar:
    def test_env_seed_used_when_flag_absent(self, fixture_csv, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "99")
        out = tmp_path / "out"
        main(["test", "--data", str(fixture_csv), "--t0", "12", "--treated", "rhode",
              "--estimator", "did", "--out", str(out)])
        doc = json.loads((out / "result.json").read_text())
        assert doc["config"]["seed"] == 99


class TestEmpiricalShapeSmoke:
    def test_t0_19_tstar_6_j_50(self, tmp_path):
        # Same shape as a 1985-2009 state panel: 19 pre periods, 6 post, 50
        # controls.  The data here are synthetic; the file simply must load
        # and produce a p-value.
        rng = np.random.default_rng(8)
        controls = rng.standard_normal((25, 50)) + 0.1 * np.arange(25)[:, None]
        treated = controls[:, :3] @ [0.5, 0.3, 0.2] + 0.5 * rng.standard_normal(25)
        panel = PanelData(np.column_stack([treated, controls]), t0=19)
        path = tmp_path / "states.csv"
        write_panel_csv(panel, path)
        loaded = read_panel_csv(path, t0=19, treated="treated1")
        assert loaded.n_post == 6
        result = sc.test_sharp_null(loaded, np.zeros(6), sc.EstimatorSpec.classo())
        assert 0 < result.p_value <= 1
