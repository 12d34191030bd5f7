"""Tests for CSV ingestion, config round-trips, and the command-line surface."""

import csv
import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synthconf as sc
from synthconf import DgpSpec, PanelData, ParseError, RunConfig, parse_estimator, read_panel_csv
from synthconf import cli, estimators, inference
from synthconf.cli import main
from synthconf.io import SCHEMA_VERSION, SEED_ENV_VAR, _read_config


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_panel_csv(panel, path, unit_names=None):
    """Write ``panel`` in wide layout with 17-significant-digit values; the
    units are ``treated1, ..., control1, ...`` unless ``unit_names`` says."""
    if unit_names is None:
        unit_names = [f"treated{i + 1}" for i in range(panel.n_treated)]
        unit_names += [f"control{i + 1}" for i in range(panel.n_controls)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", *unit_names])
        writer.writerows([t + 1, *(format(x, ".17g") for x in row)] for t, row in enumerate(panel.outcomes))


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

    @pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
    def test_non_finite_time_rejected(self, tmp_path, time):
        # nan rows were never flagged as duplicates and kept whatever place the
        # sort left them in; inf sorted last and became a post-treatment period.
        path = tmp_path / "panel.csv"
        write_lines(path, ["time,a,b", "1,1,2", f"{time},3,4", f"{time},5,6"])
        with pytest.raises(ParseError, match=f"line 3: time period '{time}' is not finite"):
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


def _cells():
    """Value cells that ``float`` accepts: exponents, underscores, signed zeros
    and surrounding whitespace."""
    numbers = st.one_of(
        st.floats(-1e300, 1e300).flatmap(
            lambda x: st.sampled_from([repr(x), f"{x:e}", f"{x:.3E}", f"{x:+.17g}"])),
        st.integers(0, 10**9).map(lambda n: format(n, "_d")),
        st.sampled_from(["-0.0", "0", "+0", "-0", ".5", "5.", "1e3", "-2E-3", "1_0.2_5e1_0"]),
    )
    space = st.sampled_from(["", " ", "  ", "\t"])
    return st.tuples(space, numbers, space).map("".join)


class TestReadWideCells:
    """The wide reader parses a row with one ``float`` call per cell, as the
    per-cell loop did; a bad row is parsed cell by cell to name the bad cell."""

    @staticmethod
    def _write(path, rows):
        write_lines(path, ["time,a,b,c", *(f"{t},{','.join(row)}" for t, row in enumerate(rows, 1))])

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.lists(_cells(), min_size=3, max_size=3), min_size=2, max_size=6))
    def test_equals_per_cell_float(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("cells") / "panel.csv"
        self._write(path, rows)
        panel = read_panel_csv(path, t0=1, treated="a")
        expected = np.array([[float(cell) for cell in row] for row in rows])
        assert panel.outcomes.tobytes() == expected.tobytes()  # signed zeros included

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.lists(_cells(), min_size=3, max_size=3), min_size=2, max_size=5),
           where=st.tuples(st.integers(0, 4), st.integers(0, 2)),
           bad=st.sampled_from(["oops", "1..2", "", " ", "1 2", "0x10", "1__0", "e5", "--1"]))
    def test_bad_cell_named(self, tmp_path_factory, rows, where, bad):
        row, col = where[0] % len(rows), where[1]
        rows[row][col] = bad
        path = tmp_path_factory.mktemp("cells") / "panel.csv"
        self._write(path, rows)
        message = f"line {row + 2}: non-numeric value {bad!r} in column {'abc'[col]!r}"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            read_panel_csv(path, t0=1, treated="a")

    @pytest.mark.parametrize("cell", ["nan", " NaN", "inf", "-Infinity ", "1.8e308"])
    def test_non_finite_value_refused(self, tmp_path, cell):
        # PanelData refused these with a message naming no cell and blaming balance.
        path = tmp_path / "panel.csv"
        self._write(path, [["1", "2", "3"], ["4", cell, "6"], ["nan", "8", "9"]])
        message = f"line 3: non-finite value {cell!r} in column 'b'"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            read_panel_csv(path, t0=1, treated="a")


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

    def test_non_finite_time_rejected(self, tmp_path):
        # A balanced panel with nan times was reported as "panel is unbalanced".
        path = tmp_path / "nan.csv"
        write_lines(path, ["unit,time,outcome", "a,1,1.0", "b,1,0.0", "a,nan,2.0", "b,nan,3.0"])
        with pytest.raises(ParseError, match="line 4: time period 'nan' is not finite"):
            read_panel_csv(path, layout="long", t0=1, treated="a")

    @pytest.mark.parametrize("lines, message", [
        (["a,1,1.0,0.5", "a,2,nan,0.6", "b,1,4.0,-inf", "b,2,5.0,0.8"],
         "line 3: non-finite value 'nan' in column 'outcome'"),
        (["a,1,1.0,0.5", "a,2,2.0,0.6", "b,1,4.0, -inf", "b,2,1e999,0.8"],
         "line 4: non-finite value ' -inf' in column 'x1'"),
    ])
    def test_non_finite_value_refused(self, tmp_path, lines, message):
        # PanelData refused these with a message naming no cell and blaming balance.
        path = tmp_path / "nan.csv"
        write_lines(path, ["unit,time,outcome,x1", *lines])
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
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
            seed=7, out="results", rho_u=0.1 + 0.2,
        )
        path = tmp_path / "run.cfg"
        write_lines(path, ["command=test", "data=panel.csv", "t0=19", "treated=rhode", "estimator=classo:K=1",
                           "q=1.0", "alpha=0.1", "alpha0=0.0,-0.25", "seed=7", "out=results",
                           f"rho_u={0.1 + 0.2!r}"])
        assert RunConfig(**_read_config(path)) == cfg

    def test_config_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        write_lines(path, ["command=test", "banana=1"])
        with pytest.raises(ParseError, match="banana"):
            _read_config(path)

    def test_config_treated_names_are_stripped(self, tmp_path):
        path = tmp_path / "run.cfg"
        write_lines(path, ["command=test", "treated=rhode, ny"])
        assert _read_config(path)["treated"] == ("rhode", "ny")

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

    def test_parameter_without_a_value_refused(self):
        with pytest.raises(sc.SynthconfError, match="malformed estimator parameter 'K' in 'classo:K'"):
            parse_estimator("classo:K")

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

    def test_label_of_automatic_nuclear_radius_is_accepted(self, fixture_csv, tmp_path):
        # Regression: result.json names this spec matrix_completion(K=auto), but
        # matrix-completion:K=auto failed to parse ('auto' is not a float).
        docs = []
        for notation in ("matrix-completion:K=auto", "matrix-completion"):
            out = tmp_path / notation.replace(":", "_")
            assert main(["test", "--data", str(fixture_csv), "--t0", "12", "--treated", "rhode",
                         "--estimator", notation, "--out", str(out)]) == 0
            docs.append(json.loads((out / "result.json").read_text()))
        assert docs[0]["estimator"] == docs[1]["estimator"] == "matrix_completion(K=auto)"
        assert (docs[0]["p_value"], docs[0]["statistic"]) == (docs[1]["p_value"], docs[1]["statistic"])

    def test_fits_once_and_reports_that_fit(self, fixture_csv, tmp_path, monkeypatch):
        calls = []
        fit = inference.fit
        monkeypatch.setattr(inference, "fit", lambda *a: calls.append(a) or fit(*a))
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

    def test_parser_survives_a_rejected_flag(self, fixture_csv, tmp_path, monkeypatch):
        # One process keeps one parser: a good command, a flag argparse
        # rejects, then the good command again must write what a fresh
        # process writes.
        import os
        import re
        import subprocess
        import sys
        from pathlib import Path

        args = ["ci", "--data", str(fixture_csv), "--t0", "12", "--treated", "rhode",
                "--estimator", "sc", "--seed", "0", "--out", "out"]
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        reused.mkdir()
        fresh.mkdir()
        monkeypatch.chdir(reused)
        assert main(args) == 0
        with pytest.raises(SystemExit) as rejected:
            main([*args, "--no-such-flag"])
        assert rejected.value.code == 2
        assert main(args) == 0
        src = str(Path(sc.__file__).parents[1])
        subprocess.run([sys.executable, "-m", "synthconf.cli", *args], cwd=fresh, check=True,
                       capture_output=True, env={**os.environ, "PYTHONPATH": src})
        strip = lambda raw: re.sub(rb'"timestamp": "[^"]*"', b"", raw)
        names = sorted(path.name for path in (reused / "out").iterdir())
        assert names == sorted(path.name for path in (fresh / "out").iterdir())
        for name in names:
            assert strip((reused / "out" / name).read_bytes()) == strip((fresh / "out" / name).read_bytes())

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
        cfg_path = tmp_path / "run.cfg"
        write_lines(cfg_path, ["command=test", f"data={fixture_csv}", "t0=12", "treated=rhode", "estimator=sc",
                               f"out={tmp_path / 'out'}", "seed=0"])
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

    def test_lines_format_the_numpy_scalars(self, fixture_csv, tmp_path, monkeypatch):
        # The writers format Python floats (tolist), which must give the bytes
        # that formatting each numpy scalar gives: ci.csv and residuals.csv.
        kept = {}
        for name in ("confidence_band", "test_sharp_null"):
            monkeypatch.setattr(cli, name, lambda *a, run=getattr(cli, name), name=name, **k:
                                kept.setdefault(name, run(*a, **k)))
        common = ["--data", str(fixture_csv), "--t0", "12", "--treated", "rhode", "--estimator", "sc"]
        assert main(["ci", *common, "--out", str(tmp_path / "ci")]) == 0
        assert main(["test", *common, "--out", str(tmp_path / "test")]) == 0
        band, result = kept["confidence_band"], kept["test_sharp_null"]
        assert (tmp_path / "ci" / "ci.csv").read_text().splitlines() == ["period,candidate,p_value,accepted"] + [
            f"{entry.period},{format(c, '.17g')},{format(p, '.17g')},{int(a)}"
            for entry in band.entries for c, p, a in zip(entry.grid, entry.p_values, entry.accepted)]
        assert (tmp_path / "test" / "residuals.csv").read_text().splitlines() == ["period,residual"] + [
            f"{result.window[0] + i},{format(value, '.17g')}" for i, value in enumerate(result.residuals)]
        assert isinstance(result.residuals[0], np.float64)


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
        ["test", "--q", "nan"],
        ["test", "--q", "inf"],
        ["test", "--permutations", "iid-sampled", "--n-perm", "0"],
        ["ci", "--alpha", "1.5"],
        ["ci", "--grid=-1:1:0"],
        ["test", "--estimator", "lasso:lam=-1"],
        ["test", "--estimator", "elastic-net:lam=inf,alpha=0.5"],
        ["ci", "--grid", "nan:1:5"],
        ["ci", "--estimator", "did", "--grid", "nan:1:5"],
        ["test", "--permutations", "iid-sampled", "--seed", "-1"],
        ["test", "--estimator", "classo:K=inf"],
        ["test", "--estimator", "matrix-completion:K=-1"],
        ["test", "--estimator", "matrix-completion:K=inf"],
    ], ids=["iid_too_long", "q_below_one", "q_nan", "q_inf", "no_samples", "alpha_above_one", "empty_grid",
            "negative_lam", "infinite_lam", "nan_grid_sc", "nan_grid_did", "negative_seed",
            "infinite_classo_radius", "negative_nuclear_radius", "infinite_nuclear_radius"])
    def test_flag_value_is_an_error(self, wide_csv, tmp_path, capsys, argv):
        rc = main([*argv, "--data", str(wide_csv), "--t0", "20", "--treated", "treated",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "synthconf: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("test", "statistic", "median"),
        ("test", "permutations", "iid_all"),
        ("test", "layout", "tall"),
        ("simulate", "dgp", "DGP9"),
        ("simulate", "trend", "up"),
        ("test", "alpha", "abc"),
        ("test", "t0", "1.5"),
        ("test", "seed", "x"),
    ], ids=lambda value: value)
    def test_flag_and_config_line_are_refused_alike(self, wide_csv, tmp_path, capsys, command, key, value):
        # argparse refused these flags itself, with exit 2 and its usage, and a
        # file's permutations=iid_all reached the library's internal name.
        if command == "simulate":
            rest = ["--estimator", "did", "--sim-t0", "5", "--controls", "3", "--reps", "5"]
        else:
            rest = ["--data", str(wide_csv), "--treated", "treated", *(["--t0", "20"] if key != "t0" else [])]
        config = tmp_path / "run.cfg"
        write_lines(config, [f"command={command}", f"{key}={value}"])
        errors = []
        for setting in ([f"--{key}", value], ["--config", str(config)]):
            assert main([command, *setting, *rest, "--out", str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("synthconf: error:") and err.count("\n") == 1
            errors.append(err)
        if key in ("statistic", "permutations", "layout", "dgp", "trend"):
            assert errors[0] == errors[1]

    @pytest.mark.parametrize("command, key, value, message", [
        ("test", "statistic", "median", "unknown statistic 'median'; expected 'sq' or 'mean'"),
        ("simulate", "dgp", "DGP9",
         "invalid simulation design: unknown design 'DGP9'; expected one of DGP1, DGP2, DGP3, DGP4"),
        ("simulate", "trend", "up", "invalid simulation design: unknown trend 'up'; expected 'stationary' or 'trending'"),
    ], ids=["statistic", "dgp", "trend"])
    def test_unknown_name_refusal_lists_the_accepted_names(self, wide_csv, tmp_path, capsys,
                                                           command, key, value, message):
        # These named DgpSpec's fields (weights_kind, factor_trend), or listed no names.
        if command == "simulate":
            rest = ["--estimator", "did", "--sim-t0", "5", "--controls", "3", "--reps", "5"]
        else:
            rest = ["--data", str(wide_csv), "--treated", "treated", "--t0", "20"]
        assert main([command, f"--{key}", value, *rest, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"synthconf: error: {message}\n"

    def test_n_perm_and_seed_are_read_by_iid_sampled_only(self, wide_csv, tmp_path):
        # A moving-block run accepted --n-perm 0 and wrote "n_samples": 0.
        data = ["--data", str(wide_csv), "--t0", "20", "--treated", "treated"]
        out = tmp_path / "out"
        assert main(["test", *data, "--n-perm", "0", "--seed", "3", "--out", str(out)]) == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["scheme"] == {"kind": "moving_block", "n_samples": 5000, "seed": 0}
        assert (doc["config"]["n_perm"], doc["config"]["seed"]) == (0, 3)
        assert main(["test", *data, "--permutations", "iid-sampled", "--n-perm", "0", "--out", str(out)]) == 1

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

    @pytest.mark.parametrize("flags, message", [
        (["--seed", "-1"], "seed must be >= 0; got -1"),
        (["--alpha-true", "nan"], "alpha_true must be finite; got nan"),
        (["--alpha-true", "inf"], "alpha_true must be finite; got inf"),
        (["--alpha-true=-inf"], "alpha_true must be finite; got -inf"),
    ], ids=["negative_seed", "nan_effect", "inf_effect", "minus_inf_effect"])
    def test_simulate_design_value(self, tmp_path, capsys, flags, message):
        # A negative seed failed inside numpy with a message that did not name
        # it, and a NaN effect exited 0 and wrote a result.json that is not JSON.
        out = tmp_path / "out"
        rc = main(["simulate", "--estimator", "did", "--sim-t0", "5", "--controls", "3",
                   "--reps", "5", *flags, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"synthconf: error: invalid simulation design: {message}\n"
        assert not (out / "result.json").exists()


class TestRefusals:
    """Refusals of the command line and the readers, one row each: through
    ``main`` (exit 1, one ``synthconf: error:`` line) where a flag reaches
    the check, else through the reader itself."""

    WIDE = ["time,treated,c1", "1,0.5,1.5", "2,1.0,2.0", "3,1.5,2.5"]
    LONG = ["unit,time,outcome", "treated,1,0.5", "c1,1,1.5", "treated,2,1.0", "c1,2,2.0"]
    DATA = ["--data", "{path}", "--t0", "2"]

    @pytest.mark.parametrize("lines, call, message", [
        (WIDE, ["test", "--t0", "2", "--treated", "treated"], "an input data file is required (--data)"),
        (WIDE, ["ci", *DATA, "--treated", "treated", "--grid", "1:2"], "grid must be 'min:max:count'; got '1:2'"),
        (WIDE, lambda path: read_panel_csv(path, t0=2), "treated unit name(s) must be supplied"),
        (WIDE, ["test", *DATA], "treated unit name(s) must be supplied"),
        (WIDE[:1], ["test", *DATA, "--treated", "treated"], "file needs a header row and at least one data row"),
        (["time", "1"], ["test", *DATA, "--treated", "treated"],
         "line 1: wide layout needs a time column plus one column per unit"),
        (["unit,time", "treated,1"], ["test", *DATA, "--treated", "treated", "--layout", "long"],
         "line 1: long layout needs columns unit, time, outcome"),
        ([*LONG[:2], "c1,1"], ["test", *DATA, "--treated", "treated", "--layout", "long"],
         "line 3: expected 3 fields, got 2"),
        (LONG, ["test", *DATA, "--treated", "nobody", "--layout", "long"],
         "treated unit(s) ['nobody'] not found among units ['c1', 'treated']"),
        (["command=test", "oops"], ["test", "--config", "{path}"], "line 2: expected key=value, got 'oops'"),
        (WIDE, ["simulate", "--estimator", "did", "--reps", "0"], "--reps must be >= 1; got 0"),
        (WIDE, ["simulate", "--estimator", "did", "--permutations", "iid", "--reps", "2"],
         "iid_all enumerates T! permutations and is limited to T <= 10; got T=21"),
        (WIDE, ["test", *DATA, "--treated", "treated", "--statistic", "mean", "--q", "2"],
         "mean statistics do not use 'q'"),
    ], ids=["no_data", "malformed_grid", "treated_none", "no_treated", "header_only", "short_wide_header",
            "short_long_header", "ragged_long_row", "unknown_long_treated", "config_line_without_equals",
            "simulate_no_reps", "simulate_iid_too_long",
            "mean_with_q"])
    def test_message(self, tmp_path, capsys, lines, call, message):
        path = tmp_path / "input"
        write_lines(path, lines)
        if callable(call):
            with pytest.raises(ParseError) as refused:
                call(path)
            assert str(refused.value) == message
        else:
            argv = [str(path) if arg == "{path}" else arg for arg in call]
            assert main([*argv, "--out", str(tmp_path / "out")]) == 1
            assert capsys.readouterr().err == f"synthconf: error: {message}\n"

    def test_overflowing_statistic(self, tmp_path, capsys):
        # Regression: S_2 overflowed on this panel, so every statistic was
        # infinite, and the command printed p-value 0 and wrote
        # "statistic": Infinity, which is not strict JSON, with exit 0.
        path = tmp_path / "panel.csv"
        write_panel_csv(PanelData(1e160 * np.random.default_rng(0).standard_normal((14, 5)), t0=12), path)
        argv = ["test", "--data", str(path), "--t0", "12", "--treated", "treated1", "--estimator", "did", "--q", "2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == ("synthconf: error: a permuted statistic is not finite: the residuals "
                                           "overflow it, or a custom statistic returned NaN or infinity; "
                                           "rescale the outcomes\n")

    def test_out_that_is_a_file(self, tmp_path, capsys):
        # Regression: the run did all its work, then ended with a FileExistsError traceback.
        out = tmp_path / "afile"
        out.write_text("kept\n", encoding="utf-8")
        assert main(["simulate", "--sim-t0", "5", "--controls", "3", "--reps", "3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"synthconf: error: cannot write the results into --out {str(out)!r}: File exists\n"
        assert out.read_text(encoding="utf-8") == "kept\n"


class TestWarningLine:
    @pytest.mark.parametrize("extra, lines", [
        (["placebo", "--tau", "11"], ["placebo slice leaves a single pre-treatment period"]),
        (["ci", "--grid=100:101:3"], ["no candidate effect accepted for period 13: widen or refine the grid"]),
    ], ids=["placebo", "ci"])
    def test_a_package_warning_is_one_line(self, fixture_csv, tmp_path, capfd, extra, lines):
        # The command line printed Python's form: a path, a line number,
        # the category and a line of the caller's source.
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(sc.__file__).parents[1])
        subprocess.run([sys.executable, "-m", "synthconf.cli", extra[0], "--data", str(fixture_csv), "--t0", "12",
                        "--treated", "rhode", *extra[1:], "--out", str(tmp_path / "out")],
                       check=True, env={**os.environ, "PYTHONPATH": src})
        assert capfd.readouterr().err == "".join(f"synthconf: warning: {line}\n" for line in lines)

    def test_the_format_is_restored(self, fixture_csv, tmp_path):
        shown = warnings.formatwarning
        with pytest.warns(UserWarning, match="single pre-treatment period"):
            assert main(["placebo", "--data", str(fixture_csv), "--t0", "12", "--treated", "rhode",
                         "--tau", "11", "--out", str(tmp_path / "out")]) == 0
        assert warnings.formatwarning is shown


class TestConfigFile:
    """A ``--config`` file under a subcommand: the subcommand names the run,
    and the file's settings stand under its flags."""

    @pytest.mark.parametrize("command", ["test", "simulate"])
    def test_env_seed_used_when_neither_file_nor_flag_sets_one(self, fixture_csv, tmp_path, monkeypatch, command):
        # A file without a seed line ran with seed 0 whatever SYNTHCONF_SEED said.
        monkeypatch.setenv(SEED_ENV_VAR, "42")
        config = tmp_path / "run.cfg"
        write_lines(config, [f"data={fixture_csv}", "t0=12", "treated=rhode", "estimator=did",
                             "sim_t0=5", "controls=3", "reps=3", f"out={tmp_path / 'out'}"])
        assert main([command, "--config", str(config)]) == 0
        assert json.loads((tmp_path / "out" / "result.json").read_text())["config"]["seed"] == 42

    def test_file_need_not_set_command(self, fixture_csv, tmp_path):
        config = tmp_path / "run.cfg"
        write_lines(config, [f"data={fixture_csv}", "t0=12", "treated=rhode", "estimator=sc",
                             f"out={tmp_path / 'out'}", "seed=0"])
        assert main(["test", "--config", str(config)]) == 0
        doc = json.loads((tmp_path / "out" / "result.json").read_text())
        assert doc["command"] == doc["config"]["command"] == "test"
        assert doc["p_value"] == pytest.approx(8 / 13, abs=0)

    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        config = tmp_path / "run.cfg"
        write_lines(config, ["# a short design", "", "sim_t0=5", "  # indented", "controls=3", "   ", "reps=3"])
        assert _read_config(config) == {"sim_t0": 5, "controls": 3, "reps": 3}

    def test_file_for_another_command_is_refused(self, fixture_csv, tmp_path, capsys):
        # The subcommand overrode the file's command=simulate and ran test.
        config = tmp_path / "run.cfg"
        write_lines(config, ["command=simulate", f"data={fixture_csv}", "t0=12", "treated=rhode"])
        assert main(["test", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"synthconf: error: {str(config)!r} sets command=simulate, not test\n"
        assert not (tmp_path / "out").exists()

    def test_lines_of_settings_the_command_does_not_read_are_left_out(self, tmp_path):
        # simulate refused a file's q=0.5 and statistic=median, though it ranks with neither.
        config = tmp_path / "run.cfg"
        write_lines(config, ["statistic=median", "q=0.5", "tau=3", "grid=x", "estimator=did",
                             "sim_t0=5", "controls=3", "reps=3", f"out={tmp_path / 'out'}"])
        assert main(["simulate", "--config", str(config)]) == 0
        recorded = json.loads((tmp_path / "out" / "result.json").read_text())["config"]
        assert (recorded["statistic"], recorded["q"], recorded["tau"], recorded["grid"]) == ("sq", 1.0, None, None)
        assert (recorded["sim_t0"], recorded["reps"]) == (5, 3)

    @pytest.mark.parametrize("flag", [["--statistic", "mean"], ["--q", "2"]], ids=["statistic", "q"])
    def test_simulate_has_no_statistic_flags(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as rejected:
            main(["simulate", *flag, "--sim-t0", "5", "--controls", "3", "--reps", "3",
                  "--out", str(tmp_path / "out")])
        assert rejected.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


    def test_a_flag_prefix_is_not_a_flag(self, fixture_csv, tmp_path, capsys):
        # argparse took --stat for --statistic, while a file's stat=mean is an unknown key.
        argv = ["test", "--data", str(fixture_csv), "--t0", "12", "--treated", "rhode", "--estimator", "did"]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as rejected:
            main([*argv, "--stat", "mean", "--out", str(out)])
        assert rejected.value.code == 2
        assert "unrecognized arguments: --stat mean" in capsys.readouterr().err
        assert not out.exists()
        assert main([*argv, "--statistic=mean", "--out", str(out)]) == 0
        assert json.loads((out / "result.json").read_text())["statistic_kind"] == "mean"


class TestResultDocument:
    """``result.json`` holds the bytes that ``asdict`` and ``json.dump`` gave,
    apart from its timestamp."""

    @staticmethod
    def _dump(path, payload):
        document = {"schema_version": SCHEMA_VERSION, "timestamp": ""}
        document.update(payload)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @pytest.mark.parametrize("argv", [
        ["test", "--estimator", "elastic-net:lam=0.5,alpha=0.5", "--alpha0", "0.5"],
        ["placebo", "--tau", "2", "--permutations", "iid-sampled", "--n-perm", "50", "--seed", "4"],
        ["ci", "--grid=-1:1:5", "--estimator", "lasso:lam=0.1"],
        ["simulate", "--sim-t0", "6", "--controls", "3", "--reps", "4", "--alpha-true", "0.25"],
    ], ids=["test", "placebo", "ci", "simulate"])
    def test_bytes_equal_the_asdict_form(self, fixture_csv, tmp_path, monkeypatch, argv):
        if argv[0] != "simulate":
            argv = [*argv, "--data", str(fixture_csv), "--t0", "12", "--treated", "rhode"]
        argv = [*argv, "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        new = (tmp_path / "out" / "result.json").read_bytes()
        monkeypatch.setattr(cli, "_fields", dataclasses.asdict)
        monkeypatch.setattr(cli, "write_json_result", self._dump)
        assert main(argv) == 0
        old = (tmp_path / "out" / "result.json").read_bytes()
        strip = lambda raw: re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""', raw)
        assert b'"config": {' in new and strip(new) == strip(old)

    @pytest.mark.parametrize("argv, table, settings", [
        (["test"], "residuals.csv", {}),
        (["placebo", "--tau", "2"], "residuals.csv", {"tau": 2}),
        (["ci", "--grid=-1:1:5"], "ci.csv", {"grid": "-1:1:5"}),
        (["simulate", "--sim-t0", "6", "--controls", "3", "--reps", "4"], "simulation.csv",
         {"sim_t0": 6, "controls": 3, "reps": 4}),
    ], ids=["test", "placebo", "ci", "simulate"])
    def test_out_holds_the_document_and_one_table(self, fixture_csv, tmp_path, argv, table, settings):
        out = tmp_path / "new" / "out"
        if argv[0] != "simulate":
            argv = [*argv, "--data", str(fixture_csv), "--t0", "12", "--treated", "rhode"]
            settings = {**settings, "data": str(fixture_csv), "t0": 12, "treated": ("rhode",)}
        assert main([*argv, "--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == sorted(["result.json", table])
        doc = json.loads((out / "result.json").read_text())
        assert doc["schema_version"] == SCHEMA_VERSION and doc["timestamp"]
        assert doc["command"] == argv[0]
        run = RunConfig(command=argv[0], out=str(out), **settings)
        assert doc["config"] == json.loads(json.dumps(dataclasses.asdict(run)))


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

    def test_env_seed_not_an_integer(self, fixture_csv, tmp_path, monkeypatch, capsys):
        # int() of the variable raised out of main() as a traceback.
        monkeypatch.setenv(SEED_ENV_VAR, "abc")
        rc = main(["test", "--data", str(fixture_csv), "--t0", "12", "--treated", "rhode",
                   "--estimator", "did", "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("synthconf: error:") and SEED_ENV_VAR in err

    def test_seed_flag_overrides_a_bad_env_seed(self, fixture_csv, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "abc")
        out = tmp_path / "out"
        rc = main(["test", "--data", str(fixture_csv), "--t0", "12", "--treated", "rhode",
                   "--estimator", "did", "--seed", "5", "--out", str(out)])
        assert rc == 0
        assert json.loads((out / "result.json").read_text())["config"]["seed"] == 5


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
