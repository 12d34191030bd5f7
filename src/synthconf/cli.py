"""Command-line surface: sharp-null tests, confidence intervals, placebo
checks, and Monte Carlo experiments.

Each command reads its inputs, runs the corresponding library pipeline,
and writes a JSON result document plus companion CSV files with plot data
into the output directory.  Given the same inputs, configuration, and
seed, reruns produce identical documents except for the timestamp field.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .estimators import _ESTIMATORS, _REQUIRED, EstimatorSpec
from .exceptions import SynthconfError
from .inference import (
    PermutationScheme,
    Statistic,
    confidence_band,
    placebo_test,
    test_sharp_null,
)
from .io import RunConfig, _coerce, default_seed, read_panel_csv, write_json_result
from .panel import EffectTrajectory
from .simulation import DgpSpec, run_size_experiment

__all__ = ["main", "cmd_test", "cmd_ci", "cmd_placebo", "cmd_simulate", "parse_estimator"]


def parse_estimator(text: str) -> EstimatorSpec:
    """Build an estimator spec from its CLI notation, e.g. ``classo:K=2``.

    The notation is a kind, with ``-`` for ``_`` (``elastic-net``), then
    optionally ``:`` and comma-separated ``key=value`` parameters; the
    estimator table in :mod:`synthconf.estimators` lists each kind's keys.
    A parameter that is itself an estimator (the base of ``fused``) takes
    every key its own kind does not have, so
    ``fused:base=elastic-net:lam=1,alpha=0.5,lags=1`` gives the base both
    ``lam`` and ``alpha``.  Any other unknown key is an error.
    """
    name, _, param_text = text.partition(":")
    kind = name.strip().lower().replace("-", "_")
    params = {}
    if param_text:
        for item in param_text.split(","):
            if "=" not in item:
                raise SynthconfError(f"malformed estimator parameter {item!r} in {text!r}")
            key, _, value = item.partition("=")
            params[key.strip()] = value.strip()
    if kind not in _ESTIMATORS:
        raise SynthconfError(f"unknown estimator {name.strip()!r}")
    row = _ESTIMATORS[kind]
    keys = [key for key, _, _, _ in row.params]
    unknown = [key for key in params if key not in keys]
    nested = next((key for key, _, convert, _ in row.params if convert is EstimatorSpec), None)
    if unknown and nested in params:
        base = params[nested]
        extra = ",".join(f"{key}={params.pop(key)}" for key in unknown)
        params[nested] = f"{base},{extra}" if ":" in base else f"{base}:{extra}"
    elif unknown:
        raise SynthconfError(
            f"estimator {text!r} has unknown parameter {unknown[0]!r}; "
            f"valid parameters: {', '.join(keys) if keys else 'none'}"
        )
    fields = {}
    try:
        for key, field, convert, default in row.params:
            if key in params:
                raw = params[key]
                fields[field] = parse_estimator(raw) if convert is EstimatorSpec else convert(raw)
            elif default is _REQUIRED:
                raise SynthconfError(f"estimator {text!r} is missing parameter {key!r}")
            else:
                fields[field] = default
        return getattr(EstimatorSpec, kind)(**fields)
    except ValueError as exc:
        raise SynthconfError(f"invalid estimator specification {text!r}: {exc}") from None


#: Permutation-scheme kind of each ``--permutations`` value.
_SCHEME_KINDS = {"moving-block": "moving_block", "iid": "iid_all", "iid-sampled": "iid_sampled"}


def _method(cfg: RunConfig) -> tuple[EstimatorSpec, PermutationScheme, Statistic]:
    """Estimator, permutation scheme and statistic of a run, checked before any fit.

    The scheme takes its length from the residuals it is applied to, so
    one scheme serves every window a command tests.
    """
    if not 0 < cfg.alpha < 1:
        raise SynthconfError(f"alpha must lie in (0, 1); got {cfg.alpha}")
    estimator = parse_estimator(cfg.estimator)
    try:
        kind = _SCHEME_KINDS.get(cfg.permutations, cfg.permutations)
        scheme = PermutationScheme(kind, n_samples=cfg.n_perm, seed=cfg.seed)
        statistic = Statistic(cfg.statistic, cfg.q)
    except ValueError as exc:
        raise SynthconfError(str(exc)) from None
    return estimator, scheme, statistic


def _load_panel(cfg: RunConfig):
    if cfg.data is None:
        raise SynthconfError("an input data file is required (--data)")
    return read_panel_csv(
        cfg.data, layout=cfg.layout, t0=cfg.t0, treated=list(cfg.treated), return_names=True
    )


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, count = text.split(":")
        return np.linspace(float(lo), float(hi), int(count))
    except ValueError:
        raise SynthconfError(f"grid must be 'min:max:count'; got {text!r}") from None


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _diagnostics_payload(diagnostics):
    if diagnostics is None:
        return None
    return {
        "iterations": diagnostics.iterations,
        "final_objective": diagnostics.final_objective,
        "converged": diagnostics.converged,
        "kkt_residual": diagnostics.kkt_residual,
        "note": diagnostics.note,
    }


def _write_residuals_csv(path, start: int, residuals: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["period", "residual"])
        for i, value in enumerate(residuals):
            writer.writerow([start + i, format(value, ".17g")])


def _write_test_result(cfg: RunConfig, result, statistic: Statistic, treated_units) -> None:
    """Write ``result.json`` and ``residuals.csv`` of a ``test`` or ``placebo`` run.

    The result's metadata (``tau`` for a placebo test) joins the document.
    """
    out = _out_dir(cfg)
    payload = {
        "command": cfg.command,
        **result.metadata,
        "p_value": result.p_value,
        "statistic": result.statistic,
        "n_permutations": result.n_permutations,
        "estimator": result.estimator_id,
        "estimator_diagnostics": _diagnostics_payload(result.diagnostics),
        "scheme": asdict(result.scheme),
        "statistic_kind": statistic.label,
        "alpha": cfg.alpha,
        "reject": result.p_value <= cfg.alpha,
        "window": list(result.window),
        "treated_units": treated_units,
        "config": asdict(cfg),
    }
    write_json_result(out / "result.json", payload)
    _write_residuals_csv(out / "residuals.csv", result.window[0], result.residuals)


def cmd_test(cfg: RunConfig) -> int:
    """Test a sharp null trajectory (zero by default) on a panel CSV."""
    estimator, scheme, statistic = _method(cfg)
    panel, names = _load_panel(cfg)
    alpha0 = (
        EffectTrajectory(np.asarray(cfg.alpha0, dtype=float))
        if cfg.alpha0 is not None
        else EffectTrajectory.zero(panel.n_post)
    )
    result = test_sharp_null(panel, alpha0, estimator, scheme, statistic)
    _write_test_result(cfg, result, statistic, names[: panel.n_treated])
    print(f"p-value: {result.p_value:.4f}  (statistic {result.statistic:.6g}, "
          f"{result.n_permutations} permutations)")
    return 0


def cmd_ci(cfg: RunConfig) -> int:
    """Pointwise confidence intervals for every post-treatment period."""
    estimator, scheme, statistic = _method(cfg)
    panel, names = _load_panel(cfg)
    grid = _parse_grid(cfg.grid) if cfg.grid is not None else None
    band = confidence_band(
        panel, estimator, scheme, statistic, grid=grid, level=1.0 - cfg.alpha
    )

    out = _out_dir(cfg)
    with open(out / "ci.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["period", "candidate", "p_value", "accepted"])
        for entry in band.entries:
            for candidate, pv, acc in zip(entry.grid, entry.p_values, entry.accepted):
                writer.writerow(
                    [entry.period, format(candidate, ".17g"), format(pv, ".17g"), int(acc)]
                )
    payload = {
        "command": "ci",
        "level": band.level,
        "estimator": estimator.label,
        "intervals": [
            {
                "period": entry.period,
                # JSON has no NaN: an empty interval has null bounds.
                "lower": None if entry.is_empty else entry.lower,
                "upper": None if entry.is_empty else entry.upper,
                "has_gaps": entry.has_gaps,
                "empty": entry.is_empty,
                "iterations": entry.iterations,
                "nonconverged": entry.nonconverged,
            }
            for entry in band.entries
        ],
        "treated_units": names[: panel.n_treated],
        "config": asdict(cfg),
    }
    write_json_result(out / "result.json", payload)
    for entry in band.entries:
        print(f"period {entry.period}: [{entry.lower:.4g}, {entry.upper:.4g}]"
              + (" (gaps)" if entry.has_gaps else ""))
    return 0


def cmd_placebo(cfg: RunConfig) -> int:
    """Placebo specification test at a fake treatment date inside the pre window."""
    if cfg.tau is None:
        raise SynthconfError("placebo tests need --tau (length of the placebo window)")
    estimator, scheme, statistic = _method(cfg)
    panel, names = _load_panel(cfg)
    result = placebo_test(panel, cfg.tau, estimator, scheme, statistic)
    _write_test_result(cfg, result, statistic, names[: panel.n_treated])
    print(f"placebo (tau={cfg.tau}) p-value: {result.p_value:.4f}")
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    """Monte Carlo size or power experiment on a synthetic design."""
    estimator, scheme, _ = _method(cfg)
    try:
        dgp = DgpSpec(
            t0=cfg.sim_t0,
            n_controls=cfg.controls,
            rho_u=cfg.rho_u,
            rho_eps=cfg.rho_eps,
            weights_kind=cfg.dgp,
            factor_trend=cfg.trend,
            alpha_true=cfg.alpha_true,
            seed=cfg.seed,
        )
        result = run_size_experiment(dgp, estimator, scheme, n_reps=cfg.reps, level=cfg.alpha)
    except ValueError as exc:
        raise SynthconfError(f"invalid simulation design: {exc}") from None

    out = _out_dir(cfg)
    row = {
        "dgp": cfg.dgp,
        "estimator": result.estimator_id,
        "t0": cfg.sim_t0,
        "n_controls": cfg.controls,
        "rho_u": cfg.rho_u,
        "rho_eps": cfg.rho_eps,
        "trend": cfg.trend,
        "alpha_true": cfg.alpha_true,
        "level": cfg.alpha,
        "n_reps": cfg.reps,
        "rejection_rate": result.rejection_rate,
    }
    with open(out / "simulation.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(row))
        writer.writeheader()
        writer.writerow(row)
    write_json_result(out / "result.json", {"command": "simulate", **row,
                                            "config": asdict(cfg)})
    print(f"rejection rate: {result.rejection_rate:.4f} ({cfg.reps} reps)")
    return 0


_COMMANDS = {"test": cmd_test, "ci": cmd_ci, "placebo": cmd_placebo, "simulate": cmd_simulate}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synthconf",
        description="Permutation-based conformal inference for policy effects.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value configuration file; flags override it")
        p.add_argument("--estimator", help="e.g. sc, did, classo:K=1, lasso:lam=0.5")
        p.add_argument("--statistic", choices=["sq", "mean"])
        p.add_argument("--q", type=float, help="order of the sq statistic (default 1)")
        p.add_argument("--permutations", choices=["moving-block", "iid", "iid-sampled"])
        p.add_argument("--n-perm", type=int, dest="n_perm",
                       help="sample size for iid-sampled permutations (default 5000)")
        p.add_argument("--alpha", type=float, help="test level / one minus CI coverage")
        p.add_argument("--seed", type=int,
                       help=f"RNG seed (default from ${'{'}SYNTHCONF_SEED{'}'} or 0)")
        p.add_argument("--out", help="output directory (default current directory)")

    def add_data(p):
        p.add_argument("--data", help="panel CSV file")
        p.add_argument("--layout", choices=["wide", "long"])
        p.add_argument("--t0", type=int, help="number of pre-treatment periods")
        p.add_argument("--treated", help="comma-separated treated unit name(s)")

    p_test = sub.add_parser("test", help="test a sharp null trajectory")
    add_data(p_test)
    add_common(p_test)
    p_test.add_argument("--alpha0", help="comma-separated hypothesized effects (default zeros)")

    p_ci = sub.add_parser("ci", help="pointwise confidence intervals")
    add_data(p_ci)
    add_common(p_ci)
    p_ci.add_argument("--grid", help="candidate grid as min:max:count; use --grid=-2:2:41 for negative bounds (default automatic)")

    p_placebo = sub.add_parser("placebo", help="placebo specification test")
    add_data(p_placebo)
    add_common(p_placebo)
    p_placebo.add_argument("--tau", type=int, help="placebo post-window length")

    p_sim = sub.add_parser("simulate", help="Monte Carlo size/power experiment")
    add_common(p_sim)
    p_sim.add_argument("--dgp", choices=["DGP1", "DGP2", "DGP3", "DGP4"])
    p_sim.add_argument("--rho-u", type=float, dest="rho_u")
    p_sim.add_argument("--rho-eps", type=float, dest="rho_eps")
    p_sim.add_argument("--sim-t0", type=int, dest="sim_t0", help="pre-treatment periods")
    p_sim.add_argument("--controls", type=int, help="number of control units")
    p_sim.add_argument("--trend", choices=["stationary", "trending"])
    p_sim.add_argument("--reps", type=int)
    p_sim.add_argument("--alpha-true", type=float, dest="alpha_true",
                       help="true effect added post treatment (0 for size)")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.config:
        cfg = RunConfig.from_file(args.config)
        if cfg.command != args.command:
            cfg = replace(cfg, command=args.command)
    else:
        cfg = RunConfig(command=args.command, seed=default_seed())
    overrides = {}
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        if key in ("treated", "alpha0"):
            try:
                value = _coerce(key, value)
            except ValueError:
                raise SynthconfError(f"invalid value {value!r} for --{key}") from None
        overrides[key] = value
    return replace(cfg, **overrides)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[cfg.command](cfg)
    except SynthconfError as exc:
        print(f"synthconf: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
