"""Command-line surface: sharp-null tests, confidence intervals, placebo
checks, and Monte Carlo experiments.

Each command reads its inputs, runs the corresponding library pipeline,
and writes a JSON result document plus one CSV table with plot data into
the output directory, through one writer.  Given the same inputs,
configuration, and seed, reruns produce identical documents except for
the timestamp field.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from .estimators import EstimatorSpec, parse_estimator
from .exceptions import SynthconfError
from .inference import (
    PermutationScheme,
    Statistic,
    confidence_band,
    placebo_test,
    test_sharp_null,
)
from .io import RunConfig, _coerce, _read_config, read_panel_csv, write_json_result
from .simulation import DgpSpec, run_size_experiment

__all__ = ["main", "cmd_test", "cmd_ci", "cmd_placebo", "cmd_simulate"]


#: Permutation-scheme kind of each ``--permutations`` value.
_SCHEME_KINDS = {"moving-block": "moving_block", "iid": "iid_all", "iid-sampled": "iid_sampled"}


def _method(cfg: RunConfig) -> tuple[EstimatorSpec, PermutationScheme, Statistic]:
    """Estimator, permutation scheme and statistic of a run, checked before any fit.

    The scheme takes its length from the residuals it is applied to, so
    one scheme serves every window a command tests.  Only ``iid-sampled``
    reads ``n_perm`` and ``seed``.
    """
    if not 0 < cfg.alpha < 1:
        raise SynthconfError(f"alpha must lie in (0, 1); got {cfg.alpha}")
    estimator = parse_estimator(cfg.estimator)
    if cfg.permutations not in _SCHEME_KINDS:
        raise SynthconfError(f"unknown permutations {cfg.permutations!r}; expected one of {', '.join(_SCHEME_KINDS)}")
    sampled = {"n_samples": cfg.n_perm, "seed": cfg.seed} if cfg.permutations == "iid-sampled" else {}
    try:
        scheme = PermutationScheme(_SCHEME_KINDS[cfg.permutations], **sampled)
        return estimator, scheme, Statistic(cfg.statistic, cfg.q)
    except ValueError as exc:
        raise SynthconfError(str(exc)) from None


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


def _fields(instance) -> dict:
    """The fields of a dataclass of scalars and tuples, as ``asdict`` gives them
    without its deep copy."""
    return {f.name: getattr(instance, f.name) for f in fields(instance)}


def _write_result(cfg: RunConfig, payload: dict, table: str, header, rows) -> None:
    """Write a command's files into ``--out``, which is made if missing: its one
    CSV ``table`` and ``result.json``, the document ``command``, then
    ``payload``, then ``config`` (the run's :class:`RunConfig` fields).  An
    ``OSError`` in making or writing ``--out`` is a :class:`SynthconfError`
    that names the directory."""
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / table, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        write_json_result(out / "result.json", {"command": cfg.command, **payload, "config": _fields(cfg)})
    except OSError as exc:
        raise SynthconfError(f"cannot write the results into --out {str(out)!r}: {exc.strerror or exc}") from None


def _write_test_result(cfg: RunConfig, result, statistic: Statistic, treated_units) -> None:
    """Write the files of a ``test`` or ``placebo`` run; the table is ``residuals.csv``.

    The result's metadata (``tau`` for a placebo test) joins the document.
    """
    payload = {
        **result.metadata,
        "p_value": result.p_value,
        "statistic": result.statistic,
        "n_permutations": result.n_permutations,
        "estimator": result.estimator_id,
        "estimator_diagnostics": None if result.diagnostics is None else {
            key: value for key, value in _fields(result.diagnostics).items() if key != "objective_trace"},
        "scheme": _fields(result.scheme),
        "statistic_kind": statistic.label,
        "alpha": cfg.alpha,
        "reject": result.p_value <= cfg.alpha,
        "window": list(result.window),
        "treated_units": treated_units,
    }
    start = result.window[0]
    _write_result(cfg, payload, "residuals.csv", ["period", "residual"],
                  ([start + i, format(value, ".17g")] for i, value in enumerate(result.residuals.tolist())))


def cmd_test(cfg: RunConfig) -> int:
    """Test a sharp null trajectory (zero by default) on a panel CSV."""
    estimator, scheme, statistic = _method(cfg)
    panel, names = _load_panel(cfg)
    alpha0 = cfg.alpha0 if cfg.alpha0 is not None else np.zeros(panel.n_post)
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

    payload = {
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
    }
    _write_result(cfg, payload, "ci.csv", ["period", "candidate", "p_value", "accepted"],
                  ([entry.period, format(candidate, ".17g"), format(pv, ".17g"), int(acc)]
                   for entry in band.entries for candidate, pv, acc in
                   zip(entry.grid.tolist(), entry.p_values.tolist(), entry.accepted.tolist())))
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
    except ValueError as exc:
        raise SynthconfError(f"invalid simulation design: {exc}") from None
    if cfg.reps < 1:
        raise SynthconfError(f"--reps must be >= 1; got {cfg.reps}")
    result = run_size_experiment(dgp, estimator, scheme, n_reps=cfg.reps, level=cfg.alpha)

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
    _write_result(cfg, row, "simulation.csv", list(row), [list(row.values())])
    print(f"rejection rate: {result.rejection_rate:.4f} ({cfg.reps} reps)")
    return 0


_COMMANDS = {
    "test": (cmd_test, "test a sharp null trajectory"),
    "ci": (cmd_ci, "pointwise confidence intervals"),
    "placebo": (cmd_placebo, "placebo specification test"),
    "simulate": (cmd_simulate, "Monte Carlo size/power experiment"),
}


@functools.cache  # built once per process: parsing leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    """One subcommand per entry of ``_COMMANDS``, each with ``--config`` and one
    flag per :class:`RunConfig` field that the command reads (``n_perm`` is
    ``--n-perm``).  Every flag value arrives as text, for ``_coerce``."""
    parser = argparse.ArgumentParser(
        prog="synthconf",
        description="Permutation-based conformal inference for policy effects.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line, allow_abbrev=False)
        p.add_argument("--config", help="key=value configuration file; flags override it")
        for setting in fields(RunConfig):
            if command in setting.metadata["commands"]:
                p.add_argument(f"--{setting.name.replace('_', '-')}", help=setting.metadata["help"])
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The flags over the ``--config`` file's settings over the field defaults.

    Each flag's text is parsed by ``_coerce``, as the same key's line in a
    file is.  A file need not set ``command``, but one that names another
    command is refused; its lines for settings this command has no flag
    for are left out, so that one file can serve several commands.
    """
    overrides = {}
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        try:
            overrides[key] = _coerce(key, value)
        except ValueError:
            raise SynthconfError(f"invalid value {value!r} for --{key.replace('_', '-')}") from None
    settings = _read_config(args.config) if args.config else {}
    if settings.get("command", args.command) != args.command:
        raise SynthconfError(f"{args.config!r} sets command={settings['command']}, not {args.command}")
    read = {key: value for key, value in settings.items() if key in vars(args)}
    return RunConfig(**{**read, **overrides, "command": args.command})


def main(argv=None) -> int:
    """Run one command; an error is one ``synthconf: error:`` line and exit 1.

    While it runs, a ``UserWarning`` that is shown is one ``synthconf:
    warning:`` line, without the source line; the filters, and so whether
    a warning is shown or raised, are left as they are.
    """
    args = _build_parser().parse_args(argv)
    shown = warnings.formatwarning
    warnings.formatwarning = lambda message, category, *where: (
        f"synthconf: warning: {message}\n" if issubclass(category, UserWarning) else shown(message, category, *where))
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[cfg.command][0](cfg)
    except SynthconfError as exc:
        print(f"synthconf: error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = shown


if __name__ == "__main__":
    sys.exit(main())
