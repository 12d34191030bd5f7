"""CSV ingestion, result serialization, and the run-configuration format.

Two CSV layouts are accepted.  *Wide*: the first column is the time
period, each remaining column is one unit, and the header row names the
units.  *Long*: columns ``unit, time, outcome`` plus optional covariate
columns.  Both layouts need the treated unit name(s) and the number of
pre-treatment periods, supplied as arguments (mirrored by CLI flags).
The result CSVs that the command line writes (``residuals.csv``,
``ci.csv``) carry 17 significant digits, so reading them back gives the
written values exactly.  Each setting of a command-line run is one
:class:`RunConfig` field, which declares its default, how its text
parses (a flag's and a ``--config`` line's alike), the commands that
read it and its ``--help`` line; the command line builds its flags from it.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields
from datetime import datetime, timezone

import numpy as np

from .exceptions import ParseError
from .panel import PanelData

__all__ = [
    "read_panel_csv",
    "RunConfig",
    "write_json_result",
]

SCHEMA_VERSION = "1"

#: Environment variable consulted for the default seed.
SEED_ENV_VAR = "SYNTHCONF_SEED"


def _parse_float(cell: str, lineno: int, column: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ParseError(
            f"line {lineno}: non-numeric value {cell!r} in column {column!r}"
        ) from None


def _parse_time(cell: str, lineno: int, column: str) -> float:
    """A time period: a finite number, so that it sorts and compares as a period."""
    time = _parse_float(cell, lineno, column)
    if not math.isfinite(time):
        raise ParseError(f"line {lineno}: time period {cell!r} is not finite")
    return time


def _refuse_non_finite(rows, first: int, columns: list[str], *values: np.ndarray | None) -> None:
    """Raise ``ParseError`` naming the first non-finite value cell (``nan``,
    ``inf``, or an overflow such as ``1e999``), if ``values`` hold one.

    ``values`` are the arrays of parsed value cells (``None`` for none);
    the value cells of each row start at field ``first``, under
    ``columns``.  The rows are read again only when a value is not finite.
    """
    if all(v is None or np.isfinite(v).all() for v in values):
        return
    for lineno, row in rows[1:]:
        for column, cell in zip(columns, row[first:]):
            if not math.isfinite(float(cell)):
                raise ParseError(f"line {lineno}: non-finite value {cell!r} in column {column!r}")


def _as_treated_list(treated) -> list[str]:
    out = [treated] if isinstance(treated, str) else list(treated if treated is not None else ())
    if not out:
        raise ParseError("treated unit name(s) must be supplied")
    repeated = next((name for i, name in enumerate(out) if name in out[:i]), None)
    if repeated is not None:
        raise ParseError(f"treated unit {repeated!r} is named more than once")
    return out


def read_panel_csv(path, layout: str = "wide", t0: int | None = None,
                   treated=None, return_names: bool = False):
    """Load a panel from CSV.

    Parameters
    ----------
    path : str or Path
    layout : {"wide", "long"}
    t0 : int
        Number of pre-treatment periods.
    treated : str or sequence of str
        Name(s) of the treated unit(s); they become the leading columns.
    return_names : bool
        Also return the unit names in column order.

    Returns
    -------
    PanelData, or (PanelData, list of str) with ``return_names``.

    Raises
    ------
    ParseError
        On a file that cannot be read (the message names it), ragged rows,
        non-numeric cells, a time period or value that is not finite
        (``nan``, ``inf``, or an overflow such as ``1e999``), duplicate or
        missing observations, or unknown or repeated treated units;
        messages carry the offending line number.
    """
    if layout not in ("wide", "long"):
        raise ParseError(f"unknown layout {layout!r}; expected 'wide' or 'long'")
    if t0 is None:
        raise ParseError("t0 (number of pre-treatment periods) must be supplied")
    treated_names = _as_treated_list(treated)
    if layout == "wide":
        panel, names = _read_wide(path, t0, treated_names)
    else:
        panel, names = _read_long(path, t0, treated_names)
    return (panel, names) if return_names else panel


def _unreadable(path, exc: OSError) -> ParseError:
    return ParseError(f"cannot read {str(path)!r}: {exc.strerror or exc}")


def _read_rows(path) -> list[tuple[int, list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [(lineno, row) for lineno, row in enumerate(csv.reader(fh), start=1) if row]
    except OSError as exc:
        raise _unreadable(path, exc) from None
    if len(rows) < 2:
        raise ParseError("file needs a header row and at least one data row")
    return rows


def _read_wide(path, t0: int, treated_names: list[str]):
    rows = _read_rows(path)
    _, header = rows[0]
    if len(header) < 2:
        raise ParseError("line 1: wide layout needs a time column plus one column per unit")
    units = [name.strip() for name in header[1:]]
    if len(set(units)) != len(units):
        raise ParseError("line 1: duplicate unit names in header")
    n_fields = len(header)
    records = []
    seen_times = set()
    for lineno, row in rows[1:]:
        if len(row) != n_fields:
            raise ParseError(f"line {lineno}: expected {n_fields} fields, got {len(row)}")
        time = _parse_time(row[0], lineno, header[0])
        if time in seen_times:
            raise ParseError(f"line {lineno}: duplicate time period {row[0]!r}")
        seen_times.add(time)
        try:
            values = list(map(float, row[1:]))
        except ValueError:  # name the first bad cell
            values = [_parse_float(cell, lineno, units[j]) for j, cell in enumerate(row[1:])]
        records.append((time, values))
    records.sort(key=lambda item: item[0])
    outcomes = np.array([values for _, values in records])
    _refuse_non_finite(rows, 1, units, outcomes)

    missing = [name for name in treated_names if name not in units]
    if missing:
        raise ParseError(f"treated unit(s) {missing} not found among columns {units}")
    rest = [j for j, name in enumerate(units) if name not in treated_names]
    order = treated_names + [units[j] for j in rest]
    col = [units.index(name) for name in treated_names] + rest
    panel = PanelData(outcomes[:, col], t0=t0, n_treated=len(treated_names))
    return panel, order


def _read_long(path, t0: int, treated_names: list[str]):
    rows = _read_rows(path)
    _, header = rows[0]
    if len(header) < 3:
        raise ParseError("line 1: long layout needs columns unit, time, outcome")
    cov_names = [name.strip() for name in header[3:]]
    records: dict[tuple[str, float], tuple[float, list[float]]] = {}
    units_seen: list[str] = []
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise ParseError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        unit = row[0].strip()
        time = _parse_time(row[1], lineno, header[1])
        key = (unit, time)
        if key in records:
            raise ParseError(f"line {lineno}: duplicate observation for unit {unit!r} at time {row[1]!r}")
        outcome = _parse_float(row[2], lineno, header[2])
        covs = [_parse_float(cell, lineno, cov_names[j]) for j, cell in enumerate(row[3:])]
        records[key] = (outcome, covs)
        if unit not in units_seen:
            units_seen.append(unit)

    missing = [name for name in treated_names if name not in units_seen]
    if missing:
        raise ParseError(f"treated unit(s) {missing} not found among units {sorted(units_seen)}")
    order = treated_names + sorted(name for name in units_seen if name not in treated_names)
    times = sorted({time for _, time in records})
    outcomes = np.empty((len(times), len(order)))
    covariates = np.empty((len(times), len(order), len(cov_names))) if cov_names else None
    for i, time in enumerate(times):
        for j, unit in enumerate(order):
            key = (unit, time)
            if key not in records:
                raise ParseError(
                    f"panel is unbalanced: no observation for unit {unit!r} at time {time:g}"
                )
            outcome, covs = records[key]
            outcomes[i, j] = outcome
            if covariates is not None:
                covariates[i, j] = covs
    _refuse_non_finite(rows, 2, [header[2], *cov_names], outcomes, covariates)
    panel = PanelData(outcomes, t0=t0, n_treated=len(treated_names), covariates=covariates)
    return panel, order


def write_json_result(path, payload: dict) -> None:
    """Serialize a result document; key order is fixed so reruns are comparable.

    The document is encoded in one ``json.dumps`` call and written at once.
    """
    document = {"schema_version": SCHEMA_VERSION,
                "timestamp": datetime.now(timezone.utc).isoformat()}
    document.update(payload)
    text = json.dumps(document, indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def default_seed() -> int:
    """Seed used when none is given; overridable via the environment.

    Raises ``ParseError`` naming the variable when its value is not an integer.
    """
    text = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{SEED_ENV_VAR}={text!r} is not an integer") from None


def _names(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


_DATA, _SIM = ("test", "ci", "placebo"), ("simulate",)  # the commands with and without a panel CSV


def _setting(default=MISSING, *, parse=str, commands=_DATA + _SIM, help=None, default_factory=MISSING):
    """A :class:`RunConfig` field: its default, the parser of its text, the
    commands that take it as a flag, and the flag's ``--help`` line."""
    return field(default=default, default_factory=default_factory,
                 metadata={"parse": parse, "commands": commands, "help": help})


@dataclass(frozen=True)
class RunConfig:
    """All parameters of one command-line run, each declared once by :func:`_setting`.

    ``seed`` defaults to ``$SYNTHCONF_SEED``, else 0.  A ``--config`` file
    (:func:`_read_config`) sets them as ``key=value`` lines, one per line;
    ``treated`` and ``alpha0`` are comma-joined (unit names therefore must
    not contain commas), and a float written with ``repr`` reads back exactly.
    """

    command: str = _setting(commands=())
    data: str | None = _setting(None, commands=_DATA, help="panel CSV file")
    layout: str = _setting("wide", commands=_DATA, help="wide or long (default wide)")
    t0: int | None = _setting(None, parse=int, commands=_DATA, help="number of pre-treatment periods")
    treated: tuple[str, ...] = _setting((), parse=_names, commands=_DATA, help="comma-separated treated unit name(s)")
    estimator: str = _setting("sc", help="e.g. sc, did, classo:K=1, lasso:lam=0.5")
    statistic: str = _setting("sq", commands=_DATA, help="sq or mean (default sq)")
    q: float = _setting(1.0, parse=float, commands=_DATA, help="order of the sq statistic (default 1)")
    permutations: str = _setting("moving-block", help="moving-block, iid, iid-sampled (default moving-block)")
    n_perm: int = _setting(5000, parse=int, help="sample size for iid-sampled permutations (default 5000)")
    alpha: float = _setting(0.1, parse=float, help="test level / one minus CI coverage")
    alpha0: tuple[float, ...] | None = _setting(
        None, parse=_floats, commands=("test",), help="comma-separated hypothesized effects (default zeros)")
    grid: str | None = _setting(None, commands=("ci",), help="candidate grid as min:max:count; use "
                                "--grid=-2:2:41 for negative bounds (default automatic)")
    tau: int | None = _setting(None, parse=int, commands=("placebo",), help="placebo post-window length")
    seed: int = _setting(parse=int, default_factory=default_seed,
                         help="RNG seed (default from ${SYNTHCONF_SEED} or 0)")
    out: str = _setting(".", help="output directory (default current directory)")
    dgp: str = _setting("DGP1", commands=_SIM, help="DGP1, DGP2, DGP3 or DGP4 (default DGP1)")
    rho_u: float = _setting(0.0, parse=float, commands=_SIM)
    rho_eps: float = _setting(0.0, parse=float, commands=_SIM)
    sim_t0: int = _setting(20, parse=int, commands=_SIM, help="pre-treatment periods")
    controls: int = _setting(20, parse=int, commands=_SIM, help="number of control units")
    trend: str = _setting("stationary", commands=_SIM, help="stationary or trending (default stationary)")
    reps: int = _setting(5000, parse=int, commands=_SIM)
    alpha_true: float = _setting(0.0, parse=float, commands=_SIM,
                                 help="true effect added post treatment (0 for size)")


_SETTINGS = {setting.name: setting for setting in fields(RunConfig)}


def _read_config(path) -> dict:
    """The settings that a ``key=value`` file sets, each parsed by :func:`_coerce`;
    an unknown key or a value that does not parse is a ``ParseError`` naming its line."""
    settings = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _unreadable(path, exc) from None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _SETTINGS:
            raise ParseError(f"line {lineno}: unknown configuration key {key!r}")
        try:
            settings[key] = _coerce(key, value)
        except ValueError:
            raise ParseError(f"line {lineno}: invalid value {value!r} for {key!r}") from None
    return settings


def _coerce(key: str, value: str):
    """Parse one setting's text, a flag's or a ``--config`` line's, with the parser
    that its :class:`RunConfig` field declares; a ``ValueError`` when the text
    does not parse.  The names a choice setting accepts are checked where the run uses it."""
    return _SETTINGS[key].metadata["parse"](value)
