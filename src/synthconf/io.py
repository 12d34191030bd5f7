"""CSV ingestion, result serialization, and the run-configuration format.

Two CSV layouts are accepted.  *Wide*: the first column is the time
period, each remaining column is one unit, and the header row names the
units.  *Long*: columns ``unit, time, outcome`` plus optional covariate
columns.  Both layouts need the treated unit name(s) and the number of
pre-treatment periods, supplied as arguments (mirrored by CLI flags).
The result CSVs that the command line writes (``residuals.csv``,
``ci.csv``) carry 17 significant digits, so reading them back gives the
written values exactly.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, fields
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
    if treated is None:
        raise ParseError("treated unit name(s) must be supplied")
    if isinstance(treated, str):
        return [treated]
    out = list(treated)
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


@dataclass(frozen=True)
class RunConfig:
    """All parameters of one command-line run.

    :meth:`from_file` reads them from a ``key=value`` text file, one per
    line; ``treated`` and ``alpha0`` are comma-joined (unit names therefore
    must not contain commas), and a float written with ``repr`` reads back
    exactly.
    """

    command: str
    data: str | None = None
    layout: str = "wide"
    t0: int | None = None
    treated: tuple[str, ...] = ()
    estimator: str = "sc"
    statistic: str = "sq"
    q: float = 1.0
    permutations: str = "moving-block"
    n_perm: int = 5000
    alpha: float = 0.1
    alpha0: tuple[float, ...] | None = None
    grid: str | None = None
    tau: int | None = None
    seed: int = 0
    out: str = "."
    dgp: str = "DGP1"
    rho_u: float = 0.0
    rho_eps: float = 0.0
    sim_t0: int = 20
    controls: int = 20
    trend: str = "stationary"
    reps: int = 5000
    alpha_true: float = 0.0

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        names = {f.name for f in fields(cls)}
        kwargs = {}
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
            if key not in names:
                raise ParseError(f"line {lineno}: unknown configuration key {key!r}")
            try:
                kwargs[key] = _coerce(key, value)
            except ValueError:
                raise ParseError(f"line {lineno}: invalid value {value!r} for {key!r}") from None
        if "command" not in kwargs:
            raise ParseError("configuration file must set 'command'")
        return cls(**kwargs)


def _coerce(key: str, value: str):
    """Parse one run setting from its text, as a ``--config`` line or a flag gives it.

    Raises ``ValueError`` when the text does not parse; the names a choice
    setting accepts are checked where the run uses it.
    """
    if key in ("t0", "tau", "seed", "n_perm", "sim_t0", "controls", "reps"):
        return int(value)
    if key in ("q", "alpha", "rho_u", "rho_eps", "alpha_true"):
        return float(value)
    if key == "treated":
        return tuple(part.strip() for part in value.split(",") if part.strip())
    if key == "alpha0":
        return tuple(float(part) for part in value.split(","))
    return value
