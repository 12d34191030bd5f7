"""The four benchmark workloads: seeded inputs, one request, output checks.

Every workload is a closed loop with one client.  The runner asks for the
inputs of request ``i`` (``prepare``), times one call into synthconf
(``run``) and checks every output before it issues the next request
(``check``).  Inputs depend only on ``(seed, workload key, phase, i)``,
and every request gets a freshly generated panel, so nothing the program
could cache carries over from one request to the next.

The program sees only the generated ``DgpSpec`` (Monte Carlo workloads)
or the generated panel CSV (CLI workloads).  The CSV panels come from a
generator in this file, not from ``synthconf.simulate_panel``, so a change
to the library's simulator cannot change the inputs of the CLI workloads.

synthconf functions are always looked up as module attributes at call
time (``simulation.run_size_experiment``, ``cli.main``), so the wrappers
the traced run installs in the module namespaces see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from synthconf import cli, estimators, inference, simulation

#: Phases of the input stream: the warm-up request is never a timed one.
WARMUP, TIMED = 0, 1

#: Relative slack when checking that ``|Pi| * p`` is an integer.
_INTEGER_TOL = 1e-9


@dataclass
class Outcome:
    """Checked result of one request."""

    ops: int
    failed: int
    pvalues: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @classmethod
    def error(cls, ops: int, message: str) -> "Outcome":
        return cls(ops=ops, failed=ops, problems=[message])


def request_seed(seed: int, key: int, phase: int, index: int) -> int:
    """Deterministic 32-bit seed of one request's inputs."""
    return int(np.random.SeedSequence([seed, key, phase, index]).generate_state(1)[0])


def pvalue_problems(p, n_perm: int) -> list[str]:
    """Why ``p`` cannot be a permutation p-value over ``n_perm`` permutations.

    A valid p-value is finite, lies in ``[1/n_perm, 1]`` (the identity is
    always among the permutations), and ``n_perm * p`` is an integer.
    """
    if not isinstance(p, (int, float)) or not math.isfinite(p):
        return [f"p-value {p!r} is not a finite number"]
    if not 1.0 / n_perm - _INTEGER_TOL <= p <= 1.0 + _INTEGER_TOL:
        return [f"p-value {p!r} outside [1/{n_perm}, 1]"]
    k = p * n_perm
    if abs(k - round(k)) > _INTEGER_TOL * n_perm:
        return [f"p-value {p!r} times {n_perm} permutations is not an integer"]
    return []


class MonteCarlo:
    """One request is one ``run_size_experiment`` call on a fresh design.

    An op is one Monte Carlo replication.
    """

    def __init__(self, name: str, key: int, dgp: dict, estimator, n_reps: int,
                 batch: int):
        self.name = name
        self.key = key
        self.dgp = dgp
        self.estimator = estimator
        self.ops_per_request = n_reps
        self.batch = batch
        self.n_perm = dgp["t0"] + 1

    def setup(self, out_dir: Path) -> None:
        pass

    def prepare(self, seed: int, index: int, phase: int = TIMED):
        return simulation.DgpSpec(seed=request_seed(seed, self.key, phase, index), **self.dgp)

    def run(self, dgp):
        return simulation.run_size_experiment(
            dgp, self.estimator, inference.PermutationScheme.moving_block(),
            n_reps=self.ops_per_request, level=0.1, keep_pvalues=True,
        )

    def check(self, dgp, result) -> Outcome:
        pvals = [] if result.p_values is None else [float(p) for p in result.p_values]
        if len(pvals) != self.ops_per_request:
            return Outcome.error(self.ops_per_request,
                                 f"{len(pvals)} p-values for {self.ops_per_request} reps")
        outcome = Outcome(ops=self.ops_per_request, failed=0, pvalues=pvals)
        for p in pvals:
            problems = pvalue_problems(p, self.n_perm)
            outcome.failed += bool(problems)
            outcome.problems += problems
        rate = sum(p <= 0.1 for p in pvals) / len(pvals)
        if result.rejection_rate != rate:
            outcome.failed = outcome.ops
            outcome.problems.append(
                f"rejection rate {result.rejection_rate} disagrees with its p-values ({rate})")
        return outcome


def generate_panel(rng: np.random.Generator, n_periods: int, n_controls: int,
                   factor: bool) -> np.ndarray:
    """Outcomes (treated first) with no treatment effect.

    Controls follow the one-factor design of the paper's simulations
    (unit effects, a common time effect, one factor loaded in proportion
    to the unit effect, unit-variance noise) or, with ``factor=False``, are i.i.d.
    standard normal.  The treated unit is the mean of the first three
    controls plus unit-variance noise.
    """
    if factor:
        unit = np.arange(1, n_controls + 1) / n_controls  # effects and loadings
        time_effect = rng.standard_normal(n_periods)[:, None]
        factor_path = rng.standard_normal(n_periods)[:, None]
        controls = (unit + time_effect + unit * factor_path
                    + rng.standard_normal((n_periods, n_controls)))
    else:
        controls = rng.standard_normal((n_periods, n_controls))
    treated = controls[:, :3].mean(axis=1) + rng.standard_normal(n_periods)
    return np.column_stack([treated, controls])


def write_wide_csv(path: Path, outcomes: np.ndarray) -> None:
    names = ["treated"] + [f"control{j}" for j in range(1, outcomes.shape[1])]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", *names])
        for t, row in enumerate(outcomes, start=1):
            writer.writerow([t] + [format(x, ".17g") for x in row])


@dataclass
class CliRequest:
    command: str
    argv: list[str]


class CliWorkload:
    """One request is one in-process ``synthconf`` command on a fresh CSV.

    An op is one command.  Commands cycle through ``commands``; each
    entry is the argument list before the data and seed flags.
    ``--seed`` is always passed, so ``SYNTHCONF_SEED`` cannot change a
    run, and stdout and stderr are captured, so printing is not timed as
    terminal I/O.
    """

    ops_per_request = 1

    def __init__(self, name: str, key: int, t0: int, n_post: int, n_controls: int,
                 factor: bool, commands: list[list[str]], batch: int):
        self.name = name
        self.key = key
        self.t0 = t0
        self.n_post = n_post
        self.n_controls = n_controls
        self.factor = factor
        self.commands = commands
        self.batch = batch

    def setup(self, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        self.data = out_dir / "panel.csv"
        self.out = out_dir / "result"

    def prepare(self, seed: int, index: int, phase: int = TIMED) -> CliRequest:
        request = request_seed(seed, self.key, phase, index)
        outcomes = generate_panel(np.random.default_rng(request), self.t0 + self.n_post,
                                  self.n_controls, self.factor)
        write_wide_csv(self.data, outcomes)
        shutil.rmtree(self.out, ignore_errors=True)
        head = self.commands[index % len(self.commands)]
        argv = head + ["--data", str(self.data), "--t0", str(self.t0), "--treated", "treated",
                       "--seed", str(request), "--out", str(self.out)]
        return CliRequest(command=head[0], argv=argv)

    def run(self, request: CliRequest):
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            try:
                code = cli.main(request.argv)
            except SystemExit as exc:  # argparse rejects its arguments this way
                code = exc.code
        return code, captured.getvalue()

    def check(self, request: CliRequest, raw) -> Outcome:
        code, text = raw
        if code != 0:
            return Outcome.error(1, f"{request.command} exited {code}: {text.strip()[-200:]}")
        try:
            with open(self.out / "result.json", encoding="utf-8") as fh:
                result = json.load(fh)
        except (OSError, ValueError) as exc:
            return Outcome.error(1, f"{request.command} wrote no readable result.json: {exc}")
        if request.command == "ci":
            pvalues, problems = self._check_band(result)
        else:
            pvalues, problems = self._check_test(request.command, result)
        return Outcome(ops=1, failed=int(bool(problems)), pvalues=pvalues, problems=problems)

    def _check_test(self, command: str, result: dict):
        # The moving-block window is every period for ``test`` and the
        # pre-treatment periods for ``placebo``.
        n_perm = self.t0 + self.n_post if command == "test" else self.t0
        if result.get("n_permutations") != n_perm:
            return [], [f"{command}: {result.get('n_permutations')} permutations, "
                        f"expected {n_perm}"]
        p = result.get("p_value")
        return [p], pvalue_problems(p, n_perm)

    def _check_band(self, result: dict):
        problems = []
        intervals = result.get("intervals", [])
        if len(intervals) != self.n_post:
            problems.append(f"ci: {len(intervals)} intervals for {self.n_post} periods")
        for entry in intervals:
            lower, upper = entry.get("lower"), entry.get("upper")
            if entry.get("empty") or not (isinstance(lower, float) and isinstance(upper, float)
                                          and math.isfinite(lower) and math.isfinite(upper)
                                          and lower <= upper):
                problems.append(f"ci: period {entry.get('period')} has no interval "
                                f"[{lower}, {upper}]")
        # Each candidate is tested on the pre-treatment rows plus one period.
        pvalues = []
        try:
            with open(self.out / "ci.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            for row in rows:
                pvalues.append(float(row["p_value"]))
                problems += pvalue_problems(pvalues[-1], self.t0 + 1)
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"ci: unreadable ci.csv: {exc}")
        if not pvalues:
            problems.append("ci: ci.csv holds no p-values")
        return pvalues, problems


ENET = "elastic-net:lam=0.5,alpha=0.5"


def make(name: str):
    """The workload called ``name``; raises KeyError for an unknown name."""
    return _FACTORIES[name]()


_FACTORIES = {
    # Monte Carlo requests are kept near 0.1-0.2 s, so the reference kernel
    # run after each one (see run.py) tracks the host speed it ran at.
    # Tier-1 bottleneck: classo on a trending factor, hundreds of
    # projected-gradient iterations per fit, a fresh design per replication.
    "mc_trend_classo": lambda: MonteCarlo(
        "mc_trend_classo", 1,
        dict(t0=50, n_controls=50, weights_kind="DGP2", factor_trend="trending"),
        estimators.EstimatorSpec.classo(1.0), n_reps=4, batch=5),
    # No solver: simulation and the T=101 moving-block test dominate.
    "mc_did_wide": lambda: MonteCarlo(
        "mc_did_wide", 2,
        dict(t0=100, n_controls=100, rho_u=0.6, rho_eps=0.6, weights_kind="DGP1"),
        estimators.EstimatorSpec.did(), n_reps=100, batch=5),
    # Test inversion: 5 periods x 41 candidates of simplex-constrained fits.
    "ci_band_cli": lambda: CliWorkload(
        "ci_band_cli", 3, t0=30, n_post=5, n_controls=50, factor=True,
        commands=[["ci", "--estimator", "sc"]], batch=2),
    # Pure-Python coordinate descent and the test / placebo command path.
    # Two tests per placebo keep the median request inside the test
    # commands' latencies instead of in the gap between the two commands.
    # Lasso is left out: near interpolation (J > T) its sweep count is
    # heavy-tailed, and no run length that fits makes the mean steady.
    "penalized_cli": lambda: CliWorkload(
        "penalized_cli", 4, t0=20, n_post=3, n_controls=50, factor=False,
        commands=[
            ["test", "--estimator", ENET],
            ["placebo", "--tau", "3", "--estimator", ENET],
            ["test", "--estimator", ENET],
        ], batch=3),
}

NAMES = tuple(_FACTORIES)
