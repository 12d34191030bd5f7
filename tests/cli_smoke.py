"""Smoke run of every command, in-process, on small generated panels.

None may load scipy, none may emit a RuntimeWarning (a singular KKT solve's
NaN included), and every result.json must be strict JSON (no NaN or
Infinity).  It writes its inputs and outputs to the working directory, so
run it from an empty one, with RuntimeWarnings as errors:

    cd "$(mktemp -d)" && PYTHONPATH=<repo>/src python -W error::RuntimeWarning <repo>/tests/cli_smoke.py
"""
import contextlib
import csv
import io
import json
import os
import sys
import numpy as np
from synthconf.cli import main
def write_wide(path, outcomes):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "treated1", *(f"control{j}" for j in range(1, outcomes.shape[1]))])
        writer.writerows([t, *(format(x, ".17g") for x in row)] for t, row in enumerate(outcomes, start=1))
write_wide("panel.csv", np.random.default_rng(0).standard_normal((12, 5)))
data = ["--data", "panel.csv", "--t0", "10", "--treated", "treated1"]
# More controls than periods: lasso joins then meet columns in the span of the support.
write_wide("wide.csv", np.random.default_rng(1).standard_normal((10, 21)))
wide = ["--data", "wide.csv", "--t0", "8", "--treated", "treated1", "--estimator", "lasso:lam=0.05"]
# Long layout with one covariate: a free column to project out in every ci block.
rng = np.random.default_rng(2)
with open("long.csv", "w", encoding="utf-8") as fh:
    fh.write("unit,time,outcome,x\n")
    for unit in ("treated1", "control1", "control2", "control3", "control4"):
        for t in range(1, 13):
            fh.write(f"{unit},{t},{rng.standard_normal():.17g},{rng.standard_normal():.17g}\n")
long = ["--data", "long.csv", "--layout", "long", "--t0", "10", "--treated", "treated1"]
for argv in (["test", *data], ["ci", *data], ["placebo", *data, "--tau", "2"],
             ["ci", *data, "--estimator", "classo:K=1"],
             ["ci", *data, "--estimator", "lasso:lam=0.5"],
             ["ci", *data, "--estimator", "elastic-net:lam=0.5,alpha=0.5"],
             *([command, *data, "--estimator", estimator]
               for estimator in ("did", "factor:k=1", "matrix-completion", "ar:lags=1",
                                 "fused:base=sc,lags=1")
               for command in ("test", "ci")),
             # The automatic nuclear radius in the notation its label writes.
             ["test", *data, "--estimator", "matrix-completion:K=auto"],
             ["test", *wide], ["ci", *wide],
             *(["ci", *long, "--estimator", estimator] for estimator in ("sc", "classo:K=1", "lasso:lam=0.5")),
             ["simulate", "--sim-t0", "10", "--controls", "4", "--reps", "3"],
             # Monte Carlo through the active-set cores, and a partial AR(1) recurrence.
             *(["simulate", "--sim-t0", "10", "--controls", "4", "--reps", "3", *extra]
               for extra in (["--estimator", "classo:K=1"],
                             ["--estimator", "elastic-net:lam=0.5,alpha=0.5"],
                             ["--rho-u", "0.6", "--rho-eps", "0"])),
             # The noise recurrence alone, and both with two rhos, through did and sc.
             *(["simulate", "--sim-t0", "10", "--controls", "4", "--reps", "3",
                "--rho-u", rho_u, "--rho-eps", "0.6", "--estimator", estimator]
               for rho_u in ("0", "0.3") for estimator in ("did", "sc")),
             # Monte Carlo through the cores that fit one column at a time.
             *(["simulate", "--sim-t0", "10", "--controls", "4", "--reps", "3", "--estimator", estimator]
               for estimator in ("factor:k=1", "matrix-completion", "ar:lags=1", "fused:base=did,lags=1")),
             # Interactive fixed effects need the covariate of the long layout.
             *([command, *long, "--estimator", "interactive-fe:k=1"] for command in ("test", "ci"))):
    if os.path.exists("result.json"):
        os.remove("result.json")
    assert main(argv) == 0, argv
    with open("result.json", encoding="utf-8") as fh:
        json.loads(fh.read(), parse_constant=lambda constant: sys.exit(f"{argv}: result.json holds {constant}"))
# Unbounded classo and nuclear balls, and a nuclear ball of negative radius, are refused when parsed.
for estimator in ("classo:K=inf", "matrix-completion:K=inf", "matrix-completion:K=-1"):
    assert main(["test", *data, "--estimator", estimator]) == 1, estimator
# Two treated units are refused where the treated series is read, with one message.
two = ["--data", "panel.csv", "--t0", "10", "--treated", "treated1,control1"]
refusals = set()
for argv in (["test", *two], ["ci", *two], ["placebo", *two, "--tau", "2"]):
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(argv) == 1, argv
    refusals.add(err.getvalue())
assert len(refusals) == 1, refusals
# A non-finite effect is refused before any replication runs.
assert main(["simulate", "--sim-t0", "10", "--controls", "4", "--reps", "3", "--alpha-true", "nan"]) == 1
# A setting's bad value is refused alike from a flag and from a config file, with exit 1.
with open("iid_all.cfg", "w", encoding="utf-8") as fh:
    fh.write("command=test\npermutations=iid_all\n")
refusals = set()
for argv in (["test", *data, "--permutations", "iid_all"], ["test", *data, "--config", "iid_all.cfg"]):
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(argv) == 1, argv
    refusals.add(err.getvalue())
assert len(refusals) == 1, refusals
assert main(["test", *data, "--alpha", "abc"]) == 1
# A config file without a seed takes SYNTHCONF_SEED, and one without a command runs the subcommand.
with open("run.cfg", "w", encoding="utf-8") as fh:
    fh.write("data=panel.csv\nt0=10\ntreated=treated1\nout=seeded\n")
os.environ["SYNTHCONF_SEED"] = "42"
assert main(["test", "--config", "run.cfg"]) == 0
del os.environ["SYNTHCONF_SEED"]
with open("seeded/result.json", encoding="utf-8") as fh:
    seeded = json.load(fh)
assert (seeded["command"], seeded["config"]["seed"]) == ("test", 42), seeded["config"]
# A file for another command is refused; simulate has no statistic flags.
with open("simulate.cfg", "w", encoding="utf-8") as fh:
    fh.write("command=simulate\n")
with contextlib.redirect_stderr(io.StringIO()):
    assert main(["test", *data, "--config", "simulate.cfg"]) == 1
    try:
        main(["simulate", "--statistic", "mean"])
        sys.exit("simulate accepted --statistic")
    except SystemExit as exc:
        assert exc.code == 2, exc.code
    # --n-perm is read by iid-sampled alone.
    assert main(["test", *data, "--permutations", "iid-sampled", "--n-perm", "0"]) == 1
    # A flag is its whole name, as a file's key is: a prefix is an unknown flag.
    try:
        main(["test", *data, "--stat", "mean", "--out", "prefix"])
        sys.exit("test accepted --stat")
    except SystemExit as exc:
        assert exc.code == 2, exc.code
assert not os.path.exists("prefix/result.json")
assert main(["test", *data, "--statistic=mean", "--out", "prefix"]) == 0
assert main(["test", *data, "--n-perm", "0"]) == 0
# The mean statistic has no order: a q is refused.
with contextlib.redirect_stderr(io.StringIO()):
    assert main(["test", *data, "--statistic", "mean", "--q", "2"]) == 1
# A package warning is one line of its own, with no source path or source line.
with contextlib.redirect_stderr(io.StringIO()) as err:
    assert main(["ci", *data, "--grid=100:200:5", "--out", "rejected"]) == 0
lines = err.getvalue().splitlines()
assert lines and all(line.startswith("synthconf: warning: no candidate effect accepted for period ")
                     for line in lines), lines
assert "scipy" not in sys.modules, "a command loaded scipy"
