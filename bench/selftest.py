"""Self-tests of the benchmark.  Run from the repository root:

    python3 bench/selftest.py

1. A minimal-size run (``--seconds 0``: one batch) of every workload,
   untraced and traced, prints exactly the metrics ``BENCHMARK.json``
   names, each with its unit and a finite number, and no op fails.
   Metrics that cannot be measured are announced on an ``absent`` line.
2. Per-layer counts of a traced run repeat exactly when it is rerun.
3. A corrupted p-value in a real request's output counts as a failed op.
4. In a directory holding only ``BENCHMARK.json`` and ``bench/``, the
   benchmark exits non-zero without printing a result.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def run(workload, trace, cwd=ROOT):
    command = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300,
                          check=False)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-800:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def check_metrics(workload, trace):
    result, lines = result_of(run(workload, trace))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    metrics = result["metrics"]
    assert set(metrics) == set(expected), set(metrics) ^ set(expected)
    for name, metric in metrics.items():
        assert metric["unit"] == expected[name], (name, metric)
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, metric)
    assert any(line.startswith("error_rate ") for line in lines), lines
    assert any(line.startswith("pvalue_digest ") for line in lines), lines
    absent = {line.split()[1].rstrip(":") for line in lines if line.startswith("absent ")}
    assert absent <= set(expected), absent
    if trace and workload == "mc_did_wide":
        assert absent == {"solvers.projected_gradient_ls.iters_p50",
                          "solvers.nonconverged_ratio"}, absent
    return result


def check_counts_repeat(first):
    again, _ = result_of(run("mc_did_wide", 1))
    counts = {name for name, m in first["metrics"].items() if m["unit"] in ("count", "bytes")}
    for name in counts:
        assert first["metrics"][name] == again["metrics"][name], name


def check_corrupted_pvalue():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    workload = workloads.make("mc_did_wide")
    dgp = workload.prepare(SEED, 0)
    result = workload.run(dgp)
    assert workload.check(dgp, result).failed == 0
    i = int(result.p_values.argmax())  # far from the 0.1 level, so the rate stays
    result.p_values[i] *= 1.0 + 1e-6
    outcome = workload.check(dgp, result)
    assert outcome.failed == 1 and outcome.ops == workload.ops_per_request, outcome

    workload = workloads.make("penalized_cli")
    workload.setup(BENCH / "out" / "selftest")
    request = workload.prepare(SEED, 0)
    raw = workload.run(request)
    assert workload.check(request, raw).failed == 0
    path = workload.out / "result.json"
    document = json.loads(path.read_text())
    document["p_value"] += 0.5 / document["n_permutations"]
    path.write_text(json.dumps(document))
    assert workload.check(request, raw).failed == 1


def check_bare_directory():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    failures = 0

    def attempt(label, fn, *args):
        nonlocal failures
        try:
            value = fn(*args)
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {label}: {exc}")
            return None
        print(f"ok   {label}")
        return value

    for workload in WORKLOADS:
        attempt(f"{workload} end-to-end metrics", check_metrics, workload, 0)
        traced = attempt(f"{workload} per-layer metrics", check_metrics, workload, 1)
        if workload == "mc_did_wide" and traced is not None:
            attempt("per-layer counts repeat", check_counts_repeat, traced)
    attempt("corrupted p-value counts as a failure", check_corrupted_pvalue)
    attempt("bare directory exits non-zero", check_bare_directory)
    print(f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
