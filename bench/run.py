"""synthconf benchmark: seeded closed-loop workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload mc_trend_classo --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``mc_trend_classo``, ``mc_did_wide``,
``ci_band_cli`` and ``penalized_cli``.  Each runs one client that issues
requests one after another from this process and checks every output.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end
metrics: ``ops_per_s`` (ops completed per second of request time; input
generation and output checks between requests are not counted),
``op_p50_ms`` (median request latency), ``setup_s`` (interpreter start,
import, input generation and warm-up; the median of this process and two
fresh processes that only set up) and ``peak_rss_mb`` (this process plus
its largest child, before the set-up probes start).  ``error_rate`` is
printed as a line and carried by ``failed`` / ``attempted``.

Times are host-normalised CPU time.  The benchmark is one process with one
BLAS thread, so a request's CPU time is its latency on an idle core.  On
a shared host the speed of a core still drifts (by up to 1.7x within
seconds on a 2-vCPU VM at 2.1 GHz), so a fixed reference kernel (``reference_s``) is timed after
every request and after set-up, and each time is scaled by
``REFERENCE_S`` over the mean of the kernel times around it.  The times
are therefore seconds on a core that runs the kernel in ``REFERENCE_S``.
The raw wall-clock figures are printed on the ``wall`` line.

``--trace 1`` runs a fixed batch of requests, alternating untraced and
traced passes until ``--seconds`` have passed, and reports per-layer
metrics: counts from the first traced pass (they repeat exactly for a
seed), times as the median over traced passes, each summed over one batch.
The spans of the first traced pass are written to
``bench/out/<workload>/spans.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The benchmark imports
synthconf only from ``src/`` next to this directory and fails, printing
no result, when it is not there.
"""

import os
from time import perf_counter, process_time

# One BLAS thread, fixed before numpy loads: 50x50 problems gain nothing
# from more, and a later process pool must not oversubscribe the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Imported in main() once src/ is on the path.
workloads = tracing = None

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Fresh processes that only set up, besides this one, for ``setup_s``.
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 60

#: CPU seconds the reference kernel takes on the core times are scaled to
#: (about its median on the 2.1 GHz, 2-vCPU VM the benchmark was written on).
REFERENCE_S = 0.012
REFERENCE_STEPS = 1500
#: Reference kernel runs after set-up; one run is too short to stand for
#: the speed over the whole set-up.
SETUP_REFERENCES = 5

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "simulation.simulate_panel.calls": "count",
    "simulation.simulate_panel.self_ms": "ms",
    "panel.calls": "count",
    "panel.self_ms": "ms",
    "estimators.fit.calls": "count",
    "estimators.fit.self_ms": "ms",
    "estimators.fit.per_op": "fits/op",
    "solvers.projected_gradient_ls.calls": "count",
    "solvers.projected_gradient_ls.self_ms": "ms",
    "solvers.projected_gradient_ls.iterations": "count",
    "solvers.projected_gradient_ls.iters_p50": "count",
    "solvers.projection.calls": "count",
    "solvers.projection.self_ms": "ms",
    "solvers.coordinate_descent_penalized.calls": "count",
    "solvers.coordinate_descent_penalized.self_ms": "ms",
    "solvers.coordinate_descent_penalized.sweeps": "count",
    "solvers.nonconverged_ratio": "ratio",
    "inference.test_sharp_null.calls": "count",
    "inference.p_value.calls": "count",
    "inference.p_value.self_ms": "ms",
    "inference.permutations": "count",
    "inference.ci.self_ms": "ms",
    "io.read_panel_csv.self_ms": "ms",
    "io.write_json_result.self_ms": "ms",
    "io.bytes_written": "bytes",
    "cli.main.calls": "count",
    "cli.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.bench_self_ratio": "ratio",
    "trace.unattributed_ratio": "ratio",
}

PROJECTIONS = ("solvers.project_simplex", "solvers.project_l1_ball", "solvers.project_nuclear_ball")
CI = ("inference.pointwise_ci", "inference.confidence_band")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for setup_s)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def blas_threads(numpy):
    """Threads the loaded OpenBLAS uses, or a string saying why it is unknown."""
    import ctypes

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    if not libs:
        return "unknown: no OpenBLAS library next to numpy"
    lib = ctypes.CDLL(str(libs[0]))
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        getter = getattr(lib, symbol, None)
        if getter is not None:
            getter.restype = ctypes.c_int
            return getter()
    return f"unknown: {libs[0].name} exports no thread-count query"


def environment(numpy, scipy):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(numpy),
    }


def reference_s():
    """CPU seconds of a fixed kernel of small numpy calls and interpreted loops.

    It exercises the interpreter and small matrix products as synthconf
    does, and touches no synthconf code, so a change to the program
    cannot change it.
    """
    import numpy

    matrix = (numpy.arange(2500).reshape(50, 50) % 7) / 7.0 - 0.4
    start = process_time()
    x = numpy.ones(50)
    total = 0.0
    for _ in range(REFERENCE_STEPS):
        x = matrix @ x
        x /= numpy.abs(x).sum()
        for j in range(40):
            total += j * 0.5
    return process_time() - start


def issue(workload, request, tracer=None, index=0):
    """Time one request and check its outputs: (wall s, CPU s, Outcome, raised)."""
    start, cpu_start = perf_counter(), process_time()
    try:
        if tracer is None:
            raw = workload.run(request)
        else:
            raw = tracer.request(index, workload.run, request)
    except Exception as exc:  # a failed op is counted, not fatal
        message = f"{type(exc).__name__}: {exc}"
        return (perf_counter() - start, process_time() - cpu_start,
                workloads.Outcome.error(workload.ops_per_request, message), True)
    elapsed, cpu = perf_counter() - start, process_time() - cpu_start
    return elapsed, cpu, workload.check(request, raw), False


class Tally:
    """Ops attempted and failed, the first ten problems, and the p-values of the first batch."""

    def __init__(self, batch):
        self.batch = batch
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digest_values = []
        self.requests = 0

    def add(self, outcome):
        if self.requests < self.batch:
            self.digest_values += outcome.pvalues
        self.requests += 1
        self.attempted += outcome.ops
        self.failed += outcome.failed
        self.problems += outcome.problems[:10 - len(self.problems)]

    def report(self):
        digest = hashlib.sha256(",".join(map(repr, self.digest_values)).encode()).hexdigest()
        print(f"pvalue_digest {digest[:16]} over the first {self.batch} requests "
              f"({len(self.digest_values)} p-values)")
        rate = self.failed / self.attempted if self.attempted else float("nan")
        print(f"error_rate {rate:.6g} ({self.failed} of {self.attempted} ops failed)")
        for problem in self.problems[:10]:
            print(f"failure: {problem}")


def setup_probe(args):
    """Set-up time of a fresh process that runs this script with --setup-only."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def timed_run(workload, args, setup_s):
    tally = Tally(workload.batch)
    latencies, wall_latencies, references = [], [], [reference_s()]
    busy = wall_busy = 0.0
    start = perf_counter()
    index = 0
    while index < workload.batch or perf_counter() - start < args.seconds:
        request = workload.prepare(args.seed, index)
        wall, cpu, outcome, raised = issue(workload, request)
        references.append(reference_s())
        tally.add(outcome)
        if not raised:
            normalised = cpu * REFERENCE_S / statistics.fmean(references[-2:])
            latencies.append(normalised)
            busy += normalised
            wall_latencies.append(wall)
            wall_busy += wall
        index += 1
    self_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES)]

    ok_ops = tally.attempted - tally.failed
    print(f"requests {index}, {tally.attempted} ops ({workload.ops_per_request} per request), "
          f"request time {busy:.3f} s normalised; set-up samples {[round(s, 3) for s in setups]}")
    print(f"wall ops_per_s {ok_ops / wall_busy if wall_busy > 0 else 0.0:.6g}, op_p50_ms "
          f"{1000.0 * statistics.median(wall_latencies) if wall_latencies else 0.0:.6g}; "
          f"reference kernel median {1000.0 * statistics.median(references):.3f} ms "
          f"(scaled to {1000.0 * REFERENCE_S:g} ms)")
    tally.report()
    values = {
        "ops_per_s": ok_ops / busy if busy > 0 else 0.0,
        "op_p50_ms": 1000.0 * statistics.median(latencies) if latencies else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": (self_peak + child_peak) / 1024.0,
    }
    return tally, {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def layer_counts(table, counts, ops):
    """Per-layer counts of one traced pass, and reasons for unmeasurable ones."""
    def calls(*names):
        return sum(table[name][0] for name in names)

    panel = [name for name in table if name.startswith("panel.")]
    pg_iters = counts["solvers.projected_gradient_ls"]["iterations"]
    reports = counts["estimators.fit"]["reports"]
    values = {
        "simulation.simulate_panel.calls": calls("simulation.simulate_panel"),
        "panel.calls": calls(*panel),
        "estimators.fit.calls": calls("estimators.fit"),
        "estimators.fit.per_op": calls("estimators.fit") / ops,
        "solvers.projected_gradient_ls.calls": calls("solvers.projected_gradient_ls"),
        "solvers.projected_gradient_ls.iterations": sum(pg_iters),
        "solvers.projected_gradient_ls.iters_p50": statistics.median(pg_iters) if pg_iters else 0,
        "solvers.projection.calls": calls(*PROJECTIONS),
        "solvers.coordinate_descent_penalized.calls": calls("solvers.coordinate_descent_penalized"),
        "solvers.coordinate_descent_penalized.sweeps":
            sum(counts["solvers.coordinate_descent_penalized"]["iterations"]),
        "solvers.nonconverged_ratio": sum(reports) / len(reports) if reports else 0.0,
        "inference.test_sharp_null.calls": calls("inference.test_sharp_null"),
        "inference.p_value.calls": calls("inference.p_value"),
        "inference.permutations": sum(counts["inference.p_value"]["permutations"]),
        "io.bytes_written": sum(counts["io.write_json_result"]["bytes"]),
        "cli.main.calls": calls("cli.main"),
    }
    absent = {}
    if not pg_iters:
        absent["solvers.projected_gradient_ls.iters_p50"] = "no projected_gradient_ls call"
    if not reports:
        absent["solvers.nonconverged_ratio"] = "no fit returned a solver report"
    return values, absent


def layer_times(table):
    """Per-layer self times of one traced pass, in milliseconds."""
    def self_ms(*names):
        return 1000.0 * sum(table[name][1] for name in names)

    def layer(prefix):
        return [name for name in table if name.startswith(prefix)]

    return {
        "simulation.simulate_panel.self_ms": self_ms("simulation.simulate_panel"),
        "panel.self_ms": self_ms(*layer("panel.")),
        "estimators.fit.self_ms": self_ms("estimators.fit"),
        "solvers.projected_gradient_ls.self_ms": self_ms("solvers.projected_gradient_ls"),
        "solvers.projection.self_ms": self_ms(*PROJECTIONS),
        "solvers.coordinate_descent_penalized.self_ms": self_ms("solvers.coordinate_descent_penalized"),
        "inference.p_value.self_ms": self_ms("inference.p_value"),
        "inference.ci.self_ms": self_ms(*CI),
        "io.read_panel_csv.self_ms": self_ms("io.read_panel_csv"),
        "io.write_json_result.self_ms": self_ms("io.write_json_result"),
        "cli.self_ms": self_ms(*layer("cli.")),
    }


def run_batch(workload, args, tally, tracer=None):
    wall = 0.0
    for index in range(workload.batch):
        request = workload.prepare(args.seed, index)
        elapsed, _, outcome, _ = issue(workload, request, tracer, index)
        tally.add(outcome)
        wall += elapsed
    return wall


def traced_run(workload, args):
    tally = Tally(workload.batch)
    untraced, traced, passes = [], [], []
    start = perf_counter()
    while not passes or perf_counter() - start < args.seconds:
        untraced.append(run_batch(workload, args, tally))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced.append(run_batch(workload, args, tally, tracer))
        finally:
            tracer.uninstall()
        passes.append(tracer)

    ops = workload.batch * workload.ops_per_request
    first = passes[0]
    first_table = tracing.by_function(first.spans, tracing.self_times(first.spans))
    first_counts, absent = layer_counts(first_table, first.counts, ops)
    times, bench_ratio, unattributed = [], [], []
    for tracer in passes:
        selfs = tracing.self_times(tracer.spans)
        table = tracing.by_function(tracer.spans, selfs)
        if layer_counts(table, tracer.counts, ops)[0] != first_counts:
            print("note: per-layer counts differ between traced passes")
        times.append(layer_times(table))
        for wall, bench, rest in tracing.accounting(tracer.spans, selfs).values():
            bench_ratio.append(bench / wall)
            unattributed.append(abs(rest) / wall)

    values = dict(first_counts)
    for name in times[0]:
        values[name] = statistics.median(t[name] for t in times)
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    values["trace.bench_self_ratio"] = statistics.median(bench_ratio)
    values["trace.unattributed_ratio"] = max(unattributed)

    print(f"traced batch: {workload.batch} requests, {ops} ops; {len(passes)} untraced and "
          f"{len(passes)} traced passes; per-layer times are ms per batch")
    print(f"accounting: layer self times + benchmark self time = traced wall time per request, "
          f"largest unattributed share {values['trace.unattributed_ratio']:.3g} "
          f"over {len(bench_ratio)} requests")
    print("function self times of the first traced pass (calls, self ms):")
    for name, (calls, own) in sorted(first_table.items(), key=lambda item: -item[1][1]):
        if calls:
            print(f"  {name:45s} {calls:8d} {1000 * own:11.3f}")
    for name, reason in absent.items():
        print(f"absent {name}: {reason} (printed as 0)")
    tally.report()

    out_dir = OUT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "spans.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "request"],
                   "spans": first.spans}, fh)
    return tally, {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "synthconf" / "__init__.py").is_file():
        print(f"bench: no synthconf sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))

    import numpy
    import scipy
    import synthconf

    if Path(synthconf.__file__).resolve().parent != SRC / "synthconf":
        print(f"bench: synthconf was imported from {synthconf.__file__}, not {SRC}", file=sys.stderr)
        return 2

    global workloads, tracing
    import tracing
    import workloads

    try:
        workload = workloads.make(args.workload)
    except KeyError:
        print(f"bench: unknown workload {args.workload!r}; choose from {workloads.NAMES}",
              file=sys.stderr)
        return 2
    workload.setup(OUT / workload.name)
    # Warm-up: one request on a fixed input that no timed request uses, so
    # set-up costs the same for every seed.
    issue(workload, workload.prepare(0, 0, workloads.WARMUP))
    setup_s = process_time() * REFERENCE_S / statistics.median(
        reference_s() for _ in range(SETUP_REFERENCES))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    print("env " + json.dumps(environment(numpy, scipy)))
    print(f"workload {workload.name}, seed {args.seed}, closed loop, one client, "
          f"trace {args.trace}")
    if args.trace:
        tally, metrics = traced_run(workload, args)
    else:
        tally, metrics = timed_run(workload, args, setup_s)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
