"""Benchmark of the arvcanon command line, one workload per process.

    python3 bench/run.py --workload long_systems --seed 1 --seconds 30 --trace 0

Run from the root of a source tree: the package is imported from ./src and
nothing else.  The run writes the workload's inputs (seeded), then repeats
whole rounds of its fixed list of ``arvcanon.cli.main(argv)`` calls until
--seconds have passed.  Each call is timed alone; its output is then checked
outside the timed region (``workloads.py``).  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics (a rate per subcommand, set-up
time, and the growth of peak memory while a fresh interpreter makes one
round of the calls).  --trace 1 alternates untraced and traced rounds and
reports the per-layer metrics of the traced rounds, with the tracing
overhead as the difference of the two kinds of round (``tracing.py``).  Each
run also leaves a record under .bench_results/ for ``compare.py``.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# The workload process holds BLAS to one thread.  OpenBLAS starts one thread
# per core and spins them on every call; with another process on the cores,
# the checks' many small LAPACK calls (2x2 eigenvalues, expm) slowed a
# hundredfold.  The package's own 2x2 products never use more than one.
# Set before numpy is first imported; the set-up probes get the caller's
# environment unchanged.
CALLER_ENV = dict(os.environ)
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

#: fresh interpreters timed for setup_s
SETUP_SAMPLES = 21

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import arvcanon; "
                 "print(time.perf_counter() - t)")

# One round of the calls in a fresh interpreter that has imported the
# package and nothing else; prints the growth of its peak resident memory
# in kB.  VmHWM is read because ru_maxrss carries the parent's peak across
# fork and exec (Linux).
_MEMORY_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import arvcanon.cli


def hwm():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


base = hwm()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in json.load(sys.stdin):
        try:
            arvcanon.cli.main(argv)
        except SystemExit:
            pass
print(hwm() - base)
"""


def import_package():
    """Import arvcanon from ./src of the tree this file sits in, and only
    from there; returns the in-process import time."""
    if not os.path.isfile(os.path.join(SRC, "arvcanon", "__init__.py")):
        sys.exit(f"bench: no package source at {SRC}; run from a source tree")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import arvcanon
    dt = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(arvcanon.__file__))) != SRC:
        sys.exit(f"bench: arvcanon was imported from {arvcanon.__file__}, not {SRC}")
    return dt


def setup_seconds():
    """Median time of `import arvcanon` over fresh interpreters, what every
    command-line invocation pays before any work, each scaled by the
    reference loop timed around it (see reference_seconds)."""
    def probe():
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC], env=CALLER_ENV,
                             capture_output=True, text=True, timeout=60, check=True)
        return None, float(out.stdout.strip())

    samples = [reference_scaled(probe)[1:] for _ in range(SETUP_SAMPLES)]
    return statistics.median(s for _, s in samples), samples


def peak_rss_growth_mb(ops):
    """Growth of peak resident memory, in MB, of a fresh interpreter with
    arvcanon imported while it makes one round of the calls: the package's
    own memory, without the checks' references and scipy."""
    out = subprocess.run([sys.executable, "-c", _MEMORY_PROBE, SRC],
                         input=json.dumps([op.argv for op in ops]),
                         capture_output=True, text=True, timeout=60, check=True)
    return int(out.stdout.strip()) / 1024.0


def declared_metrics(trace):
    """Metric names BENCHMARK.json lists for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def environment():
    import numpy

    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def git_sha():
    """HEAD of the tree when it is a git checkout, read without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Tally:
    """Times and work of the operations that succeeded, by operation:
    wall seconds, and seconds scaled to the reference machine."""

    def __init__(self):
        self.times = {}
        self.scaled = {}
        self.work = {}
        self.subcommand = {}
        self.rows = {}
        self.bytes = 0

    def add(self, op, dt, scaled, work, rows):
        self.times.setdefault(op.name, []).append(dt)
        self.scaled.setdefault(op.name, []).append(scaled)
        self.work[op.name] = work
        self.subcommand[op.name] = op.subcommand
        self.rows[op.subcommand] = self.rows.get(op.subcommand, 0.0) + rows
        self.bytes += sum(os.path.getsize(p) for p in [op.output] + op.extra_outputs)

    def rate(self, subcommand, times=None):
        """Work of one round over the summed median time of its operations.

        Medians over rounds keep a slow round (another process on the
        machine, a collection in the interpreter) from moving the figure."""
        names = [n for n, s in self.subcommand.items() if s == subcommand]
        times = self.times if times is None else times
        t = sum(statistics.median(times[n]) for n in names)
        return sum(self.work[n] for n in names) / t if t else 0.0


#: time of reference_seconds() on the reference machine (2-core x86-64
#: sandbox, Python 3.11, numpy 2.4) when nothing else loads it
REFERENCE_S = 4.0e-4


def reference_seconds():
    """Median time of a fixed loop of 2x2 complex numpy work, the same kind
    of work as the package's per-interval propagation but written here:
    closed-form exponential of a trace-free matrix, product, renormalisation.
    It measures how fast the machine runs Python and numpy at this moment."""
    import numpy as np

    g = np.array([[-0.5j, 0.3 - 0.2j], [0.1 + 0.4j, 0.5j]])
    eye = np.eye(2, dtype=complex)
    out = []
    for _ in range(9):
        t0 = time.perf_counter()
        m = eye
        for k in range(40):
            rho = np.sqrt(complex(g[0, 1] * g[1, 0] - g[0, 0] * g[1, 1]))
            x = rho * (0.01 + 1e-4 * k)
            m = m @ (np.cosh(x) * eye + ((0.01 + 1e-4 * k) * np.sinh(x) / x) * g)
            m = m / float(np.max(np.abs(m)))
        out.append(time.perf_counter() - t0)
    return statistics.median(out)


def stopwatch(fn):
    """(fn(), wall seconds of the call)."""
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def reference_scaled(fn):
    """Call fn, which returns (result, seconds it measured), between two
    timings of the reference loop; returns (result, seconds, seconds scaled
    to the reference machine by the mean of those two timings)."""
    before = reference_seconds()
    result, dt = fn()
    ref = 0.5 * (before + reference_seconds())
    return result, dt, dt * REFERENCE_S / ref


def call(cli, op):
    """One timed CLI call; returns (exit code or reason, seconds)."""
    for path in [op.output] + op.extra_outputs:
        if os.path.exists(path):
            os.remove(path)

    def invoke():
        try:
            return cli.main(list(op.argv))
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # a traceback the CLI contract forbids
            return f"raised {type(exc).__name__}: {exc}"

    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code, dt = stopwatch(invoke)
    if code != 0 and not isinstance(code, str):
        code = f"exit {code}: {err.getvalue().strip()[:200]}"
    return code, dt


def run_round(cli, ops, tally, failures, wrong, tracer=None):
    """One pass over the operation list; returns (seconds in calls, failed)."""
    busy, failed = 0.0, 0
    for op in ops:
        if tracer is not None:
            tracer.root = op.subcommand
        gc.collect()  # garbage of earlier checks is not this call's cost
        code, dt, scaled = reference_scaled(lambda: call(cli, op))
        busy += dt
        if code != 0:
            failures.setdefault(op.name, code)
            failed += 1
            continue
        reason = op.check(op)
        if reason is not None:
            failures.setdefault(op.name, "wrong output: " + reason)
            wrong.add(op.name)
            failed += 1
            continue
        tally.add(op, dt, scaled, op.work(op), op.rows())
    return busy, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description="arvcanon CLI benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", default=os.path.join(ROOT, ".bench_results"),
                    help="directory for the run record")
    ns = ap.parse_args(argv)

    import_s = import_package()
    sys.path.insert(0, HERE)
    from arvcanon import cli

    import fixtures
    import workloads
    from tracing import Tracer

    if ns.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {ns.workload!r}")
    declared = declared_metrics(ns.trace)
    setup_s, setup_samples = setup_seconds() if ns.trace == 0 else (None, [])
    tracer = Tracer() if ns.trace else None

    workdir = os.path.join(ROOT, ".bench_work", f"{ns.workload}-{ns.seed}-{os.getpid()}")
    try:
        fx = fixtures.generate(ns.workload, ns.seed, workdir)
        ops = workloads.WORKLOADS[ns.workload](fx)
        result, record = measure(cli, ops, ns.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if ns.trace == 0:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        record["setup_samples_s"] = setup_samples
    record["unreported_metrics"] = {k: v for k, v in result["metrics"].items()
                                    if k not in declared}
    result["metrics"] = {k: result["metrics"][k] for k in declared}
    record.update(workload=ns.workload, seed=ns.seed, seconds=ns.seconds,
                  trace=ns.trace, import_s_in_process=import_s,
                  environment=environment(), result=result)
    os.makedirs(ns.results, exist_ok=True)
    stem = f"{ns.workload}-seed{ns.seed}-trace{ns.trace}-{int(time.time() * 1000)}"
    if tracer is not None:
        tracer.write_spans(os.path.join(ns.results, stem + ".spans.jsonl"))
    with open(os.path.join(ns.results, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for name, reason in sorted(record["failures"].items()):
        print(f"failed: {name}: {reason}")
    print(json.dumps(result))


def measure(cli, ops, seconds, tracer):
    """Whole rounds until `seconds` have passed; with a tracer, every second
    round is traced.  Returns (result, record)."""
    import workloads
    from tracing import span_cost

    failures, wrong = {}, set()
    tally, traced_tally = Tally(), Tally()
    plain_rounds, traced_rounds = [], []
    # a first, untimed round lets lazy set-up inside numpy and the
    # interpreter finish and fills the check references; it is checked
    # and counted in attempted like every other round
    _, failed = run_round(cli, ops, Tally(), failures, wrong)
    peak_mb = peak_rss_growth_mb(ops) if tracer is None else None
    rounds = 1
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and rounds % 2 == 0
        if traced:
            tracer.install()
        try:
            busy, n_failed = run_round(cli, ops, traced_tally if traced else tally,
                                       failures, wrong, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        (traced_rounds if traced else plain_rounds).append(busy)
        rounds += 1
        failed += n_failed
        if time.perf_counter() >= deadline and (tracer is None or traced_rounds):
            break

    attempted = rounds * len(ops)
    record = {"rounds": rounds, "ops_per_round": len(ops),
              "failures": failures,
              "op_seconds": tally.times, "traced_op_seconds": traced_tally.times,
              "op_seconds_scaled": tally.scaled,
              "plain_round_s": plain_rounds, "traced_round_s": traced_rounds}
    if tracer is None:
        metrics = {}
        for sub in workloads.SUBCOMMANDS:
            name, unit = workloads.RATE_METRICS[sub]
            metrics[name] = {"value": tally.rate(sub, tally.scaled), "unit": unit}
            record.setdefault("wall_rates", {})[name] = tally.rate(sub)
        metrics["peak_rss_growth_mb"] = {"value": peak_mb, "unit": "MB"}
    else:
        overhead = statistics.mean(traced_rounds) - statistics.mean(plain_rounds)
        layer = tracer.layer_metrics(len(traced_rounds), traced_tally.rows,
                                     traced_tally.bytes, overhead)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        record["by_subcommand"] = tracer.by_subcommand(len(traced_rounds))
        record["span_cost_s"] = span_cost()
        record["missing_functions"] = tracer.missing
        record["spans_kept"] = len(tracer.spans)
        record["spans_dropped"] = tracer.dropped
        for name in tracer.missing:
            print(f"trace: {name} is missing from the package", file=sys.stderr)
    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, record


if __name__ == "__main__":
    main()
