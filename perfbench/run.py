#!/usr/bin/env python3
"""Benchmark of gauss-steer: end-to-end metrics, or per-layer metrics when traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {cli,sweep,ingest} --seed N \\
        --seconds S --trace {0,1}

Inputs come from the seed; the run serves requests for S seconds of request
time, checks every output outside the timed region, prints each metric by
name with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.  See README.md
beside this file for the metric and workload names.
"""

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import deque
from time import perf_counter

# One process makes the load: BLAS and OpenMP stay single-threaded here and
# in every child (numpy is imported only after this), and the library's seed
# fallback is not inherited.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"
os.environ.pop("GAUSS_STEER_SEED", None)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("cli", "sweep", "ingest")
# Fresh interpreters timed per run for setup_s and the import metrics.
SETUP_REPEATS = 5
# --version subprocesses timed per traced run for cli.startup_s.
STARTUP_REPEATS = 3
# Share of --seconds replayed untraced in a traced run, for trace.overhead_ratio.
REPLAY_SHARE = 0.2
# Requests per window of the tail latency in long runs.
TAIL_WINDOW = 100
# Unexpected errors printed with a traceback, at most.
MAX_TRACEBACKS = 3

# Times a fresh interpreter's import of the CLI module plus the generation of
# the workload's first input batch: the set-up a run pays before its first
# request.  argv: benchmark dir, workload, seed, batch size.
SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
import gauss_steer.cli
t1 = time.perf_counter()
modules, scipy = len(sys.modules), "scipy" in sys.modules
sys.path.insert(0, sys.argv[1])
import inputs
inputs.Stream(sys.argv[2], int(sys.argv[3])).take(int(sys.argv[4]))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0,
                  "modules": modules, "scipy": scipy}))
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "kind1_p50_ms": "ms",
    "kind2_p50_ms": "ms",
    "kind3_p50_ms": "ms",
    "tail_ms": "ms",
}


def per_layer_unit(name, value):
    if isinstance(value, int):
        return "count"
    return {"s": "s", "ms": "ms", "us": "us"}.get(name.rsplit("_", 1)[-1], "ratio")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return env


def run_child(argv, timeout=120):
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv[:2]} exited {proc.returncode}: {proc.stderr[-500:]}")
    return proc.stdout


def setup_probes(workload, seed, batch):
    runs = []
    for _ in range(SETUP_REPEATS):
        out = run_child(["-c", SETUP_PROBE, HERE, workload, str(seed), str(batch)])
        runs.append(json.loads(out.strip().splitlines()[-1]))
    return runs


def startup_seconds():
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = perf_counter()
        run_child(["-m", "gauss_steer.cli", "--version"])
        times.append(perf_counter() - t0)
    return statistics.median(times)


def environment():
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "gauss_steer")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "jsonschema": version("jsonschema"),
    }


class Served:
    """Outcome of the timed loop."""

    def __init__(self):
        self.kinds, self.latencies, self.ok = [], [], []
        self.busy = 0.0
        self.replay = []
        self.tracebacks = 0

    def fail(self, request, why):
        self.ok[request] = False
        if self.tracebacks < MAX_TRACEBACKS:
            self.tracebacks += 1
            print(f"# request {request} ({self.kinds[request]}) failed: {why}", file=sys.stderr)


def serve(wl, stream, seconds, tracer):
    """Closed loop, one client: serve whole rounds until ``seconds`` of request time."""
    done = Served()
    pending = deque()
    replayed = 0.0
    while done.busy < seconds or len(done.kinds) % wl.round:
        if not pending:
            pending.extend(stream.take(wl.batch))
        kind, data = pending.popleft()
        arg = wl.prepare(kind, data)
        request = len(done.kinds)
        ctx = contextlib.nullcontext() if tracer is None else tracer.span("request", request)
        result = error = None
        with ctx:
            t0 = perf_counter()
            try:
                result = wl.execute(kind, arg, tracer)
            except Exception as exc:  # a request boundary: record and go on
                error = exc
            dt = perf_counter() - t0
        done.kinds.append(kind)
        done.latencies.append(dt)
        done.ok.append(True)
        done.busy += dt
        if tracer is not None and replayed < REPLAY_SHARE * seconds:
            done.replay.append((kind, arg))
            replayed += dt
        if error is not None:
            if not wl.rejected_cleanly(kind, error):
                done.fail(request, "".join(traceback.format_exception(error)))
        elif wl.expect_error(kind):
            done.fail(request, "malformed input was accepted")
        else:
            try:
                if not wl.check(request, kind, data, arg, result):
                    done.fail(request, "output check failed")
            except Exception:  # a malformed output fails its request
                done.fail(request, traceback.format_exc())
    return done


def replay_untraced(wl, done):
    """Traced request time of the first requests over their time served again untraced."""
    traced = sum(done.latencies[: len(done.replay)])
    untraced = 0.0
    for kind, arg in done.replay:
        t0 = perf_counter()
        with contextlib.suppress(Exception):
            wl.execute(kind, arg, None)
        untraced += perf_counter() - t0
    return traced / untraced


def tail(latencies):
    """Latency at the highest percentile with at least 10 samples beyond it.

    Taken over the latencies of one request kind, so the rank of the tail
    sample does not depend on the mix of kinds.  At least two
    TAIL_WINDOW-sample windows report the median of the windows' tails,
    which steadies the tail of long runs; fewer samples give it over all of
    them, and at most 10 their maximum.  Returns (value, percentile, n,
    windows), n being the samples per window.
    """
    windows = [
        latencies[i : i + TAIL_WINDOW]
        for i in range(0, len(latencies) - TAIL_WINDOW + 1, TAIL_WINDOW)
    ]
    if len(windows) < 2:
        windows = [latencies]
    n = len(windows[0])
    beyond = 10 if n > 10 else 0
    value = statistics.median(sorted(w)[-beyond - 1] for w in windows)
    return value, 100.0 * (n - beyond) / n, n, len(windows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "gauss_steer", "cli.py")):
        print(f"error: no gauss_steer sources under {SRC}", file=sys.stderr)
        return 2

    sys.path[:0] = [SRC, HERE]
    import inputs
    import spans
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return bench(args, inputs, spans, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(args, inputs, spans, workloads, workdir):
    traced = bool(args.trace)
    checks = workloads.Checks()

    if args.workload == "cli":
        wl = workloads.Cli(checks, ROOT, workdir, child_env(), traced)
    else:
        wl = workloads.Sweep(checks) if args.workload == "sweep" else workloads.Ingest()
    # The warm-up fills __pycache__ and lazy state; the set-up probes then
    # time a warm import, as every later run of a checkout sees it.
    wl.warmup(inputs.Stream(args.workload, args.seed, purpose=1))
    setups = setup_probes(args.workload, args.seed, wl.batch)

    tracer = spans.Tracer() if traced else None
    stream = inputs.Stream(args.workload, args.seed)
    with spans.patched(tracer) if traced else contextlib.nullcontext():
        done = serve(wl, stream, args.seconds, tracer)
    # Before the grid checks, whose sphere samples would set the peak.
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    for request in checks.run_grid():
        done.fail(request, "a HOLDS condition is refuted by falsify_grid")
    if isinstance(wl, workloads.Cli):
        request = wl.replay_mismatch()
        if request is not None:
            done.fail(request, "replayed request gave different stdout")

    lat = {k: [t for kk, t in zip(done.kinds, done.latencies) if kk == k] for k in wl.kinds}
    tails = {k: tail(lat[k]) for k in wl.kinds}
    # The reported tail is that of the kind whose tail is slowest.
    worst = max(wl.kinds, key=lambda k: tails[k][0])
    failed = done.ok.count(False)
    detail = {
        "kinds": {
            f"kind{i + 1}": {
                "name": k,
                "n": len(lat[k]),
                "p50_ms": 1e3 * statistics.median(lat[k]),
                "tail_ms": 1e3 * tails[k][0],
                "tail_percentile": tails[k][1],
            }
            for i, k in enumerate(wl.kinds)
        },
        "tail": dict(zip(("kind", "percentile", "n", "windows"), (worst, *tails[worst][1:]))),
        "grid_checks": len(checks.grid),
        "request_seconds": done.busy,
        "failed_ratio": failed / len(done.kinds),
        "setup_runs_s": [s["setup_s"] for s in setups],
    }

    if traced:
        overhead = replay_untraced(wl, done)
        metrics, absent = spans.layer_metrics(tracer.spans, "request")
        metrics.update(
            {
                "cli.startup_s": startup_seconds(),
                "import.gauss_steer_cli_s": statistics.median(s["import_s"] for s in setups),
                "import.modules": setups[0]["modules"],
                "import.scipy_loaded": int(setups[0]["scipy"]),
                "trace.overhead_ratio": overhead,
            }
        )
        units = {name: per_layer_unit(name, v) for name, v in metrics.items()}
        # Means and ratios of layers this workload never reaches, reported as 0.
        detail["absent"] = absent
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path)
        detail["spans_file"] = os.path.relpath(path, ROOT)
    else:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": peak_rss_mb,
            "throughput_per_s": len(done.kinds) / done.busy,
            "tail_ms": 1e3 * tails[worst][0],
        }
        for i, k in enumerate(wl.kinds):
            metrics[f"kind{i + 1}_p50_ms"] = 1e3 * statistics.median(lat[k])
        units = END_TO_END_UNITS

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(environment(), sort_keys=True))
    print("# detail " + json.dumps(detail, sort_keys=True))
    for name in sorted(metrics):
        print(f"{name:<34} {metrics[name]:>16.6g} {units[name]}")
    print(
        f"correct={failed == 0} attempted={len(done.kinds)} failed={failed} "
        f"failed_ratio={failed / len(done.kinds):.6g}"
    )
    result = {
        "correct": failed == 0,
        "attempted": len(done.kinds),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
