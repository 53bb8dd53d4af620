"""rangeseg benchmark: four pipeline workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload infer --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20   # every workload
    python3 benchmarks/run.py --smoke                                 # schema check

A single-workload run prints one ``name = value unit`` line per metric, an
``env`` line, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the same operations twice, first
untimed by the tracer and then traced, and reports the per-layer metrics
plus the tracing overhead. Result files (and the spans of a traced run) go
to ``benchmarks/out/``. See benchmarks/README.md for every metric.
"""

import os
import sys

# BLAS and OpenMP read these when NumPy loads, so they are set before any
# import that pulls NumPy in. The pin is verified before a result is reported.
PINNED_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(PINNED_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("infer", "infer-paper", "train", "uncertainty")

# name: (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "scans_per_s": ("1/s", "higher"),
    "scan_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def per_layer_unit(name):
    if name.endswith(".ms"):
        return "ms"
    if name.endswith(".gflops"):
        return "GFLOP/s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("bytes"):
        return "B"
    if name == "model.gflop":
        return "GFLOP"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# ---- environment ---------------------------------------------------------


def thread_count():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise RuntimeError("no Threads line in /proc/self/status")


def threads_during_blas(np):
    """Most threads this process had while a matmul ran in a helper thread.

    With the pin holding that is 2: this thread and the helper.
    """
    a = np.random.default_rng(0).random((800, 800))
    done = threading.Event()

    def work():
        for _ in range(4):
            a @ a
        done.set()

    seen = [thread_count()]
    worker = threading.Thread(target=work)
    worker.start()
    while not done.is_set():
        seen.append(thread_count())
        time.sleep(0.001)
    worker.join()
    return max(seen)


def cpu_model():
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def last_level_cache():
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, "unknown")
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            with open(os.path.join(base, entry, "level"), encoding="ascii") as fh:
                level = int(fh.read())
            with open(os.path.join(base, entry, "size"), encoding="ascii") as fh:
                size = fh.read().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, f"L{level} {size}"))
    return best[1]


def blas_info(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def src_digest():
    """sha256 over the package sources, which identifies the code when git is absent."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "rangeseg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(np, threads_seen):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "last_level_cache": last_level_cache(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "pinned_threads": PINNED_THREADS,
        "threads_seen_during_blas": threads_seen,
    }


# ---- running one workload -------------------------------------------------


# Functions below import the benchmark's modules when called: they import
# rangeseg, which is importable only once main() has put src/ on sys.path.


def run_op(wl, model, i, attach):
    from workloads import OpResult

    t0 = time.perf_counter()
    try:
        return wl.op(model, i, attach)
    except Exception as exc:  # the loop goes on; the failure is counted and shown
        traceback.print_exc()
        return OpResult(time.perf_counter() - t0, 0, [], [f"raised {type(exc).__name__}: {exc}"])


def closed_loop(wl, seconds, step):
    """Call ``step(i)`` for i = 0, 1, ...: the first pass over the distinct
    inputs always completes; after it, another step starts only if it is
    expected to end within ``seconds``."""
    start = time.perf_counter()
    last = 0.0
    i = 0
    while i < wl.per_pass or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        step(i)
        last = time.perf_counter() - t0
        i += 1


def end_to_end(results, setup_times):
    items = sum(r.items for r in results)
    busy = sum(r.seconds for r in results)
    latencies = [x for r in results for x in r.latencies_ms]
    return {
        "setup_s": statistics.median(setup_times),
        "scans_per_s": items / busy,
        "scan_p50_ms": statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }, latencies


def p90_line(latencies):
    """p90 only where at least ten samples lie beyond it."""
    n = len(latencies)
    if n >= 10:
        p90 = statistics.quantiles(latencies, n=10)[-1]
        beyond = sum(x > p90 for x in latencies)
        if beyond >= 10:
            return f"scan_p90_ms = {p90:.6g} ms (lower is better; n={n}, {beyond} beyond)"
    return f"scan_p90_ms omitted: {n} samples leave fewer than 10 beyond the 90th percentile"


def timed_run(wl, seconds):
    """End-to-end metrics: set up several times, then run untraced."""
    setup_times = []
    for _ in range(wl.setups):
        t0 = time.perf_counter()
        model = wl.setup()
        setup_times.append(time.perf_counter() - t0)
    results = []
    closed_loop(wl, seconds, lambda i: results.append(run_op(wl, model, i, lambda m: m)))
    metrics, latencies = end_to_end(results, setup_times)
    lines = [f"{k} = {v:.6g} {END_TO_END[k][0]} ({END_TO_END[k][1]} is better)" for k, v in metrics.items()]
    lines.append(f"latency samples = {len(latencies)}")
    if wl.name == "infer":
        lines.append(p90_line(latencies))
    if wl.name == "train":
        lines.append(f"train_images_per_s = {metrics['scans_per_s']:.6g} 1/s (higher is better; "
                     "the scans_per_s of this workload)")
        lines.append(f"epoch_p50_s = {statistics.median(latencies) * wl.num_scans / 1e3:.6g} s "
                     "(lower is better)")
    units = {k: END_TO_END[k][0] for k in metrics}
    extra = {"setup_times_s": setup_times, "latencies_ms": latencies}
    return results, metrics, units, lines, extra


def traced_run(wl, seconds):
    """Per-layer metrics. Each operation runs twice, untraced then traced, so
    that drift in machine speed cancels out of the tracing overhead."""
    from tracing import Tracer, coverage_per_span, forward_counts, per_layer_metrics
    from workloads import CHECKPOINT

    wl.setup()
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    model = tracer.attach(wl.load())  # one traced checkpoint load
    plain, traced = [], []

    def pair(i):
        for enabled, out in ((False, plain), (True, traced)):
            tracer.enabled, tracer.op = enabled, i
            out.append(run_op(wl, model, i, tracer.attach))
        tracer.enabled = False

    closed_loop(wl, seconds, pair)
    spans = tracer.spans
    metrics = per_layer_metrics(spans, sum(r.items for r in traced))
    metrics["checkpoint.bytes"] = os.path.getsize(CHECKPOINT) if wl.uses_checkpoint else 0
    metrics["postproc.labels_changed"] = metrics["postproc.knn_fix_ratio"] = 0.0
    metrics.update(wl.counts())
    overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1.0
    metrics["trace.overhead_pct"] = 100.0 * overhead
    units = {k: per_layer_unit(k) for k in metrics}
    lines = [f"{k} = {v:.6g} {units[k]}" for k, v in sorted(metrics.items())]
    coverage = coverage_per_span(spans)
    if coverage:
        worst = min(coverage, key=lambda c: c[2])
        lines.append(f"layer coverage of model spans: worst {100 * worst[2]:.1f}% ({worst[0]}, "
                     f"{worst[1]:.1f} ms) over {len(coverage)} spans")
    macs, _, stage_macs = forward_counts(spans)
    count_flops = model.count_flops(wl.proj.h, wl.proj.w)
    if count_flops != 2 * macs:
        traced[-1].failures.append(f"count_flops {count_flops} != {2 * macs} counted from shapes")
    extra = {"stage_macs": stage_macs, "count_flops": count_flops, "coverage": coverage,
             "span_fields": ["name", "start", "end", "parent", "op", "macs", "im2col_bytes",
                             "kernel", "batch"], "spans": spans}
    return plain + traced, metrics, units, lines, extra


def run_workload(args):
    import numpy as np

    threads_seen = threads_during_blas(np)
    if threads_seen > 2:
        print(f"error: {threads_seen} threads during a BLAS call; the pin to "
              f"{PINNED_THREADS} thread did not hold, so no result is reported", file=sys.stderr)
        return 1
    env = environment(np, threads_seen)

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    results, metrics, units, lines, extra = (traced_run if args.trace else timed_run)(wl, args.seconds)
    failures = [f for r in results for f in r.failures]
    failed = sum(1 for r in results if r.failures)
    attempted = len(results)
    quality = wl.quality()
    for name, (value, unit, better) in quality.items():
        lines.append(f"{name} = {value:.10g} {unit} ({better} is better; repeats exactly for a seed)")
    lines.append(f"failed_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    lines += [f"FAILED CHECK: {f}" for f in failures[:10]]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "metrics": metrics, "attempted": attempted, "failed": failed, "failures": failures,
        "quality": {k: v[0] for k, v in quality.items()}, **extra,
    }
    path = write_report(report)
    for line in lines:
        print(line)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"results written to {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def write_report(report):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{report['workload']}-seed{report['seed']}-trace{report['trace']}.json")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    os.replace(tmp, path)
    return path


# ---- every workload, and the smoke check ----------------------------------


def expected_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def schema_errors(result, expected):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted must be an integer >= 1")
    if not isinstance(result.get("failed"), int):
        errors.append("failed must be an integer")
    got = result.get("metrics", {})
    if set(got) != set(expected):
        errors.append(f"metrics missing {sorted(set(expected) - set(got))}, "
                      f"unexpected {sorted(set(got) - set(expected))}")
    for name, m in got.items():
        if name in expected and (m.get("unit") != expected[name] or not isinstance(m.get("value"), float)):
            errors.append(f"{name}: {m}")
    return errors


def run_all(args, smoke):
    e2e, per_layer = expected_metrics()
    traces = (0, 1) if smoke else (args.trace,)
    seconds = 0 if smoke else args.seconds
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in traces:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            print(f"== {name} (trace {trace}, exit {proc.returncode})")
            for line in lines[:-1]:
                if not line.startswith("env "):
                    print("  " + line)
            if proc.returncode != 0 or not lines:
                print(proc.stderr[-2000:])
                ok = False
                continue
            result = json.loads(lines[-1])
            errors = schema_errors(result, per_layer if trace else e2e) if smoke else []
            errors += [] if result["correct"] else ["outputs failed their checks"]
            for e in errors:
                print(f"  SCHEMA/CHECK ERROR: {e}")
            ok = ok and not errors
    print("all workloads passed" if ok else "some workloads FAILED")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description="rangeseg benchmark")
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one pass of every workload, traced and not, and check the output schema")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "rangeseg", "__init__.py")):
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.smoke or args.workload == "all":
        return run_all(args, args.smoke)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
