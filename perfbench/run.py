"""hestonmm benchmark: three workloads, end-to-end metrics and a traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload stock-mm|pde|option-mm --seed N \
        --seconds S --trace 0|1

``--trace 0`` repeats the workload for S seconds with tracing off and prints
the end-to-end metrics: ``wall_s`` (median iteration wall time), ``setup_s``
(median over fresh processes, spread over the run, of importing hestonmm and
scipy and building the workload's inputs), ``peak_rss_mb``, ``result_err`` (the workload's own error
estimate for its headline number) and ``ok_frac`` (iterations that passed
their output checks over iterations attempted).

``--trace 1`` runs the workload twice untraced and twice traced and prints
the per-layer metrics (see ``spans.py``); every count must repeat exactly
between the two traced iterations.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record
(machine, versions, load, every iteration time) is printed on the line
before it and written with the spans under ``.perfbench_out/``.
The program is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("stock-mm", "pde", "option-mm")
SETUP_PROBES = {"full": 5, "tiny": 1}


def use_checkout_source() -> None:
    """Import hestonmm from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "hestonmm" / "__init__.py").is_file():
        raise SystemExit(f"no hestonmm sources under {src}")
    sys.path.insert(0, str(src))
    import hestonmm

    if Path(hestonmm.__file__).resolve().parent != (src / "hestonmm").resolve():
        raise SystemExit(f"hestonmm was imported from {hestonmm.__file__}, not {src}")


def make_workload(name: str, seed: int, size: str):
    import workloads

    return workloads.WORKLOADS[name](seed, size)


def setup_probe(args) -> None:
    """Time a cold import plus the workload's set-up in this fresh process."""
    t0 = time.perf_counter()
    use_checkout_source()
    make_workload(args.workload, args.seed, args.size)
    print(repr(time.perf_counter() - t0))


def spawn_setup_probe(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--size", args.size,
           "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def machine_record() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model or platform.processor(), "python": platform.python_version(),
            "platform": platform.platform(), "loadavg_start": list(os.getloadavg())}


def attempt(wl, out_dir: Path, tracer=None) -> dict:
    """One iteration: time it, check its output, fingerprint its artifacts.
    A raise counts as a failed check."""
    import workloads

    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    rec = {"problems": [], "result": None}
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            tracer.install()
        try:
            rec["result"] = wl.iteration(out_dir)
        finally:
            rec["seconds"] = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        rec["bytes"], rec["digest"] = workloads.artifacts(out_dir)
        rec["problems"] = wl.check(rec["result"])
        rec["err"] = wl.result_err(rec["result"])
    except Exception as exc:  # the run goes on; the iteration counts as failed
        traceback.print_exc()
        rec["problems"].append(f"raised {type(exc).__name__}: {exc}")
        rec.setdefault("seconds", time.perf_counter() - t0)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return rec


def same_artifacts(recs: list[dict]) -> None:
    """Every iteration of one run uses one seed, so its artifacts must be
    byte-identical to the first completed iteration's."""
    first = next((r["digest"] for r in recs if "digest" in r), None)
    for r in recs:
        if "digest" in r and r["digest"] != first:
            r["problems"].append("artifacts differ from the first iteration on the same seed")


def run_measure(args, wl, record: dict) -> tuple[list[dict], dict]:
    out_dir = OUT / f"iter-{os.getpid()}"
    recs, setup, spent = [], [], []
    n_probes = SETUP_PROBES[args.size]
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        # set-up probes are spread over the run, so they meet the same machine
        # load as the iterations around them
        if len(setup) < n_probes and elapsed >= len(setup) * args.seconds / n_probes:
            setup.append(spawn_setup_probe(args))
            continue
        # start an iteration only while a typical one still ends within the run
        if spent and elapsed + statistics.median(spent) > args.seconds:
            break
        t0 = time.perf_counter()
        recs.append(attempt(wl, out_dir))
        spent.append(time.perf_counter() - t0)
    setup += [spawn_setup_probe(args) for _ in range(n_probes - len(setup))]
    same_artifacts(recs)
    done = [r for r in recs if "err" in r]
    if not done:
        raise SystemExit("no iteration completed")
    ok = sum(not r["problems"] for r in recs)
    record["setup_samples_s"] = setup
    metrics = {
        "wall_s": (statistics.median(r["seconds"] for r in recs), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "result_err": (statistics.median(r["err"] for r in done), "abs"),
        "ok_frac": (ok / len(recs), "frac"),
    }
    return recs, metrics


def run_trace(args, wl, record: dict) -> tuple[list[dict], dict]:
    from spans import Tracer

    out_dir = OUT / f"iter-{os.getpid()}"
    recs, layers = [], []
    # untraced, traced, traced, untraced: drift over the run cancels in the overhead
    for traced in (False, True, True, False):
        tracer = Tracer() if traced else None
        recs.append(attempt(wl, out_dir, tracer))
        if traced:
            layers.append(tracer.metrics() | {"cli.artifact_bytes": recs[-1].get("bytes", 0)})
            spans = tracer
    same_artifacts(recs)
    # counts (every metric that is not a time) must repeat exactly
    moved = sorted(k for k in layers[0] if not k.endswith("_s") and layers[0][k] != layers[1][k])
    if moved:
        recs[2]["problems"].append(f"counts did not repeat: {moved}")
    if args.size == "full":
        recorded = json.loads((Path(__file__).parent / "counts.json").read_text())[args.workload]
        record["counts_changed_since_recorded"] = {
            k: [v, layers[0][k]] for k, v in recorded.items() if layers[0][k] != v}
    spans.save(OUT / f"spans-{args.workload}-{args.seed}.npz")
    overhead = (statistics.mean(r["seconds"] for r in recs[1:3])
                / statistics.mean(r["seconds"] for r in (recs[0], recs[3])) - 1.0)
    metrics = {k: (statistics.mean(m[k] for m in layers) if k.endswith("_s") else layers[0][k],
                   unit_of(k)) for k in layers[0]}
    metrics["trace.overhead_frac"] = (overhead, "frac")
    speedup = wl.threads2_speedup() if hasattr(wl, "threads2_speedup") else 0.0
    metrics["sim_engine.threads2_speedup"] = (speedup, "x")
    return recs, metrics


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_frac"):
        return "frac"
    if metric.endswith("_margin"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=tuple(SETUP_PROBES),
                   help="tiny: small inputs for the benchmark's self-test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "size": args.size, **machine_record()}
    use_checkout_source()
    OUT.mkdir(exist_ok=True)
    wl = make_workload(args.workload, args.seed, args.size)
    import numpy
    import scipy

    record.update(numpy=numpy.__version__, scipy=scipy.__version__)
    recs, metrics = (run_trace if args.trace else run_measure)(args, wl, record)
    failed = sum(bool(r["problems"]) for r in recs)
    record["iterations"] = [{"seconds": r["seconds"], "problems": r["problems"]} for r in recs]
    secs = [r["seconds"] for r in recs]
    record["iteration_spread_s"] = {"min": min(secs), "max": max(secs)}
    for r in recs:
        for problem in r["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    (OUT / f"record-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(recs), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
