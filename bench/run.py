"""freesplit benchmark: one workload per call, checked verdicts, one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
Workloads: loxodromic, bounded, rank2_sweep (see ``workloads.py``).  The
seed shuffles the order of the operations and fixes the child's
``PYTHONHASHSEED``; the inputs themselves are fixed.  A run executes every
operation of the workload once, so ``--seconds`` is recorded, not used to
stop early.

Each workload runs in fresh child processes of this script.  With
``--trace 0`` one child sets up and runs the workload, with
``SETUP_PROBES`` children that only set up before it and as many after it,
so that the median set-up time spans the run; it reports the end-to-end
metrics.  With ``--trace 1`` one child runs the workload
untraced, builds the inputs again and runs it with every public function of
each module wrapped (``tracing.py``); it reports the per-layer metrics,
with ``trace.overhead_s`` the traced minus the untraced wall time.  Every
outcome is checked against the benchmark's own reference and digested; the
digests are compared with ``reference_digests.json``, recorded when the
benchmark was defined.  Human-readable lines come first; the last line of stdout is the
JSON result.  Details (per-operation records, spans) go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference_digests.json"
WORKLOADS = ("loxodromic", "bounded", "rank2_sweep")
SETUP_PROBES = 4  # set-up-only children before and after the workload child
RUN_DEADLINE_S = 175.0  # every child of one run must end within this
# fixed, so that the ``<module>.src_lines`` names match BENCHMARK.json
MODULES = ("__init__", "automorphisms", "classify", "cli", "config", "errors",
           "factors", "fixtures", "graphs", "laminations", "pairs", "reports",
           "whitehead", "words", "wproj")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # internal: the parent runs this script again as its child
    p.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    p.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- child ------------------------------------------------------------------


def run_pass(ops, tracer=None) -> list[dict]:
    """Run each operation once; an escaping exception is recorded, not fatal."""
    import workloads

    records = []
    for op in ops:
        t0 = time.perf_counter()
        with tracer.span("operation") if tracer else contextlib.nullcontext():
            try:
                outcome = op.run()
                status, dig, error = (op.check(outcome),
                                      workloads.digest(outcome), None)
            except Exception:  # one failing operation must not stop the run
                status, dig, error = workloads.ERROR, None, traceback.format_exc()
        records.append({"op": op.op_id, "status": status,
                        "failed": status in workloads.FAILED, "digest": dig,
                        "error": error, "seconds": time.perf_counter() - t0})
    return records


def child(args) -> dict:
    # imported here so that the parent never loads numpy or the library
    import numpy
    import tracing
    import workloads

    ops = workloads.build(args.workload)
    setup_s = time.monotonic() - args.spawned_at
    if args.child == "setup":
        return {"setup_s": setup_s}
    order = list(range(len(ops)))
    random.Random(args.seed).shuffle(order)
    t0 = time.perf_counter()
    records = run_pass([ops[i] for i in order])
    wall_s = time.perf_counter() - t0
    counts = workloads.tally(records)
    out = {"setup_s": setup_s, "wall_s": wall_s, "records": records,
           "counts": counts, "correct": workloads.outputs_correct(counts),
           "python": platform.python_version(), "numpy": numpy.__version__}
    if args.trace:
        fresh = workloads.build(args.workload)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            traced = run_pass([fresh[i] for i in order], tracer)
            traced_wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        out["traced_records"] = traced
        out["layers"] = tracer.summary()
        out["layers"]["trace.wall_s"] = traced_wall
        out["layers"]["trace.overhead_s"] = traced_wall - wall_s
        out["layers"]["trace.spans"] = len(tracer.start)
        write_spans(args, tracer)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def write_spans(args, tracer):
    """One JSON line per span: [name, start, end, parent index]."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans():
            fh.write(json.dumps(span) + "\n")


# -- parent -----------------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(seed: int) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("FREESPLIT_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


def spawn(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--child", mode, "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=child_env(args.seed), cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_lines() -> dict[str, int]:
    out = {}
    for mod in MODULES:
        path = SRC / "freesplit" / f"{mod}.py"
        out[f"{mod.strip('_')}.src_lines"] = (
            len(path.read_text(encoding="utf-8").splitlines())
            if path.exists() else 0)
    out["freesplit.src_lines"] = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in (SRC / "freesplit").glob("*.py"))
    return out


def latency_line(records) -> str:
    """Per-operation latency percentiles, with the sample count behind them."""
    ms = sorted(r["seconds"] * 1e3 for r in records)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
    return (f"latency per operation: p50 {statistics.median(ms):.4g} ms, "
            f"p90 {p90:.4g} ms, max {ms[-1]:.4g} ms over {len(ms)} "
            f"operations, {sum(x > p90 for x in ms)} beyond p90")


def reference_digests(workload: str) -> dict[str, str]:
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload, {})


def parent(args) -> int:
    deadline = time.monotonic() + RUN_DEADLINE_S
    probes = 0 if args.trace else SETUP_PROBES

    def setup_probes():
        return [spawn(args, "setup", deadline)["setup_s"] for _ in range(probes)]

    setups = setup_probes()
    res = spawn(args, "run", deadline)
    setups += [res["setup_s"]] + setup_probes()
    records, counts = res["records"], res["counts"]
    failed = sum(r["failed"] for r in records)
    ref = reference_digests(args.workload)
    mismatches = [r["op"] for r in records if ref.get(r["op"]) != r["digest"]]
    correct = res["correct"]
    lines = src_lines()

    print(f"workload {args.workload}: {len(records)} operations, seed "
          f"{args.seed}, seconds {args.seconds} (one pass), trace "
          f"{args.trace}; python {res['python']}, numpy "
          f"{res['numpy']}, nproc {nproc()}")
    print("checks: " + ", ".join(f"{s} {n}" for s, n in counts.items())
          + f"; digest mismatches {len(mismatches)}/{len(records)}")
    for r in records:
        if r["failed"]:
            reason = r["error"].strip().splitlines()[-1] if r["error"] else ""
            print(f"  {r['status']}: {r['op']}: {reason}")
    for op in mismatches:
        print(f"  digest mismatch: {op}")
    print(latency_line(records))
    print("src lines: " + ", ".join(f"{k.split('.')[0]} {v}"
                                    for k, v in lines.items()))

    if args.trace:
        traced = {r["op"]: r["digest"] for r in res["traced_records"]}
        same = all(traced[r["op"]] == r["digest"] for r in records)
        print(f"traced digests identical to untraced: {same}")
        correct = correct and same
        metrics = {name: {"value": value,
                          "unit": "s" if name.endswith("_s") else "count"}
                   for name, value in res["layers"].items()}
        metrics["check.digest_mismatches"] = {"value": len(mismatches),
                                              "unit": "count"}
        metrics.update({k: {"value": v, "unit": "lines"}
                        for k, v in lines.items()})
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (res["wall_s"], "s"),
            "decided_share": (counts["decided"] / len(records), "share"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        for name, (value, unit) in metrics.items():
            print(f"  {name:<16} {value:.6g} {unit}")
        print(f"  (setup_s is the median of {len(setups)} fresh processes; "
              f"failed_share {failed / len(records):.4g})")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    OUT_DIR.mkdir(exist_ok=True)
    detail = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({"nproc": nproc(), "setups": setups, **res},
                                 indent=1),
                      encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "freesplit" / "__init__.py").is_file():
        print(f"error: no freesplit sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(child(args)))
        return 0
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return parent(args)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
