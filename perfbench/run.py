#!/usr/bin/env python3
"""Repository benchmark: builds the driver from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The driver (perfbench/driver, built with the
simulator libraries from src/) runs the workload; this script aggregates and
prints every metric by name with its unit, then one JSON result line.

--trace 0  end-to-end metrics. The measurement is split over CHILDREN fresh
           processes run one after another; each sets up once (setup_s is
           the median of their setup passes) and then runs timed passes for
           S / CHILDREN seconds. host_s is the mean over all timed passes
           (their total wall time / their number); see README.md for why.
--trace 1  per-layer metrics from one process: exact work counts, untraced
           and traced passes, unit probes; the host spans and the simulated
           trace are written as Chrome JSON under the build directory.

Every process must reproduce the same metrics artifact (determinism gate),
and every correctness check must pass; otherwise the exit code is 1.
Metric names and units come from BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
CHILDREN = 3
BUILD_TIMEOUT_S = 850
CHILD_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the driver; returns its path or None."""
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench")
    out = os.path.join(ROOT, out) if not os.path.isabs(out) else out
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "-j", jobs, "--target", "perfbench_driver"],
    ]
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: build step failed: {e}")
            return None
        if r.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    return out


def run_child(exe, args, seconds, trace, out_dir):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           "--out", out_dir]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "driver timed out"
    lines = r.stdout.strip().splitlines()
    if r.returncode == 2 or not lines:
        return None, f"driver exited {r.returncode}"
    doc = json.loads(lines[-1])
    if r.returncode != 0 or not doc.get("ok"):
        return None, doc.get("error", f"driver exited {r.returncode}")
    return doc, None


def failed(attempted, why):
    log(f"perfbench: FAILED: {why}")
    print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                      "failed": 1, "metrics": {}}))
    sys.exit(1)


def emit(spec, values, attempted):
    metrics = {}
    for m in spec:
        v = values[m["name"]]
        print(f"{m['name']} = {v:.6g} {m['unit']}")
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        log(f"perfbench: unknown workload {args.workload}")
        sys.exit(2)

    out = build()
    if out is None:
        sys.exit(1)
    exe = os.path.join(out, "perfbench_driver")

    if args.trace:
        doc, err = run_child(exe, args, args.seconds, True, out)
        if err:
            failed(1, err)
        log(f"perfbench: {args.workload}: traced passes "
            f"{doc['traced_pass_s']}, untraced {doc['pass_s']}; traces in "
            f"{out}/{args.workload}_*.json")
        emit(bench["per_layer"], doc["per_layer"],
             doc["runs_checked"] + doc["histories_checked"])
        return

    docs = []
    for _ in range(CHILDREN):
        doc, err = run_child(exe, args, args.seconds / CHILDREN, False, out)
        if err:
            failed(sum(d["runs_checked"] for d in docs) + 1, err)
        docs.append(doc)
    attempted = sum(d["runs_checked"] + d["histories_checked"] for d in docs)
    # Determinism across processes: identical artifacts and results.
    for d in docs[1:]:
        if (d["fingerprint"] != docs[0]["fingerprint"]
                or d["end_to_end"] != docs[0]["end_to_end"]):
            failed(attempted, "processes disagree on the simulated results")

    e2e = docs[0]["end_to_end"]
    passes = [s for d in docs for s in d["pass_s"]]
    host_s = statistics.fmean(passes)
    values = {
        "setup_s": statistics.median(d["setup_s"] for d in docs),
        "host_s": host_s,
        "host_ns_per_op": host_s * 1e9 / e2e["ops"],
        "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in docs),
        "sim_mops": e2e["sim_mops"],
        "sim_p50_cycles": e2e["sim_p50_cycles"],
        "sim_p99_cycles": e2e["sim_p99_cycles"],
        "served_share": e2e["served_share"],
    }
    log(f"perfbench: {args.workload}: {len(passes)} timed passes over "
        f"{CHILDREN} processes, {min(passes):.4f}..{max(passes):.4f} s")
    print("latency samples per run: " + ", ".join(
        f"{k}={v}" for k, v in e2e["samples"].items()))
    if "paper" in e2e:
        p = e2e["paper"]
        print(f"paper_err_pct = {p['err_pct']:.6g} % "
              f"(mp-server/shm-server peak {p['mp_over_shm']:.4g}x vs "
              f"{p['mp_over_shm_paper']}x, HybComb/CC-Synch peak "
              f"{p['hyb_over_cc']:.4g}x vs {p['hyb_over_cc_paper']}x)")
    emit(bench["end_to_end"], values, attempted)


if __name__ == "__main__":
    main()
