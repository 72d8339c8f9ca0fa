#!/usr/bin/env python3
"""Builds and runs the sjpl benchmark (see perfbench/README.md).

One run (`--workload all` runs the four in turn):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

prints host lines and the runner's accounting lines, then one JSON result
line. With --trace 0 its metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are the per-layer metrics, collected by
running every workload's traced pass (each metric is measured on the
workload its layer explains). Exits non-zero when the build fails, a
process fails, or an output check fails.

A/A check (two sets of AA_RUNS runs of every workload on one build, at
BENCHMARK.json's run_seconds; spreads and shifts next to bounds, exits
non-zero when one is over its bound; setup_s is held to its bound by its
shift only):
    python3 perfbench/run.py --aa
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# Each process must end well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170
# Runs per set in the A/A check.
AA_RUNS = 10


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Builds the runner from source; returns its path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=900)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"perfbench: build failed with exit code {done.returncode}")
        return None
    exe = os.path.join(target_dir(), "release", "sjpl-perfbench")
    return exe if os.path.exists(exe) else None


def host_lines():
    """What a noisy run needs to be traced to its host."""
    def cmd_out(cmd):
        try:
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=30)
            return out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            return None

    digest = hashlib.sha256()
    for top in ("crates", "compat", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return [
        f"nproc = {len(os.sched_getaffinity(0))}",
        f"git commit = {cmd_out(['git', 'rev-parse', 'HEAD']) or 'none (not a git checkout)'}",
        f"source sha256 = {digest.hexdigest()[:16]}",
        f"rustc = {cmd_out(['rustc', '-V']) or 'unknown'}",
    ]


def run_child(exe, workload, seed, seconds, trace):
    """Runs one workload process; returns (exit code, output lines, result)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {CHILD_TIMEOUT_S} s")
        return 1, [], None
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return done.returncode, lines[:-1] if result else lines, result


def select(metrics, wanted):
    """The wanted metrics, in spec order, or None if one is missing or
    carries another unit."""
    out = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if not got or not isinstance(got.get("value"), (int, float)) or got.get("unit") != m["unit"]:
            log(f"perfbench: metric {m['name']} [{m['unit']}] missing or malformed: {got}")
            return None
        out[m["name"]] = got
    return out


def one_run(args, exe):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"perfbench: unknown workload {args.workload!r} (known: {', '.join(names)}, all)")
        return 2
    load_start = os.getloadavg()[0]
    for line in host_lines():
        print(f"# host: {line}")
    print(f"# host: loadavg 1m at start = {load_start:.2f}")
    # The traced run measures every workload's layers, each in its own
    # process: the named workload for the full time, the others for a
    # quarter of it, so one traced run stays inside the time a run may take.
    runs = [(args.workload, args.seconds)]
    if args.trace:
        runs += [(w, max(2, args.seconds // 4)) for w in names if w != args.workload]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for w, seconds in runs:
        code, lines, result = run_child(exe, w, args.seed, seconds, args.trace)
        for line in lines:
            print(line)
        if result is None:
            log(f"perfbench: {w} printed no result (exit code {code})")
            return 1
        merged["correct"] &= bool(result["correct"]) and code == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update(result["metrics"])
        status = status or code
    print(f"# host: loadavg 1m at end = {os.getloadavg()[0]:.2f}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = select(merged["metrics"], wanted)
    if metrics is None:
        return 1
    merged["metrics"] = metrics
    print(json.dumps(merged), flush=True)
    return 0 if merged["correct"] and status == 0 else 1


def spread(values):
    """Distance between the first and third quartile as a share of the
    median, as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def aa_run():
    """Two sets of runs on one build; prints each end-to-end metric's
    spread and median shift next to its bound."""
    spec = load_spec()
    exe = build()
    if exe is None:
        return 1
    for line in host_lines():
        print(f"# host: {line}")
    bad = 0
    for w in (w["name"] for w in spec["workloads"]):
        sets = []
        for s in range(2):
            values = {m["name"]: [] for m in spec["end_to_end"]}
            for i in range(AA_RUNS):
                seed = 1000 * (s + 1) + i
                t0 = time.time()
                code, _, result = run_child(exe, w, seed, spec["run_seconds"], 0)
                if code != 0 or result is None or not result["correct"]:
                    log(f"perfbench: {w} seed {seed} failed (exit code {code})")
                    return 1
                for m in spec["end_to_end"]:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
                shown = " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items())
                log(f"  {w} set {s + 1} seed {seed}: {time.time() - t0:.1f} s, "
                    f"loadavg {os.getloadavg()[0]:.2f}: {shown}")
            sets.append(values)
        print(f"{w}:")
        print(f"  {'metric':<14}{'median A':>14}{'spread A':>10}{'median B':>14}"
              f"{'spread B':>10}{'worse B':>9}{'bound':>7}")
        for m in spec["end_to_end"]:
            a, b = sets[0][m["name"]], sets[1][m["name"]]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            sa, sb = spread(a), spread(b)
            flags = []
            if max(sa, sb) > m["bound"] and m["name"] == "setup_s":
                # Gated by its median shift only; see perfbench/README.md.
                flags.append("spread>bound(shift-gated)")
            elif max(sa, sb) > m["bound"]:
                flags.append("SPREAD>BOUND")
            elif max(sa, sb) > m["bound"] / 3:
                flags.append("spread>bound/3")
            if worse > m["bound"]:
                flags.append("SHIFT>BOUND")
            bad += any(f.isupper() for f in flags)
            print(f"  {m['name']:<14}{ma:>14.6g}{sa:>10.3f}{mb:>14.6g}{sb:>10.3f}"
                  f"{worse:>9.3f}{m['bound']:>7.2f}  {' '.join(flags)}")
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--aa", action="store_true", help="run the A/A steadiness check")
    args = p.parse_args()
    if args.aa:
        return aa_run()
    if not args.workload:
        p.error("--workload is required")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    exe = build()
    if exe is None:
        return 1
    if args.workload != "all":
        return one_run(args, exe)
    status = 0
    for w in load_spec()["workloads"]:
        args.workload = w["name"]
        status = one_run(args, exe) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
