#!/usr/bin/env python3
"""Build tmcv_bench and run the repo benchmark.

    python3 benchmark/run.py                      # all four workloads
    python3 benchmark/run.py --workload kv --seed 7 --seconds 10 --trace 0
    python3 benchmark/run.py --trace 1            # per-layer metrics + traces
    python3 benchmark/run.py --quick              # 1 s windows, smoke test

Every workload runs in a fresh process, so per-thread adaptive state (the
spin predictor, the contention manager's hysteresis) and peak RSS never
leak from one workload into the next.  Each run checks its outputs and
prints every metric by name with its unit.  With --workload, the last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  The metrics are the end-to-end ones of BENCHMARK.json, or its
per-layer ones with --trace 1.

A traced run is two processes of half the window each: an untraced one,
which gives the counters, and one with spans on, which gives the span
metrics and a Chrome trace in benchmark/out/.  Their throughput difference
is bench.trace_overhead_pct.  End-to-end numbers never come from a traced
process.

A paced run whose generator ran late measured the generator, not the
system.  It is run again, and when every attempt ran late the result is
not correct and run.py exits nonzero.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BUILD = OUT / "build"
BENCH = BUILD / "tmcv_bench"
WORKLOADS = ["pipe_txn", "pipe_lock_paced", "txn_mix", "kv"]
# The end-to-end table every run prints.  Three of its rows carry no bound
# in BENCHMARK.json: op_p99_us spreads too widely between runs on a shared
# host (it is a per-layer metric there), op_samples is a count, and
# failed_frac is 0 on every good run.
E2E_TABLE = ["ops_per_s", "op_p50_us", "op_p99_us", "op_samples",
             "cpu_us_per_op", "setup_s", "max_rss_mb", "failed_frac"]
# Above this the paced generator itself ran late and the latencies of the
# run are not the system's.  Such a run is made again, up to this many
# attempts in all.
MAX_GEN_LAG_US = 50.0
ATTEMPTS = 3
WARMUP_S = 2.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure once, then bring tmcv_bench up to date.  Build output goes
    to a log file; on failure its tail goes to stderr."""
    OUT.mkdir(exist_ok=True)
    tmp = OUT / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    logfile = OUT / "build.log"
    with open(logfile, "w") as lf:
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release", *gen])
        steps.append(["cmake", "--build", str(BUILD), "--target",
                      "tmcv_bench", "-j", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=lf, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                lf.flush()
                tail = logfile.read_text().splitlines()[-30:]
                log("\n".join(tail))
                log(f"run.py: build failed (full log: {logfile})")
                return False
    return True


def git_fingerprint():
    """The commit measured, if the tree is a git checkout of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        r = subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                           capture_output=True, text=True)
        return r.stdout.strip() if r.returncode == 0 else None

    try:
        sha = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    except OSError:
        sha = None
    return {"git_sha": sha or "none", "git_dirty": bool(sha) and dirty}


def run_bench(workload, seed, seconds, warmup_s, tag, trace=False):
    raw = OUT / "raw" / f"{workload}-seed{seed}-{tag}.json"
    raw.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(BENCH), "--workload", workload, "--seed", str(seed),
           "--warmup-s", str(warmup_s), "--seconds", str(seconds),
           "--json", str(raw)]
    if trace:
        cmd += ["--trace", str(OUT / f"trace_{workload}.json")]
    try:
        r = subprocess.run(cmd, timeout=seconds + warmup_s + 120)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} did not finish in time")
        return None
    if not raw.exists() or r.returncode not in (0, 3):  # 3: a check failed
        log(f"run.py: {workload} exited with code {r.returncode}")
        return None
    with open(raw) as f:
        return json.load(f)


def run_workload(workload, seed, seconds, warmup_s, traced):
    """One measured result for `workload`: a plain run, or with `traced`
    an untraced half window plus a traced one."""
    if not traced:
        res = run_bench(workload, seed, seconds, warmup_s, "plain")
        if res is None:
            return None
        res["valid"] = res["per_layer"]["bench.gen_lag_us_p99"]["value"] \
            <= MAX_GEN_LAG_US
        return res
    half = max(1, seconds // 2)
    plain = run_bench(workload, seed, half, warmup_s, "counters")
    spans = run_bench(workload, seed, half, warmup_s, "spans", trace=True)
    if plain is None or spans is None:
        return None
    layers = dict(plain["per_layer"])
    for name, m in spans["per_layer"].items():
        layers.setdefault(name, m)
    untraced = plain["metrics"]["ops_per_s"]["value"]
    traced_ops = spans["metrics"]["ops_per_s"]["value"]
    layers["bench.trace_overhead_pct"] = {
        "value": (traced_ops - untraced) / untraced * 100.0, "unit": "%"}
    res = dict(plain)
    res["traced"] = True
    res["per_layer"] = layers
    res["correct"] = plain["correct"] and spans["correct"]
    res["attempted"] = plain["attempted"] + spans["attempted"]
    res["failed"] = plain["failed"] + spans["failed"]
    res["checks"] = plain["checks"] + spans["checks"]
    res["spans_dropped"] = spans["spans_dropped"]
    res["valid"] = layers["bench.gen_lag_us_p99"]["value"] <= MAX_GEN_LAG_US
    return res


def report(spec, res):
    """Human-readable block for one workload."""
    print(f"{res['workload']}  seed {res['seed']}  "
          f"({res['seconds']} x 1 s windows after {res['warmup_s']} s warmup"
          f"{', traced' if res['traced'] else ''})")
    names = list(E2E_TABLE)
    if res["traced"]:
        names += [m["name"] for m in spec["per_layer"]
                  if m["name"] not in names]
    metrics = {**res["metrics"], **res["per_layer"]}
    for name in names:
        m = metrics[name]
        print(f"  {name:34s} {m['value']:16.6g} {m['unit']}")
    if res["traced"]:
        shares = [(n, m["value"]) for n, m in res["per_layer"].items()
                  if n.startswith("self.") and m["value"] > 0]
        if shares:
            print("  self time as a share of the root span: " + ", ".join(
                f"{n[5:]} {v:.1%}" for n, v in shares))
        print(f"  trace: {OUT / ('trace_' + res['workload'] + '.json')}"
              f" ({res['spans_dropped']} spans dropped)")
    for c in res["checks"]:
        print(f"  check {c['name']}: {'ok' if c['ok'] else 'FAILED'}"
              f" ({c['detail']})")
    if not res["valid"]:
        print(f"  INVALID: paced generator ran late on all {ATTEMPTS}"
              f" attempts (bench.gen_lag_us_p99 > {MAX_GEN_LAG_US} us)")


def contract_line(spec, res, traced):
    """The one-line result: end-to-end metrics, or per-layer ones traced."""
    names = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    source = {**res["metrics"], **res["per_layer"]}
    missing = [n for n in names if n not in source]
    if missing:
        raise KeyError(f"tmcv_bench did not report {missing}")
    return json.dumps({
        "correct": bool(res["correct"] and res["valid"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {n: source[n] for n in names},
    })


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (default: all four)")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=10,
                    help="measured window, in 1 s windows")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="1: per-layer metrics, spans and a Chrome trace")
    ap.add_argument("--quick", action="store_true",
                    help="smoke test: 1 s window, 0.5 s warmup")
    ap.add_argument("--out", type=Path, default=OUT / "results",
                    help="directory for the result files")
    args = ap.parse_args()
    traced = args.trace == 1
    warmup_s = WARMUP_S
    if args.quick:
        args.seconds, warmup_s = 1, 0.5
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log(f"run.py: cannot read BENCHMARK.json: {e}")
        return 1
    if not build():
        return 1

    fingerprint_git = git_fingerprint()
    args.out.mkdir(parents=True, exist_ok=True)
    workloads = [args.workload] if args.workload else WORKLOADS
    ok = True
    for w in workloads:
        for attempt in range(1, ATTEMPTS + 1):
            res = run_workload(w, args.seed, args.seconds, warmup_s, traced)
            if res is None:
                return 1
            if res["valid"]:
                break
            log(f"run.py: {w}: the paced generator ran late"
                f" (attempt {attempt} of {ATTEMPTS})")
        res["fingerprint"].update(fingerprint_git)
        suffix = "-traced" if traced else ""
        with open(args.out / f"{w}-seed{args.seed}{suffix}.json", "w") as f:
            json.dump(res, f, indent=1)
        report(spec, res)
        ok = ok and res["correct"] and res["valid"]
    if args.workload:
        print(contract_line(spec, res, traced), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
