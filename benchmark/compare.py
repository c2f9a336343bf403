#!/usr/bin/env python3
"""Compare the benchmark on a parent tree and a change tree.

    # run >= 10 alternating pairs on two checkouts, then judge
    python3 benchmark/compare.py --parent ../parent --change . --pairs 10

    # judge result sets recorded earlier with run.py --out DIR
    python3 benchmark/compare.py --parent-results A --change-results B

    python3 benchmark/compare.py --self-test

Each (workload, metric) pair of BENCHMARK.json's end-to-end metrics gets one
row with each side's median and quartiles and one verdict:

  improved    the change wins >= 90% of the pairs (ties count for neither),
              the medians differ by more than the parent's IQR, and no more
              ops failed than on the parent
  regressed   worse than the parent's median by more than the metric's
              bound, and either the spread is within the bound or every
              change run is worse than every parent run
  unresolved  the run-to-run spread (IQR / median, the wider side) exceeds
              the bound, so the bound cannot be judged -- unless every change
              run is better, or every one worse, than every parent run
  unchanged   otherwise

setup_s is also allowed a 20 ms absolute floor: a set-up of a few
milliseconds may grow by 20 ms before it counts as a regression.  Result
sets whose host fingerprints differ in anything but the git sha and dirty
flag are refused, and so are sets that hold a run run.py marked invalid.
Runs take BENCHMARK.json's run_seconds.  Exit code: 0 when every verdict is
unchanged or improved, 1 when something regressed, 2 when the sets cannot
be compared, 3 when something is unresolved and nothing regressed.
"""

import argparse
import copy
import json
import math
import random
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PAIRS = 10
SEED0 = 1000
WIN_SHARE = 0.9
FLOORS = {"setup_s": 0.020}
GIT_KEYS = {"git_sha", "git_dirty"}


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def load_set(directory):
    """{workload: [result, ...] ordered by seed} from run.py result files."""
    out = {}
    for p in sorted(Path(directory).glob("*.json")):
        with open(p) as f:
            res = json.load(f)
        if res.get("traced"):
            continue
        out.setdefault(res["workload"], []).append(res)
    for runs in out.values():
        runs.sort(key=lambda r: r["seed"])
    return out


def invalid_run(results):
    """(workload, seed) of the first run run.py marked invalid."""
    for runs in results.values():
        for r in runs:
            if not r.get("valid", True):
                return r["workload"], r["seed"]
    return None


def fingerprint_mismatch(parent, change):
    """First fingerprint field (git aside) on which the runs disagree."""
    ref = None
    for runs in list(parent.values()) + list(change.values()):
        for r in runs:
            fp = {k: v for k, v in r["fingerprint"].items()
                  if k not in GIT_KEYS}
            if ref is None:
                ref = fp
            elif fp != ref:
                keys = sorted(set(fp) | set(ref))
                return next(k for k in keys if fp.get(k) != ref.get(k))
    return None


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def judge(parent, change, better, bound, floor=0.0,
          parent_failed=0, change_failed=0):
    """Verdict for one (workload, metric) from paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    pm, cm = statistics.median(parent), statistics.median(change)
    pq1, pq3 = quartiles(parent)
    cq1, cq3 = quartiles(change)
    allowed = max(bound, floor / pm) if pm else bound
    spread = max((pq3 - pq1) / pm if pm else 0.0,
                 (cq3 - cq1) / cm if cm else 0.0)
    worse = sign * (pm - cm) / pm if pm else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    all_worse = all(sign * (c - p) < 0 for c in change for p in parent)
    gain = (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (cm - pm) > pq3 - pq1
            and change_failed <= parent_failed)
    if gain:
        verdict = "improved"
    elif worse > allowed and (spread <= allowed or all_worse):
        verdict = "regressed"
    elif spread > allowed and not all_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {"parent": (pm, pq1, pq3), "change": (cm, cq1, cq3),
            "delta": -worse, "wins": wins, "pairs": len(pairs),
            "spread": spread, "allowed": allowed, "verdict": verdict}


def compare(spec, parent, change):
    """Rows for every workload present on both sides, and whether any
    regressed.  Raises ValueError when the sets cannot be compared."""
    field = fingerprint_mismatch(parent, change)
    if field is not None:
        raise ValueError(f"host fingerprints differ in '{field}'")
    for side, results in (("parent", parent), ("change", change)):
        bad = invalid_run(results)
        if bad is not None:
            raise ValueError(f"the {side}'s {bad[0]} run with seed {bad[1]}"
                             f" is invalid (its paced generator ran late)")
    rows = []
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        n = min(len(p_runs), len(c_runs))
        p_runs, c_runs = p_runs[:n], c_runs[:n]
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        for m in spec["end_to_end"]:
            name = m["name"]
            row = judge([r["metrics"][name]["value"] for r in p_runs],
                        [r["metrics"][name]["value"] for r in c_runs],
                        m["better"], m["bound"], FLOORS.get(name, 0.0),
                        p_failed, c_failed)
            row.update(workload=workload, metric=name, unit=m["unit"])
            rows.append(row)
    return rows


def exit_code(rows):
    verdicts = {r["verdict"] for r in rows}
    if "regressed" in verdicts:
        return 1
    return 3 if "unresolved" in verdicts else 0


def print_rows(rows):
    print(f"{'workload':16s} {'metric':14s} {'parent median [q1, q3]':>34s}"
          f" {'change median [q1, q3]':>34s} {'delta':>8s} {'wins':>6s}"
          f" {'spread':>7s} {'bound':>6s}  verdict")
    for r in rows:
        def side(t):
            return f"{t[0]:.5g} [{t[1]:.5g}, {t[2]:.5g}]"
        print(f"{r['workload']:16s} {r['metric']:14s} {side(r['parent']):>34s}"
              f" {side(r['change']):>34s} {r['delta']:+8.2%}"
              f" {r['wins']:>3d}/{r['pairs']:<2d} {r['spread']:7.2%}"
              f" {r['allowed']:6.1%}  {r['verdict']}")


def run_pairs(args, spec):
    """Alternate parent and change runs, seed by seed; return both sets."""
    out = args.out
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent, "change": args.change}
    for side in sides:  # results of an earlier comparison would mix in
        for stale in (out / side).glob("*.json"):
            stale.unlink()
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                cmd = ["python3", str(Path(sides[side]) / "benchmark/run.py"),
                       "--workload", w, "--seed", str(SEED0 + i),
                       "--seconds", str(spec["run_seconds"]),
                       "--out", str(out / side)]
                r = subprocess.run(cmd, stdout=subprocess.DEVNULL)
                if r.returncode != 0:
                    raise RuntimeError(f"{side} {w} seed {SEED0 + i}"
                                       f" exited with {r.returncode}")
                print(f"pair {i + 1}/{args.pairs} {w} {side} done",
                      file=sys.stderr, flush=True)
    return load_set(out / "parent"), load_set(out / "change")


# ---------------------------------------------------------------------------
# --self-test: synthetic result sets with known answers
# ---------------------------------------------------------------------------

FIXTURE_FP = {"nproc": 4, "cpu_model": "test cpu", "compiler": "gcc 12",
              "build_type": "Release", "tmcv_trace": 1, "spin_budget": 16,
              "tm_backend": "eager", "git_sha": "aaaa", "git_dirty": False}


def fixture_set(spec, seed, noise, scale=None, sha="aaaa", fp=None):
    """Ten runs per workload around fixed medians with log-normal noise of
    relative width `noise`; `scale` maps (workload, metric) to a factor
    applied to every run."""
    rng = random.Random(seed)
    base = {"ops_per_s": 4e5, "op_p50_us": 20.0, "op_p99_us": 45.0,
            "cpu_us_per_op": 6.0, "max_rss_mb": 8.0, "setup_s": 0.05}
    out = {}
    for w in (x["name"] for x in spec["workloads"]):
        runs = []
        for i in range(MIN_PAIRS):
            metrics = {}
            for m in spec["end_to_end"]:
                v = base.get(m["name"], 1.0) * math.exp(rng.gauss(0, noise))
                v *= (scale or {}).get((w, m["name"]), 1.0)
                metrics[m["name"]] = {"value": v, "unit": m["unit"]}
            runs.append({"workload": w, "seed": i, "failed": 0,
                         "metrics": metrics,
                         "fingerprint": dict(fp or FIXTURE_FP, git_sha=sha)})
        out[w] = runs
    return out


def self_test(spec):
    failures = []

    def expect(label, cond):
        print(f"  {'ok  ' if cond else 'FAIL'} {label}")
        if not cond:
            failures.append(label)

    def refused(parent, change):
        try:
            compare(spec, parent, change)
        except ValueError:
            return True
        return False

    parent = fixture_set(spec, 1, 0.01)

    rows = compare(spec, parent, parent)
    expect("identical sets pass",
           exit_code(rows) == 0
           and all(r["verdict"] == "unchanged" for r in rows))

    victim = spec["workloads"][0]["name"]
    ops_bound = next(m["bound"] for m in spec["end_to_end"]
                     if m["name"] == "ops_per_s")
    strict = copy.deepcopy(spec)
    for m in strict["end_to_end"]:
        m["bound"] = 0.1
    # The 15% drop against 10% bounds, and a drop half again as large as
    # the bound this benchmark actually fixes for ops_per_s.
    for label, sp, drop in (("10% bounds", strict, 0.15),
                            ("BENCHMARK.json", spec, 1.5 * ops_bound)):
        dropped = fixture_set(sp, 2, 0.01,
                              {(victim, "ops_per_s"): 1 - drop}, sha="bbbb")
        rows = compare(sp, parent, dropped)
        bad = [(r["workload"], r["metric"]) for r in rows
               if r["verdict"] == "regressed"]
        expect(f"a {drop:.0%} ops_per_s drop on one workload fails "
               f"({label})",
               exit_code(rows) == 1 and bad == [(victim, "ops_per_s")])

    noisy_a = fixture_set(spec, 3, 0.3)
    noisy_b = fixture_set(spec, 4, 0.3, sha="bbbb")
    rows = compare(spec, noisy_a, noisy_b)
    expect("a noisy but unchanged set reads unresolved, not regressed",
           exit_code(rows) == 3
           and all(r["verdict"] == "unresolved" for r in rows
                   if r["metric"] != "setup_s"))

    # Bimodal runs, 0.82x and 1.18x the median: a spread of 0.36, wider
    # than the bound, yet after a 40% drop every change run is below every
    # parent run.
    bimodal = copy.deepcopy(parent)
    for i, r in enumerate(bimodal[victim]):
        r["metrics"]["ops_per_s"]["value"] = \
            4e5 * (1.18 if i % 2 else 0.82) * (1 + 0.001 * i)
    disjoint = copy.deepcopy(bimodal)
    for r in disjoint[victim]:
        r["metrics"]["ops_per_s"]["value"] *= 0.6
        r["fingerprint"]["git_sha"] = "bbbb"
    rows = compare(spec, bimodal, disjoint)
    expect("a noisy set with a disjoint 40% ops_per_s drop fails",
           exit_code(rows) == 1
           and [(r["workload"], r["metric"]) for r in rows
                if r["verdict"] == "regressed"] == [(victim, "ops_per_s")])

    gain = fixture_set(spec, 5, 0.01, {(victim, "ops_per_s"): 1.15},
                       sha="bbbb")
    rows = compare(spec, parent, gain)
    expect("a 15% ops_per_s gain on one workload reads improved",
           exit_code(rows) == 0
           and [(r["workload"], r["metric"]) for r in rows
                if r["verdict"] == "improved"] == [(victim, "ops_per_s")])

    slower_setup = fixture_set(spec, 6, 0.01, {(victim, "setup_s"): 1.3},
                               sha="bbbb")
    expect("setup_s within its 20 ms floor is not a regression",
           exit_code(compare(spec, parent, slower_setup)) == 0)

    other_host = fixture_set(spec, 7, 0.01, sha="bbbb",
                             fp=dict(FIXTURE_FP, cpu_model="other cpu"))
    expect("result sets from different hosts are refused",
           refused(parent, other_host))

    late = fixture_set(spec, 8, 0.01, sha="bbbb")
    late[victim][3]["valid"] = False
    expect("a set holding a run marked invalid is refused",
           refused(parent, late) and refused(late, parent))

    print("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--parent", type=Path, help="parent checkout")
    ap.add_argument("--change", type=Path, help="change checkout")
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--workload", action="append",
                    help="restrict to a workload (repeatable)")
    ap.add_argument("--out", type=Path, default=HERE / "out" / "compare")
    ap.add_argument("--parent-results", type=Path)
    ap.add_argument("--change-results", type=Path)
    args = ap.parse_args()
    spec = load_spec()
    if args.self_test:
        return self_test(spec)
    if args.parent_results and args.change_results:
        parent = load_set(args.parent_results)
        change = load_set(args.change_results)
    elif args.parent and args.change:
        if args.pairs < MIN_PAIRS:
            ap.error(f"--pairs must be at least {MIN_PAIRS}")
        try:
            parent, change = run_pairs(args, spec)
        except RuntimeError as e:
            print(f"compare.py: {e}", file=sys.stderr)
            return 2
    else:
        ap.error("give --parent and --change, or --parent-results and "
                 "--change-results, or --self-test")
    try:
        rows = compare(spec, parent, change)
    except ValueError as e:
        print(f"compare.py: refusing to compare: {e}", file=sys.stderr)
        return 2
    if not rows:
        print("compare.py: no workload present on both sides",
              file=sys.stderr)
        return 2
    print_rows(rows)
    return exit_code(rows)


if __name__ == "__main__":
    sys.exit(main())
