#!/usr/bin/env python3
"""Summarize, validate, or causally analyze a --trace Chrome trace JSON.

The runtime's trace writer (src/obs/trace_io.cpp) emits the Chrome/Perfetto
"JSON Array Format": a top-level object with a `traceEvents` list of complete
("ph": "X", with `dur`) and instant ("ph": "i") events, timestamps in
microseconds relative to the earliest event.  Load the file in
https://ui.perfetto.dev for a timeline; this script gives the terminal view:

    tools/trace_report.py trace.json              # per-event summary table
    tools/trace_report.py trace.json --validate   # schema check, exit 1 on error
    tools/trace_report.py trace.json --tid 3      # restrict to one thread
    tools/trace_report.py trace.json --causal     # notify->wake edge analysis
    tools/trace_report.py trace.json --causal --validate   # exit 1 on violation
    tools/trace_report.py flight.json --validate  # flight-recorder dump check
    tools/trace_report.py --self-test             # stdlib-only fixture suite

Flight-recorder dumps (src/obs/flight.cpp; `{"tmcv_flight": 1, ...}`) are
detected automatically: --validate checks the section structure, that the
embedded trace document is itself valid, the attribution completeness
invariant (the unsliced conflict pairs sum exactly to
`conflicts_recorded`, and -- when attribution ran the whole process
lifetime with nothing dropped -- to `metrics.tm.aborts_conflict`), and the
waitgraph section (every wait-for edge references a listed thread slot;
the stall table's reason x site entries sum exactly to its totals).  The
default mode prints a section-by-section post-mortem summary.

Causal analysis reconstructs the notify->wake->run edges from the event
stream and checks token conservation: every cv.notify instant grants
`arg` wake tokens (the number of waiters it dequeued) and every cv.wait
completion consumes one at its end timestamp, so at no point may cumulative
wakes exceed cumulative grants.  Tokens are matched FIFO to estimate the
notify->run latency distribution, which can be cross-checked against the
runtime's own notify_wake_ns histogram via --metrics.  The writer does not
record which condvar an event belongs to, so edges are reconstructed
process-wide: exact for single-condvar workloads (the herd bench), an
approximation when several condvars interleave.  Timed-out waits are not
modeled; run --causal on traces without timeouts.

Only the standard library is used, so the script runs in minimal containers.
"""

import argparse
import json
import sys

# Events the tmcv runtime emits (src/obs/trace.h).  Unknown names are
# reported, not rejected: the format is open.
KNOWN_EVENTS = {
    "txn.commit", "txn.abort", "txn.serial_fallback",
    "cv.wait", "cv.notify",
    "sem.wait", "sem.post", "sem.post_batch", "sem.spin",
    "cm.backoff",
}

# TxAbort::Reason, numerically (src/tm/descriptor.h; asserted to stay in
# sync with the attribution reason constants in src/obs/attribution.h).
ABORT_REASONS = {
    0: "conflict", 1: "capacity", 2: "syscall", 3: "explicit",
    4: "retry_wait",
}

REQUIRED_FIELDS = ("name", "ph", "ts", "pid", "tid")


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def validate(doc):
    """Return a list of problem strings (empty = valid)."""
    problems = []
    if not isinstance(doc, dict):
        return ["top level is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list `traceEvents`"]
    for i, ev in enumerate(events):
        where = "traceEvents[%d]" % i
        if not isinstance(ev, dict):
            problems.append("%s: not an object" % where)
            continue
        for field in REQUIRED_FIELDS:
            if field not in ev:
                problems.append("%s: missing `%s`" % (where, field))
        ph = ev.get("ph")
        if ph not in ("X", "i"):
            problems.append("%s: unexpected ph=%r (want 'X' or 'i')"
                            % (where, ph))
        if ph == "X" and "dur" not in ev:
            problems.append("%s: complete event missing `dur`" % where)
        for field in ("ts", "dur"):
            if field in ev and not isinstance(ev[field], (int, float)):
                problems.append("%s: `%s` is not a number" % (where, field))
        if len(problems) >= 20:
            problems.append("... (stopping after 20 problems)")
            return problems
    # Timestamps must be non-decreasing: the writer merges per-thread rings
    # with a stable sort.
    ts = [ev.get("ts") for ev in events
          if isinstance(ev, dict) and isinstance(ev.get("ts"), (int, float))]
    if any(b < a for a, b in zip(ts, ts[1:])):
        problems.append("traceEvents are not sorted by ts")
    return problems


def is_flight(doc):
    return isinstance(doc, dict) and doc.get("tmcv_flight") == 1


FLIGHT_SECTIONS = ("meta", "alerts", "metrics", "history",
                   "attribution_full", "waitgraph", "trace")


def validate_flight(doc):
    """Return a list of problem strings for a flight-recorder dump."""
    problems = []
    for section in FLIGHT_SECTIONS:
        if not isinstance(doc.get(section), dict):
            problems.append("missing or non-object section `%s`" % section)
    if problems:
        return problems

    meta = doc["meta"]
    for field in ("version", "reason"):
        if not isinstance(meta.get(field), str):
            problems.append("meta.%s missing or not a string" % field)

    # The embedded trace is a complete Chrome document in its own right.
    problems += ["trace: " + p for p in validate(doc["trace"])]

    history = doc["history"]
    if not isinstance(history.get("samples"), list):
        problems.append("history.samples missing or not a list")

    alerts = doc["alerts"]
    if not isinstance(alerts.get("alerts"), list):
        problems.append("alerts.alerts missing or not a list")

    # Completeness: the dump carries the UNSLICED pair table precisely so
    # this is checkable offline.
    attr = doc["attribution_full"]
    pairs = attr.get("conflict_pairs")
    recorded = attr.get("conflicts_recorded")
    if not isinstance(pairs, list) or not isinstance(recorded, int):
        problems.append("attribution_full.conflict_pairs/conflicts_recorded "
                        "missing")
    else:
        total = sum(p.get("count", 0) for p in pairs if isinstance(p, dict))
        if total != recorded:
            problems.append(
                "attribution pairs sum to %d but conflicts_recorded=%d"
                % (total, recorded))
        aborts_conflict = (doc["metrics"].get("tm", {})
                           .get("aborts_conflict"))
        dropped = attr.get("dropped", 0)
        if (isinstance(aborts_conflict, int) and dropped == 0
                and recorded > aborts_conflict):
            problems.append(
                "conflicts_recorded=%d exceeds tm.aborts_conflict=%d "
                "with nothing dropped" % (recorded, aborts_conflict))

    # Wait-point registry snapshot: edges must reference listed threads and
    # the stall table must keep its two-ledger exactness invariant
    # (src/sync/waitpoint.h: sum of the reason x site cells == total, for
    # every accepted snapshot, not just at quiescence).
    wg = doc["waitgraph"]
    threads = wg.get("threads")
    edges = wg.get("edges")
    if not isinstance(threads, list) or not isinstance(edges, list):
        problems.append("waitgraph.threads/edges missing or not lists")
    else:
        slots = {t.get("slot") for t in threads if isinstance(t, dict)}
        for i, e in enumerate(edges):
            if not isinstance(e, dict):
                problems.append("waitgraph.edges[%d] not an object" % i)
                continue
            if e.get("waiter_slot") not in slots:
                problems.append(
                    "waitgraph.edges[%d].waiter_slot=%r not a listed thread"
                    % (i, e.get("waiter_slot")))
            holder = e.get("holder_slot")
            if holder is not None and holder not in slots:
                problems.append(
                    "waitgraph.edges[%d].holder_slot=%r not a listed thread"
                    % (i, holder))
    stall = wg.get("stall")
    if not isinstance(stall, dict) or not isinstance(
            stall.get("entries"), list):
        problems.append("waitgraph.stall missing or malformed")
    else:
        entries = [e for e in stall["entries"] if isinstance(e, dict)]
        for key in ("ticks", "ns"):
            total = stall.get("total_%s" % key)
            folded = sum(e.get(key, 0) for e in entries)
            if isinstance(total, int) and folded != total:
                problems.append(
                    "stall entries sum to %d %s but total_%s=%d"
                    % (folded, key, key, total))
    return problems


def summarize_flight(doc):
    meta = doc.get("meta", {})
    print("flight dump: version=%s reason=%s uptime=%ss"
          % (meta.get("version", "?"), meta.get("reason", "?"),
             meta.get("uptime_seconds", "?")))
    alerts = doc.get("alerts", {}).get("alerts", [])
    firing = [a for a in alerts if a.get("firing")]
    print("alerts: %d rules, %d firing%s"
          % (len(alerts), len(firing),
             " (" + ", ".join(a.get("rule", "?") for a in firing) + ")"
             if firing else ""))
    tm = doc.get("metrics", {}).get("tm", {})
    print("tm: commits=%s aborts=%s aborts_conflict=%s"
          % (tm.get("commits", "?"), tm.get("aborts", "?"),
             tm.get("aborts_conflict", "?")))
    samples = doc.get("history", {}).get("samples", [])
    print("history: %d samples @ %s ms"
          % (len(samples),
             doc.get("history", {}).get("meta", {}).get("interval_ms", "?")))
    attr = doc.get("attribution_full", {})
    pairs = attr.get("conflict_pairs", [])
    print("attribution: %d pairs, %s conflicts recorded, %s dropped"
          % (len(pairs), attr.get("conflicts_recorded", "?"),
             attr.get("dropped", "?")))
    for p in pairs[:5]:
        print("  %-16s <- %-16s %d" % (p.get("victim", "?"),
                                       p.get("attacker", "?"),
                                       p.get("count", 0)))
    # Aborts of every reason by site: the only culprit record when the
    # aborts are explicit, capacity or syscall ones, which make no pairs.
    sites = attr.get("abort_sites", [])
    print("abort sites: %d" % len(sites))
    for a in sites[:5]:
        print("  %-16s %-10s %d" % (a.get("site", "?"), a.get("reason", "?"),
                                    a.get("count", 0)))
    wg = doc.get("waitgraph", {})
    threads = wg.get("threads", [])
    waiting = [t for t in threads if t.get("waiting")]
    suspects = wg.get("suspects", [])
    print("waitgraph: %d threads (%d waiting), %d edges, %d in cycles, "
          "%d lost-wakeup suspects"
          % (len(threads), len(waiting), len(wg.get("edges", [])),
             wg.get("cycle_threads", 0), len(suspects)))
    for s in suspects[:5]:
        print("  suspect slot=%s tid=%s site=%s age=%.1fms"
              % (s.get("slot", "?"), s.get("os_tid", "?"),
                 s.get("site", "?"), s.get("age_ns", 0) / 1e6))
    stall = wg.get("stall", {})
    print("stall: %s ns attributed across %d (reason x site) rows"
          % (stall.get("total_ns", "?"), len(stall.get("entries", []))))
    events = doc.get("trace", {}).get("traceEvents", [])
    print("trace: %d events" % len(events))
    if events:
        print()
        summarize(doc["trace"])


def event_arg(ev):
    args = ev.get("args")
    if isinstance(args, dict) and isinstance(args.get("arg"), (int, float)):
        return int(args["arg"])
    return None


def decode_args(events):
    """Per-event arg decoding: lines describing what the args of each event
    type say in aggregate (abort reasons, waiters woken, batch sizes)."""
    lines = []
    aborts = {}
    notifies = woken = lost = 0
    batches = batched = 0
    for ev in events:
        name = ev.get("name")
        arg = event_arg(ev)
        if arg is None:
            continue
        if name == "txn.abort":
            aborts[arg] = aborts.get(arg, 0) + 1
        elif name == "cv.notify":
            notifies += 1
            woken += arg
            lost += arg == 0
        elif name == "sem.post_batch":
            batches += 1
            batched += arg
    if aborts:
        parts = ["%s=%d" % (ABORT_REASONS.get(r, "reason%d" % r), n)
                 for r, n in sorted(aborts.items())]
        lines.append("txn.abort reasons:    " + "  ".join(parts))
    if notifies:
        lines.append("cv.notify:            %d calls, %d waiters woken, "
                     "%d lost (empty queue)" % (notifies, woken, lost))
    if batches:
        lines.append("sem.post_batch:       %d batches, %d posts, "
                     "mean batch %.2f" % (batches, batched, batched / batches))
    return lines


def summarize(doc, tid_filter=None):
    events = doc.get("traceEvents", [])
    if tid_filter is not None:
        events = [ev for ev in events if ev.get("tid") == tid_filter]
    if not events:
        print("no events")
        return

    by_name = {}  # name -> [count, total_dur_us, max_dur_us]
    tids = set()
    for ev in events:
        tids.add(ev.get("tid"))
        entry = by_name.setdefault(ev["name"], [0, 0.0, 0.0])
        entry[0] += 1
        dur = ev.get("dur", 0.0)
        entry[1] += dur
        entry[2] = max(entry[2], dur)

    span = max(ev["ts"] + ev.get("dur", 0.0) for ev in events)
    print("%d events, %d threads, %.3f ms span" %
          (len(events), len(tids), span / 1000.0))
    print()
    print("%-20s %8s %12s %12s %12s" %
          ("event", "count", "total_ms", "mean_us", "max_us"))
    for name in sorted(by_name, key=lambda n: -by_name[n][1]):
        count, total, peak = by_name[name]
        tag = "" if name in KNOWN_EVENTS else "  (unknown)"
        print("%-20s %8d %12.3f %12.3f %12.3f%s" %
              (name, count, total / 1000.0, total / count, peak, tag))
    decoded = decode_args(events)
    if decoded:
        print()
        for line in decoded:
            print(line)


def percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]


def causal_report(doc, metrics=None):
    """Reconstruct notify->wake edges; return (violations, warnings)."""
    events = doc.get("traceEvents", [])
    violations = []
    warnings = []

    # Drops make the stream incomplete: a wake whose notify was overwritten
    # looks like a conservation violation.  The trace itself carries no drop
    # counts; they live in the metrics sibling (--metrics).
    if metrics is not None:
        drops = metrics.get("trace", {}).get("per_thread_drops", {})
        total_drops = sum(drops.values()) if isinstance(drops, dict) else 0
        if total_drops:
            warnings.append(
                "trace rings dropped %d events; stream is incomplete, "
                "skipping strict causal checks" % total_drops)
            print("\n".join(warnings))
            return [], warnings

    # Timeline: grants at the notify instant, consumption at the wait end.
    # Ties grant before they consume (a wake can never precede its notify).
    timeline = []
    for ev in events:
        name = ev.get("name")
        if name == "cv.notify":
            woken = event_arg(ev) or 0
            timeline.append((ev["ts"], 0, woken))
        elif name == "cv.wait" and ev.get("ph") == "X":
            end = ev["ts"] + ev.get("dur", 0.0)
            timeline.append((end, 1, None))
    timeline.sort(key=lambda t: (t[0], t[1]))

    granted = consumed = 0
    open_notifies = []  # FIFO of [notify_ts, remaining_tokens]
    latencies_us = []
    for when, kind, woken in timeline:
        if kind == 0:
            if woken > 0:
                granted += woken
                open_notifies.append([when, woken])
        else:
            consumed += 1
            if consumed > granted:
                if len(violations) < 5:
                    violations.append(
                        "wake at t=%.3fus has no matching notify token "
                        "(%d wakes vs %d granted)" % (when, consumed, granted))
                continue
            head = open_notifies[0]
            latencies_us.append(when - head[0])
            head[1] -= 1
            if head[1] == 0:
                open_notifies.pop(0)
    if consumed > granted and len(violations) >= 5:
        violations.append("... (%d unmatched wakes total)"
                          % (consumed - granted))

    notifies = sum(1 for t in timeline if t[1] == 0)
    wakes = consumed
    print("causal: %d notifies granting %d tokens, %d wakes consumed, "
          "%d tokens unconsumed at end of trace"
          % (notifies, granted, wakes, max(0, granted - consumed)))

    latencies_us.sort()
    if latencies_us:
        print("notify->run latency:  p50=%.1fus  p90=%.1fus  p99=%.1fus  "
              "max=%.1fus  (%d edges, FIFO-matched)"
              % (percentile(latencies_us, 0.5), percentile(latencies_us, 0.9),
                 percentile(latencies_us, 0.99), latencies_us[-1],
                 len(latencies_us)))
    if metrics is not None:
        hist = metrics.get("histograms", {}).get("notify_wake_ns", {})
        if hist.get("count"):
            print("notify_wake_ns hist:  p50=%.1fus  p99=%.1fus  (%d samples,"
                  " runtime-measured; log-bucketed, cross-check only)"
                  % (hist["p50"] / 1e3, hist["p99"] / 1e3, hist["count"]))

    return violations, warnings


# ---------------------------------------------------------------------------
# --self-test: embedded fixtures exercised with no files and no third-party
# imports, so CI can sanity-check the analyzer itself in a bare container.

_FIX_TRACE_OK = {"traceEvents": [
    {"name": "cv.notify", "ph": "i", "ts": 0.0, "pid": 1, "tid": 1, "s": "t",
     "args": {"arg": 2}},
    {"name": "cv.wait", "ph": "X", "ts": 0.0, "dur": 5.0, "pid": 1, "tid": 2},
    {"name": "cv.wait", "ph": "X", "ts": 1.0, "dur": 7.0, "pid": 1, "tid": 3},
    {"name": "txn.abort", "ph": "i", "ts": 9.0, "pid": 1, "tid": 2, "s": "t",
     "args": {"arg": 0}},
]}

_FIX_TRACE_BAD = {"traceEvents": [
    {"name": "cv.wait", "ph": "X", "ts": 4.0, "pid": 1, "tid": 2},  # no dur
    {"name": "cv.notify", "ph": "i", "ts": 1.0, "pid": 1, "tid": 1},  # !sorted
]}

# A wake with no preceding notify token: conservation must flag it.
_FIX_CAUSAL_BAD = {"traceEvents": [
    {"name": "cv.wait", "ph": "X", "ts": 0.0, "dur": 2.0, "pid": 1, "tid": 2},
    {"name": "cv.notify", "ph": "i", "ts": 5.0, "pid": 1, "tid": 1, "s": "t",
     "args": {"arg": 1}},
]}

# Two wakes from one multi-waiter notify ending at the same instant: every
# victim of a notify is posted in one wake batch, so concurrent wakes are
# legal and --causal must accept them.
_FIX_CONCURRENT_WAKES = {"traceEvents": [
    {"name": "cv.notify", "ph": "i", "ts": 0.0, "pid": 1, "tid": 1, "s": "t",
     "args": {"arg": 2}},
    {"name": "cv.wait", "ph": "X", "ts": 0.0, "dur": 3.0, "pid": 1, "tid": 2},
    {"name": "cv.wait", "ph": "X", "ts": 1.0, "dur": 2.0, "pid": 1, "tid": 3},
]}


def _fixture_flight():
    return {
        "tmcv_flight": 1,
        "meta": {"version": "1.0.0", "trace_compiled": True,
                 "htm": "emulated", "reason": "self_test",
                 "uptime_seconds": 1.5},
        "alerts": {"watchdog_running": True, "alerts": [
            {"rule": "abort_storm", "firing": True, "threshold": 0.5,
             "last_value": 0.9, "breach_streak": 3, "fired_count": 1,
             "min_activity": 100, "consecutive": 2, "last_change_ms": 2000},
        ]},
        "metrics": {"tm": {"commits": 100, "aborts": 90,
                           "aborts_conflict": 88}},
        "history": {"meta": {"interval_ms": 1000, "depth": 240,
                             "samples_taken": 2, "running": True},
                    "samples": [{"t_ms": 1000, "seq": 0, "commits": 50}]},
        "attribution_full": {
            "conflicts_recorded": 88, "dropped": 0,
            "abort_sites": [],
            "conflict_pairs": [
                {"victim": "kv_set", "attacker": "kv_set", "count": 60},
                {"victim": "kv_get", "attacker": "kv_set", "count": 28},
            ],
            "hot_stripes": [],
        },
        "waitgraph": {
            "now_ticks": 1000, "cycle_threads": 0,
            "threads": [
                {"slot": 0, "os_tid": 100, "tm_slot": 0, "waiting": False},
                {"slot": 1, "os_tid": 101, "tm_slot": 1, "waiting": True,
                 "reason": "condvar", "site": "cv.wait.enqueue",
                 "site_id": 1, "detail": 0, "target": "0x1000",
                 "age_ns": 505000000},
            ],
            "edges": [
                {"waiter_slot": 1, "waiter_tid": 101, "reason": "condvar",
                 "holder_slot": None, "holder_tid": None,
                 "holder_site": "cv.notify", "holder_site_id": 2,
                 "in_cycle": False},
            ],
            "suspects": [
                {"slot": 1, "os_tid": 101, "target": "0x1000",
                 "site": "cv.wait.enqueue", "age_ns": 505000000},
            ],
            "stall": {
                "total_ticks": 300, "total_ns": 150,
                "entries": [
                    {"reason": "condvar", "site": "cv.wait.enqueue",
                     "site_id": 1, "ticks": 200, "ns": 100},
                    {"reason": "orec", "site": "unattributed",
                     "site_id": 0, "ticks": 100, "ns": 50},
                ],
            },
        },
        "trace": _FIX_TRACE_OK,
    }


def self_test():
    import contextlib
    import copy
    import io

    checks = []

    def check(name, ok):
        checks.append((name, bool(ok)))

    check("validate accepts good trace", not validate(_FIX_TRACE_OK))
    bad = validate(_FIX_TRACE_BAD)
    check("validate flags missing dur", any("dur" in p for p in bad))
    check("validate flags unsorted ts", any("sorted" in p for p in bad))

    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet):
        good_v, _ = causal_report(_FIX_TRACE_OK)
        bad_v, _ = causal_report(_FIX_CAUSAL_BAD)
        dropped_v, dropped_w = causal_report(
            _FIX_CAUSAL_BAD,
            metrics={"trace": {"per_thread_drops": {"0": 7}}})
        concurrent_v, _ = causal_report(_FIX_CONCURRENT_WAKES)
    check("causal passes conserving trace", not good_v)
    check("causal flags tokenless wake", bad_v)
    check("causal skips strict checks under drops",
          not dropped_v and dropped_w)
    check("causal accepts concurrent wakes from one notify",
          not concurrent_v)

    flight = _fixture_flight()
    check("flight detector positive", is_flight(flight))
    check("flight detector negative", not is_flight(_FIX_TRACE_OK))
    check("flight validate accepts fixture", not validate_flight(flight))

    broken = copy.deepcopy(flight)
    broken["attribution_full"]["conflict_pairs"][0]["count"] = 1
    check("flight validate flags pair-sum mismatch",
          any("pairs sum" in p for p in validate_flight(broken)))

    broken = copy.deepcopy(flight)
    del broken["history"]
    check("flight validate flags missing section",
          any("history" in p for p in validate_flight(broken)))

    broken = copy.deepcopy(flight)
    broken["trace"]["traceEvents"][1].pop("dur")
    check("flight validate recurses into trace",
          any(p.startswith("trace:") for p in validate_flight(broken)))

    broken = copy.deepcopy(flight)
    broken["waitgraph"]["edges"][0]["waiter_slot"] = 99
    check("flight validate flags dangling waitgraph edge",
          any("waiter_slot" in p for p in validate_flight(broken)))

    broken = copy.deepcopy(flight)
    broken["waitgraph"]["edges"][0]["holder_slot"] = 42
    check("flight validate flags dangling holder slot",
          any("holder_slot" in p for p in validate_flight(broken)))

    broken = copy.deepcopy(flight)
    broken["waitgraph"]["stall"]["entries"][0]["ticks"] = 1
    check("flight validate flags stall ledger mismatch",
          any("stall entries sum" in p for p in validate_flight(broken)))

    with contextlib.redirect_stdout(quiet):
        summarize_flight(flight)  # must not raise

    # Only explicit aborts: no conflict pairs, so the summary must name the
    # culprit from abort_sites.
    explicit = copy.deepcopy(flight)
    explicit["metrics"]["tm"]["aborts_conflict"] = 0
    explicit["attribution_full"].update(
        conflicts_recorded=0, conflict_pairs=[],
        abort_sites=[{"site": "kv_loadgen.storm", "reason": "explicit",
                      "count": 90}])
    check("flight validate accepts explicit-only aborts",
          not validate_flight(explicit))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        summarize_flight(explicit)
    check("flight summary names the explicit-abort site",
          any("kv_loadgen.storm" in line and "explicit" in line
              and "90" in line for line in out.getvalue().splitlines()))

    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print("self-test FAILED: %s" % name, file=sys.stderr)
    if failed:
        return 1
    print("self-test: %d checks ok" % len(checks))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Summarize/validate a Chrome trace from --trace.")
    ap.add_argument("trace", nargs="?", default=None,
                    help="path to the trace (or flight-recorder) JSON")
    ap.add_argument("--validate", action="store_true",
                    help="check only; exit 1 on schema (or, with --causal, "
                         "causal) violations")
    ap.add_argument("--tid", type=int, default=None,
                    help="summarize a single thread id")
    ap.add_argument("--causal", action="store_true",
                    help="reconstruct notify->wake edges, check token "
                         "conservation, report notify->run latency")
    ap.add_argument("--metrics", default=None,
                    help="metrics JSON sibling (drop counts gate the strict "
                         "checks; notify_wake_ns cross-checks the latency)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the embedded fixture suite and exit")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()
    if args.trace is None:
        ap.error("trace path required (or --self-test)")

    try:
        doc = load(args.trace)
    except (OSError, json.JSONDecodeError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1

    metrics = None
    if args.metrics is not None:
        try:
            metrics = load(args.metrics)
        except (OSError, json.JSONDecodeError) as e:
            print("error: %s" % e, file=sys.stderr)
            return 1

    if is_flight(doc):
        flight_problems = validate_flight(doc)
        if args.validate and not args.causal:
            for p in flight_problems:
                print("invalid: %s" % p, file=sys.stderr)
            if flight_problems:
                return 1
            print("ok: flight dump, %d trace events, %d history samples"
                  % (len(doc["trace"].get("traceEvents", [])),
                     len(doc["history"].get("samples", []))))
            return 0
        if not args.causal:
            if flight_problems:
                for p in flight_problems:
                    print("warning: %s" % p, file=sys.stderr)
            summarize_flight(doc)
            return 0
        # --causal on a flight dump: analyze the embedded trace with the
        # embedded metrics (unless the caller supplied a sibling explicitly).
        if metrics is None:
            metrics = doc.get("metrics")
        doc = doc.get("trace", {})

    problems = validate(doc)
    if problems and (args.validate or args.causal):
        for p in problems:
            print("invalid: %s" % p, file=sys.stderr)
        if args.validate:
            return 1

    if args.causal:
        violations, _ = causal_report(doc, metrics=metrics)
        for v in violations:
            print("violation: %s" % v, file=sys.stderr)
        if violations:
            print("causal check FAILED (%d violations)" % len(violations),
                  file=sys.stderr)
            return 1 if args.validate else 0
        print("causal check ok")
        return 0

    if args.validate:
        print("ok: %d events" % len(doc["traceEvents"]))
        return 0

    if problems:  # summarize best-effort, but warn
        for p in problems:
            print("warning: %s" % p, file=sys.stderr)
    summarize(doc, args.tid)
    return 0


if __name__ == "__main__":
    sys.exit(main())
