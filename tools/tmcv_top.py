#!/usr/bin/env python3
"""tmcv-top: live terminal console for a running tmcv telemetry endpoint.

Polls `/metrics.json`, `/history.json`, `/alerts`, and `/waitgraph` from
the in-process telemetry server (start one with `--serve-metrics`, plus
`--history` / `--watchdog` for the time-series and alert panes) and renders
a top-style dashboard: headline rates, sparklines over the recorder window,
a thread pane of parked threads from the wait-point registry (oldest waiter
first and highlighted -- the lost-wakeup victim reads straight off the
screen), the top conflict pairs from abort attribution, and any firing
watchdog alerts.

    tools/tmcv_top.py 9464                    # port on localhost
    tools/tmcv_top.py 127.0.0.1:9464          # host:port
    tools/tmcv_top.py http://127.0.0.1:9464   # full URL
    tools/tmcv_top.py 9464 --once             # one plain-text frame (no curses)
    tools/tmcv_top.py --self-test             # stdlib-only fixture suite

Keys in the live view: `q` quits.  The frame builder is a pure function of
the three JSON documents, so `--once` (CI/smoke friendly) and the curses
loop render identically.  Only the standard library is used; curses is
imported lazily so `--once` and `--self-test` work on builds without it.
"""

import argparse
import json
import sys
import time
import urllib.error
import urllib.request

SPARK_CHARS = "▁▂▃▄▅▆▇█"


def fetch_json(base, path, timeout=2.0):
    """GET base+path, parse JSON.  Returns None on any error: the console
    keeps rendering with whatever panes it can still populate."""
    try:
        with urllib.request.urlopen(base + path, timeout=timeout) as r:
            return json.loads(r.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError):
        return None


def normalize_target(target):
    """Accept PORT, HOST:PORT, or a full http URL; return the base URL."""
    if target.startswith("http://") or target.startswith("https://"):
        return target.rstrip("/")
    if target.isdigit():
        return "http://127.0.0.1:%s" % target
    return "http://" + target.rstrip("/")


def sparkline(values, width):
    """Render the last `width` values as a block-character sparkline,
    scaled to the window's own min..max (flat series render low, not
    blank, so 'steady at 1M/s' and 'dead' look different)."""
    values = [float(v) for v in values][-width:]
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= 0:
        return SPARK_CHARS[0] * len(values)
    span = hi - lo
    out = []
    for v in values:
        frac = 1.0 if span == 0 else (v - lo) / span
        out.append(SPARK_CHARS[min(7, int(frac * 8))])
    return "".join(out)


def fmt_si(value):
    """1234567 -> '1.23M'; keeps rate columns narrow."""
    value = float(value)
    for factor, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= factor:
            return "%.2f%s" % (value / factor, suffix)
    if value == int(value):
        return "%d" % int(value)
    return "%.2f" % value


def fmt_ns(ns):
    ns = float(ns)
    if ns >= 1e6:
        return "%.2fms" % (ns / 1e6)
    if ns >= 1e3:
        return "%.1fus" % (ns / 1e3)
    return "%dns" % int(ns)


def series(history, key):
    if not history:
        return []
    return [s.get(key, 0) for s in history.get("samples", [])]


def backend_abort_rows(metrics):
    """Flatten tm.aborts_by_backend into [(backend, total, breakdown)] rows,
    non-zero only, sorted by total descending.  breakdown is a 'reason=N'
    string for the non-zero reasons."""
    table = (metrics or {}).get("tm", {}).get("aborts_by_backend", {})
    rows = []
    for backend, reasons in table.items():
        if not isinstance(reasons, dict):
            continue
        nz = [(r, int(n)) for r, n in reasons.items() if n]
        if not nz:
            continue
        nz.sort(key=lambda kv: -kv[1])
        total = sum(n for _, n in nz)
        rows.append((backend, total,
                     " ".join("%s=%s" % (r, fmt_si(n)) for r, n in nz)))
    rows.sort(key=lambda row: -row[1])
    return rows


def waiting_rows(waitgraph):
    """[(is_oldest, line_body)] for the parked threads of a /waitgraph
    document, oldest wait first: in a lost-wakeup the victim is by
    definition the thread that has been parked the longest."""
    threads = (waitgraph or {}).get("threads", [])
    waiting = [t for t in threads
               if isinstance(t, dict) and t.get("waiting")]
    waiting.sort(key=lambda t: -t.get("age_ns", 0))
    suspect_slots = {s.get("slot")
                     for s in (waitgraph or {}).get("suspects", [])
                     if isinstance(s, dict)}
    rows = []
    for i, t in enumerate(waiting):
        tag = "SUSPECT" if t.get("slot") in suspect_slots else ""
        rows.append((i == 0,
                     "slot=%-3s tid=%-7s %-14s %-18s %8s  %s"
                     % (t.get("slot", "?"), t.get("os_tid", "?"),
                        t.get("reason", "?"), t.get("site", "?"),
                        fmt_ns(t.get("age_ns", 0)), tag)))
    return rows


def build_frame(metrics, history, alerts, waitgraph=None, width=80):
    """The whole dashboard as a list of lines -- pure, so testable."""
    lines = []
    spark_w = max(16, width - 34)

    meta = (metrics or {}).get("meta", {})
    backend = (metrics or {}).get("tm", {}).get("backend", "?")
    title = "tmcv-top  v%s  backend=%s  trace=%s  htm=%s  up %.0fs" % (
        meta.get("version", "?"), backend,
        "on" if meta.get("trace_compiled") else "off",
        meta.get("htm", "?"), float(meta.get("uptime_seconds", 0)))
    lines.append(title[:width])
    lines.append("-" * min(width, len(title)))

    if metrics is None:
        lines.append("(metrics endpoint unreachable)")
    if history is None or not history.get("samples"):
        lines.append("(no history -- start the process with --history "
                     "or --watchdog)")

    samples = (history or {}).get("samples", [])
    last = samples[-1] if samples else {}
    lines.append(
        "commit/s %-8s abort/s %-8s ab/cm %-6.3f kv_hit %-5.2f park %-5.2f"
        % (fmt_si(last.get("commits_per_sec", 0)),
           fmt_si(last.get("aborts_per_sec", 0)),
           float(last.get("abort_commit_ratio", 0)),
           float(last.get("kv_hit_rate", 0)),
           float(last.get("park_ratio", 0)))[:width])
    lines.append("")

    for label, key, is_ns in (
            ("commit/s", "commits_per_sec", False),
            ("abort/s", "aborts_per_sec", False),
            ("nw_p99", "notify_wake_p99_ns", True),
            ("cv_waits", "cv_waits", False),
            ("parks", "parks", False)):
        vals = series(history, key)
        cur = vals[-1] if vals else 0
        shown = fmt_ns(cur) if is_ns else fmt_si(cur)
        lines.append("%-9s %10s  %s"
                     % (label, shown, sparkline(vals, spark_w))[:width])
    lines.append("")

    rules = (alerts or {}).get("alerts", [])
    firing = [a for a in rules if a.get("firing")]
    if firing:
        lines.append("ALERTS FIRING:")
        for a in firing:
            lines.append(("  %-18s value=%.4g threshold=%.4g fired=%d"
                          % (a.get("rule", "?"), a.get("last_value", 0),
                             a.get("threshold", 0),
                             a.get("fired_count", 0)))[:width])
    elif alerts is not None and alerts.get("watchdog_running"):
        lines.append("alerts: none firing (%d rules watched)" % len(rules))
    else:
        lines.append("alerts: watchdog not running")
    rows = backend_abort_rows(metrics)
    if rows:
        lines.append("aborts by backend:")
        for b, total, breakdown in rows:
            lines.append(("  %-8s %8s  %s"
                          % (b, fmt_si(total), breakdown))[:width])
    lines.append("")

    if waitgraph is not None:
        threads = waitgraph.get("threads", [])
        parked = waiting_rows(waitgraph)
        cycles = waitgraph.get("cycle_threads", 0)
        lines.append(("threads: %d registered, %d waiting, %d in cycles, "
                      "%d suspects"
                      % (len(threads), len(parked), cycles,
                         len(waitgraph.get("suspects", []))))[:width])
        for is_oldest, body in parked[:8]:
            # The oldest waiter gets the arrow: it is the thread to stare
            # at when something is stuck.
            lines.append(("> " if is_oldest else "  ") + body[:width - 2])
        if len(parked) > 8:
            lines.append("  ... %d more waiting" % (len(parked) - 8))
        lines.append("")

    pairs = (metrics or {}).get("attribution", {}).get("conflict_pairs", [])
    if pairs:
        lines.append("top conflict pairs (victim <- attacker):")
        for p in pairs[:5]:
            lines.append(("  %-14s <- %-14s %8s  %s"
                          % (p.get("victim", "?"), p.get("attacker", "?"),
                             fmt_si(p.get("count", 0)),
                             p.get("reason", "")))[:width])
    else:
        lines.append("conflict pairs: none recorded "
                     "(attribution off or no aborts)")
    return lines


def render_once(base, width):
    metrics = fetch_json(base, "/metrics.json")
    history = fetch_json(base, "/history.json")
    alerts = fetch_json(base, "/alerts")
    waitgraph = fetch_json(base, "/waitgraph")
    return (build_frame(metrics, history, alerts, waitgraph, width),
            metrics is not None)


def run_plain(base, width):
    lines, reachable = render_once(base, width)
    for line in lines:
        print(line)
    return 0 if reachable else 1


def run_curses(base, interval):
    import curses

    def loop(stdscr):
        curses.curs_set(0)
        stdscr.nodelay(True)
        stdscr.timeout(int(interval * 1000))
        while True:
            height, width = stdscr.getmaxyx()
            lines, _ = render_once(base, width - 1)
            stdscr.erase()
            for y, line in enumerate(lines[:height - 1]):
                try:
                    stdscr.addstr(y, 0, line)
                except curses.error:
                    pass  # resize race; next frame fixes it
            stdscr.addstr(min(len(lines), height - 1), 0,
                          "q: quit"[:width - 1])
            stdscr.refresh()
            ch = stdscr.getch()
            if ch in (ord("q"), ord("Q")):
                return
            # getch timed out: that WAS the poll interval; loop again.

    curses.wrapper(loop)
    return 0


# ---------------------------------------------------------------------------
# --self-test fixtures: miniature versions of the three endpoint documents.

_FIX_METRICS = {
    "meta": {"version": "1.0.0", "trace_compiled": True, "htm": "emulated",
             "uptime_seconds": 12.5},
    "tm": {"backend": "norec", "commits": 1000, "aborts": 200,
           "aborts_conflict": 180,
           # One row per backend a descriptor runs, in exporter order
           # (Hybrid is a retry-loop request, never a row).
           "aborts_by_backend": {
               "eager": {"conflict": 0, "capacity": 0, "syscall": 0,
                         "explicit": 0, "retry_wait": 0},
               "lazy": {"conflict": 0, "capacity": 0, "syscall": 0,
                        "explicit": 0, "retry_wait": 0},
               "htm": {"conflict": 0, "capacity": 0, "syscall": 0,
                       "explicit": 0, "retry_wait": 0},
               "norec": {"conflict": 170, "capacity": 0, "syscall": 0,
                         "explicit": 0, "retry_wait": 30},
           }},
    "attribution": {"conflict_pairs": [
        {"victim": "kv_set", "attacker": "kv_set", "reason": "conflict",
         "count": 150},
        {"victim": "kv_get", "attacker": "kv_set", "reason": "conflict",
         "count": 30},
    ]},
}

_FIX_HISTORY = {
    "meta": {"interval_ms": 1000, "depth": 240, "samples_taken": 3,
             "running": True},
    "samples": [
        {"t_ms": 1000, "seq": 0, "commits": 100, "commits_per_sec": 100.0,
         "aborts_per_sec": 10.0, "abort_commit_ratio": 0.1,
         "kv_hit_rate": 0.9, "park_ratio": 0.25,
         "notify_wake_p99_ns": 5000, "cv_waits": 40, "parks": 10},
        {"t_ms": 2000, "seq": 1, "commits": 300, "commits_per_sec": 300.0,
         "aborts_per_sec": 30.0, "abort_commit_ratio": 0.1,
         "kv_hit_rate": 0.8, "park_ratio": 0.25,
         "notify_wake_p99_ns": 7000, "cv_waits": 80, "parks": 20},
    ],
}

_FIX_WAITGRAPH = {
    "now_ticks": 1000, "cycle_threads": 0,
    "threads": [
        {"slot": 0, "os_tid": 100, "tm_slot": 0, "waiting": False},
        {"slot": 1, "os_tid": 101, "tm_slot": 1, "waiting": True,
         "reason": "condvar", "site": "cv.wait.enqueue", "site_id": 1,
         "detail": 0, "target": "0x1000", "age_ns": 740000000},
        {"slot": 2, "os_tid": 102, "tm_slot": 2, "waiting": True,
         "reason": "orec", "site": "kv_set", "site_id": 3, "detail": 7,
         "target": "0x2000", "age_ns": 1200},
    ],
    "edges": [
        {"waiter_slot": 2, "waiter_tid": 102, "reason": "orec",
         "holder_slot": 0, "holder_tid": 100, "holder_site": "kv_set",
         "holder_site_id": 3, "in_cycle": False},
    ],
    "suspects": [
        {"slot": 1, "os_tid": 101, "target": "0x1000",
         "site": "cv.wait.enqueue", "age_ns": 740000000},
    ],
    "stall": {"total_ticks": 0, "total_ns": 0, "entries": []},
}

_FIX_ALERTS = {
    "watchdog_running": True,
    "alerts": [
        {"rule": "abort_storm", "firing": True, "threshold": 0.5,
         "last_value": 0.91, "breach_streak": 3, "fired_count": 1,
         "min_activity": 100, "consecutive": 2, "last_change_ms": 2000},
        {"rule": "latency_p99", "firing": False, "threshold": 1e6,
         "last_value": 7000, "breach_streak": 0, "fired_count": 0,
         "min_activity": 16, "consecutive": 2, "last_change_ms": 0},
    ],
}


def self_test():
    checks = []

    def check(name, ok):
        checks.append((name, bool(ok)))

    check("sparkline empty", sparkline([], 10) == "")
    check("sparkline flat-zero is all-low",
          sparkline([0, 0, 0], 10) == SPARK_CHARS[0] * 3)
    ramp = sparkline([1, 2, 3, 4], 10)
    check("sparkline ramp ascends",
          len(ramp) == 4 and ramp[0] == SPARK_CHARS[0]
          and ramp[-1] == SPARK_CHARS[7]
          and list(ramp) == sorted(ramp))
    check("sparkline truncates to width", len(sparkline(range(99), 16)) == 16)
    check("sparkline flat-positive not blank",
          set(sparkline([5, 5, 5], 8)) == {SPARK_CHARS[7]})

    check("fmt_si mega", fmt_si(1234567) == "1.23M")
    check("fmt_si small int", fmt_si(42) == "42")
    check("fmt_ns us", fmt_ns(7000) == "7.0us")
    check("fmt_ns ms", fmt_ns(2.5e6) == "2.50ms")

    check("normalize bare port",
          normalize_target("9464") == "http://127.0.0.1:9464")
    check("normalize host:port",
          normalize_target("10.0.0.2:80") == "http://10.0.0.2:80")
    check("normalize full url",
          normalize_target("http://x:1/") == "http://x:1")

    frame = "\n".join(build_frame(_FIX_METRICS, _FIX_HISTORY, _FIX_ALERTS))
    check("frame shows version", "v1.0.0" in frame)
    check("frame shows latest commit rate", "300" in frame)
    check("frame shows firing alert", "abort_storm" in frame)
    check("frame hides cleared alert", "latency_p99" not in frame)
    check("frame shows top pair", "kv_set" in frame and "kv_get" in frame)
    check("frame has sparkline glyphs",
          any(c in frame for c in SPARK_CHARS))

    check("frame shows active backend", "backend=norec" in frame)
    check("frame shows per-backend aborts",
          "aborts by backend:" in frame and "conflict=170" in frame
          and "retry_wait=30" in frame)
    check("frame hides zero-abort backends",
          "\n  eager" not in frame and "\n  lazy" not in frame)
    rows = backend_abort_rows(_FIX_METRICS)
    check("backend rows non-zero only, totalled",
          rows == [("norec", 200, "conflict=170 retry_wait=30")])
    check("backend rows tolerate missing table",
          backend_abort_rows({}) == [] and backend_abort_rows(None) == [])

    wg_frame = "\n".join(build_frame(_FIX_METRICS, _FIX_HISTORY, _FIX_ALERTS,
                                     _FIX_WAITGRAPH))
    check("thread pane shows headline",
          "threads: 3 registered, 2 waiting" in wg_frame)
    rows = waiting_rows(_FIX_WAITGRAPH)
    check("thread pane sorts oldest waiter first",
          len(rows) == 2 and "slot=1" in rows[0][1]
          and "slot=2" in rows[1][1])
    check("oldest waiter highlighted, younger not",
          rows[0][0] and not rows[1][0]
          and "> slot=1" in wg_frame and "\n  slot=2" in wg_frame)
    check("suspect tagged in thread pane", "SUSPECT" in rows[0][1])
    check("running threads not listed as waiting",
          "slot=0" not in rows[0][1] + rows[1][1])
    check("frame without waitgraph omits pane",
          "threads:" not in frame)
    check("waiting rows tolerate missing doc", waiting_rows(None) == [])

    # Degraded inputs must not raise -- the console outlives the server.
    for m, h, a in ((None, None, None),
                    (_FIX_METRICS, None, None),
                    (None, _FIX_HISTORY, None),
                    ({}, {"samples": []}, {"alerts": []})):
        try:
            build_frame(m, h, a, width=40)
        except Exception as e:  # pragma: no cover
            check("frame tolerates %r/%r/%r: %s"
                  % (m is not None, h is not None, a is not None, e), False)
            break
    else:
        check("frame tolerates missing endpoints", True)

    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print("self-test FAILED: %s" % name, file=sys.stderr)
    if failed:
        return 1
    print("self-test: %d checks ok" % len(checks))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Live console for a tmcv telemetry endpoint.")
    ap.add_argument("target", nargs="?", default=None,
                    help="PORT, HOST:PORT, or http URL of the endpoint")
    ap.add_argument("--interval", type=float, default=1.0,
                    help="poll interval in seconds (default 1.0)")
    ap.add_argument("--once", action="store_true",
                    help="print one plain-text frame and exit (no curses); "
                         "exit 1 if the metrics endpoint is unreachable")
    ap.add_argument("--width", type=int, default=80,
                    help="frame width for --once (default 80)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the embedded fixture suite and exit")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()
    if args.target is None:
        ap.error("target required (or --self-test)")

    base = normalize_target(args.target)
    if args.once:
        return run_plain(base, args.width)
    try:
        return run_curses(base, max(0.1, args.interval))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
