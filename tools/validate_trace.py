#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file produced by --trace-out.

Checks that the file is what ui.perfetto.dev / chrome://tracing will
accept and that the spans are physically plausible:

  * top level is an object with "traceEvents" (a list) and the
    "displayTimeUnit" hint the recorder writes;
  * every event is a complete event (ph == "X") with a non-empty name,
    category "rrp", numeric ts/dur in microseconds (ts >= 0, dur >= 0),
    integer pid/tid, and args (when present) a flat object of numbers
    or strings;
  * per thread, spans nest: sorted by start time, any two spans are
    either disjoint or one contains the other.  Partial overlap means
    the recorder emitted a physically impossible interleaving.

Exit status 0 when valid; 1 with a diagnostic otherwise.  Used by the
cli_validate_trace test, the CI perf-smoke job (README "Observability")
and usable standalone:

    python3 tools/validate_trace.py plan_trace.json
"""

from __future__ import annotations

import json
import sys

REQUIRED_EVENT_KEYS = ("name", "ph", "ts", "dur", "pid", "tid")

# Spans closing in the same clock read as their parent are legal; allow
# exact boundary touching but reject real partial overlap.
_EPS_US = 0.0


def fail(msg: str) -> "NoReturn":
    print(f"validate_trace: FAIL: {msg}", file=sys.stderr)
    raise SystemExit(1)


def check_event(ev: object, index: int) -> dict:
    if not isinstance(ev, dict):
        fail(f"traceEvents[{index}] is not an object")
    for key in REQUIRED_EVENT_KEYS:
        if key not in ev:
            fail(f"traceEvents[{index}] missing key {key!r}")
    if not isinstance(ev["name"], str) or not ev["name"]:
        fail(f"traceEvents[{index}] has empty or non-string name")
    if ev["ph"] != "X":
        fail(f"traceEvents[{index}] ({ev['name']}): ph {ev['ph']!r}, "
             "expected complete event 'X'")
    if ev.get("cat") != "rrp":
        fail(f"traceEvents[{index}] ({ev['name']}): cat {ev.get('cat')!r}, "
             "expected 'rrp'")
    for key in ("ts", "dur"):
        value = ev[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            fail(f"traceEvents[{index}] ({ev['name']}): {key} not numeric")
        if value < 0:
            fail(f"traceEvents[{index}] ({ev['name']}): {key} = {value} < 0")
    for key in ("pid", "tid"):
        if isinstance(ev[key], bool) or not isinstance(ev[key], int):
            fail(f"traceEvents[{index}] ({ev['name']}): {key} not an int")
    if "args" in ev:
        args = ev["args"]
        if not isinstance(args, dict):
            fail(f"traceEvents[{index}] ({ev['name']}): args not an object")
        for akey, aval in args.items():
            if not isinstance(akey, str):
                fail(f"traceEvents[{index}] ({ev['name']}): non-string "
                     "args key")
            if isinstance(aval, bool) or not isinstance(aval,
                                                        (int, float, str)):
                fail(f"traceEvents[{index}] ({ev['name']}): args[{akey!r}] "
                     "is not a number or string")
    return ev


def check_nesting(events: list) -> None:
    by_tid: dict = {}
    for ev in events:
        by_tid.setdefault(ev["tid"], []).append(ev)
    for tid, spans in sorted(by_tid.items()):
        # Longest-first at equal start so a parent precedes the children
        # it contains.
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: list = []  # open (name, start, end) intervals
        for ev in spans:
            start, end = ev["ts"], ev["ts"] + ev["dur"]
            while stack and stack[-1][2] <= start + _EPS_US:
                stack.pop()
            if stack and end > stack[-1][2] + _EPS_US:
                pname, pstart, pend = stack[-1]
                fail(f"tid {tid}: span {ev['name']!r} "
                     f"[{start}, {end}] partially overlaps "
                     f"{pname!r} [{pstart}, {pend}] — spans must nest")
            stack.append((ev["name"], start, end))


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: validate_trace.py TRACE_JSON", file=sys.stderr)
        return 2
    path = argv[1]
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        fail(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        fail(f"{path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        fail("top level is not an object")
    if doc.get("displayTimeUnit") != "ms":
        fail(f"displayTimeUnit {doc.get('displayTimeUnit')!r}, expected 'ms'")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail("traceEvents missing or not a list")
    checked = [check_event(ev, i) for i, ev in enumerate(events)]
    check_nesting(checked)
    tids = {ev["tid"] for ev in checked}
    print(f"validate_trace: OK: {len(checked)} spans across "
          f"{len(tids)} thread(s) in {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
