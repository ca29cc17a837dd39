#!/usr/bin/env python3
"""Validate a wanplace telemetry JSONL trace (schema versions 1 and 2).

Usage: validate_trace.py TRACE.jsonl [--require SPAN_NAME ...]

Schema (see src/obs/trace.h):
  {"type":"meta","version":V,"spans":N,"samples":M}        -- first line
  {"type":"span","id":I,"parent":P,"name":"...","thread":T,
   "start_s":S,"dur_s":D,"attrs":{...}}                    -- parent 0 = root
  {"type":"sample","name":"...","thread":T,"time_s":S,"step":X,"value":V}
  {"type":"metric","name":"...","kind":"counter|gauge|histogram",
   "count":N,"sum":S[,"min":m,"max":M,"p50":q,"p90":q,"p99":q]}

Checks: every line parses as a JSON object of a known type with the right
field types (numbers may be null: non-finite doubles are exported as null),
span ids are unique and parents reference an earlier span (spans are sorted
by start time, and a parent always starts before its children), durations
are non-negative, and the meta counts match the body. Every --require NAME
must appear among the span names.

Version 2 adds histogram quantiles (p50/p90/p99, all three required on
histogram metrics) and daemon event causality: every `service.event` span
must carry a numeric "event" attr (the monotonic event index) and a string
"kind" attr, and every per-stage span (service.validate / service.patch /
service.resolve / service.audit / service.policy) must have a
`service.event` ancestor, so per-stage latency is always attributable to
one event. A `service.event` span has at most one child of each stage
name: every stage is timed once per event. Every `bound` span that starts
inside a `selector` span's time window must have that `selector` as an
ancestor, whichever thread of the class fan-out recorded it, so a
selection's per-class bounds are always attributable to it. Exits 1 with a
message on the first violation.
"""

import argparse
import json
import sys

STAGE_SPANS = {
    "service.validate", "service.patch", "service.resolve",
    "service.audit", "service.policy",
}


def fail(lineno, message):
    print(f"validate_trace: line {lineno}: {message}", file=sys.stderr)
    sys.exit(1)


def is_number(value):
    return value is None or (
        isinstance(value, (int, float)) and not isinstance(value, bool)
    )


def check_span(lineno, obj, span_ids):
    for key, kind in (("id", int), ("parent", int), ("thread", int),
                      ("name", str)):
        if not isinstance(obj.get(key), kind) or isinstance(obj.get(key), bool):
            fail(lineno, f"span field {key!r} missing or not {kind.__name__}")
    for key in ("start_s", "dur_s"):
        if key not in obj or not is_number(obj[key]):
            fail(lineno, f"span field {key!r} missing or not numeric")
    if obj["dur_s"] is not None and obj["dur_s"] < 0:
        fail(lineno, "negative span duration")
    if not isinstance(obj.get("attrs"), dict):
        fail(lineno, "span field 'attrs' missing or not an object")
    for key, value in obj["attrs"].items():
        if not (is_number(value) or isinstance(value, str)):
            fail(lineno, f"span attr {key!r} is neither number nor string")
    if obj["id"] in span_ids:
        fail(lineno, f"duplicate span id {obj['id']}")
    if obj["parent"] != 0 and obj["parent"] not in span_ids:
        fail(lineno, f"span parent {obj['parent']} not seen before child")


def has_ancestor(span_id, ancestor_id, parent_by_id):
    while span_id != 0:
        span_id = parent_by_id.get(span_id, 0)
        if span_id == ancestor_id:
            return True
    return False


def check_span_causality(lineno, obj, name_by_id, parent_by_id,
                         event_stages, selector_windows):
    """Schema v2: daemon spans carry event identity, stage spans nest under
    a service.event ancestor, no event times a stage twice, and bound spans
    of a selector fan-out nest under their selector."""
    name = obj["name"]
    if (name == "selector" and obj["start_s"] is not None and
            obj["dur_s"] is not None):
        selector_windows.append(
            (obj["id"], obj["start_s"], obj["start_s"] + obj["dur_s"]))
    if name == "bound" and obj["start_s"] is not None:
        for selector, start, end in selector_windows:
            if (start <= obj["start_s"] <= end and
                    not has_ancestor(obj["id"], selector, parent_by_id)):
                fail(lineno, f"bound span {obj['id']} starts inside selector "
                             f"span {selector} but is not nested under it")
    if name == "service.event":
        attrs = obj["attrs"]
        if not is_number(attrs.get("event")) or attrs.get("event") is None:
            fail(lineno, "service.event span lacks a numeric 'event' attr")
        if not isinstance(attrs.get("kind"), str):
            fail(lineno, "service.event span lacks a string 'kind' attr")
    if name in STAGE_SPANS:
        if name_by_id.get(obj["parent"]) == "service.event":
            if (obj["parent"], name) in event_stages:
                fail(lineno, f"service.event span {obj['parent']} has two "
                             f"{name!r} children")
            event_stages.add((obj["parent"], name))
        ancestor = obj["parent"]
        while ancestor != 0 and name_by_id.get(ancestor) != "service.event":
            ancestor = parent_by_id.get(ancestor, 0)
        if ancestor == 0:
            fail(lineno, f"stage span {name!r} has no service.event ancestor")


def check_sample(lineno, obj):
    if not isinstance(obj.get("name"), str):
        fail(lineno, "sample field 'name' missing or not a string")
    if not isinstance(obj.get("thread"), int) or isinstance(obj["thread"], bool):
        fail(lineno, "sample field 'thread' missing or not an int")
    for key in ("time_s", "step", "value"):
        if key not in obj or not is_number(obj[key]):
            fail(lineno, f"sample field {key!r} missing or not numeric")


def check_metric(lineno, obj, version):
    if not isinstance(obj.get("name"), str):
        fail(lineno, "metric field 'name' missing or not a string")
    if obj.get("kind") not in ("counter", "gauge", "histogram"):
        fail(lineno, f"unknown metric kind {obj.get('kind')!r}")
    count = obj.get("count")
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        fail(lineno, "metric field 'count' missing or not a non-negative int")
    if "sum" not in obj or not is_number(obj["sum"]):
        fail(lineno, "metric field 'sum' missing or not numeric")
    if obj["kind"] == "histogram":
        extremes = ("min", "max")
        quantiles = ("p50", "p90", "p99") if version >= 2 else ()
        for key in extremes + quantiles:
            if key not in obj or not is_number(obj[key]):
                fail(lineno, f"histogram field {key!r} missing or not numeric")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace")
    parser.add_argument("--require", action="append", default=[],
                        metavar="SPAN_NAME",
                        help="span name that must appear in the trace")
    args = parser.parse_args()

    meta = None
    version = 1
    span_ids = set()
    span_names = set()
    name_by_id = {}
    parent_by_id = {}
    event_stages = set()  # (service.event id, stage name) pairs seen
    selector_windows = []  # (id, start_s, end_s) of every selector span
    spans = samples = 0
    with open(args.trace, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                fail(lineno, "blank line")
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as error:
                fail(lineno, f"not valid JSON: {error}")
            if not isinstance(obj, dict):
                fail(lineno, "line is not a JSON object")
            kind = obj.get("type")
            if lineno == 1 and kind != "meta":
                fail(lineno, "first line must be the meta record")
            if kind == "meta":
                if meta is not None:
                    fail(lineno, "duplicate meta record")
                if obj.get("version") not in (1, 2):
                    fail(lineno, f"unsupported version {obj.get('version')!r}")
                version = obj["version"]
                for key in ("spans", "samples"):
                    if not isinstance(obj.get(key), int):
                        fail(lineno, f"meta field {key!r} missing or not int")
                meta = obj
            elif kind == "span":
                check_span(lineno, obj, span_ids)
                span_ids.add(obj["id"])
                span_names.add(obj["name"])
                name_by_id[obj["id"]] = obj["name"]
                parent_by_id[obj["id"]] = obj["parent"]
                if version >= 2:
                    check_span_causality(lineno, obj, name_by_id,
                                         parent_by_id, event_stages,
                                         selector_windows)
                spans += 1
            elif kind == "sample":
                check_sample(lineno, obj)
                samples += 1
            elif kind == "metric":
                check_metric(lineno, obj, version)
            else:
                fail(lineno, f"unknown record type {kind!r}")

    if meta is None:
        fail(0, "empty trace (no meta record)")
    if meta["spans"] != spans:
        fail(0, f"meta announces {meta['spans']} spans, file has {spans}")
    if meta["samples"] != samples:
        fail(0, f"meta announces {meta['samples']} samples, file has {samples}")
    missing = sorted(set(args.require) - span_names)
    if missing:
        fail(0, f"required span names missing: {', '.join(missing)} "
                f"(present: {', '.join(sorted(span_names))})")
    print(f"ok: schema v{version}, {spans} spans, {samples} samples"
          + (f", covers {', '.join(args.require)}" if args.require else ""))


if __name__ == "__main__":
    main()
