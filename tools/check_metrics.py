#!/usr/bin/env python3
"""CI validator for progxe_server's Prometheus `metrics` exposition.

Reads the server's output (a file, or stdin with `-`); lines before the
first `#` line and from the `ok metrics` line on are ignored, so the raw
output of a scripted session can be piped in. Checks that:

  * every sample line is `name[{labels}] value` with a finite value;
  * each family has exactly one HELP and one TYPE line, both before its
    samples;
  * counter names end in `_total`;
  * histogram buckets are cumulative and end at `+Inf`, and `_count`
    equals the `+Inf` bucket;
  * every ProgXeStats field (read from kProgXeStatsFields in
    src/progxe/config.h) appears as a `progxe_executor_<field>` family.

Usage: check_metrics.py <exposition.txt|->
"""

import math
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAMPLE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$')
HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def fail(msg):
    raise SystemExit(f"FAIL: {msg}")


def stats_fields():
    with open(os.path.join(ROOT, "src", "progxe", "config.h")) as f:
        fields = re.findall(r'\{"(\w+)", &ProgXeStats::', f.read())
    if not fields:
        fail("no kProgXeStatsFields entries found in src/progxe/config.h")
    return fields


def exposition_lines(text):
    lines = []
    started = False
    for line in text.splitlines():
        if line == "ok metrics":
            break
        started = started or line.startswith("#")
        if started:
            lines.append(line)
    return lines


def family_of(name, types):
    if name in types:
        return name
    for suffix in HISTOGRAM_SUFFIXES:
        base = name[:-len(suffix)]
        if name.endswith(suffix) and types.get(base) == "histogram":
            return base
    return None


def check_histogram(family, samples):
    buckets = [(labels, value) for name, labels, value in samples
               if name == family + "_bucket"]
    if not buckets or buckets[-1][0] != '{le="+Inf"}':
        fail(f"{family}: buckets do not end at le=\"+Inf\"")
    counts = [value for _, value in buckets]
    if any(b < a for a, b in zip(counts, counts[1:])):
        fail(f"{family}: bucket counts are not cumulative: {counts}")
    total = [value for name, _, value in samples if name == family + "_count"]
    if total != [counts[-1]]:
        fail(f"{family}: _count {total} != +Inf bucket {counts[-1]}")


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__)
    if argv[1] == "-":
        text = sys.stdin.read()
    else:
        with open(argv[1]) as f:
            text = f.read()

    helps, types, samples = {}, {}, {}
    for line in exposition_lines(text):
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4:
                fail(f"malformed comment line: {line!r}")
            kind, name, rest = parts[1], parts[2], parts[3]
            seen = helps if kind == "HELP" else types
            if name in seen:
                fail(f"{name}: second {kind} line")
            if name in samples:
                fail(f"{name}: {kind} line after its samples")
            seen[name] = rest
            continue
        if line.startswith("#"):
            continue
        match = SAMPLE.match(line)
        if match is None:
            fail(f"malformed sample line: {line!r}")
        name, labels, raw = match.groups()
        try:
            value = float(raw)
        except ValueError:
            fail(f"non-numeric sample value: {line!r}")
        if not math.isfinite(value):
            fail(f"non-finite sample value: {line!r}")
        family = family_of(name, types)
        if family is None:
            fail(f"{name}: sample before (or without) its TYPE line")
        if family not in helps:
            fail(f"{family}: sample without a HELP line")
        samples.setdefault(family, []).append((name, labels or "", value))

    if not types:
        fail("no metric families found")
    for family, kind in types.items():
        if family not in helps:
            fail(f"{family}: TYPE without HELP")
        if family not in samples:
            fail(f"{family}: no samples")
        if kind == "counter" and not family.endswith("_total"):
            fail(f"counter {family} does not end in _total")
        if kind == "histogram":
            check_histogram(family, samples[family])

    missing = [f for f in stats_fields()
               if f"progxe_executor_{f}" not in types and
               f"progxe_executor_{f}_total" not in types]
    if missing:
        fail(f"ProgXeStats fields missing from the exposition: "
             f"{','.join(missing)}")

    print(f"OK: {len(types)} families, "
          f"{sum(len(s) for s in samples.values())} samples")


if __name__ == "__main__":
    main(sys.argv)
