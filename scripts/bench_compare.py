#!/usr/bin/env python3
"""Compare bench_ms gauges between two metrics JSON dumps.

Every paper-table bench records each printed cell as a
``bench_ms{bench="...",row="...",col="..."}`` gauge, so a ``--json`` dump is a
machine-readable copy of its table. This script diffs those cells between a
baseline dump and a current dump and flags throughput regressions:

    scripts/bench_compare.py BASELINE.json CURRENT.json [CURRENT2.json ...]
        --tolerance 0.10    fail when a timing cell slows down by more than
                            this fraction (default 10%)
        --warn-only         report regressions but always exit 0 (for runs
                            compared against a baseline recorded on different
                            hardware)

Every column has an explicit kind; the name alone is never trusted:

    ratio   the same-run ratios listed in RATIO_COLS, each with the
            direction that counts as the regression. "XSLT/morph",
            "hop/fused" and the other "slow path over fast path" ratios
            regress when they *drop* (the fast path lost ground);
            "Pbuf/PBIO" is the protobuf bridge's cost over PBIO's, so it
            regresses when it *rises* (the bridge lost ground).
    count   the exact counts listed in COUNT_COLS ("morphs_evt"). They are
            deterministic, so any change at all is a regression.
    timing  every other bench_ms column (including "XML/XSLT", which is a
            time in ms): bigger beyond the tolerance is a regression.

A '/' column with no declared kind is rejected (exit 2) rather than guessed
at: declare its kind here first. Cells present in only one dump are
reported but never fatal (tables legitimately grow).

``bench_wire_bytes{bench,row,col}`` gauges — encoded message sizes — are
compared the same way (growth beyond tolerance is a regression). Unlike
timings they are deterministic, so they hold across machines even without
MORPH_BENCH_STRICT.

Exit status: 0 when no regression (or --warn-only), 1 on regression, 2 on
usage/parse errors or a column with no declared kind.
"""

import argparse
import json
import re
import sys

CELL_RE = re.compile(
    r'^(?P<metric>bench_ms|bench_wire_bytes)'
    r'\{bench="(?P<bench>[^"]*)",row="(?P<row>[^"]*)",col="(?P<col>[^"]*)"\}$'
)


# Same-run ratio columns and the direction of their regression: "drop" for
# slow path over fast path, "rise" for a measured path over its reference.
RATIO_COLS = {
    "XSLT/morph": "drop",
    "hop/fused": "drop",
    "persub/grouped": "drop",
    "thr/rx": "drop",
    "XML/PBIO": "drop",
    "XML/PBIOcv": "drop",
    "Pbuf/PBIO": "rise",
}
# Deterministic per-event counts.
COUNT_COLS = {"morphs_evt"}
# Timing columns whose names contain '/' (fig10's XML/XSLT is a time in ms).
SLASHED_TIMING_COLS = {"XML/XSLT"}


def die(msg):
    print(f"bench_compare: {msg}", file=sys.stderr)
    sys.exit(2)


def kind(metric, col):
    """Return "bytes", "ratio", "count" or "timing" for one cell."""
    if metric == "bench_wire_bytes":
        return "bytes"
    if col in RATIO_COLS:
        return "ratio"
    if col in COUNT_COLS:
        return "count"
    if "/" in col and col not in SLASHED_TIMING_COLS:
        die(f"column '{col}' has no declared kind; declare it in bench_compare.py")
    return "timing"


def load_cells(path):
    """Return {(metric, bench, row, col): value} from one metrics dump."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")
    if doc.get("schema") != "morph-metrics-v1":
        die(f"{path} is not a morph-metrics-v1 dump")
    cells = {}
    for name, value in doc.get("gauges", {}).items():
        m = CELL_RE.match(name)
        if m:
            key = (m.group("metric"), m.group("bench"), m.group("row"), m.group("col"))
            kind(key[0], key[3])  # reject undeclared '/' columns up front
            cells[key] = float(value)
    return cells


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current", nargs="+")
    ap.add_argument("--tolerance", type=float, default=0.10)
    ap.add_argument("--warn-only", action="store_true")
    args = ap.parse_args()

    base = load_cells(args.baseline)
    cur = {}
    for path in args.current:
        cur.update(load_cells(path))
    if not base:
        die(f"no bench_ms cells in {args.baseline}")
    if not cur:
        die("no bench_ms cells in current dump(s)")

    regressions = []
    compared = 0
    for key in sorted(base):
        metric, bench, row, col = key
        label = f"{bench} {row}/{col}" + (" (bytes)" if metric == "bench_wire_bytes" else "")
        if key not in cur:
            print(f"  [gone]    {label} (baseline only)")
            continue
        old, new = base[key], cur[key]
        if old <= 0.0:
            continue
        compared += 1
        change = (new - old) / old
        k = kind(metric, col)
        if k == "ratio":
            if RATIO_COLS[col] == "drop":
                regressed = change < -args.tolerance
            else:
                regressed = change > args.tolerance
        elif k == "count":
            regressed = new != old
        else:
            # Timing cells and wire-bytes cells alike: bigger is worse.
            regressed = change > args.tolerance
        if regressed:
            regressions.append((label, old, new, change))
        tag = "[REGRESS]" if regressed else "[ok]     "
        print(f"  {tag} {label}: {k} {old:.4f} -> {new:.4f} ({change:+.1%})")
    for key in sorted(set(cur) - set(base)):
        metric, bench, row, col = key
        suffix = " (bytes)" if metric == "bench_wire_bytes" else ""
        print(f"  [new]     {bench} {row}/{col}{suffix} = {cur[key]:.4f}")

    print(
        f"bench_compare: {compared} cells compared, {len(regressions)} regression(s) "
        f"beyond {args.tolerance:.0%}"
    )
    if regressions and not args.warn_only:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
