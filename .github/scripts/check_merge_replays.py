#!/usr/bin/env python3
"""check_merge_replays.py PREFIX BEFORE AFTER: two /metrics scrapes of one
mtlsd, taken around an append to its logs — connection rows, or
certificates that rows already read had named — and a report read.

The merged view caught up with the append (PREFIX_merges_total grew) on
the Builder it had: PREFIX_merge_replays_total did not grow for any
reason (nothing was lost; a late certificate is patched into the
connections that named it, which PREFIX_merge_late_conns_total counts;
a grown §3.2 verdict takes the connections it excludes back out, which
PREFIX_merge_retracted_conns_total counts — that series must be there,
and a replay reason named for the verdict must not), and no connection
ever arrived out of order (reason "order" absent or 0).
"""
import re
import sys

prefix, before, after = sys.argv[1], sys.argv[2], sys.argv[3]


def scrape(path):
    merges, retracted, replays = None, None, {}
    with open(path) as f:
        for line in f:
            if line.startswith(f"{prefix}_merges_total "):
                merges = float(line.split()[1])
            if line.startswith(f"{prefix}_merge_retracted_conns_total "):
                retracted = float(line.split()[1])
            m = re.match(rf'{prefix}_merge_replays_total{{reason="(\w+)"}} (\S+)', line)
            if m:
                replays[m.group(1)] = float(m.group(2))
    assert merges is not None, f"{path}: no {prefix}_merges_total"
    assert retracted is not None, f"{path}: no {prefix}_merge_retracted_conns_total"
    assert "verdict" not in replays, f"{path}: a replay reason for the verdict: {replays}"
    return merges, retracted, replays


m0, t0, r0 = scrape(before)
m1, t1, r1 = scrape(after)
assert m1 > m0, f"{prefix}_merges_total did not grow: {m0} -> {m1}"
assert r1 == r0, f"the append was replayed, not appended: {r0} -> {r1}"
assert r1.get("order", 0) == 0, f"a connection arrived out of order: {r1}"
print(f"{prefix}: merges {m0:.0f} -> {m1:.0f}, retracted {t0:.0f} -> {t1:.0f}, replays {r0} -> {r1}")
