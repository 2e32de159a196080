#!/usr/bin/env python3
"""check_checkpoint.py DIR SHARDS: DIR is a committed mtlsd checkpoint.

Its MANIFEST is version 3, names SHARDS non-empty segment chains beside
the router's state (which holds no certificate sequences: those are in
the segments), carries the tail offsets, and the directory holds exactly
the manifest and the segments it names, each at its committed size:
nothing of an earlier format, no temp file. Every segment opens with a
state frame — type 4, or 1 in a gob segment an older release's chain is
being continued from — and the newest of every chain is this release's.
"""
import json
import os
import sys

path, shards = sys.argv[1], int(sys.argv[2])
with open(os.path.join(path, "MANIFEST")) as f:
    m = json.load(f)
assert m["Version"] == 3, m["Version"]
assert len(m["Chains"]) == shards, (len(m["Chains"]), shards)
assert all(chain for chain in m["Chains"]), m["Chains"]
assert set(m["Cursor"]) == {"ssl.log", "x509.log"}, m["Cursor"]
assert "NextSeq" in m["Router"] and "CertSeqs" not in m["Router"], m.get("Router")
named = {seg["Name"]: seg["Bytes"] for chain in m["Chains"] for seg in chain}
assert sorted(os.listdir(path)) == sorted(["MANIFEST", *named]), os.listdir(path)
for name, size in named.items():
    assert os.path.getsize(os.path.join(path, name)) == size, name
for chain in m["Chains"]:
    opens = [open(os.path.join(path, seg["Name"]), "rb").read(1)[0] for seg in chain]
    assert set(opens) <= {1, 4} and opens[-1] == 4, (chain, opens)
print(f"{path}: generation {m['Gen']}, {shards} chain(s), {len(named)} segment(s), cursor {m['Cursor']}")
