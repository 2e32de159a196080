#!/usr/bin/env python3
"""check_checkpoint.py DIR SHARDS: DIR is a committed mtlsd checkpoint.

Its MANIFEST is version 2, names SHARDS non-empty segment chains beside
the router's state (which holds no certificate sequences: those are in
the segments), carries the tail offsets, and the directory holds exactly
the manifest and the segments it names, each at its committed size:
nothing of an earlier format, no temp file.
"""
import json
import os
import sys

path, shards = sys.argv[1], int(sys.argv[2])
with open(os.path.join(path, "MANIFEST")) as f:
    m = json.load(f)
assert m["Version"] == 2, m["Version"]
assert len(m["Chains"]) == shards, (len(m["Chains"]), shards)
assert all(chain for chain in m["Chains"]), m["Chains"]
assert set(m["Cursor"]) == {"ssl.log", "x509.log"}, m["Cursor"]
assert "NextSeq" in m["Router"] and "CertSeqs" not in m["Router"], m.get("Router")
named = {seg["Name"]: seg["Bytes"] for chain in m["Chains"] for seg in chain}
assert sorted(os.listdir(path)) == sorted(["MANIFEST", *named]), os.listdir(path)
for name, size in named.items():
    assert os.path.getsize(os.path.join(path, name)) == size, name
print(f"{path}: generation {m['Gen']}, {shards} chain(s), {len(named)} segment(s), cursor {m['Cursor']}")
