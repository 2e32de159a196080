#!/usr/bin/env python3
"""check_checkpoint.py DIR: DIR is a committed mtlsd checkpoint.

Its MANIFEST is version 3, names one non-empty segment chain beside the
router's state (which holds no certificate sequences: those are in the
segments), carries the tail offsets, and the directory holds exactly the
manifest and the segments it names, each at its committed size: nothing
of an earlier format, no temp file, no second chain. Every segment opens
with a state frame of this release's frames (type 4), never a gob one.
"""
import json
import os
import sys

path = sys.argv[1]
with open(os.path.join(path, "MANIFEST")) as f:
    m = json.load(f)
assert m["Version"] == 3, m["Version"]
assert len(m["Chains"]) == 1 and m["Chains"][0], m["Chains"]
assert set(m["Cursor"]) == {"ssl.log", "x509.log"}, m["Cursor"]
assert "NextSeq" in m["Router"] and "CertSeqs" not in m["Router"], m.get("Router")
chain = m["Chains"][0]
named = {seg["Name"]: seg["Bytes"] for seg in chain}
assert sorted(os.listdir(path)) == sorted(["MANIFEST", *named]), os.listdir(path)
for name, size in named.items():
    assert os.path.getsize(os.path.join(path, name)) == size, name
opens = [open(os.path.join(path, seg["Name"]), "rb").read(1)[0] for seg in chain]
assert set(opens) == {4}, (chain, opens)
print(f"{path}: generation {m['Gen']}, one chain of {len(named)} segment(s), cursor {m['Cursor']}")
