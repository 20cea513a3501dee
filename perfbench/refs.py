"""Capture the reference digests of every CLI query into ``refs.json``.

    PYTHONPATH=src PYTHONHASHSEED=0 python3 perfbench/refs.py

Runs each CLI query of ``generic_verify`` and ``locus_census`` once, for all
six S3 images, and stores the sha256 of its canonical JSON.  Run it only on a
commit whose outputs are known to be right; the benchmark then fails any
query whose output differs from the stored digest.
"""

from __future__ import annotations

import json
import random
import sys

import workloads


def main() -> int:
    from cubichecke.catalog import PERMS

    workloads.setup()
    refs = {}
    for name in ("generic_verify", "locus_census"):
        queries = {}
        for p in PERMS:
            for qname, thunk in workloads.WORKLOADS[name][0](p, random.Random(0)):
                queries.setdefault(qname, thunk)
        refs[name] = {}
        for qname, thunk in sorted(queries.items()):
            record = workloads.run_query(qname, thunk, None)
            if not record["ok"]:
                print("query failed: %s %s" % (qname, record["error"]), file=sys.stderr)
                return 1
            refs[name][qname] = record["digest"]
            print(qname, record["digest"][:16], "%.2fs" % record["seconds"], flush=True)
    with open(workloads.REFS, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
