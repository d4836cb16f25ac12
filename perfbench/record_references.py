"""Write references.json: the expected output of every benchmark query.

    python3 perfbench/record_references.py

Runs each workload's queries once, untimed, for the reference seed and
stores the sha256 of each stdout (with the echoed JSON seed normalised),
of the DOT file ``lattice --dot`` writes, and the label-free lines of each
perm report.  The outputs are a contract of topolab, so the references
are recorded once and a later change that alters any of them fails the
benchmark's check; re-record only when an output change is intended.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import worker
from workloads import WORKLOADS, queries


def main() -> int:
    tl = worker.import_topolab()
    rundir = os.path.join(worker.HERE, "runs", "record")
    os.makedirs(rundir, exist_ok=True)
    os.chdir(rundir)
    refs: dict = {}
    for workload in WORKLOADS:
        digests: dict[str, str] = {}
        invariants: dict[str, list[str]] = {}
        for query in queries(workload, worker.REFERENCE_SEED):
            code, text = worker.run_query(tl, query, worker.REFERENCE_SEED, worker.QUERY_TIMEOUT_S)
            if code != 0:
                raise SystemExit(f"{workload}: {query.key} exited with {code}")
            digests[query.key] = worker.digest(text)
            invariants[query.key] = worker.perm_invariants(text)
            if query.args[0] == "lattice":
                dot = query.args[query.args.index("--dot") + 1]
                with open(dot, "rb") as fh:
                    digests[worker.file_key(dot)] = hashlib.sha256(fh.read()).hexdigest()
        if workload == "perm-sweep":
            refs[workload] = {"digests": dict(sorted(digests.items())),
                              "invariants": dict(sorted(invariants.items()))}
        else:
            refs[workload] = dict(sorted(digests.items()))
        print(f"{workload}: {len(digests)} references", file=sys.stderr)
    with open(worker.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
