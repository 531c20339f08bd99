"""Record the sha256 of every certify-sweep document drawn by the default
seed into bench/goldens.json.

    python3 bench/record_goldens.py

The certify-sweep check compares each document it produces against this
file, so certificate bytes cannot change unnoticed.  Re-record only in a
change that means to alter certificate bytes, and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    tc = run.import_treeconn()
    goldens = {}
    for op in workloads.certify_sweep(tc, run.DEFAULT_SEED, False, None, {}):
        out = op.run()
        problem = op.check(out)
        if problem is not None:
            raise SystemExit(f"{op.label}: {problem}")
        goldens[op.label] = hashlib.sha256(out[2].encode()).hexdigest()
    run.GOLDENS.write_text(json.dumps(dict(sorted(goldens.items())), indent=1) + "\n")
    print(f"{len(goldens)} digests written to {run.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
