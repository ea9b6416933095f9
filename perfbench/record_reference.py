"""Record the reference values the correctness gate checks against.

Run from the repository root, on the code whose outputs are the
reference (the values in reference.json come from commit 0274ff0):

    python3 perfbench/record_reference.py

For every workload and size it runs one untraced and one traced pass at
the default seed and requires the two to agree. Seed-independent values
(N, Q, J, hs_norm, the d=1 exact measure, overlap pairs, CSV bytes) are
checked at every seed; sup_lb, measure, ratio and the MC estimate only
at the default seed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from run import run_pass


def record(root: Path, workdir: str) -> dict:
    out = {}
    for name, w in workloads.WORKLOADS.items():
        for size in w["sizes"]:
            spec = workloads.child_spec(name, size, 0)
            plain, traced = (run_pass(root, spec, t, workdir) for t in (False, True))
            for p in (plain, traced):
                if p.get("error") or any(op["error"] for op in p["ops"]):
                    raise SystemExit(f"{name}/{size}: {p.get('error') or p['ops']}")
            if plain["outputs"] != traced["outputs"]:
                raise SystemExit(f"{name}/{size}: traced outputs differ from untraced")
            if w["kind"] == "ladder":
                rows = []
                for row, m in zip(plain["outputs"], traced["events"]["divset.measure"]):
                    keep = {k: row[k] for k in ("N", "Q", "J", "measure", "sup_lb", "hs_norm", "ratio")}
                    rows.append(dict(keep, overlap_pairs=m["overlap_pairs"]))
                out[f"{name}/{size}"] = {"rows": rows}
            else:
                out[f"{name}/{size}"] = plain["outputs"]
            print(f"recorded {name}/{size}", file=sys.stderr)
    return out


def main() -> int:
    root = Path.cwd()
    workdir = tempfile.mkdtemp(dir=root)
    try:
        ref = record(root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
