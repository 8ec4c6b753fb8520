"""Re-record ``perfbench/scenario_digests.json`` from the current models.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 perfbench/record_digests.py

Runs every scenario sweep of the catalogue once into a scratch results
tree and stores each point's artifact digest. Run it only when a model
change is meant to move the scenario artifacts, as with
``repro digest --update`` for the paper ones.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from child import HERE, load_catalogue, run_sweeps

ROOT = os.path.dirname(HERE)


def main() -> int:
    scratch = os.path.join(ROOT, ".perfbench_work", f"record-{os.getpid()}")
    os.makedirs(scratch)
    os.environ["REPRO_RESULTS_DIR"] = scratch
    try:
        from repro.eval.sweep import load_spec

        catalogue = load_catalogue()
        specs = [load_spec(name) for name in catalogue["workloads"]["scenario_sweep"]["sweeps"]]
        ops = run_sweeps(specs, catalogue["default_seed"], None)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    points = {op["name"]: op["digest"] for op in ops if op["pass"] == "uncached"}
    if any(op["status"] == "failed" for op in ops):
        print("error: a sweep point failed; nothing recorded", file=sys.stderr)
        return 1
    path = os.path.join(HERE, "scenario_digests.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"schema": 1, "points": points}, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(points)} digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
