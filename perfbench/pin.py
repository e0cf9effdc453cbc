"""Regenerate ``perfbench/digests.json``, the pinned simulated outputs.

Usage, from the repository root::

    python3 perfbench/pin.py

Runs every timed cell once, unchecked, and the held-out TSP cells at
the default seed, and writes one digest per cell.  Re-pin only when a
change is meant to alter simulated behaviour; a change that should
only make the simulator faster must leave every digest as it is.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.cells import run_pass, warm_memo_tables
    from perfbench.run import DIGESTS
    from perfbench.workloads import (DEFAULT_SEED, WORKLOADS, build_cells,
                                     held_out_cells)

    pins = {"default_seed": DEFAULT_SEED, "cells": {}, "held_out": {}}
    work = Path(tempfile.mkdtemp(dir=ROOT, prefix=".perfbench-pin-"))
    try:
        for name, workload in WORKLOADS.items():
            if workload.checked:
                continue   # checked cells must match the unchecked pins
            for key, cells in (("cells", build_cells(workload)),
                               ("held_out", held_out_cells(workload,
                                                           DEFAULT_SEED))):
                warm_memo_tables(cells)
                outcomes = run_pass(cells, DEFAULT_SEED,
                                    os.path.join(work, f"{name}-{key}"))
                for out in outcomes:
                    if out.error is not None:
                        print(f"{out.label}: {out.error}", file=sys.stderr)
                        return 1
                    pins[key][out.label] = out.digest
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, workload in WORKLOADS.items():
        missing = [c.label for c in workload.cells
                   if c.label not in pins["cells"]]
        if missing:
            print(f"{name}: no unchecked run pins {missing}", file=sys.stderr)
            return 1
    with open(DIGESTS, "w") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(pins['cells'])} + {len(pins['held_out'])} digests "
          f"to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
