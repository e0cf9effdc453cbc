"""Golden pins: every machine's name and cache fingerprint per variant.

Records ``name`` and ``fingerprint(n)`` at n in {1, 8} for every
machine in :func:`~repro.machines.machine_names`, built through
:func:`~repro.machines.make_machine` under each variant axis (sync
policy, mechanism ablation, fault plan) and all three together.  A
fingerprint is a result-cache key component, so any drift here
silently orphans (or, worse, aliases) cached results.  When a change
is meant to move a fingerprint, regenerate with::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_fingerprints.py

and explain the diff in the commit.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.check.checker import ENV_VAR
from repro.machines import machine_names, make_machine
from repro.net.faults import FaultPlan

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "fingerprints.json")

#: Machines that run the software DSM; only they take ablations and
#: enabled fault plans.
SOFTWARE = ("treadmarks", "as", "hs")

NPROCS = (1, 8)


def _variants(machine: str):
    """(label, make_machine keyword arguments) pinned for ``machine``."""
    yield "default", {}
    yield "sync=mcs+tree", {"sync": "mcs+tree"}
    if machine in SOFTWARE:
        faults = FaultPlan(loss_rate=0.02)
        yield "ablate=no-twins", {"ablate": "no-twins"}
        yield "faults=loss0.02", {"faults": faults}
        yield "all", {"sync": "mcs+tree", "ablate": "no-twins",
                      "faults": faults}
    if machine == "hs":
        yield "eager", {"eager_locks": frozenset({1})}


def compute_current():
    pins = {}
    for machine in machine_names():
        for label, kwargs in _variants(machine):
            built = make_machine(machine, **kwargs)
            pins[f"{machine}|{label}"] = {
                "name": built.name,
                "fingerprint": {str(n): built.fingerprint(n)
                                for n in NPROCS},
            }
    return pins


def test_fingerprints_match_golden_file(monkeypatch):
    # An armed checker forks every fingerprint; pin the unchecked ones
    # even on a REPRO_CHECK=1 CI leg.
    monkeypatch.delenv(ENV_VAR, raising=False)
    current = compute_current()
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        with open(GOLDEN_PATH, "w") as fh:
            json.dump(current, fh, indent=2, sort_keys=True)
            fh.write("\n")
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    assert sorted(current) == sorted(golden), "pinned variant set changed"
    for key in sorted(golden):
        assert current[key] == golden[key], f"{key} drifted"
