"""Seeded, pure input generation: same seed, same bytes."""

from __future__ import annotations

import subprocess
import sys

import pytest

import inputs
from conftest import LEDGER_DIR


def _op_counts(spec: dict) -> dict:
    """The sizes of every list a spec holds (what must not depend on the seed)."""
    counts = {"nodes": spec["nodes"], "load": len(spec["load"])}
    counts["groups"] = sorted(len(members) for members in spec["groups"].values())
    for key in ("templates", "subscriptions", "rounds", "waves", "connections"):
        if key in spec:
            counts[key] = len(spec[key])
    if "connections" in spec:
        counts["ops"] = [len(ops) for ops in spec["connections"]]
    if "waves" in spec:
        counts["wave"] = sorted({len(wave) for wave in spec["waves"]})
    if "rounds" in spec:
        counts["per_round"] = sorted(
            {(len(r["writes"]), len(r["flips"]), len(r["queries"])) for r in spec["rounds"]}
        )
        counts["resubscribes"] = sum(r["resubscribe"] is not None for r in spec["rounds"])
    return counts


@pytest.mark.parametrize("smoke", [True, False])
@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_ops_same_counts(workload, smoke):
    first = inputs.generate(workload, 7, smoke)
    again = inputs.generate(workload, 7, smoke)
    other = inputs.generate(workload, 8, smoke)
    assert inputs.canonical_bytes(first) == inputs.canonical_bytes(again)
    assert inputs.canonical_bytes(first) != inputs.canonical_bytes({**other, "seed": 7})
    assert _op_counts(first) == _op_counts(other)


def test_generation_is_stable_across_processes():
    code = (
        "import hashlib, inputs;"
        "print(hashlib.sha256(inputs.canonical_bytes("
        "inputs.generate('sim_churn_mixed', 7, True))).hexdigest())"
    )
    digests = {
        subprocess.run(
            [sys.executable, "-c", code],
            cwd=LEDGER_DIR,
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONHASHSEED": str(hash_seed)},
        ).stdout
        for hash_seed in (1, 2)
    }
    assert len(digests) == 1


def test_inputs_module_never_imports_the_program():
    code = (
        "import sys, inputs; inputs.generate('fleet_heavy_composite', 1, True); "
        "print(any(name == 'repro' or name.startswith('repro.') for name in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=LEDGER_DIR, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_heavy_texts_are_distinct_and_exceed_the_plan_cache():
    spec = inputs.generate("fleet_heavy_composite", 3)
    texts = [t["text"] for t in spec["templates"]]
    assert len(set(texts)) == len(texts)
    # FrontendConfig.plan_cache_size defaults to 1024 entries per front-end.
    assert all(len(set(ops)) > 1024 for ops in spec["connections"])


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        inputs.generate("nope", 1)
