"""The oracle: its shortcut is sound, and a planted bug is caught."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import inputs
from conftest import LEDGER_DIR, REPO_ROOT
from oracle import Oracle, spec_stores, truth
from repro.baselines.centralized import centralized_answer


def test_union_shortcut_equals_the_full_fold():
    spec = inputs.generate("fleet_heavy_composite", 5, smoke=True)
    ids = list(range(1000, 1000 + spec["nodes"]))
    stores = spec_stores(spec, ids)
    members = {name: [ids[i] for i in idx] for name, idx in spec["groups"].items()}
    oracle = Oracle()
    for template in spec["templates"]:
        query = oracle.parse(template["text"])
        full = centralized_answer(query, sorted(stores.items()))
        assert truth(query, template["groups"], members, stores) == full


def test_oracle_counts_only_differences():
    oracle = Oracle()
    oracle.check("answer", 3, 3)
    oracle.check("answer", 3.0000000001, 3.0)
    oracle.check("standing", [1, 2], [1, 3])
    assert (oracle.checked, oracle.wrong) == (3, 1)


def test_planted_bug_corrupts_one_answer_and_one_standing_value():
    oracle = Oracle(plant_bug=True)
    for _ in range(3):
        oracle.check("answer", 5, 5)
        oracle.check("standing", 7, 7)
    assert oracle.wrong == 2


@pytest.mark.parametrize("workload", ["sim_churn_mixed", "fleet_warm_dashboard"])
def test_command_exits_non_zero_on_a_planted_bug(workload):
    command = [sys.executable, str(LEDGER_DIR / "run.py"), "--workload", workload]
    done = subprocess.run(
        command + ["--smoke", "--seed", "4", "--plant-bug"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 1, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert "wrong_answers" in done.stdout
