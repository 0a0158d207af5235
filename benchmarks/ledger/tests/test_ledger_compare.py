"""``run.py compare``: ok / worse / unresolved, and its exit code."""

from __future__ import annotations

import json

import compare
import run


def _document(values_by_metric: dict, comparable: bool = True) -> dict:
    row = {name: run._spread_row(values, "x") for name, values in values_by_metric.items()}
    return {"comparable": comparable, "fingerprint": {}, "rows": {"sim_scale_waves": row}}


def _verdicts(a: dict, b: dict) -> dict:
    return {name: verdict for _, name, verdict, _ in compare.compare_documents(a, b)}


def test_verdicts_follow_the_bounds():
    base = _document(
        {
            "ops_per_s": [1000.0, 1005.0, 995.0],
            "query_p50_ms": [10.0, 10.1, 9.9],
            "query_p95_ms": [20.0, 30.0, 40.0],
            "wrong_answers": [0.0],
            "failed_share": [0.0],
        }
    )
    change = _document(
        {
            "ops_per_s": [700.0, 705.0, 695.0],  # 30 % fewer ops: worse (higher is better)
            "query_p50_ms": [10.2, 10.3, 10.1],  # 2 % slower: inside the bound
            "query_p95_ms": [21.0, 29.0, 41.0],  # spread far wider than the bound
            "wrong_answers": [1.0],
            "failed_share": [0.0],
        }
    )
    assert _verdicts(base, change) == {
        "ops_per_s": "worse",
        "query_p50_ms": "ok",
        "query_p95_ms": "unresolved",
        "wrong_answers": "worse",
        "failed_share": "ok",
    }


def test_wide_spread_resolves_when_every_run_is_better():
    base = _document({"query_p95_ms": [20.0, 30.0, 40.0]})
    change = _document({"query_p95_ms": [10.0, 12.0, 14.0]})
    assert _verdicts(base, change) == {"query_p95_ms": "ok"}


def test_exit_codes(tmp_path, capsys):
    same = _document({"ops_per_s": [1000.0, 1001.0, 999.0]})
    slow = _document({"ops_per_s": [500.0, 501.0, 499.0]})
    smoke = _document({"ops_per_s": [1000.0]}, comparable=False)
    paths = {}
    for name, doc in (("same", same), ("slow", slow), ("smoke", smoke)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    assert run.main(["compare", str(paths["same"]), str(paths["same"])]) == 0
    assert run.main(["compare", str(paths["same"]), str(paths["slow"])]) == 1
    assert run.main(["compare", str(paths["same"]), str(paths["smoke"])]) == 2
    assert "worse" in capsys.readouterr().out
