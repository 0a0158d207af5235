"""``run.py compare A.json B.json``: hold B to A, row by row.

A row is one workload x one end-to-end metric.  The bound of each metric
is the share of A's median by which B's median may be worse, read from
``BENCHMARK.json``.  Verdicts:

* ``worse`` -- B's median is worse than A's by more than the bound *and*
  by more than the run-to-run spread; any ``worse`` makes the exit code 1;
* ``unresolved`` -- the spread of either side is wider than the bound, so
  the row cannot be called unchanged (unless every run of B reads better
  than every run of A);
* ``ok`` -- otherwise.

``failed_share`` and ``wrong_answers`` have bound +0: any increase is
``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

from measure import catalogue

__all__ = ["compare_documents", "main"]

_ZERO_BOUND = ("failed_share", "wrong_answers")


def _verdict(a: dict[str, Any], b: dict[str, Any], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base = abs(a["median"])
    worse_by = sign * (b["median"] - a["median"]) / base if base else 0.0
    spread = max(a["spread"], b["spread"])
    if worse_by > bound and worse_by > spread:
        return "worse"
    if spread > bound:
        if better == "lower":
            all_better = max(b["values"]) < min(a["values"])
        else:
            all_better = min(b["values"]) > max(a["values"])
        if not all_better:
            return "unresolved"
    return "ok"


def compare_documents(a: dict[str, Any], b: dict[str, Any]) -> list[tuple[str, str, str, str]]:
    """(workload, metric, verdict, detail) for every row both documents hold."""
    metrics = {m["name"]: m for m in catalogue()["end_to_end"]}
    rows = []
    for workload, row_a in a["rows"].items():
        row_b = b["rows"].get(workload)
        if row_b is None:
            continue
        for name, cell_a in row_a.items():
            cell_b = row_b.get(name)
            if cell_b is None:
                continue
            if name in _ZERO_BOUND:
                verdict = "worse" if max(cell_b["values"]) > max(cell_a["values"]) else "ok"
            else:
                verdict = _verdict(cell_a, cell_b, metrics[name]["better"], metrics[name]["bound"])
            detail = (
                f"{cell_a['median']:.6g} -> {cell_b['median']:.6g} {cell_a['unit']} "
                f"(spread {max(cell_a['spread'], cell_b['spread']):.1%})"
            )
            rows.append((workload, name, verdict, detail))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write("usage: run.py compare A.json B.json\n")
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    if not (a.get("comparable") and b.get("comparable")):
        sys.stderr.write("compare: a --smoke result is not comparable\n")
        return 2
    for label, doc in (("A", a), ("B", b)):
        print(f"{label}: {json.dumps(doc['fingerprint'])}")
    rows = compare_documents(a, b)
    for workload, name, verdict, detail in rows:
        print(f"{verdict:<11s}{workload:<24s}{name:<16s}{detail}")
    return 1 if any(verdict == "worse" for _, _, verdict, _ in rows) else 0
