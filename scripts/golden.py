#!/usr/bin/env python
"""Golden campaign outputs: one committed file, one command.

Every campaign runs on every plane it supports (the sim plane refuses
campaigns that script link faults), in-process, at its own seed.  For
each campaign x plane ``GOLDEN.json`` records the sha256 of the report
minus ``wall_s`` (the one wall-clock field) and the headline counts --
messages by type, queries, failed queries, answers checked, invariant
violations -- so a mismatch says *what* moved, not only that something
did.

Usage::

    PYTHONPATH=src python scripts/golden.py --check   # exit 1 on any change
    PYTHONPATH=src python scripts/golden.py --write   # re-record GOLDEN.json

A change that moves an entry on purpose re-records the file and names
each changed entry in CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.campaigns import load_campaign, run_campaign

GOLDEN = REPO / "GOLDEN.json"
CAMPAIGNS = REPO / "campaigns"


def campaign_planes() -> list[tuple[Path, str]]:
    """Every committed campaign on every plane it runs on."""
    pairs = []
    for path in sorted(CAMPAIGNS.glob("*.yaml")):
        spec = load_campaign(path)
        faults = any(phase.faults for phase in spec.phases)
        for plane in ("loopback",) if faults else ("sim", "loopback"):
            pairs.append((path, plane))
    return pairs


def entry(report: dict) -> dict:
    """The digest and headline counts of one campaign report."""
    body = {key: value for key, value in report.items() if key != "wall_s"}
    messages: Counter = Counter()
    for phase in report["phases"]:
        messages.update(phase["messages"]["by_type"])
    invariants = report["invariants"]
    return {
        "sha256": hashlib.sha256(
            json.dumps(body, sort_keys=True).encode("utf-8")
        ).hexdigest(),
        "messages": dict(sorted(messages.items())),
        "queries": report["totals"]["queries"],
        "failed": report["totals"]["failed_queries"],
        "checked": invariants["checked"],
        "violations": invariants["violations"],
    }


def compute() -> dict[str, dict]:
    return {
        f"{path.stem}/{plane}": entry(run_campaign(load_campaign(path), plane=plane))
        for path, plane in campaign_planes()
    }


def _flat(counts: dict) -> dict:
    """``{"messages": {"QUERY": 3}}`` -> ``{"messages.QUERY": 3}``."""
    flat = {}
    for key, value in counts.items():
        if isinstance(value, dict):
            flat.update({f"{key}.{sub}": count for sub, count in value.items()})
        else:
            flat[key] = value
    return flat


def diff(recorded: dict[str, dict], current: dict[str, dict]) -> list[str]:
    """One line per entry that is missing, new, or changed (naming the
    headline counts that moved)."""
    lines = []
    for name in sorted(recorded.keys() | current.keys()):
        old, new = recorded.get(name), current.get(name)
        if old == new:
            continue
        if old is None or new is None:
            lines.append(f"{name}: {'new' if old is None else 'missing'}")
            continue
        old, new = _flat(old), _flat(new)
        moved = [
            f"{key} {old.get(key)} -> {new.get(key)}"
            for key in sorted(old.keys() | new.keys())
            if key != "sha256" and old.get(key) != new.get(key)
        ]
        lines.append(f"{name}: report changed" + (f" ({'; '.join(moved)})" if moved else ""))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="recompute and diff")
    mode.add_argument("--write", action="store_true", help="re-record the file")
    args = parser.parse_args(argv)
    current = compute()
    if args.write:
        GOLDEN.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(current)} entries to {GOLDEN}")
        return 0
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    lines = diff(recorded, current)
    for line in lines:
        print(line)
    print(f"{len(current)} entries, {len(lines)} differ")
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
