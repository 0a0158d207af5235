"""``scripts/golden.py --check``: every campaign report unchanged.

The committed ``GOLDEN.json`` holds, per campaign x plane, the digest of
the report minus ``wall_s`` and its headline counts.  Recording it
needs only the simulator and PyYAML, so it runs in tier-1.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("yaml", reason="campaign YAML needs PyYAML")

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "golden.py"

sys.path.insert(0, str(SCRIPT.parent))
import golden


def test_golden_check_passes() -> None:
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--check"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("entries, 0 differ")


def test_diff_names_the_counts_that_moved() -> None:
    old = {
        "smoke/sim": {
            "sha256": "a",
            "messages": {"QUERY": 93, "SIZE_PROBE": 1},
            "queries": 35,
        },
        "gone/sim": {"sha256": "b"},
    }
    new = {
        "smoke/sim": {
            "sha256": "c",
            "messages": {"QUERY": 93, "SIZE_PROBE": 2},
            "queries": 36,
        },
        "fresh/sim": {"sha256": "d"},
    }
    assert golden.diff(old, new) == [
        "fresh/sim: new",
        "gone/sim: missing",
        "smoke/sim: report changed "
        "(messages.SIZE_PROBE 1 -> 2; queries 35 -> 36)",
    ]
    assert golden.diff(old, old) == []
