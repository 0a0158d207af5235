"""Make the ledger's modules and the program importable for its own tests.

Run with ``python -m pytest benchmarks/ledger/tests -q`` from the repo root.
"""

from __future__ import annotations

import sys
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = LEDGER_DIR.parent.parent

for path in (REPO_ROOT / "src", LEDGER_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
