"""Small measurement helpers shared by the runners: percentiles, block
medians, the machine fingerprint, and the metric catalogue read from
``BENCHMARK.json`` (the one place names, units and bounds are written)."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Sequence

__all__ = [
    "LEDGER_DIR",
    "REPO_ROOT",
    "block_percentile",
    "catalogue",
    "ensure_program_importable",
    "fingerprint",
    "peak_rss_mb",
    "percentile",
    "quartile_spread",
]

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent.parent

#: blocks a run's latency samples are cut into; each metric is the median
#: of the per-block percentiles, which a single scheduler stall cannot move.
_BLOCKS = 5


def ensure_program_importable() -> None:
    """Put the program (``src/repro``) on ``sys.path``; exit with code 2 when
    the checkout holds the benchmark but not the program it measures."""
    src = REPO_ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"ledger: no program to measure: {src / 'repro'} is missing\n")
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1]) of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def block_percentile(samples: Sequence[float], fraction: float) -> float:
    """Median over consecutive blocks of each block's percentile.

    Falls back to the plain percentile when a block would hold fewer than
    ten samples beyond the percentile (so the statistic stays defined).
    """
    per_block = len(samples) // _BLOCKS
    if per_block * (1.0 - fraction) < 10:
        return percentile(samples, fraction)
    blocks = [samples[i * per_block : (i + 1) * per_block] for i in range(_BLOCKS)]
    return statistics.median(percentile(block, fraction) for block in blocks)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the spread the driver and ``compare`` gate on."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def catalogue() -> dict[str, Any]:
    """``BENCHMARK.json``: workloads, metric names, units, directions, bounds."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def fingerprint() -> dict[str, Any]:
    """Where a result file was measured (recorded in every ``--out`` file)."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
        "git_sha": sha,
    }
