"""Wall-clock perf guard: time the headline benchmarks, track a trajectory.

Runs the six timing-sensitive benchmarks -- Figure 17's concurrent
front-end throughput, the 10k-node scale run, the 100k-node capstone
run, a scenario campaign (flash crowd at full scale, the smoke campaign
under ``MOARA_BENCH_TINY=1``), the link-chaos campaign on the loopback
plane, and the standing-query churn run -- under plain
``time.perf_counter``, writes the numbers to ``BENCH_scale.json`` at the repo root, and
compares against the committed baseline.  The campaign rows double as
correctness gates: any invariant violation exits non-zero regardless
of timing.  So does the scale pair: messages per query *per group
member* at 100k nodes more than 1.15x the 10k value is a hard failure
(both rows size their groups at N / 40, so that ratio -- not raw
``msgs_per_query`` -- is what must not grow with the overlay).

The *comparison* is **non-blocking**: a wall-clock regression worse than
``--threshold`` (default 25%) prints a GitHub Actions ``::warning::``
line and the script still exits 0.  Wall clock on shared CI runners is
noisy; the guard exists to make regressions *visible* in the PR log and
the artifact trajectory, not to flake builds.  Numbers recorded under
``MOARA_BENCH_TINY=1`` go to a separate ``BENCH_scale_tiny.json`` (and
are compared only against it), so a smoke run can never overwrite the
committed full-scale baseline.

The *baseline* itself is load-bearing: a full-scale run whose committed
``BENCH_scale.json`` is missing or corrupt exits **non-zero** instead of
silently reseeding the trajectory (a reseed would hide any regression by
making the regressed numbers the new normal).  Re-creating the baseline
is an explicit act: pass ``--reseed``.  A missing *tiny* baseline is
normal (it is a CI artifact, not a committed file) and just seeds one.

Usage::

    PYTHONPATH=src python scripts/perf_guard.py            # full scale
    MOARA_BENCH_TINY=1 PYTHONPATH=src python scripts/perf_guard.py  # CI smoke
    PYTHONPATH=src python scripts/perf_guard.py --no-write # measure only
    PYTHONPATH=src python scripts/perf_guard.py --reseed   # new baseline
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
#: full-scale trajectory (committed; the regression baseline).
BENCH_FILE = REPO_ROOT / "BENCH_scale.json"
#: tiny-smoke trajectory (CI artifact only; never the committed baseline,
#: so a smoke run cannot clobber the full-scale numbers).
BENCH_FILE_TINY = REPO_ROOT / "BENCH_scale_tiny.json"

sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
sys.path.insert(0, str(REPO_ROOT / "src"))


def _time_fig17() -> dict:
    from bench_fig17_throughput import _experiment

    started = time.perf_counter()
    rows = _experiment()
    wall = time.perf_counter() - started
    return {
        "wall_s": round(wall, 3),
        "uncached_msgs_per_query": round(
            rows["uncached"]["total_msgs_per_query"], 2
        ),
        "cached_msgs_per_query": round(
            rows["cached"]["total_msgs_per_query"], 2
        ),
        "cached_qps_sim": round(rows["cached"]["qps"], 1),
    }


def _scale_row(run) -> dict:
    started = time.perf_counter()
    row = run()
    wall = time.perf_counter() - started
    return {
        "wall_s": round(wall, 3),
        "build_s": round(row["build_s"], 3),
        "query_phase_s": round(row["wall_s"], 3),
        "nodes": int(row["nodes"]),
        "queries": int(row["queries"]),
        "msgs_per_query": round(row["msgs_per_query"], 2),
        "msgs_per_member": round(row["msgs_per_member"], 4),
        "queries_per_wall_s": round(row["queries_per_wall_s"], 1),
        "events_per_s": round(row["events_per_s"], 1),
    }


def _time_scale() -> dict:
    from bench_scale import run_scale

    return _scale_row(run_scale)


def _time_scale_100k() -> dict:
    from bench_scale import run_scale_100k

    return _scale_row(run_scale_100k)


def _time_campaign() -> dict:
    """Time a scenario campaign end-to-end (driver + oracle included).

    Full scale runs the flash-crowd campaign (the heaviest query volume
    of the shipped set); tiny mode runs the CI smoke campaign.  Unlike
    the wall-clock numbers, the violation count is a *correctness*
    signal: ``main`` turns a non-zero count into a hard failure.
    """
    from repro.campaigns import load_campaign, run_campaign

    tiny = os.environ.get("MOARA_BENCH_TINY", "") not in ("", "0")
    name = "smoke" if tiny else "flash_crowd"
    spec = load_campaign(REPO_ROOT / "campaigns" / f"{name}.yaml")
    started = time.perf_counter()
    report = run_campaign(spec, plane="sim")
    wall = time.perf_counter() - started
    return {
        "wall_s": round(wall, 3),
        "campaign": spec.name,
        "queries": report["totals"]["queries"],
        "messages": report["totals"]["messages"],
        "violations": report["totals"]["violations"],
        "p95_latency_sim": max(
            phase["latency"]["p95"] for phase in report["phases"]
        ),
    }


def _time_chaos() -> dict:
    """Run the link-chaos campaign on the loopback plane (the only
    plane with transport links to fault) at both scales — it is small.

    The wall clock is trajectory data; the violation count is the gate:
    under scripted link chaos the plane may answer slowly or return
    explicit failures, but a wrong answer or leaked in-flight state is
    an oracle violation and ``main`` turns it into a hard failure.
    """
    from repro.campaigns import load_campaign, run_campaign

    spec = load_campaign(REPO_ROOT / "campaigns" / "chaos_links.yaml")
    started = time.perf_counter()
    report = run_campaign(spec, plane="loopback")
    wall = time.perf_counter() - started
    return {
        "wall_s": round(wall, 3),
        "campaign": spec.name,
        "queries": report["totals"]["queries"],
        "failed_queries": report["totals"]["failed_queries"],
        "violations": report["totals"]["violations"],
    }


def _time_standing_churn() -> dict:
    """Time the standing-vs-repolling churn run (bench_standing_churn).

    The wall clock and the message ratio are trajectory data; the
    differential mismatch count and the standing-cheaper-than-polling
    claim are *correctness* signals ``main`` turns into hard failures.
    """
    from bench_standing_churn import run_standing_churn

    started = time.perf_counter()
    row = run_standing_churn()
    wall = time.perf_counter() - started
    return {
        "wall_s": round(wall, 3),
        "nodes": row["nodes"],
        "rounds": row["rounds"],
        "standing_msgs": row["standing_msgs"],
        "polling_msgs": row["polling_msgs"],
        "ratio": round(row["ratio"], 4),
        "mismatches": row["mismatches"],
        "install_msgs": row["install_msgs"],
        "install_deltas": row["install_deltas"],
    }


#: a query costs what its group costs: the 100k row's messages per query
#: per group member may exceed the 10k row's by at most this factor.
MEMBER_COST_GROWTH = 1.15


class BaselineError(RuntimeError):
    """The committed baseline is unusable and reseeding was not requested."""


def resolve_baseline(path: Path, tiny: bool, reseed: bool) -> dict | None:
    """Load the regression baseline, or None when seeding one is allowed.

    Full-scale runs *require* a healthy committed baseline: silently
    reseeding on a missing or corrupt ``BENCH_scale.json`` would launder
    a regression into the new normal, so that raises
    :class:`BaselineError` unless ``--reseed`` was passed.  A missing
    tiny baseline is expected (CI artifact, never committed); a corrupt
    file is an error at either scale.
    """
    if not path.exists():
        if tiny or reseed:
            return None
        raise BaselineError(
            f"baseline {path.name} is missing; refusing to silently "
            f"reseed the trajectory (rerun with --reseed to create one)"
        )
    try:
        data = json.loads(path.read_text())
    except (json.JSONDecodeError, OSError) as exc:
        if reseed:
            return None
        raise BaselineError(
            f"baseline {path.name} is corrupt ({exc}); fix or remove it, "
            f"or rerun with --reseed"
        ) from exc
    if not isinstance(data, dict) or "benchmarks" not in data:
        if reseed:
            return None
        raise BaselineError(
            f"baseline {path.name} is corrupt (not a benchmark record); "
            f"fix or remove it, or rerun with --reseed"
        )
    return data


def _compare(name: str, new: dict, old: dict, threshold: float) -> list[str]:
    warnings = []
    old_wall = old.get("wall_s")
    new_wall = new.get("wall_s")
    if old_wall and new_wall:
        ratio = new_wall / old_wall
        if ratio > 1 + threshold:
            warnings.append(
                f"::warning title=perf regression::{name} wall-clock "
                f"{new_wall:.2f}s is {ratio - 1:.0%} slower than the "
                f"committed baseline {old_wall:.2f}s "
                f"(threshold {threshold:.0%})"
            )
    # Throughput axis: wall_s covers build + warm-up + measurement, so a
    # kernel regression can hide inside build noise.  events_per_s is the
    # steady-state-only number (the tentpole metric), guarded directly.
    old_eps = old.get("events_per_s")
    new_eps = new.get("events_per_s")
    if old_eps and new_eps and new_eps < old_eps * (1 - threshold):
        warnings.append(
            f"::warning title=perf regression::{name} throughput "
            f"{new_eps:,.0f} events/s is {1 - new_eps / old_eps:.0%} below "
            f"the committed baseline {old_eps:,.0f} events/s "
            f"(threshold {threshold:.0%})"
        )
    return warnings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="warn when wall-clock regresses more than this fraction",
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="measure and compare only; leave BENCH_scale.json untouched",
    )
    parser.add_argument(
        "--reseed",
        action="store_true",
        help="allow creating a fresh baseline when the committed one is "
        "missing or corrupt (otherwise that exits non-zero)",
    )
    args = parser.parse_args()

    tiny = os.environ.get("MOARA_BENCH_TINY", "") not in ("", "0")
    bench_file = BENCH_FILE_TINY if tiny else BENCH_FILE
    # Resolve the baseline *before* spending minutes on benchmarks, so a
    # broken trajectory file fails fast.
    try:
        baseline = resolve_baseline(bench_file, tiny, args.reseed)
    except BaselineError as error:
        print(f"::error title=perf baseline::{error}")
        return 2
    print(f"perf_guard: timing benchmarks ({'tiny' if tiny else 'full'} scale)")

    fig17 = _time_fig17()
    print(f"  fig17_throughput: {fig17['wall_s']:.2f}s wall, "
          f"{fig17['cached_msgs_per_query']:.1f} msgs/query cached")
    scale = _time_scale()
    print(f"  scale: {scale['wall_s']:.2f}s wall "
          f"({scale['nodes']} nodes, {scale['queries']} queries, "
          f"{scale['msgs_per_query']:.1f} msgs/query = "
          f"{scale['msgs_per_member']:.3f} per group member, "
          f"{scale['events_per_s']:,.0f} events/s)")
    scale_100k = _time_scale_100k()
    print(f"  scale_100k: {scale_100k['wall_s']:.2f}s wall "
          f"({scale_100k['nodes']} nodes, {scale_100k['queries']} queries, "
          f"{scale_100k['msgs_per_query']:.1f} msgs/query = "
          f"{scale_100k['msgs_per_member']:.3f} per group member, "
          f"{scale_100k['events_per_s']:,.0f} events/s)")
    campaign = _time_campaign()
    print(f"  campaign[{campaign['campaign']}]: "
          f"{campaign['wall_s']:.2f}s wall ({campaign['queries']} queries, "
          f"{campaign['violations']} violations)")
    chaos = _time_chaos()
    print(f"  chaos[{chaos['campaign']}]: "
          f"{chaos['wall_s']:.2f}s wall ({chaos['queries']} queries, "
          f"{chaos['failed_queries']} explicit failures, "
          f"{chaos['violations']} violations)")
    standing = _time_standing_churn()
    print(f"  standing_churn: {standing['wall_s']:.2f}s wall "
          f"({standing['standing_msgs']} standing vs "
          f"{standing['polling_msgs']} polling msgs, "
          f"ratio {standing['ratio']:.3f}, "
          f"{standing['mismatches']} mismatches; install "
          f"{standing['install_msgs']} msgs of which "
          f"{standing['install_deltas']} deltas)")

    record = {
        "schema": 1,
        "tiny": tiny,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "benchmarks": {
            "fig17_throughput": fig17,
            "scale": scale,
            "scale_100k": scale_100k,
            "campaign": campaign,
            "chaos": chaos,
            "standing_churn": standing,
        },
    }

    warnings: list[str] = []
    compared = False
    if baseline is not None and baseline.get("tiny", False) == tiny:
        compared = True
        for name, new_row in record["benchmarks"].items():
            old_row = baseline.get("benchmarks", {}).get(name, {})
            warnings.extend(_compare(name, new_row, old_row, args.threshold))
    elif baseline is not None:
        # Only possible if someone hand-copied a file across scales.
        print("  baseline scale differs (tiny vs full); skipping comparison")

    for line in warnings:
        print(line)
    if compared and not warnings:
        print(f"  within {args.threshold:.0%} of the committed baseline")

    if not args.no_write:
        bench_file.write_text(json.dumps(record, indent=2) + "\n")
        print(f"  wrote {bench_file.relative_to(REPO_ROOT)}")
    failed = False
    if (
        scale_100k["msgs_per_member"]
        > MEMBER_COST_GROWTH * scale["msgs_per_member"]
    ):
        print(
            f"::error title=scale cost::scale_100k spends "
            f"{scale_100k['msgs_per_member']:.4f} msgs/query per group "
            f"member, more than {MEMBER_COST_GROWTH}x the scale row's "
            f"{scale['msgs_per_member']:.4f}: per-query cost no longer "
            f"follows group size"
        )
        failed = True
    for row in (campaign, chaos):
        if row["violations"]:
            # Wall-clock drift only warns; a broken invariant is a bug.
            print(
                f"::error title=campaign invariants::campaign "
                f"{row['campaign']!r} finished with "
                f"{row['violations']} invariant violation(s)"
            )
            failed = True
    if standing["mismatches"]:
        print(
            f"::error title=standing differential::standing churn run "
            f"finished with {standing['mismatches']} folded-vs-centralized "
            f"mismatch(es)"
        )
        failed = True
    if standing["standing_msgs"] >= standing["polling_msgs"]:
        print(
            f"::error title=standing efficiency::standing delta traffic "
            f"({standing['standing_msgs']} msgs) is not below naive "
            f"re-polling ({standing['polling_msgs']} msgs)"
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
