"""The ledger: one command, four workloads, end-to-end and per-layer numbers.

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/ledger/run.py [--traced] [--repeat K] [--smoke] [--out FILE]
    python3 benchmarks/ledger/run.py compare A.json B.json

With ``--workload`` (and ``--repeat 1``) the run happens in this process
and the last line of standard output is the driver's result object:
``{"correct", "attempted", "failed", "metrics"}`` -- every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.
Without ``--workload``, or with ``--repeat K``, each run is a fresh child
process (so peak RSS and collector state never leak between runs) and the
medians and quartiles are reported and written to ``--out``.

See README.md in this directory for the workloads, the metrics, and how
each layer's numbers are expected to move the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Optional

import compare
import inputs
from measure import (
    LEDGER_DIR,
    REPO_ROOT,
    catalogue,
    ensure_program_importable,
    fingerprint,
    quartile_spread,
)
from spans import Tracer

#: the seed of every number quoted in README.md.
DEFAULT_SEED = 12
#: set-ups per untraced run; ``setup_s`` is their median.
_SETUPS = 3
#: wall cap on one child run (the driver allows 180 s).
_CHILD_TIMEOUT = 170.0


def run_one(
    workload: str,
    seed: int,
    seconds: float,
    traced: bool,
    smoke: bool,
    plant_bug: bool,
    out: Optional[Path],
) -> dict[str, Any]:
    """One run of one workload in this process."""
    ensure_program_importable()
    import fleet_plane
    import layers
    import sim_plane
    from oracle import Oracle

    spec = inputs.generate(workload, seed, smoke)
    tracer = Tracer(enabled=traced)
    oracle = Oracle(plant_bug)
    setups = 1 if (traced or smoke) else _SETUPS
    runner = {**sim_plane.RUNNERS, **fleet_plane.RUNNERS}[workload]
    result = runner(spec, seconds, setups, tracer, oracle)
    cluster = result.pop("cluster")
    if traced and cluster is not None:  # the fleet workloads probe inside their pass
        texts = layers.inputs_of(spec)
        ops = [(0, text) for text in texts]
        result["per_layer"].update(
            layers.probe_stateless(texts, spec["nodes"], spec["overlay_seed"])
        )
        result["per_layer"].update(layers.probe_cluster(cluster, ops))
        result["per_layer"]["frontend.inproc_query_us"] = layers.inproc_query_us(
            cluster, ops[:400]
        )
    if traced:
        target = out or REPO_ROOT / "results" / "ledger" / f"{workload}.json"
        tracer.write(target.with_suffix(".trace.json"))
    result.update(
        workload=workload,
        seed=seed,
        seconds=seconds,
        traced=traced,
        smoke=smoke,
        wrong_answers=oracle.wrong,
        answers_checked=oracle.checked,
    )
    return result


def _metric_lines(result: dict[str, Any], spec: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """The result's metrics in BENCHMARK.json's order, with their units.
    A per-layer metric a workload does not enter reads 0."""
    section = "per_layer" if result["traced"] else "end_to_end"
    values = result[section]
    return {
        metric["name"]: {"value": float(values.get(metric["name"], 0.0)), "unit": metric["unit"]}
        for metric in spec[section]
    }


def driver_object(result: dict[str, Any], spec: dict[str, Any]) -> dict[str, Any]:
    """The one JSON object the driver reads off the last line."""
    return {
        "correct": result["wrong_answers"] == 0 and result["answers_checked"] > 0,
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": _metric_lines(result, spec),
    }


def _child(args: argparse.Namespace, workload: str, traced: bool, out: Optional[Path]) -> dict:
    """Run one workload in a fresh process; returns its ``--out`` document."""
    command = [
        sys.executable,
        str(LEDGER_DIR / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        "1" if traced else "0",
        "--emit-result",
    ]
    if args.smoke:
        command.append("--smoke")
    if args.plant_bug:
        command.append("--plant-bug")
    if out is not None:
        command += ["--out", str(out)]
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=_CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        # A hang becomes a failed run, not a hung benchmark.
        return {
            "workload": workload,
            "traced": traced,
            "attempted": 1,
            "failed": 1,
            "wrong_answers": 0,
            "answers_checked": 0,
            "end_to_end": {},
            "per_layer": {},
        }
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: child printed nothing\n{done.stderr}")
    return json.loads(lines[-1])


def summarise(runs: list[dict[str, Any]], spec: dict[str, Any], args: argparse.Namespace) -> dict:
    """Fold single-run results into the ``--out`` document ``compare`` reads."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    rows: dict[str, dict[str, Any]] = {}
    per_layer: dict[str, dict[str, Any]] = {}
    samples: dict[str, list[int]] = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        untraced = [r for r in runs if r["workload"] == workload and not r["traced"]]
        row: dict[str, Any] = {}
        for name in (m["name"] for m in spec["end_to_end"]):
            values = [r["end_to_end"][name] for r in untraced if name in r["end_to_end"]]
            if values:
                row[name] = _spread_row(values, units[name])
        mine = [r for r in runs if r["workload"] == workload]
        shares = [r["failed"] / max(1, r["attempted"]) for r in mine]
        row["failed_share"] = _spread_row(shares, "ratio")
        row["wrong_answers"] = _spread_row([float(r["wrong_answers"]) for r in mine], "count")
        rows[workload] = row
        samples[workload] = [r["samples"] for r in mine if "samples" in r]
        for run in mine:
            if run["traced"]:
                per_layer[workload] = {
                    name: {"value": value, "unit": units.get(name, "")}
                    for name, value in sorted(run["per_layer"].items())
                }
    return {
        "schema": 1,
        "comparable": not args.smoke,
        "fingerprint": fingerprint(),
        "seed": args.seed,
        "seconds": args.seconds,
        "rows": rows,
        "latency_samples": samples,
        "per_layer": per_layer,
    }


def _spread_row(values: list[float], unit: str) -> dict[str, Any]:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {
        "unit": unit,
        "values": values,
        "median": statistics.median(values),
        "q1": quartiles[0],
        "q3": quartiles[2],
        "spread": quartile_spread(values),
    }


def print_report(document: dict[str, Any]) -> None:
    note = "" if document["comparable"] else "  [smoke sizes: NOT comparable]"
    for workload, row in document["rows"].items():
        samples = document["latency_samples"][workload]
        print(f"== {workload}{note}  (latency samples per run: {samples})")
        for name, cell in row.items():
            runs = len(cell["values"])
            band = f"  [q1 {cell['q1']:.6g}  q3 {cell['q3']:.6g}  n={runs}]" if runs > 1 else ""
            print(f"  {name:<40s}{cell['median']:>16.6g} {cell['unit']}{band}")
        for name, cell in document["per_layer"].get(workload, {}).items():
            print(f"  {name:<40s}{cell['value']:>16.6g} {cell['unit']}")


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, not comparable")
    parser.add_argument("--out", type=Path, help="write the result document here")
    parser.add_argument(
        "--plant-bug", action="store_true", help="oracle self-test: corrupt one answer"
    )
    parser.add_argument("--emit-result", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.traced = args.traced or bool(args.trace)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    return args


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    args = parse_args(argv)
    ensure_program_importable()
    spec = catalogue()
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])

    if args.workload and args.repeat == 1:
        result = run_one(
            args.workload,
            args.seed,
            args.seconds,
            args.traced,
            args.smoke,
            args.plant_bug,
            args.out,
        )
        if args.emit_result:  # we are a child of the multi-run mode
            print(json.dumps(result))
            return 0
        document = summarise([result], spec, args)
        print_report(document)
        if args.out is not None:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(json.dumps(document, indent=1))
        print(json.dumps(driver_object(result, spec)))
        return 1 if result["wrong_answers"] else 0

    workloads = [args.workload] if args.workload else list(inputs.WORKLOADS)
    runs = []
    for workload in workloads:
        for _ in range(args.repeat):
            runs.append(_child(args, workload, False, None))
        if args.traced:
            trace_out = args.out.with_suffix(f".{workload}.json") if args.out else None
            runs.append(_child(args, workload, True, trace_out))
    document = summarise(runs, spec, args)
    print_report(document)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document, indent=1))
    wrong = sum(run["wrong_answers"] for run in runs)
    unchecked = [run["workload"] for run in runs if not run["answers_checked"]]
    if wrong or unchecked:
        print(f"FAILED: wrong_answers={wrong}, runs with no checked answer: {unchecked}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
