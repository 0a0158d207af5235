"""Same seed, same wire counts on the simulated plane; spans add up."""

from __future__ import annotations

import pytest

import run
from spans import Tracer


def _counts(workload: str, seed: int, seconds: float) -> dict:
    result = run.run_one(workload, seed, seconds, True, True, False, None)
    assert result["wrong_answers"] == 0 and result["failed"] == 0
    keys = ["tree.read_msgs_per_query", "standing.msgs_per_write", "tree.msgs_per_exec"]
    keys += [name for name in result["per_layer"] if name.startswith("network.msgs.")]
    counts = {key: result["per_layer"].get(key, 0.0) for key in keys}
    counts["msgs_per_query"] = result["end_to_end"]["msgs_per_query"]
    return counts


@pytest.mark.parametrize("workload", ["sim_scale_waves", "sim_churn_mixed"])
def test_wire_counts_repeat_exactly_whatever_the_run_length(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "REPO_ROOT", tmp_path)  # span files go to tmp
    first = _counts(workload, 9, 0.2)
    again = _counts(workload, 9, 0.6)  # a longer run measures more, counts the same pass
    other = _counts(workload, 10, 0.2)
    assert first == again
    assert first != other
    assert first["msgs_per_query"] > 0


def test_self_time_is_span_minus_children():
    tracer = Tracer(enabled=True)
    with tracer.span("op", trace=1):
        with tracer.span("child"):
            pass
        with tracer.span("child"):
            pass
    op, *children = tracer.spans
    assert [c["parent"] for c in children] == [0, 0] and {c["trace"] for c in children} == {1}
    covered = sum(c["end"] - c["start"] for c in children)
    assert tracer.self_times()["op"] == pytest.approx(op["end"] - op["start"] - covered)
    assert tracer.overhead_s > 0


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("op"):
        pass
    assert tracer.spans == [] and tracer.overhead_s == 0.0
