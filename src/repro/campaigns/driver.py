"""The campaign runner: a declarative scenario, executed and checked.

:class:`CampaignRunner` turns a validated :class:`CampaignSpec` into a
deterministic, fully seeded execution against a
:class:`~repro.campaigns.planes.CampaignPlane`:

1. **Build** the cluster state the campaign declares: rack labels,
   group membership (sampled with the campaign seed), value attributes.
2. **Compile** each phase into a single sorted event timeline --
   failures, standing-query registrations/cancels (``standing:``),
   churn-wave firings, and query *batches* (arrivals from
   each mix's Poisson/uniform process, bucketed into ``batch_window``
   buckets so co-arriving queries enter the plane as one concurrent
   burst, which is what exercises probe dedup and sub-query sharing).
3. **Execute** the timeline against the plane, advancing simulated
   time between events.  At equal timestamps failures apply before
   churn before batches, so a batch always sees the world the scenario
   said it would.
4. **Check** continuously: every batch and every phase boundary runs
   through the :class:`~repro.campaigns.oracle.InvariantChecker`.

The runner owns the timeline (no recurring engine-scheduled callbacks),
so the plane's ``run_until_idle`` always terminates and a campaign's
wall-clock is bounded by its declared phase durations.

Crash semantics: the runner deliberately does *not* quiesce after a
crash with a positive ``detection_delay`` -- queries issued inside the
undetected window hit dead trees and must resolve via child timeouts,
which is exactly the behaviour worth testing.  Churn waves, by
contrast, are followed by ``settle`` seconds plus a quiesce (when no
undetected crash is outstanding), restoring a membership-stable state
the differential oracle can check against.
"""

from __future__ import annotations

import random
import time
from typing import Any, Optional

from repro.core.frontend import FrontendConfig
from repro.core.moara_node import MoaraConfig

from repro.campaigns.oracle import InvariantChecker
from repro.campaigns.planes import CampaignPlane, build_plane
from repro.campaigns.report import final_report, phase_report
from repro.campaigns.schema import CampaignSpec, PhaseSpec, QueryMixSpec

__all__ = ["CampaignRunner", "run_campaign"]

#: timeline event priorities at equal timestamps (standing
#: registrations/cancels land after churn but before query batches, so
#: a batch always runs alongside the standing set the scenario declared)
_FAILURE, _CHURN, _STANDING, _BATCH = 0, 1, 2, 3


class CampaignRunner:
    """Executes one campaign on one plane; produces the JSON report."""

    def __init__(self, spec: CampaignSpec, plane: CampaignPlane) -> None:
        self.spec = spec
        self.plane = plane
        self.rng = random.Random(spec.seed)
        self.checker = InvariantChecker(spec.oracle, plane)
        #: True when the live membership matches what a centralized scan
        #: would see (no churn applied since the last full quiesce).
        self._stable = True
        #: latest simulated time at which an applied crash becomes
        #: detected; quiescing before then would collapse the undetected
        #: window, so the runner refuses to.
        self._detection_horizon = 0.0
        self._phase_reports: list[dict] = []
        #: standing-query handles, in registration order; entries with
        #: no scripted ``cancel_at`` live until the campaign's final
        #: teardown.  Keyed lookups for cancels go via (phase, index).
        self._standing_handles: list = []
        self._standing_by_key: dict[tuple[str, int], Any] = {}
        if any(phase.faults for phase in spec.phases):
            if not plane.supports_link_faults:
                raise ValueError(
                    f"campaign {spec.name!r} scripts link faults but the "
                    f"{plane.name!r} plane has no transport links; run it "
                    f"with --plane loopback"
                )

    # ------------------------------------------------------------------
    # initial state
    # ------------------------------------------------------------------

    def setup(self) -> None:
        """Build racks, groups, and attribute populations, then settle."""
        spec, plane, rng = self.spec, self.plane, self.rng
        node_ids = plane.node_ids
        if spec.racks > 0:
            for index, node_id in enumerate(node_ids):
                plane.set_attribute(node_id, "rack", f"R{index % spec.racks}")
        for group in spec.groups:
            size = (
                group.size
                if group.size is not None
                else max(1, round(group.fraction * len(node_ids)))
            )
            size = min(size, len(node_ids))
            members = rng.sample(node_ids, size)
            plane.set_group(group.attr, members)
        for attribute in spec.attributes:
            for node_id in node_ids:
                if attribute.distribution == "constant":
                    value = attribute.value
                elif attribute.distribution == "uniform":
                    value = rng.uniform(attribute.low, attribute.high)
                else:  # choice
                    value = rng.choice(list(attribute.choices))
                plane.set_attribute(node_id, attribute.name, value)
        plane.quiesce()

    # ------------------------------------------------------------------
    # timeline compilation
    # ------------------------------------------------------------------

    def _arrival_times(self, mix: QueryMixSpec, duration: float) -> list[float]:
        """Phase-relative arrival instants for one query mix."""
        start = min(mix.start, duration)
        stop = duration if mix.stop is None else min(mix.stop, duration)
        if stop <= start:
            return []
        times: list[float] = []
        if mix.count is not None:
            if mix.arrival == "poisson":
                times = sorted(
                    self.rng.uniform(start, stop) for _ in range(mix.count)
                )
            else:  # uniform: evenly spaced, centred in their slots
                stride = (stop - start) / mix.count
                times = [start + (i + 0.5) * stride for i in range(mix.count)]
        else:
            t = start
            if mix.arrival == "poisson":
                while True:
                    t += self.rng.expovariate(mix.rate)
                    if t >= stop:
                        break
                    times.append(t)
            else:
                stride = 1.0 / mix.rate
                t = start + stride / 2
                while t < stop:
                    times.append(t)
                    t += stride
        return times

    def _compile_phase(self, phase: PhaseSpec) -> list[tuple]:
        """One sorted event list: ``(when, priority, seq, kind, payload)``."""
        events: list[tuple] = []
        seq = 0
        for failure in phase.failures:
            events.append((failure.at, _FAILURE, seq, "failure", failure))
            seq += 1
        for index, sq in enumerate(phase.standing):
            events.append(
                (sq.at, _STANDING, seq, "standing", ("register", index, sq))
            )
            seq += 1
            if sq.cancel_at is not None:
                events.append(
                    (
                        sq.cancel_at,
                        _STANDING,
                        seq,
                        "standing",
                        ("cancel", index, sq),
                    )
                )
                seq += 1
        # Link faults apply at failure priority: a batch firing at the
        # same instant must see the degraded wire, not race past it.
        for fault in phase.faults:
            events.append((fault.at, _FAILURE, seq, "fault", fault))
            seq += 1
        for wave in phase.churn:
            t = wave.interval
            while t < phase.duration:
                events.append((t, _CHURN, seq, "churn", wave))
                seq += 1
                t += wave.interval
        # Bucket arrivals into batch windows; one batch per non-empty
        # window, fired at the window's end.
        window = self.spec.batch_window
        buckets: dict[int, list[str]] = {}
        for mix in phase.queries:
            for t in self._arrival_times(mix, phase.duration):
                buckets.setdefault(int(t / window), []).append(mix.text)
        for index in sorted(buckets):
            when = min((index + 1) * window, phase.duration)
            events.append((when, _BATCH, seq, "batch", buckets[index]))
            seq += 1
        events.sort()
        return events

    # ------------------------------------------------------------------
    # event application
    # ------------------------------------------------------------------

    def _live_ids(self) -> list[int]:
        cluster = self.plane.cluster
        return [
            node_id
            for node_id in self.plane.node_ids
            if cluster.network.is_alive(node_id)
        ]

    def _pick_rack(self, requested: Optional[str]) -> str:
        if requested and requested != "random":
            return requested
        racks = sorted(
            {
                str(node.attributes["rack"])
                for node in self.plane.cluster.nodes.values()
                if "rack" in node.attributes
            }
        )
        if not racks:
            raise ValueError(
                "rack failure in a campaign without 'racks' configured"
            )
        return self.rng.choice(racks)

    def _apply_failure(self, failure) -> dict:
        plane, rng = self.plane, self.rng
        self._stable = False
        if failure.kind == "rack":
            rack = self._pick_rack(failure.rack)
            victims = [
                node_id
                for node_id, node in plane.cluster.nodes.items()
                if node.attributes.get("rack") == rack
                and plane.cluster.network.is_alive(node_id)
            ]
            for node_id in victims:
                plane.crash(node_id, detection_delay=failure.detection_delay)
            applied = {"kind": "rack", "rack": rack, "nodes": len(victims)}
        elif failure.kind == "crash":
            live = self._live_ids()
            victims = rng.sample(live, min(failure.count, max(len(live) - 1, 0)))
            for node_id in victims:
                plane.crash(node_id, detection_delay=failure.detection_delay)
            applied = {"kind": "crash", "nodes": len(victims)}
        elif failure.kind == "join":
            for _ in range(failure.count):
                plane.join()
            applied = {"kind": "join", "nodes": failure.count}
        elif failure.kind == "leave":
            live = self._live_ids()
            victims = rng.sample(live, min(failure.count, max(len(live) - 1, 0)))
            for node_id in victims:
                plane.leave(node_id)
            applied = {"kind": "leave", "nodes": len(victims)}
        else:  # recover
            cluster = self.plane.cluster
            dead = [
                node_id
                for node_id in cluster.nodes
                if not cluster.network.is_alive(node_id)
            ]
            victims = dead[: failure.count]
            for node_id in victims:
                plane.recover(node_id)
            applied = {"kind": "recover", "nodes": len(victims)}
        if failure.kind in ("crash", "rack") and failure.detection_delay > 0:
            self._detection_horizon = max(
                self._detection_horizon,
                plane.now + failure.detection_delay,
            )
        return applied

    def _apply_churn(self, wave) -> None:
        """Rotate ``wave.churn`` members of the group: evict that many
        current members, induct as many current non-members."""
        plane, rng = self.plane, self.rng
        self._stable = False
        live = set(self._live_ids())
        members = sorted(
            plane.members_satisfying(f"{wave.attr} = true") & live
        )
        outsiders = sorted(live - set(members))
        for node_id in rng.sample(members, min(wave.churn, len(members))):
            plane.set_attribute(node_id, wave.attr, False)
        for node_id in rng.sample(outsiders, min(wave.churn, len(outsiders))):
            plane.set_attribute(node_id, wave.attr, True)
        plane.advance(self.spec.settle)
        self._try_restabilize()

    def _try_restabilize(self) -> None:
        """Quiesce and mark the membership stable again -- unless an
        undetected crash is outstanding (quiescing would run its
        detection event early, collapsing the window under test)."""
        if self.plane.now >= self._detection_horizon:
            self.plane.quiesce()
            self._stable = True

    # ------------------------------------------------------------------
    # phase + campaign execution
    # ------------------------------------------------------------------

    def _run_phase(self, phase: PhaseSpec) -> dict:
        plane, checker = self.plane, self.checker
        phase_t0 = plane.now
        before = plane.stats.snapshot()
        violations_before = len(checker.violations)
        results = []
        batches = 0
        applied_failures: list[dict] = []
        for when, _priority, _seq, kind, payload in self._compile_phase(phase):
            target = phase_t0 + when
            if target > plane.now:
                plane.advance(target - plane.now)
            if kind == "failure":
                applied_failures.append(self._apply_failure(payload))
            elif kind == "fault":
                plane.apply_link_fault(payload)
                applied_failures.append(
                    {
                        "kind": f"link-{payload.kind}",
                        "link": payload.link,
                        "direction": payload.direction,
                        "duration": payload.duration,
                    }
                )
            elif kind == "standing":
                action, index, sspec = payload
                if action == "register":
                    handle = plane.register_standing(
                        sspec.text, lease=sspec.lease
                    )
                    self._standing_by_key[(phase.name, index)] = handle
                    self._standing_handles.append(handle)
                else:  # cancel
                    handle = self._standing_by_key.get((phase.name, index))
                    if handle is not None and handle.active:
                        plane.cancel_standing(handle)
            elif kind == "churn":
                self._apply_churn(payload)
            else:  # batch
                batch_before = plane.stats.snapshot()
                batch_results = plane.query_batch(payload)
                checker.check_batch(
                    phase.name,
                    payload,
                    batch_results,
                    batch_before,
                    membership_stable=self._stable,
                )
                results.extend(batch_results)
                batches += 1
        tail = phase_t0 + phase.duration - plane.now
        if tail > 0:
            plane.advance(tail)
        # Phase boundary: drain everything (detections included), check
        # for leaked in-flight state, and restore a stable membership.
        self._detection_horizon = 0.0
        plane.quiesce()
        self._stable = True
        checker.check_phase_end(phase.name)
        checker.check_standing(phase.name, self._standing_handles)
        return phase_report(
            phase,
            results,
            batches,
            plane.stats.delta_since(before),
            checker.violations[violations_before:],
            applied_failures,
            standing_active=sum(
                1 for h in self._standing_handles if h.active
            ),
        )

    def run(self) -> dict:
        started = time.perf_counter()
        self.setup()
        for phase in self.spec.phases:
            self._phase_reports.append(self._run_phase(phase))
        # Campaign teardown: cancel every surviving standing query,
        # drain the cancels, and re-run the leak invariant -- a clean
        # campaign must end with empty subscription tables everywhere.
        survivors = [h for h in self._standing_handles if h.active]
        if survivors:
            for handle in survivors:
                self.plane.cancel_standing(handle)
            self.plane.quiesce()
        if self._standing_handles:
            self.checker.check_phase_end("campaign-teardown")
        return final_report(
            self.spec,
            self.plane,
            self._phase_reports,
            self.checker,
            wall_s=time.perf_counter() - started,
        )


def run_campaign(spec: CampaignSpec, plane: str = "sim") -> dict:
    """Build the plane a campaign declares, run it, return the report."""
    node_config = (
        MoaraConfig(**dict(spec.node_config)) if spec.node_config else None
    )
    frontend_config = (
        FrontendConfig(**dict(spec.frontend_config))
        if spec.frontend_config
        else None
    )
    built = build_plane(
        plane,
        spec.nodes,
        seed=spec.seed,
        num_frontends=spec.frontends,
        latency=spec.latency,
        config=node_config,
        frontend_config=frontend_config,
    )
    return CampaignRunner(spec, built).run()
