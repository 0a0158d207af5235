"""Declarative campaign schema: scenarios as data, not scripts.

A *campaign* is a YAML (or JSON) document describing a full evaluation
scenario -- cluster shape, group membership builds, attribute
populations, and a sequence of timed *phases*, each mixing query arrival
processes, churn waves, and correlated failures -- in the spirit of
magi's AAL event streams (groups, agents, trigger-chained timed event
streams).  The schema layer turns that document into frozen dataclasses
with **strict validation**: unknown keys are errors, so a typo'd knob
can never silently produce a different scenario.

Every key the loader accepts is listed in the ``*_KEYS`` constants
below; ``scripts/check_docs.py`` cross-checks the keys documented in
``docs/CAMPAIGNS.md`` against them, so the schema reference cannot
drift from the code.

This module imports only the standard library at module scope (the YAML
parser is imported lazily inside :func:`load_campaign`), so tooling that
only needs the schema -- the docs checker, editors -- can import it in a
bare interpreter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping, Optional, Union

__all__ = [
    "ATTRIBUTE_KEYS",
    "CAMPAIGN_KEYS",
    "CHURN_KEYS",
    "FAILURE_KEYS",
    "FRONTEND_CONFIG_KEYS",
    "GROUP_KEYS",
    "LINK_FAULT_KEYS",
    "NODE_CONFIG_KEYS",
    "ORACLE_KEYS",
    "PHASE_KEYS",
    "QUERY_KEYS",
    "STANDING_KEYS",
    "AttributeSpec",
    "CampaignSpec",
    "CampaignSchemaError",
    "ChurnSpec",
    "FailureSpec",
    "GroupSpec",
    "LinkFaultSpec",
    "OracleSpec",
    "PhaseSpec",
    "QueryMixSpec",
    "StandingSpec",
    "all_schema_keys",
    "campaign_from_dict",
    "load_campaign",
]


class CampaignSchemaError(ValueError):
    """A campaign document does not satisfy the schema."""


# ---------------------------------------------------------------------------
# leaf specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupSpec:
    """One group membership build: ``attr = true`` on a member subset."""

    attr: str
    size: Optional[int] = None
    fraction: Optional[float] = None


@dataclass(frozen=True)
class AttributeSpec:
    """One value attribute populated on every node."""

    name: str
    distribution: str = "constant"  # constant | uniform | choice
    value: Any = 0.0
    low: float = 0.0
    high: float = 1.0
    choices: tuple = ()


@dataclass(frozen=True)
class QueryMixSpec:
    """One query stream inside a phase, with its arrival process."""

    text: str
    rate: Optional[float] = None  # arrivals per simulated second
    count: Optional[int] = None  # alternative: exact number of arrivals
    arrival: str = "poisson"  # poisson | uniform
    start: float = 0.0  # offset into the phase
    stop: Optional[float] = None  # offset; None = phase end


@dataclass(frozen=True)
class StandingSpec:
    """One standing query inside a phase: registered at ``at`` and, if
    ``cancel_at`` is set, cancelled at that phase-relative time;
    otherwise it lives until the end of the campaign (the runner
    cancels all survivors and re-checks the leak invariant).  ``lease``
    > 0 arms root-side lease expiry (the runner never renews, so an
    expiring lease is a scripted way to exercise the expiry path)."""

    text: str
    at: float = 0.0
    cancel_at: Optional[float] = None
    lease: float = 0.0


@dataclass(frozen=True)
class ChurnSpec:
    """A churn wave: every ``interval`` s, rotate ``churn`` group members."""

    attr: str
    churn: int
    interval: float


@dataclass(frozen=True)
class FailureSpec:
    """A failure (or membership) event at a phase-relative time."""

    kind: str  # crash | rack | join | leave | recover
    at: float
    count: int = 1
    rack: Optional[str] = None  # rack name, or "random"
    detection_delay: float = 0.0


@dataclass(frozen=True)
class LinkFaultSpec:
    """A transport-level link fault at a phase-relative time.

    Executed by the loopback plane's :class:`~repro.serve.transport.
    LocalLoopback` links (the sim plane has no transport links and
    rejects campaigns that script these).  ``reset`` is an event — the
    link dies now, in-flight work fails, and sends fail fast for
    ``duration`` seconds; the other kinds are a *state* held for
    ``duration`` seconds.
    """

    kind: str  # drop | delay | duplicate | reset | partition
    at: float
    duration: float = 0.0
    link: Union[int, str] = "all"  # front-end shard index, or "all"
    direction: str = "both"  # outbound | inbound | both
    p: float = 1.0  # per-frame probability (partition ignores it)
    delay: float = 0.0  # seconds a delayed frame is held (kind=delay)


@dataclass(frozen=True)
class PhaseSpec:
    """One timed phase: query mixes + churn waves + failures."""

    name: str
    duration: float
    queries: tuple[QueryMixSpec, ...] = ()
    standing: tuple[StandingSpec, ...] = ()
    churn: tuple[ChurnSpec, ...] = ()
    failures: tuple[FailureSpec, ...] = ()
    faults: tuple[LinkFaultSpec, ...] = ()


@dataclass(frozen=True)
class OracleSpec:
    """Which invariants the built-in correctness oracle enforces."""

    check_differential: bool = True
    check_probes: bool = True
    check_inflight: bool = True
    probe_slack: int = 0
    tolerance: float = 1e-9


@dataclass(frozen=True)
class CampaignSpec:
    """A complete declarative scenario campaign."""

    name: str
    nodes: int
    phases: tuple[PhaseSpec, ...]
    description: str = ""
    seed: int = 0
    frontends: int = 2
    latency: str = "zero"  # zero | lan | uniform
    racks: int = 0  # >0 assigns every node a "rack" attribute R0..R{n-1}
    batch_window: float = 1.0  # arrivals in one window form one burst
    settle: float = 0.5  # seconds granted for churn to propagate
    node_config: Mapping[str, Any] = field(default_factory=dict)
    frontend_config: Mapping[str, Any] = field(default_factory=dict)
    groups: tuple[GroupSpec, ...] = ()
    attributes: tuple[AttributeSpec, ...] = ()
    oracle: OracleSpec = field(default_factory=OracleSpec)


# ---------------------------------------------------------------------------
# accepted keys (the documented schema; check_docs cross-references these)
# ---------------------------------------------------------------------------

CAMPAIGN_KEYS = frozenset(
    {
        "name",
        "description",
        "seed",
        "nodes",
        "frontends",
        "latency",
        "racks",
        "batch_window",
        "settle",
        "node_config",
        "frontend_config",
        "groups",
        "attributes",
        "phases",
        "oracle",
    }
)
GROUP_KEYS = frozenset({"attr", "size", "fraction"})
ATTRIBUTE_KEYS = frozenset(
    {"name", "distribution", "value", "low", "high", "choices"}
)
PHASE_KEYS = frozenset(
    {"name", "duration", "queries", "standing", "churn", "failures", "faults"}
)
QUERY_KEYS = frozenset({"text", "rate", "count", "arrival", "start", "stop"})
STANDING_KEYS = frozenset({"text", "at", "cancel_at", "lease"})
CHURN_KEYS = frozenset({"attr", "churn", "interval"})
FAILURE_KEYS = frozenset({"kind", "at", "count", "rack", "detection_delay"})
LINK_FAULT_KEYS = frozenset(
    {"kind", "at", "duration", "link", "direction", "p", "delay"}
)
ORACLE_KEYS = frozenset(
    {
        "check_differential",
        "check_probes",
        "check_inflight",
        "probe_slack",
        "tolerance",
    }
)
#: MoaraConfig knobs a campaign may override (a curated, serializable
#: subset -- callables like ``gc_policy_factory`` stay out of YAML).
NODE_CONFIG_KEYS = frozenset(
    {
        "threshold",
        "child_timeout",
        "share_executions",
    }
)
#: FrontendConfig knobs a campaign may override.
FRONTEND_CONFIG_KEYS = frozenset(
    {
        "plan_cache_size",
        "size_cache_ttl",
        "size_cache_ttl_min",
        "adaptive_size_ttl",
        "churn_window",
        "share_subqueries",
        "dedupe_probes",
        "piggyback_sizes",
        "standing_replan_every",
    }
)

_LATENCIES = ("zero", "lan", "uniform")
_ARRIVALS = ("poisson", "uniform")
_FAILURE_KINDS = ("crash", "rack", "join", "leave", "recover")
_LINK_FAULT_KINDS = ("drop", "delay", "duplicate", "reset", "partition")
_LINK_DIRECTIONS = ("outbound", "inbound", "both")


def all_schema_keys() -> frozenset[str]:
    """The union of every key accepted anywhere in a campaign document
    (what ``scripts/check_docs.py`` validates documentation against)."""
    return (
        CAMPAIGN_KEYS
        | GROUP_KEYS
        | ATTRIBUTE_KEYS
        | PHASE_KEYS
        | QUERY_KEYS
        | STANDING_KEYS
        | CHURN_KEYS
        | FAILURE_KEYS
        | LINK_FAULT_KEYS
        | ORACLE_KEYS
        | NODE_CONFIG_KEYS
        | FRONTEND_CONFIG_KEYS
    )


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------


def _require_mapping(value: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise CampaignSchemaError(f"{where}: expected a mapping, got {value!r}")
    return value


def _check_keys(data: Mapping[str, Any], allowed: frozenset, where: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise CampaignSchemaError(
            f"{where}: unknown key(s) {unknown}; valid keys: {sorted(allowed)}"
        )


def _build(cls: type, data: Mapping[str, Any], where: str) -> Any:
    """Construct a frozen spec dataclass, normalising lists to tuples."""
    kwargs = {}
    for spec_field in fields(cls):
        if spec_field.name in data:
            value = data[spec_field.name]
            if isinstance(value, list):
                value = tuple(value)
            kwargs[spec_field.name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise CampaignSchemaError(f"{where}: {exc}") from exc


def _parse_group(data: Any, where: str) -> GroupSpec:
    data = _require_mapping(data, where)
    _check_keys(data, GROUP_KEYS, where)
    spec = _build(GroupSpec, data, where)
    if not spec.attr:
        raise CampaignSchemaError(f"{where}: 'attr' is required")
    if (spec.size is None) == (spec.fraction is None):
        raise CampaignSchemaError(
            f"{where}: exactly one of 'size' / 'fraction' is required"
        )
    if spec.fraction is not None and not 0.0 < spec.fraction <= 1.0:
        raise CampaignSchemaError(f"{where}: 'fraction' must be in (0, 1]")
    if spec.size is not None and spec.size < 1:
        raise CampaignSchemaError(f"{where}: 'size' must be >= 1")
    return spec


def _parse_attribute(data: Any, where: str) -> AttributeSpec:
    data = _require_mapping(data, where)
    _check_keys(data, ATTRIBUTE_KEYS, where)
    spec = _build(AttributeSpec, data, where)
    if not spec.name:
        raise CampaignSchemaError(f"{where}: 'name' is required")
    if spec.distribution not in ("constant", "uniform", "choice"):
        raise CampaignSchemaError(
            f"{where}: unknown distribution {spec.distribution!r}"
        )
    if spec.distribution == "choice" and not spec.choices:
        raise CampaignSchemaError(f"{where}: 'choices' must be non-empty")
    if spec.distribution == "uniform" and spec.high < spec.low:
        raise CampaignSchemaError(f"{where}: 'high' must be >= 'low'")
    return spec


def _parse_query(data: Any, where: str) -> QueryMixSpec:
    data = _require_mapping(data, where)
    _check_keys(data, QUERY_KEYS, where)
    spec = _build(QueryMixSpec, data, where)
    if not spec.text:
        raise CampaignSchemaError(f"{where}: 'text' is required")
    if (spec.rate is None) == (spec.count is None):
        raise CampaignSchemaError(
            f"{where}: exactly one of 'rate' / 'count' is required"
        )
    if spec.rate is not None and spec.rate <= 0:
        raise CampaignSchemaError(f"{where}: 'rate' must be positive")
    if spec.count is not None and spec.count < 1:
        raise CampaignSchemaError(f"{where}: 'count' must be >= 1")
    if spec.arrival not in _ARRIVALS:
        raise CampaignSchemaError(
            f"{where}: unknown arrival {spec.arrival!r}; use {_ARRIVALS}"
        )
    return spec


def _parse_standing(data: Any, where: str) -> StandingSpec:
    data = _require_mapping(data, where)
    _check_keys(data, STANDING_KEYS, where)
    spec = _build(StandingSpec, data, where)
    if not spec.text:
        raise CampaignSchemaError(f"{where}: 'text' is required")
    if spec.at < 0:
        raise CampaignSchemaError(f"{where}: 'at' must be >= 0")
    if spec.cancel_at is not None and spec.cancel_at <= spec.at:
        raise CampaignSchemaError(
            f"{where}: 'cancel_at' must be after 'at'"
        )
    if spec.lease < 0:
        raise CampaignSchemaError(f"{where}: 'lease' must be >= 0")
    return spec


def _parse_churn(data: Any, where: str) -> ChurnSpec:
    data = _require_mapping(data, where)
    _check_keys(data, CHURN_KEYS, where)
    spec = _build(ChurnSpec, data, where)
    if not spec.attr:
        raise CampaignSchemaError(f"{where}: 'attr' is required")
    if spec.churn < 1:
        raise CampaignSchemaError(f"{where}: 'churn' must be >= 1")
    if spec.interval <= 0:
        raise CampaignSchemaError(f"{where}: 'interval' must be positive")
    return spec


def _parse_failure(data: Any, where: str) -> FailureSpec:
    data = _require_mapping(data, where)
    _check_keys(data, FAILURE_KEYS, where)
    spec = _build(FailureSpec, data, where)
    if spec.kind not in _FAILURE_KINDS:
        raise CampaignSchemaError(
            f"{where}: unknown kind {spec.kind!r}; use {_FAILURE_KINDS}"
        )
    if spec.at < 0:
        raise CampaignSchemaError(f"{where}: 'at' must be >= 0")
    if spec.count < 1:
        raise CampaignSchemaError(f"{where}: 'count' must be >= 1")
    if spec.kind == "rack" and spec.rack is None:
        raise CampaignSchemaError(
            f"{where}: rack failures need 'rack' (a name, or 'random')"
        )
    return spec


def _parse_link_fault(data: Any, where: str) -> LinkFaultSpec:
    data = _require_mapping(data, where)
    _check_keys(data, LINK_FAULT_KEYS, where)
    spec = _build(LinkFaultSpec, data, where)
    if spec.kind not in _LINK_FAULT_KINDS:
        raise CampaignSchemaError(
            f"{where}: unknown kind {spec.kind!r}; use {_LINK_FAULT_KINDS}"
        )
    if spec.at < 0:
        raise CampaignSchemaError(f"{where}: 'at' must be >= 0")
    if spec.duration < 0:
        raise CampaignSchemaError(f"{where}: 'duration' must be >= 0")
    if spec.kind != "reset" and spec.duration == 0:
        raise CampaignSchemaError(
            f"{where}: {spec.kind!r} faults need 'duration' > 0 "
            f"(only 'reset' may be instantaneous)"
        )
    if spec.direction not in _LINK_DIRECTIONS:
        raise CampaignSchemaError(
            f"{where}: unknown direction {spec.direction!r}; "
            f"use {_LINK_DIRECTIONS}"
        )
    if not 0.0 < spec.p <= 1.0:
        raise CampaignSchemaError(f"{where}: 'p' must be in (0, 1]")
    if spec.kind == "delay" and spec.delay <= 0:
        raise CampaignSchemaError(
            f"{where}: delay faults need 'delay' > 0"
        )
    if spec.link != "all" and (
        not isinstance(spec.link, int) or spec.link < 0
    ):
        raise CampaignSchemaError(
            f"{where}: 'link' must be a front-end shard index or 'all'"
        )
    return spec


def _parse_phase(data: Any, where: str) -> PhaseSpec:
    data = _require_mapping(data, where)
    _check_keys(data, PHASE_KEYS, where)
    queries = tuple(
        _parse_query(entry, f"{where}.queries[{i}]")
        for i, entry in enumerate(data.get("queries", ()))
    )
    standing = tuple(
        _parse_standing(entry, f"{where}.standing[{i}]")
        for i, entry in enumerate(data.get("standing", ()))
    )
    churn = tuple(
        _parse_churn(entry, f"{where}.churn[{i}]")
        for i, entry in enumerate(data.get("churn", ()))
    )
    failures = tuple(
        _parse_failure(entry, f"{where}.failures[{i}]")
        for i, entry in enumerate(data.get("failures", ()))
    )
    faults = tuple(
        _parse_link_fault(entry, f"{where}.faults[{i}]")
        for i, entry in enumerate(data.get("faults", ()))
    )
    spec = PhaseSpec(
        name=str(data.get("name", "")),
        duration=float(data.get("duration", 0.0)),
        queries=queries,
        standing=standing,
        churn=churn,
        failures=failures,
        faults=faults,
    )
    if not spec.name:
        raise CampaignSchemaError(f"{where}: 'name' is required")
    if spec.duration <= 0:
        raise CampaignSchemaError(f"{where}: 'duration' must be positive")
    for i, failure in enumerate(failures):
        if failure.at > spec.duration:
            raise CampaignSchemaError(
                f"{where}.failures[{i}]: 'at' {failure.at} is past the "
                f"phase duration {spec.duration}"
            )
    for i, fault in enumerate(faults):
        if fault.at > spec.duration:
            raise CampaignSchemaError(
                f"{where}.faults[{i}]: 'at' {fault.at} is past the "
                f"phase duration {spec.duration}"
            )
    for i, sq in enumerate(standing):
        if sq.at > spec.duration:
            raise CampaignSchemaError(
                f"{where}.standing[{i}]: 'at' {sq.at} is past the "
                f"phase duration {spec.duration}"
            )
        if sq.cancel_at is not None and sq.cancel_at > spec.duration:
            raise CampaignSchemaError(
                f"{where}.standing[{i}]: 'cancel_at' {sq.cancel_at} is "
                f"past the phase duration {spec.duration}"
            )
    return spec


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def campaign_from_dict(
    data: Mapping[str, Any], source: str = "<campaign>"
) -> CampaignSpec:
    """Validate a raw campaign document into a :class:`CampaignSpec`."""
    data = _require_mapping(data, source)
    _check_keys(data, CAMPAIGN_KEYS, source)
    node_config = _require_mapping(
        data.get("node_config", {}), f"{source}.node_config"
    )
    _check_keys(node_config, NODE_CONFIG_KEYS, f"{source}.node_config")
    frontend_config = _require_mapping(
        data.get("frontend_config", {}), f"{source}.frontend_config"
    )
    _check_keys(
        frontend_config, FRONTEND_CONFIG_KEYS, f"{source}.frontend_config"
    )
    oracle_data = _require_mapping(data.get("oracle", {}), f"{source}.oracle")
    _check_keys(oracle_data, ORACLE_KEYS, f"{source}.oracle")

    groups = tuple(
        _parse_group(entry, f"{source}.groups[{i}]")
        for i, entry in enumerate(data.get("groups", ()))
    )
    attributes = tuple(
        _parse_attribute(entry, f"{source}.attributes[{i}]")
        for i, entry in enumerate(data.get("attributes", ()))
    )
    phases = tuple(
        _parse_phase(entry, f"{source}.phases[{i}]")
        for i, entry in enumerate(data.get("phases", ()))
    )

    spec = CampaignSpec(
        name=str(data.get("name", "")),
        description=str(data.get("description", "")),
        seed=int(data.get("seed", 0)),
        nodes=int(data.get("nodes", 0)),
        frontends=int(data.get("frontends", 2)),
        latency=str(data.get("latency", "zero")),
        racks=int(data.get("racks", 0)),
        batch_window=float(data.get("batch_window", 1.0)),
        settle=float(data.get("settle", 0.5)),
        node_config=dict(node_config),
        frontend_config=dict(frontend_config),
        groups=groups,
        attributes=attributes,
        phases=phases,
        oracle=_build(OracleSpec, oracle_data, f"{source}.oracle"),
    )
    if not spec.name:
        raise CampaignSchemaError(f"{source}: 'name' is required")
    if spec.nodes < 1:
        raise CampaignSchemaError(f"{source}: 'nodes' must be >= 1")
    if spec.frontends < 1:
        raise CampaignSchemaError(f"{source}: 'frontends' must be >= 1")
    if spec.latency not in _LATENCIES:
        raise CampaignSchemaError(
            f"{source}: unknown latency {spec.latency!r}; use {_LATENCIES}"
        )
    if spec.batch_window <= 0:
        raise CampaignSchemaError(f"{source}: 'batch_window' must be positive")
    if spec.settle < 0:
        raise CampaignSchemaError(f"{source}: 'settle' must be >= 0")
    if not spec.phases:
        raise CampaignSchemaError(f"{source}: at least one phase is required")
    return spec


def load_campaign(path: Union[str, Path]) -> CampaignSpec:
    """Load and validate a campaign from a ``.yaml``/``.yml``/``.json`` file.

    YAML support needs PyYAML; the import is deferred to here so the
    schema module itself stays importable in a bare interpreter (JSON
    campaigns always work).
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CampaignSchemaError(f"{path}: invalid JSON ({exc})") from exc
    else:
        try:
            import yaml
        except ImportError as exc:  # pragma: no cover - env-dependent
            raise CampaignSchemaError(
                f"{path}: loading YAML campaigns requires PyYAML "
                f"(pip install pyyaml), or convert the campaign to .json"
            ) from exc
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise CampaignSchemaError(f"{path}: invalid YAML ({exc})") from exc
    return campaign_from_dict(data, source=str(path))
