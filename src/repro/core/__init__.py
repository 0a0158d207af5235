"""Moara core: the paper's primary contribution.

Public API tour
---------------

Build a deployment, define groups, and query them::

    from repro.core import MoaraCluster

    cluster = MoaraCluster(num_nodes=100, seed=1)
    cluster.set_group("ServiceX", members=cluster.node_ids[:10])
    for node_id in cluster.node_ids:
        cluster.set_attribute(node_id, "CPU-Util", 42.0)

    result = cluster.query("SELECT AVG(CPU-Util) WHERE ServiceX = true")
    print(result.value, result.cover, result.latency)

Key modules:

* :mod:`repro.core.cluster` -- deployment harness (`MoaraCluster`).
* :mod:`repro.core.moara_node` -- the per-node protocol engine.
* :mod:`repro.core.tree_state` -- Sections 4-5 group-tree state.
* :mod:`repro.core.adapt` -- dynamic-maintenance adaptation policy.
* :mod:`repro.core.planner` -- Section 6 composite-query planning.
* :mod:`repro.core.plan_cache` -- front-end plan & group-size caches.
* :mod:`repro.core.inflight` -- root-side, cross-front-end in-flight
  execution sharing.
* :mod:`repro.core.parser` -- the SQL-like query language.
* :mod:`repro.core.aggregation` -- partially aggregatable functions.
* :mod:`repro.core.relations` -- Figure 8 semantic-relation inference.
"""

from repro.core.adapt import AdaptationConfig, Adaptor, MaintenancePolicy
from repro.core.adaptive_ttl import AdaptiveTTL, ChurnTracker
from repro.core.aggregation import AggregateFunction, Histogram, get_function
from repro.core.attributes import AttributeStore
from repro.core.cluster import MoaraCluster
from repro.core.derived import DerivedAttribute, install_derived
from repro.core.gc import (
    GCPolicy,
    IdleTimeoutGC,
    KeepLastKGC,
    LeastFrequentGC,
    NoGC,
)
from repro.core.monitor import PeriodicMonitor
from repro.core.errors import (
    MoaraError,
    ParseError,
    PlanningError,
    QueryTimeoutError,
    UnknownAggregateError,
)
from repro.core.frontend import Frontend, FrontendConfig, ProbePolicy
from repro.core.moara_node import MoaraConfig, MoaraNode, NodeConfig
from repro.core.parser import parse_predicate, parse_query
from repro.core.plan_cache import (
    CacheStats,
    GroupSizeCache,
    PlanCache,
    ShardedSizeCache,
    SharedGroupSizeCache,
)
from repro.core.shard_router import FrontendShardRouter, canonical_query_text
from repro.core.inflight import InflightTable
from repro.core.planner import (
    QueryPlan,
    SemanticContext,
    choose_cover,
    plan_predicate,
)
from repro.core.predicates import (
    And,
    Comparison,
    Or,
    Predicate,
    SimplePredicate,
    TruePredicate,
    to_cnf,
)
from repro.core.query import Query, QueryResult
from repro.core.relations import Relation, relation

__all__ = [
    "AdaptationConfig",
    "AdaptiveTTL",
    "Adaptor",
    "AggregateFunction",
    "And",
    "AttributeStore",
    "ChurnTracker",
    "Comparison",
    "DerivedAttribute",
    "Frontend",
    "FrontendConfig",
    "FrontendShardRouter",
    "CacheStats",
    "GCPolicy",
    "GroupSizeCache",
    "Histogram",
    "IdleTimeoutGC",
    "KeepLastKGC",
    "LeastFrequentGC",
    "NoGC",
    "PeriodicMonitor",
    "PlanCache",
    "install_derived",
    "MaintenancePolicy",
    "MoaraCluster",
    "MoaraConfig",
    "MoaraError",
    "MoaraNode",
    "NodeConfig",
    "InflightTable",
    "Or",
    "ParseError",
    "PlanningError",
    "Predicate",
    "ProbePolicy",
    "Query",
    "QueryPlan",
    "QueryResult",
    "QueryTimeoutError",
    "Relation",
    "SemanticContext",
    "ShardedSizeCache",
    "SharedGroupSizeCache",
    "SimplePredicate",
    "TruePredicate",
    "UnknownAggregateError",
    "canonical_query_text",
    "choose_cover",
    "get_function",
    "parse_predicate",
    "parse_query",
    "plan_predicate",
    "relation",
    "to_cnf",
]
