"""The standing-query plane: push-based delta subscriptions.

Every workload before this package was request/response: a query walks
the cover trees once and the answer is a snapshot.  ``repro.standing``
makes queries *long-lived*.  A :class:`~repro.standing.manager.
StandingHandle` registered at a front-end installs delta subscriptions
down the query's cover trees (:mod:`repro.standing.agent`); from then on
tree nodes **push** incremental deltas up to the subscribed roots --
member join/leave, attribute change, subtree reconfiguration -- instead
of being TTL re-polled, and the front-end folds per-group root deltas
into a live answer stream with monotone update sequence numbers
(:mod:`repro.standing.manager`).

Enmeshed semantics ("Scalable Social Coordination using Enmeshed
Queries", arXiv 1205.0435) layer on top: one standing query may span
several groups (an AND/OR cover chosen by the planner), each group's
delta stream arrives independently, and the cover is re-evaluated as
churn shifts group sizes.

Relation to the other execution modes (see docs/STANDING_QUERIES.md for
the full comparison):

* **one-shot** (:mod:`repro.core.frontend`): pull, per-request freshness;
* **continuous ablation** (:mod:`repro.sdims.continuous`): SDIMS-style
  aggregate-on-write over a *single attribute per installation*, no
  groups, no planner -- the baseline this plane is measured against;
* **standing** (this package): group predicates, enmeshed covers,
  leases, and a per-query ordering/staleness contract.

Subscriptions go only where the group lives: an install stops at the
one-shot plane's PRUNE frontier (:mod:`repro.core.tree_state`) and
follows a pruned child once it reports a member below it -- the same
report that keeps one-shot answers exact -- so a standing query costs
about what its group costs, not what the system costs.
"""

from repro.standing.agent import StandingAgent
from repro.standing.manager import StandingHandle, StandingQueryManager

__all__ = ["StandingAgent", "StandingHandle", "StandingQueryManager"]
