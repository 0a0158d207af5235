"""The deployable async query plane.

Everything under :mod:`repro.serve` lifts the in-process, simulated
query plane onto a real deployment surface — asyncio servers speaking
real sockets — while sharing the planner/plan-cache/size-cache/router
code with the simulator *verbatim* (the
:class:`repro.sim.network.FrontendTransport` seam is the entire
boundary).  The fleet has four process roles:

* :mod:`repro.serve.overlay_service` — hosts the Moara overlay (the
  simulated agents, trees, and discrete-event engine) and speaks the
  existing wire protocol (``SIZE_PROBE`` / ``FRONTEND_QUERY`` / …) with
  remote front-ends over TCP;
* :mod:`repro.serve.frontend_server` — an asyncio front-end exposing the
  HTTP/JSON query API (``POST /query``, ``GET /groups/{name}/size``,
  ``GET /healthz``, ``GET /stats``) over an unmodified
  :class:`repro.core.frontend.Frontend`;
* :mod:`repro.serve.cache_service` — a standalone, memcached-style
  :class:`repro.core.plan_cache.SharedGroupSizeCache` tier speaking the
  single-writer/probe-registry protocol over TCP (the in-process tier
  remains the default backend when no service is configured);
* :mod:`repro.serve.ring_daemon` — heartbeat-driven
  :class:`repro.core.shard_router.FrontendShardRouter` membership
  (join/leave/suspect remap ~1/N of the key space).

``python -m repro.serve <role>`` launches each role
(:mod:`repro.serve.__main__`); :mod:`repro.serve.fleet` boots the whole
fleet from one call (a forked process per front-end) for tests and CI;
:class:`repro.serve.transport.LocalLoopback` runs a deployed-shape
front-end with no sockets at all, and can fault its own link on script
(:class:`repro.campaigns.planes.LoopbackPlane` assembles N of them).
"""

from repro.serve.cache_service import CacheService, RemoteSizeTier
from repro.serve.fleet import Fleet
from repro.serve.frontend_server import FrontendServer
from repro.serve.overlay_service import OverlayService
from repro.serve.ring_daemon import RingClient, RingDaemon
from repro.serve.transport import LocalLoopback, RemoteNetwork

__all__ = [
    "CacheService",
    "Fleet",
    "FrontendServer",
    "LocalLoopback",
    "OverlayService",
    "RemoteNetwork",
    "RemoteSizeTier",
    "RingClient",
    "RingDaemon",
]
