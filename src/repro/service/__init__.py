"""Live service mode: ``repro serve`` (see ``docs/SERVICE.md``).

The packages below this one simulate *runs*; this package operates a
*service* — open-loop traffic, admission control, bounded queues with
backpressure, a graceful-degradation ladder, and SLO tracking — on top
of the asynchronous engine's extension hooks.
"""

from repro.service.admission import SHED_REASONS, AdmissionController, TokenBucket
from repro.service.degradation import STATES, DegradationLadder
from repro.service.engine import (
    ServiceConfig,
    ServiceEngine,
    ServiceRun,
    service_run,
)
from repro.service.queues import TaskQueues
from repro.service.slo import (
    SERVICE_SHAPE,
    SLOTracker,
    render_service,
    service_markdown_section,
)
from repro.service.traffic import (
    TRAFFIC_PROFILES,
    Arrival,
    BurstyTraffic,
    DiurnalTraffic,
    PoissonTraffic,
    ReplayTraffic,
    make_traffic,
)

__all__ = [
    "SHED_REASONS",
    "AdmissionController",
    "TokenBucket",
    "STATES",
    "DegradationLadder",
    "ServiceConfig",
    "ServiceEngine",
    "ServiceRun",
    "service_run",
    "TaskQueues",
    "SERVICE_SHAPE",
    "SLOTracker",
    "render_service",
    "service_markdown_section",
    "Arrival",
    "BurstyTraffic",
    "DiurnalTraffic",
    "PoissonTraffic",
    "ReplayTraffic",
    "TRAFFIC_PROFILES",
    "make_traffic",
]
