"""Distributed campaign coordination over HTTP workers.

The :class:`~repro.coord.coordinator.Coordinator` fans a campaign
manifest's partitions out to remote ``repro-wsn serve`` processes,
journals every partition transition durably in the local store,
retries lost partitions on healthy workers, and stream-merges finished
partitions' raw result rows back into the local canonical store while
the rest still run.  See ``repro-wsn coord run --help`` for the CLI
face and the README's "Distributed campaigns" walkthrough.
"""

from repro.coord.coordinator import (
    CoordStatus,
    Coordinator,
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_POLL_INTERVAL_S,
    DEFAULT_STALL_TIMEOUT_S,
    check_coordination,
    coord_names,
    coord_status,
)
from repro.coord.journal import (
    ACTIVE_PARTITION_STATES,
    CoordJournal,
    CoordRun,
    PARTITION_STATES,
    PartitionState,
)

__all__ = [
    "ACTIVE_PARTITION_STATES",
    "CoordJournal",
    "CoordRun",
    "CoordStatus",
    "Coordinator",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_POLL_INTERVAL_S",
    "DEFAULT_STALL_TIMEOUT_S",
    "PARTITION_STATES",
    "PartitionState",
    "check_coordination",
    "coord_names",
    "coord_status",
]
