"""The coordinator's durable partition journal.

A distributed campaign's control state -- which partition is queued,
running on which worker under which remote job id, done, merged,
failed -- lives in the ``coord_runs``/``coord_partitions`` tables of
the coordinator's *local* result store, written through on every
transition.  That makes the coordinator kill-safe the same way
campaigns and studies are: restart it against the same store and
manifest and it resumes from the journal, re-fetching nothing already
merged (result completion is, as everywhere else, derived from the
results table itself; the ``merged`` state just records that a
partition's fetch finished so resume can skip the HTTP round-trip).

On a sharded store the journal lands in the meta shard automatically,
alongside the campaign journals and the job queue.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from time import time as _wall_clock
from typing import List, Optional

from repro.errors import ConfigError
from repro.store.db import ResultStore, _utc_now, canonical_json

#: Every state one partition of a coordinated campaign can be in.
#: ``queued -> running -> done -> merged`` is the happy path; ``lost``
#: (worker died, job vanished/failed/stalled) routes back to a
#: resubmission, and ``failed`` is terminal after the attempt budget.
PARTITION_STATES = ("queued", "running", "done", "merged", "failed", "lost")

#: States that still need coordinator work.
ACTIVE_PARTITION_STATES = ("queued", "running", "done", "lost")


@dataclass(frozen=True)
class CoordRun:
    """One journaled distributed-campaign run."""

    name: str
    manifest: dict
    partitions: int
    created_at: str


@dataclass(frozen=True)
class PartitionState:
    """One partition's journaled control state."""

    run: str
    index: int  # 1-based, matching partition_name()
    state: str
    worker: str
    job_id: str
    attempts: int
    rows_merged: int
    error: str
    updated_unix: float

    def summary(self) -> str:
        """One-line human-readable state."""
        bits = [f"p{self.index}: {self.state}"]
        if self.worker:
            bits.append(f"worker={self.worker}")
        if self.attempts:
            bits.append(f"attempts={self.attempts}")
        if self.rows_merged:
            bits.append(f"rows={self.rows_merged}")
        if self.error:
            bits.append(f"error={self.error}")
        return " ".join(bits)


class CoordJournal:
    """Durable run/partition state in a result store's database.

    All writes go through the store's ``BEGIN IMMEDIATE`` transaction
    helper like every other store table, so a coordinator and a ``coord
    status`` reader (or two racing coordinators) serialise cleanly.
    """

    def __init__(self, store: ResultStore):
        self.store = store

    # -- runs --------------------------------------------------------------------

    def create(self, name: str, manifest: dict, partitions: int) -> bool:
        """Journal run ``name``; returns ``True`` when newly created.

        Re-creating an existing run is fine exactly when manifest and
        partition count match (that is a resume); anything else raises
        :class:`ConfigError` -- partition slices would not line up with
        the journaled ones.
        """
        if not name:
            raise ConfigError("coordinated campaign name must be non-empty")
        if partitions < 1:
            raise ConfigError("partition count must be >= 1")
        manifest_doc = canonical_json(manifest)
        now = _utc_now()
        with self.store._transaction() as conn:
            existing = conn.execute(
                "SELECT manifest, partitions FROM coord_runs WHERE name=?",
                (name,),
            ).fetchone()
            if existing is None:
                conn.execute(
                    "INSERT INTO coord_runs(name, manifest, partitions, "
                    "created_at, created_unix) VALUES (?, ?, ?, ?, ?)",
                    (
                        name,
                        manifest_doc,
                        int(partitions),
                        now.isoformat(),
                        now.timestamp(),
                    ),
                )
                conn.executemany(
                    "INSERT INTO coord_partitions(run, idx, updated_unix) "
                    "VALUES (?, ?, ?)",
                    [
                        (name, index, now.timestamp())
                        for index in range(1, int(partitions) + 1)
                    ],
                )
        if existing is None:
            return True
        if existing[0] != manifest_doc or int(existing[1]) != int(partitions):
            raise ConfigError(
                f"coordinated campaign {name!r} already exists in "
                f"{self.store.path} with a different manifest or partition "
                f"count; pick another name or matching arguments to resume"
            )
        return False

    def get(self, name: str) -> Optional[CoordRun]:
        """The journaled run, or ``None``."""
        row = self.store._conn().execute(
            "SELECT name, manifest, partitions, created_at "
            "FROM coord_runs WHERE name=?",
            (name,),
        ).fetchone()
        if row is None:
            return None
        return CoordRun(
            name=row[0],
            manifest=json.loads(row[1]),
            partitions=int(row[2]),
            created_at=row[3],
        )

    def names(self) -> List[str]:
        """Every journaled run name, sorted."""
        return [
            row[0]
            for row in self.store._conn().execute(
                "SELECT name FROM coord_runs ORDER BY name"
            )
        ]

    # -- partitions --------------------------------------------------------------

    _COLUMNS = (
        "run, idx, state, worker, job_id, attempts, rows_merged, "
        "error, updated_unix"
    )

    @staticmethod
    def _row_state(row) -> PartitionState:
        return PartitionState(
            run=row[0],
            index=int(row[1]),
            state=row[2],
            worker=row[3],
            job_id=row[4],
            attempts=int(row[5]),
            rows_merged=int(row[6]),
            error=row[7],
            updated_unix=float(row[8]),
        )

    def partitions(self, name: str) -> List[PartitionState]:
        """Every partition of run ``name``, in index order."""
        return [
            self._row_state(row)
            for row in self.store._conn().execute(
                f"SELECT {self._COLUMNS} FROM coord_partitions "
                f"WHERE run=? ORDER BY idx",
                (name,),
            )
        ]

    def counts(self, name: str) -> dict:
        """Partitions by state (every known state present, zeros kept)."""
        out = {state: 0 for state in PARTITION_STATES}
        for state, count in self.store._conn().execute(
            "SELECT state, COUNT(*) FROM coord_partitions "
            "WHERE run=? GROUP BY state",
            (name,),
        ):
            out[state] = int(count)
        return out

    def update(
        self,
        name: str,
        index: int,
        state: str,
        worker: Optional[str] = None,
        job_id: Optional[str] = None,
        error: Optional[str] = None,
        rows_merged: Optional[int] = None,
        bump_attempts: bool = False,
    ) -> None:
        """Write one partition transition through to disk.

        ``None`` keeps a column's current value; ``bump_attempts``
        increments the attempt counter atomically (set on every
        successful submission).
        """
        if state not in PARTITION_STATES:
            raise ConfigError(
                f"unknown partition state {state!r} "
                f"(known: {', '.join(PARTITION_STATES)})"
            )
        sets = ["state=?", "updated_unix=?"]
        params: List[object] = [state, _wall_clock()]
        for column, value in (
            ("worker", worker),
            ("job_id", job_id),
            ("error", error),
        ):
            if value is not None:
                sets.append(f"{column}=?")
                params.append(str(value))
        if rows_merged is not None:
            sets.append("rows_merged=?")
            params.append(int(rows_merged))
        if bump_attempts:
            sets.append("attempts=attempts+1")
        params.extend([name, int(index)])
        with self.store._transaction() as conn:
            changed = conn.execute(
                f"UPDATE coord_partitions SET {', '.join(sets)} "
                f"WHERE run=? AND idx=?",
                params,
            ).rowcount
        if changed == 0:
            raise ConfigError(
                f"no partition {index} journaled for coordinated "
                f"campaign {name!r} in {self.store.path}"
            )
