"""Named, journaled, crash-safe campaign execution.

A :class:`Campaign` is a named list of scenarios journaled inside a
:class:`~repro.store.db.ResultStore`.  Creating one writes the *intent*
(every scenario, with its seed already resolved, and its content key)
into the store in a single transaction; running one simulates the
scenarios whose keys are not yet in the results table, in bounded
chunks, writing each chunk through to disk before starting the next.

That split is what makes campaigns resumable: completion state is never
tracked separately from the results themselves -- a scenario is done
exactly when its content-addressed result row exists -- so there is no
journal/result consistency to lose.  Kill the process at any point and
``Campaign(store, name).run()`` (or ``repro-wsn campaign resume NAME
--store DB``) picks up with at most one chunk of work repeated, and
**zero** re-simulation of anything already stored.

Scenarios are journaled with concrete seeds (``seed=None`` entries get
:func:`~repro.core.batch.positional_seeds` ones at creation time),
because a floating seed would change the content key between runs and
defeat resumption.

Partitioned execution
---------------------
A partition is a plain slice: :func:`partition_scenarios` seeds the
*full* scenario list, then cuts it into N disjoint, contiguous slices,
and slice I runs as an ordinary campaign named
:func:`partition_name` ``(name, I, N)`` (``<name>@p<I>of<N>``) against
whatever store its process holds locally -- typically a scratch file or
shard on its own machine.  ``campaign run --partition I --partitions N``
and a service job carrying ``{"partition": {"index": I, "of": N}}``
make exactly those two calls.  :func:`~repro.store.merge.merge_stores`
folds the rows back into the canonical store afterwards; because the
seeds were resolved before slicing, a partitioned run journals exactly
the content keys a single-store run would, and the final
``Campaign.run()`` against the merged store re-simulates **nothing**.
:mod:`repro.coord` drives that cycle across hosts; on one machine,
``run(jobs=N)`` already fans each chunk out over N workers into the one
store.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.batch import BatchRunner, partition_slices, positional_seeds
from repro.errors import ConfigError
from repro.obs.trace import span
from repro.scenario import Scenario
from repro.store.db import ResultStore, canonical_json
from repro.system.result import SystemResult


@dataclass(frozen=True)
class CampaignStatus:
    """Progress snapshot of one campaign."""

    name: str
    total: int
    done: int
    source: str
    created_at: str

    @property
    def pending(self) -> int:
        return self.total - self.done

    @property
    def complete(self) -> bool:
        return self.done >= self.total

    def summary(self) -> str:
        """One-line progress report."""
        pct = 100.0 * self.done / self.total if self.total else 100.0
        label = f" [{self.source}]" if self.source else ""
        return (
            f"{self.name}{label}: {self.done}/{self.total} done "
            f"({pct:.0f}%), {self.pending} pending"
        )


class Campaign:
    """A journaled scenario list bound to a result store.

    Load an existing campaign with ``Campaign(store, name)``; create a
    new one with :meth:`create`.  ``run()`` simulates whatever is still
    missing and returns the full, input-ordered result list; calling it
    again on a complete campaign costs only store reads.
    """

    def __init__(self, store: ResultStore, name: str):
        if not name:
            raise ConfigError("campaign name must be non-empty")
        self.store = store
        self.name = name
        journal = store.get_campaign(name)
        if journal is None:
            known = ", ".join(store.campaign_names()) or "(none)"
            raise ConfigError(
                f"unknown campaign {name!r} in {store.path} (known: {known})"
            )
        self.source: str = journal.source
        self.total: int = journal.total
        self.created_at: str = journal.created_at

    # -- creation ---------------------------------------------------------------

    @classmethod
    def create(
        cls,
        store: ResultStore,
        name: str,
        scenarios: Sequence[Scenario],
        seed: int = 0,
        source: str = "",
        exist_ok: bool = False,
    ) -> "Campaign":
        """Journal ``scenarios`` as campaign ``name`` in ``store``.

        ``seed=None`` scenarios get deterministic per-position seeds
        derived from ``seed`` (:func:`~repro.core.batch.positional_seeds`,
        exactly like a :class:`~repro.core.batch.BatchRunner` batch), so
        the journaled content keys are stable across every later run.

        Re-creating an existing campaign is an error unless ``exist_ok``
        is set *and* the journaled keys match exactly (same scenarios in
        the same order) -- then the existing campaign is returned, which
        makes ``campaign run`` idempotent for the same manifest.
        """
        if not name:
            raise ConfigError("campaign name must be non-empty")
        scenarios = list(scenarios)
        if not scenarios:
            raise ConfigError("a campaign needs at least one scenario")
        resolved = positional_seeds(scenarios, seed)
        keys = [s.cache_key() for s in resolved]

        # First writer wins: racing creators serialise in the store's
        # write transaction, so the loser *sees* the winner's journal
        # instead of dying on the UNIQUE constraint.  The documents are
        # only serialised when this call writes the journal.
        rows = ((key, canonical_json(s.to_dict())) for key, s in zip(keys, resolved))
        if not store.put_campaign(name, source, rows):
            journaled = store.campaign_keys(name)
            if exist_ok and journaled == keys:
                return cls(store, name)
            raise ConfigError(
                f"campaign {name!r} already exists in {store.path}"
                + (
                    " with different scenarios"
                    if exist_ok
                    else " (pass exist_ok=True to reuse it)"
                )
            )
        return cls(store, name)

    # -- inspection --------------------------------------------------------------

    def scenarios(self) -> List[Scenario]:
        """The journaled scenario list, in campaign order."""
        return [
            Scenario.from_dict(json.loads(doc))
            for _, doc in self.store.campaign_rows(self.name)
        ]

    def pending(self) -> List[Scenario]:
        """Journaled scenarios whose results are not stored yet.

        Membership goes through the store's key API (not a SQL join
        against the results table) because the journal and the result
        rows need not share a database file -- on a sharded store the
        journal lives in the meta shard and the rows are spread out.
        """
        rows = self.store.campaign_rows(self.name)
        present = self.store.have_keys([key for key, _ in rows])
        return [
            Scenario.from_dict(json.loads(doc))
            for key, doc in rows
            if key not in present
        ]

    def status(self) -> CampaignStatus:
        """Progress derived from the durable results table."""
        keys = self.store.campaign_keys(self.name)
        present = self.store.have_keys(keys)
        done = sum(1 for key in keys if key in present)
        return CampaignStatus(
            name=self.name,
            total=self.total,
            done=done,
            source=self.source,
            created_at=self.created_at,
        )

    # -- execution ---------------------------------------------------------------

    def run(
        self,
        jobs: int = 1,
        chunk_size: Optional[int] = None,
        runner: Optional[BatchRunner] = None,
        on_chunk: Optional[Callable[[int, int], None]] = None,
    ) -> List[SystemResult]:
        """Simulate everything still missing; return all results in order.

        Pending scenarios execute in chunks of ``chunk_size`` (default
        ``max(4 * jobs, 16)``), each written through to the store before
        the next starts, so a crash wastes at most one chunk.  Already
        stored scenarios are never re-simulated.  A custom ``runner``
        must carry this campaign's store (that write-through *is* the
        journal of completed work).

        ``on_chunk`` is the job-context hook: called as
        ``on_chunk(done, total)`` at every durable chunk boundary
        (before each chunk starts and once after the last), where a
        supervising job runner heartbeats its claim and checks for
        cancellation -- an exception raised from the hook aborts
        between chunks, losing no stored work.
        """
        if runner is None:
            runner = BatchRunner(jobs=jobs, store=self.store)
        elif runner.store is None:
            raise ConfigError(
                "campaign runner must carry the campaign's result store "
                "(results that never reach disk cannot be resumed)"
            )
        elif (
            runner.store is not self.store
            and runner.store.path.resolve() != self.store.path.resolve()
        ):
            raise ConfigError(
                f"campaign runner writes to {runner.store.path}, not this "
                f"campaign's store {self.store.path}; its results would "
                f"never count as done here"
            )
        rows = self.store.campaign_rows(self.name)
        chunk = chunk_size or max(4 * runner.jobs, 16)
        if chunk < 1:
            raise ConfigError("chunk_size must be >= 1")

        # Serve already-durable rows from the store, then simulate the
        # rest chunkwise, collecting each chunk's results as they are
        # produced -- the final assembly never re-reads fresh work.
        # Keys come from the journal; only pending scenarios are decoded.
        by_key: dict = {}
        pending_keys: List[str] = []
        pending: List[Scenario] = []
        for key, doc in rows:
            if key in by_key:
                continue
            by_key[key] = self.store.get(key)
            if by_key[key] is None:
                pending_keys.append(key)
                pending.append(Scenario.from_dict(json.loads(doc)))
        done = len(rows) - len(pending)
        with span(
            "campaign.run",
            campaign=self.name,
            total=len(rows),
            pending=len(pending),
        ):
            for start in range(0, len(pending), chunk):
                if on_chunk is not None:
                    on_chunk(done, len(rows))
                batch = pending[start : start + chunk]
                with span(
                    "campaign.chunk",
                    campaign=self.name,
                    start=start,
                    size=len(batch),
                ):
                    by_key.update(
                        zip(pending_keys[start : start + chunk], runner.run(batch))
                    )
                done += len(batch)
            if on_chunk is not None:
                on_chunk(done, len(rows))
        return [by_key[key] for key, _ in rows]

    def resume(
        self, jobs: int = 1, chunk_size: Optional[int] = None
    ) -> List[SystemResult]:
        """Alias of :meth:`run`: continue after an interruption."""
        return self.run(jobs=jobs, chunk_size=chunk_size)


def partition_scenarios(
    scenarios: Sequence[Scenario], parts: int, seed: int = 0
) -> List[List[Scenario]]:
    """Seed-resolve the *full* list, then slice it into ``parts`` groups.

    Resolution happens before slicing with the same
    :func:`~repro.core.batch.positional_seeds` rule
    :meth:`Campaign.create` uses, so a scenario's content key is
    identical whether it runs in partition 3 of 4 or in one big run --
    the invariant the final merge depends on.
    """
    resolved = positional_seeds(scenarios, seed)
    return [
        resolved[start:stop]
        for start, stop in partition_slices(len(resolved), parts)
    ]


def partition_name(campaign: str, index: int, of: int) -> str:
    """The sub-campaign name of one partition (``index`` is 1-based)."""
    return f"{campaign}@p{index}of{of}"


_PARTITION_NAME = re.compile(r"^(?P<campaign>.+)@p(?P<index>\d+)of(?P<of>\d+)$")


def split_partition_name(name: str) -> Optional[Tuple[str, int, int]]:
    """Invert :func:`partition_name`: ``(campaign, index, of)`` or ``None``.

    ``None`` means ``name`` is an ordinary campaign, not a partition
    sub-campaign -- the status listing uses this to group partitions
    under their parent instead of showing them as unrelated campaigns.
    """
    match = _PARTITION_NAME.match(name)
    if match is None:
        return None
    return (
        match.group("campaign"),
        int(match.group("index")),
        int(match.group("of")),
    )


def campaign_names(store: ResultStore) -> List[str]:
    """Names of every campaign journaled in ``store``, sorted."""
    return store.campaign_names()


def campaign_statuses(store: ResultStore) -> List[CampaignStatus]:
    """Progress snapshots for every campaign in ``store``."""
    return [Campaign(store, name).status() for name in campaign_names(store)]


@dataclass(frozen=True)
class CampaignGroup:
    """One campaign with its partition sub-campaigns folded underneath.

    ``status`` is the parent campaign's own snapshot when the store
    journals it (a coordinator's store does; a worker's scratch store
    holding only partitions does not).
    ``partitions`` are the ``NAME@pIofN`` sub-campaigns in index order
    and ``of`` is their declared partition count.
    """

    name: str
    status: Optional[CampaignStatus]
    partitions: Tuple[CampaignStatus, ...] = ()
    of: int = 0

    @property
    def partitions_complete(self) -> int:
        return sum(1 for status in self.partitions if status.complete)

    def summary_lines(self) -> List[str]:
        """Multi-line report: parent line, then indented partitions."""
        head = (
            self.status.summary()
            if self.status is not None
            else f"{self.name}: (journal not in this store)"
        )
        lines = [head]
        if self.of:
            lines.append(
                f"  partitions: {self.partitions_complete}/{self.of} complete"
            )
            for status in self.partitions:
                split = split_partition_name(status.name)
                index = split[1] if split else 0
                lines.append(f"    p{index}: {status.summary()}")
        return lines


def group_campaign_statuses(
    statuses: Sequence[CampaignStatus],
) -> List[CampaignGroup]:
    """Fold partition sub-campaigns under their parent campaign.

    Pure reshaping of :func:`campaign_statuses` output: every
    ``NAME@pIofN`` status attaches to group ``NAME`` (created even when
    the parent journal itself is absent, as on a worker's scratch
    store); everything else becomes its own group.  Groups come back
    sorted by name, partitions by index.
    """
    own: dict = {}
    parts: dict = {}
    for status in statuses:
        split = split_partition_name(status.name)
        if split is None:
            own[status.name] = status
        else:
            parent, index, of = split
            parts.setdefault(parent, []).append((index, of, status))
    groups = []
    for name in sorted(set(own) | set(parts)):
        grouped = sorted(parts.get(name, []))
        groups.append(
            CampaignGroup(
                name=name,
                status=own.get(name),
                partitions=tuple(status for _, _, status in grouped),
                of=max((of for _, of, _ in grouped), default=0),
            )
        )
    return groups
