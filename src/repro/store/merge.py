"""Merging and syncing content-addressed stores.

Because every result row is keyed by its scenario's content hash and
written first-writer-wins in one canonical byte shape, two stores are
trivially mergeable: copy the rows the destination lacks, verify that
rows both sides hold are *byte-identical*, and refuse loudly when they
are not (:class:`~repro.errors.StoreError` -- diverging bytes under one
content key mean corruption or non-determinism, never a policy choice).
The one exception is a result schema change: a row written under an
older schema agrees with a current one when it re-encodes to the same
bytes (:func:`~repro.store.db.diverging_columns`).  A row of a schema
this library cannot read (a newer one) is neither: the merge stops with
a :class:`StoreError` naming that schema.

:func:`merge_stores` copies raw rows (exact canonical bytes *and*
provenance columns) from a source store into a destination;
:func:`sync_stores` runs the merge both ways so two stores converge on
the union.  Both accept any mix of plain :class:`~repro.store.db.ResultStore`
files and :class:`~repro.store.shard.ShardedResultStore` directories --
routing is just :meth:`put_raw` on the destination.

Campaign and study *journals* merge with the same semantics: a name
both sides know must journal identical content (keys for campaigns,
``spec_key`` + keys for studies), otherwise :class:`StoreError`.  The
``jobs`` table never merges -- claim state (who is running what, with
which heartbeat) is meaningful only inside one deployment.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import StoreError
from repro.obs.metrics import metrics as _obs_metrics
from repro.obs.state import STATE as _OBS
from repro.obs.trace import span
from repro.store.db import ResultStore, _compare_rows

#: Store-merge telemetry: rows moved (or found identical) per merge.
_MERGE_ROWS = _obs_metrics().counter(
    "repro_store_merge_rows_total",
    "Result rows handled by store merges, by outcome",
    ("outcome",),
)


@dataclass(frozen=True)
class MergeReport:
    """What one :func:`merge_stores` call did (or, dry, *would* do).

    A dry run additionally names what a real merge would refuse on:
    ``conflicts`` holds content keys whose canonical bytes diverge
    between the stores, ``journal_conflicts`` the campaign/study names
    journaled with different content on each side.  A non-dry merge
    never populates these -- it raises :class:`StoreError` at the first
    one instead of writing past it.
    """

    source: str
    dest: str
    imported: int
    identical: int
    campaigns_imported: int
    campaigns_shared: int
    studies_imported: int
    studies_shared: int
    dry_run: bool = False
    conflicts: Tuple[str, ...] = field(default=())
    journal_conflicts: Tuple[str, ...] = field(default=())

    def summary(self) -> str:
        """One-line human-readable report."""
        verb = "would merge" if self.dry_run else "merged"
        imported = (
            f"{self.imported} row(s) to import"
            if self.dry_run
            else f"{self.imported} row(s) imported"
        )
        parts = [
            f"{verb} {self.source} -> {self.dest}: "
            f"{imported}, {self.identical} already present"
        ]
        if self.campaigns_imported or self.campaigns_shared:
            parts.append(
                f"campaigns: {self.campaigns_imported} imported, "
                f"{self.campaigns_shared} shared"
            )
        if self.studies_imported or self.studies_shared:
            parts.append(
                f"studies: {self.studies_imported} imported, "
                f"{self.studies_shared} shared"
            )
        if self.conflicts:
            parts.append(
                f"REFUSES: {len(self.conflicts)} diverging row(s) "
                f"({', '.join(k[:12] for k in self.conflicts[:4])}"
                f"{', ...' if len(self.conflicts) > 4 else ''})"
            )
        if self.journal_conflicts:
            parts.append(
                "REFUSES: journal conflict(s) "
                + ", ".join(self.journal_conflicts)
            )
        return "; ".join(parts)


def import_raw_rows(
    dest: ResultStore, rows: Iterable[Tuple], source: str = ""
) -> Tuple[int, int]:
    """Import raw :data:`RESULT_COLUMNS` rows into ``dest``.

    The incremental sibling of :func:`merge_stores`: same first-writer-
    wins :meth:`~repro.store.db.ResultStore.put_raw` semantics (a key
    collision with different canonical bytes raises
    :class:`StoreError`), same telemetry, but fed page by page -- this
    is what the distributed coordinator calls as each partition's
    result pages land, so rows are queryable long before the campaign
    finishes.  Returns ``(imported, identical)``.
    """
    imported, identical, _ = _merge_rows((dest,), rows, source, dry_run=False)
    return imported, identical


def _first_held(
    chain: Sequence[ResultStore], read: Callable[[ResultStore], object]
) -> Tuple[Optional[ResultStore], object]:
    """``(store, read(store))`` of the first store in ``chain`` holding it."""
    for store in chain:
        held = read(store)
        if held is not None:
            return store, held
    return None, None


def _merge_rows(
    chain: Sequence[ResultStore],
    rows: Iterable[Tuple],
    source: str,
    dry_run: bool,
) -> Tuple[int, int, Tuple[str, ...]]:
    """The row walk of every merge: ``(imported, identical, conflicts)``.

    ``chain`` is the destination, in a dry run followed by the sources
    merged before this one.  Only the per-row step branches.  A real
    merge writes each row into ``chain[0]`` with
    :meth:`~repro.store.db.ResultStore.put_raw`, which raises at the
    first divergence; a dry run reads the chain's first held row and
    collects the keys :func:`~repro.store.db.diverging_columns`
    refuses instead.  Both refuse a row they cannot read
    (:class:`StoreError`).
    """
    imported = identical = 0
    conflicts: List[str] = []
    for row in rows:
        if not dry_run:
            fresh = chain[0].put_raw(tuple(row), source=source)
        else:
            holder, held = _first_held(chain, lambda s: s.get_raw(row[0]))
            fresh = held is None
            if not fresh and _compare_rows(held, row, _store_label(holder), source):
                conflicts.append(str(row[0]))
                continue
        if fresh:
            imported += 1
        else:
            identical += 1
    if _OBS.metrics_on and not dry_run:
        if imported:
            _MERGE_ROWS.inc(imported, outcome="imported")
        if identical:
            _MERGE_ROWS.inc(identical, outcome="identical")
    return imported, identical, tuple(conflicts)


def merge_stores(
    dest: ResultStore,
    source: ResultStore,
    journals: bool = True,
    dry_run: bool = False,
    earlier: Sequence[ResultStore] = (),
) -> MergeReport:
    """Import every row of ``source`` into ``dest``; return the tally.

    Result rows copy raw (byte- and provenance-preserving); colliding
    keys must match byte-for-byte or the merge dies with
    :class:`StoreError` naming both stores.  ``journals=False`` limits
    the merge to result rows (what partitioned campaign execution wants
    -- the canonical campaign journal already lives in the destination
    and the partitions' scratch journals should not follow it there).

    ``dry_run=True`` writes nothing: the report counts what a real
    merge would import, and -- instead of raising at the first
    divergence -- collects *every* conflicting key and journal name, so
    an operator can audit a merge before committing to it.  A dry run
    also finds rows and journals in ``earlier``: the sources one
    command merges before this one, which a real merge finds in
    ``dest``.

    Idempotent and kill-safe: every imported row is durable the moment
    its transaction commits, and re-running the merge just counts the
    survivors as already-present.
    """
    source_label = _store_label(source)
    dest_label = _store_label(dest)
    campaigns = studies = shared_campaigns = shared_studies = 0
    journal_conflicts: List[str] = []
    # A dry run opens no span, so ``store.merge`` times real merges only.
    merge_span = (
        nullcontext()
        if dry_run
        else span("store.merge", source=source_label, dest=dest_label)
    )
    chain = (dest, *earlier) if dry_run else (dest,)
    with merge_span as sp:
        imported, identical, conflicts = _merge_rows(
            chain, source.iter_raw(), source_label, dry_run
        )
        if journals:
            campaigns, shared_campaigns, bad = _merge_campaigns(
                chain, source, dry_run
            )
            journal_conflicts.extend(f"campaign {name!r}" for name in bad)
            studies, shared_studies, bad = _merge_studies(chain, source, dry_run)
            journal_conflicts.extend(f"study {name!r}" for name in bad)
        if sp is not None:
            sp.annotate(imported=imported, identical=identical)
    return MergeReport(
        source=source_label,
        dest=dest_label,
        imported=imported,
        identical=identical,
        campaigns_imported=campaigns,
        campaigns_shared=shared_campaigns,
        studies_imported=studies,
        studies_shared=shared_studies,
        dry_run=dry_run,
        conflicts=conflicts,
        journal_conflicts=tuple(journal_conflicts),
    )


def sync_stores(
    a: ResultStore, b: ResultStore, journals: bool = True, dry_run: bool = False
) -> Tuple[MergeReport, MergeReport]:
    """Merge both ways so ``a`` and ``b`` converge on the union."""
    return merge_stores(a, b, journals=journals, dry_run=dry_run), merge_stores(
        b, a, journals=journals, dry_run=dry_run
    )


def _store_label(store: ResultStore) -> str:
    return str(getattr(store, "root", store.path))


def _merge_campaigns(
    chain: Sequence[ResultStore], source: ResultStore, dry_run: bool = False
) -> Tuple[int, int, Tuple[str, ...]]:
    """Copy campaign journals ``source`` has and ``chain[0]`` lacks.

    Returns ``(imported, shared, conflicting names)``.  A name both
    stores journal must hold the same ordered scenario rows; a real
    merge raises :class:`StoreError` at the first that does not, a dry
    run collects them (and writes nothing), looking names up along
    ``chain`` like :func:`_merge_rows`.  Copies keep the source's
    ``source`` label and creation stamps, so merged journals are
    byte-identical.
    """
    dest = chain[0]
    imported = shared = 0
    conflicting = []
    for name in source.campaign_names():
        rows = source.campaign_rows(name)
        if dry_run:
            holder, _ = _first_held(chain, lambda s: s.get_campaign(name))
            fresh = holder is None
        else:
            journal = source.get_campaign(name)
            holder = dest
            fresh = dest.put_campaign(
                name,
                journal.source,
                rows,
                created_at=journal.created_at,
                created_unix=journal.created_unix,
            )
        if fresh:
            imported += 1
        elif holder.campaign_rows(name) == rows:
            shared += 1
        elif dry_run:
            conflicting.append(name)
        else:
            raise StoreError(
                f"campaign {name!r} exists in both "
                f"{_store_label(dest)} and {_store_label(source)} "
                f"with different journaled scenarios; rename one "
                f"before merging"
            )
    return imported, shared, tuple(conflicting)


def _merge_studies(
    chain: Sequence[ResultStore], source: ResultStore, dry_run: bool = False
) -> Tuple[int, int, Tuple[str, ...]]:
    """Copy study journals ``source`` has and ``chain[0]`` lacks.

    Same contract as :func:`_merge_campaigns`; a shared name must
    journal the same ``spec_key`` and simulation keys.
    """
    dest = chain[0]
    imported = shared = 0
    conflicting = []
    for study in source.studies():
        if dry_run:
            _, held = _first_held(chain, lambda s: s.get_study(study.name))
            fresh = held is None
        else:
            fresh = dest.put_study(
                study.name,
                study.spec,
                study.spec_key,
                study.design_name,
                study.points,
                study.keys,
                created_at=study.created_at,
                created_unix=study.created_unix,
            )
            held = None if fresh else dest.get_study(study.name)
        if fresh:
            imported += 1
        elif (held.spec_key, held.keys) == (study.spec_key, study.keys):
            shared += 1
        elif dry_run:
            conflicting.append(study.name)
        else:
            raise StoreError(
                f"study {study.name!r} exists in both {_store_label(dest)} "
                f"and {_store_label(source)} with a different spec or "
                f"design; rename one before merging"
            )
    return imported, shared, tuple(conflicting)
