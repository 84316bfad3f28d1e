"""The content-addressed on-disk result store.

:class:`ResultStore` is a single-file SQLite database mapping
``Scenario.cache_key()`` (the scenario's canonical content hash) to the
fully JSON-round-trippable :meth:`~repro.system.result.SystemResult.to_payload`
of its simulation, plus provenance: which backend produced it, which
library version, how long it took and when.  Because the key is a pure
function of the scenario *content*, re-labelled or re-submitted copies of
the same simulation dedupe to one row -- across batches, across
campaigns, across processes and across time.

Design notes
------------
- **Stdlib only.**  SQLite ships with CPython; no new dependency.
- **Safe under fan-out.**  The database runs in WAL mode and every
  (process, thread) pair gets its own lazily opened connection, so a
  store object can be shared across a :class:`~repro.core.batch.BatchRunner`
  thread pool or pickled into process workers.  Writes use
  ``INSERT OR IGNORE`` inside immediate transactions: when two runners
  race on the same scenario, exactly one row survives and both see it.
- **Queryable.**  Headline metrics and the three Table V configuration
  fields are stored as indexed columns next to the payload, so
  ``store.query(family=..., min_transmissions=...)`` never parses JSON.
- **Canonical bytes.**  Payloads are serialised with sorted keys and
  fixed separators, so identical results are byte-identical rows --
  which is what the concurrent-writer tests assert.
- **One transaction rule.**  Every write to a store file (rows,
  journals, jobs, coordinator state) goes through
  :meth:`ResultStore._transaction`, which rolls back only a transaction
  SQLite has not already rolled back itself, so the real error surfaces.
- **One journal API.**  Campaign and study journals are read and written
  only through the store's methods (``put_campaign``, ``campaign_rows``,
  ``put_study``, ...); merges copy them through the same writers.
- **A plain store is a one-shard store.**  Result rows are reached only
  through ``_shard_for``/``_shard_files``, which return the store itself
  here; :class:`~repro.store.shard.ShardedResultStore` only overrides them.
"""

from __future__ import annotations

import json
import os
import sqlite3
import sys
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.documents import canonical_json
from repro.errors import ConfigError, DesignError, StoreError
from repro.obs.metrics import metrics as _obs_metrics
from repro.obs.state import STATE as _OBS
from repro.scenario import Scenario
from repro.system.result import SystemResult, same_result

#: Store operation telemetry: counts and latency per primitive.  The
#: ``hit`` label on ``get`` distinguishes a served row from a miss.
_STORE_OPS = _obs_metrics().counter(
    "repro_store_ops_total",
    "Result-store operations by kind and outcome",
    ("op", "outcome"),
)
_STORE_OP_SECONDS = _obs_metrics().histogram(
    "repro_store_op_seconds",
    "Result-store operation latency",
    ("op",),
)

#: On-disk layout version, recorded in ``store_meta``; a store created by
#: an incompatible future layout is refused instead of misread.  Purely
#: *additive* layout growth (the ``jobs`` table the service layer added)
#: keeps the version: ``CREATE TABLE IF NOT EXISTS`` inside the
#: version-checked ``_init_schema`` transaction migrates an older file in
#: place, and older readers simply never touch the extra table.
STORE_SCHEMA = 1

_TABLES = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    key            TEXT PRIMARY KEY,
    name           TEXT NOT NULL DEFAULT '',
    family         TEXT NOT NULL DEFAULT '',
    backend        TEXT NOT NULL,
    horizon        REAL NOT NULL,
    seed           INTEGER,
    clock_hz       REAL NOT NULL,
    watchdog_s     REAL NOT NULL,
    tx_interval_s  REAL NOT NULL,
    transmissions  INTEGER NOT NULL,
    final_voltage  REAL NOT NULL,
    scenario       TEXT NOT NULL,
    payload        TEXT NOT NULL,
    repro_version  TEXT NOT NULL,
    wall_time_s    REAL NOT NULL DEFAULT 0.0,
    created_at     TEXT NOT NULL,
    created_unix   REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_results_family ON results(family);
CREATE INDEX IF NOT EXISTS idx_results_backend ON results(backend);
CREATE INDEX IF NOT EXISTS idx_results_created ON results(created_unix);
CREATE TABLE IF NOT EXISTS campaigns (
    name         TEXT PRIMARY KEY,
    source       TEXT NOT NULL DEFAULT '',
    total        INTEGER NOT NULL,
    created_at   TEXT NOT NULL,
    created_unix REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS campaign_scenarios (
    campaign TEXT NOT NULL,
    idx      INTEGER NOT NULL,
    key      TEXT NOT NULL,
    scenario TEXT NOT NULL,
    PRIMARY KEY (campaign, idx)
);
CREATE INDEX IF NOT EXISTS idx_campaign_keys ON campaign_scenarios(key);
CREATE TABLE IF NOT EXISTS studies (
    name         TEXT PRIMARY KEY,
    spec         TEXT NOT NULL,
    spec_key     TEXT NOT NULL,
    design_name  TEXT NOT NULL,
    points       TEXT NOT NULL,
    keys         TEXT NOT NULL,
    total        INTEGER NOT NULL,
    created_at   TEXT NOT NULL,
    created_unix REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    id             TEXT PRIMARY KEY,
    kind           TEXT NOT NULL,
    name           TEXT NOT NULL,
    payload        TEXT NOT NULL,
    status         TEXT NOT NULL DEFAULT 'queued',
    priority       INTEGER NOT NULL DEFAULT 0,
    owner          TEXT NOT NULL DEFAULT '',
    worker         TEXT,
    attempts       INTEGER NOT NULL DEFAULT 0,
    error          TEXT,
    total          INTEGER NOT NULL DEFAULT 0,
    submitted_at   TEXT NOT NULL,
    submitted_unix REAL NOT NULL,
    started_unix   REAL,
    finished_unix  REAL,
    heartbeat_unix REAL
);
CREATE INDEX IF NOT EXISTS idx_jobs_claim ON jobs(status, priority, submitted_unix);
CREATE TABLE IF NOT EXISTS coord_runs (
    name         TEXT PRIMARY KEY,
    manifest     TEXT NOT NULL,
    partitions   INTEGER NOT NULL,
    created_at   TEXT NOT NULL,
    created_unix REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS coord_partitions (
    run          TEXT NOT NULL,
    idx          INTEGER NOT NULL,
    state        TEXT NOT NULL DEFAULT 'queued',
    worker       TEXT NOT NULL DEFAULT '',
    job_id       TEXT NOT NULL DEFAULT '',
    attempts     INTEGER NOT NULL DEFAULT 0,
    rows_merged  INTEGER NOT NULL DEFAULT 0,
    error        TEXT NOT NULL DEFAULT '',
    updated_unix REAL NOT NULL DEFAULT 0.0,
    PRIMARY KEY (run, idx)
);
"""

#: Every ``results`` column, in table order -- the raw-row shape
#: :meth:`ResultStore.iter_raw` yields and :meth:`ResultStore.put_raw`
#: accepts.  Merges copy rows in this shape so the destination keeps the
#: source's exact canonical bytes *and* provenance (who simulated it,
#: when, on which library version).
RESULT_COLUMNS = (
    "key", "name", "family", "backend", "horizon", "seed",
    "clock_hz", "watchdog_s", "tx_interval_s",
    "transmissions", "final_voltage",
    "scenario", "payload", "repro_version", "wall_time_s",
    "created_at", "created_unix",
)
_RAW_SELECT = ", ".join(RESULT_COLUMNS)
_SCENARIO = RESULT_COLUMNS.index("scenario")
_PAYLOAD = RESULT_COLUMNS.index("payload")
_INSERT_RESULT = (
    f"INSERT OR IGNORE INTO results ({_RAW_SELECT}) "
    f"VALUES ({','.join('?' * len(RESULT_COLUMNS))})"
)


def _utc_now() -> datetime:
    return datetime.now(timezone.utc)


def _on_disk(path: Union[str, Path]) -> Path:
    """``path`` as a :class:`Path`, refusing SQLite's in-memory names."""
    text = str(path)
    if text == ":memory:" or text.startswith("file::memory:"):
        raise ConfigError(
            "the result store must live on disk (an in-memory store "
            "would give every worker its own empty database)"
        )
    return Path(text)


def _stamp(
    created_at: Optional[str], created_unix: Optional[float]
) -> Tuple[str, float]:
    """A journal row's creation stamp: the one given (merge), else now."""
    if created_at is None or created_unix is None:
        now = _utc_now()
        return now.isoformat(), now.timestamp()
    return created_at, float(created_unix)


def shard_index(key: str, n_shards: int) -> int:
    """Which shard a content key routes to.

    Keys are SHA-256 hex digests, so the first 8 hex digits are a
    uniform 32-bit integer; arbitrary non-hex keys fall back to CRC-32
    of the text so lookups never crash on garbage input.
    """
    try:
        prefix = int(key[:8], 16)
    except ValueError:
        prefix = zlib.crc32(key.encode("utf-8"))
    return prefix % n_shards


def diverging_columns(held: Tuple, row: Tuple) -> List[str]:
    """The columns in which raw ``row`` disagrees with the ``held`` row
    of the same key: ``"scenario"`` unless the bytes are equal,
    ``"payload"`` unless :func:`~repro.system.result.same_result` says
    the payloads agree (equal bytes, or a result written under an
    older schema that re-encodes to the other's exact bytes).  A
    payload of a result schema this library cannot read raises the
    ``DesignError`` naming it: such a row may be newer, not divergent.
    """
    diverged = []
    if held[_SCENARIO] != row[_SCENARIO]:
        diverged.append("scenario")
    if not same_result(held[_PAYLOAD], row[_PAYLOAD]):
        diverged.append("payload")
    return diverged


def _compare_rows(held: Tuple, row: Tuple, where: object, source: str) -> List[str]:
    """:func:`diverging_columns` for a merge of ``source`` into ``where``.

    A payload this library cannot read becomes a :class:`StoreError`
    naming the key, both stores and the schema: it is unreadable, not
    divergent, so no merge counts it as a conflict.
    """
    try:
        return diverging_columns(held, row)
    except DesignError as exc:
        raise StoreError(
            f"result {row[0]} in {where} and "
            f"{source or 'the incoming row'} cannot be compared: {exc}"
        ) from None


def _in_chunks(keys: List[str]) -> Iterator[Tuple[str, List[str]]]:
    """``keys`` as ``(placeholders, chunk)`` pairs of at most 500 keys.

    One ``key IN (?, ...)`` statement per chunk keeps every statement
    under SQLite's bound-parameter limit.
    """
    for start in range(0, len(keys), 500):
        chunk = keys[start : start + 500]
        yield ",".join("?" * len(chunk)), chunk


def scenario_family(scenario: Scenario) -> str:
    """The family label a scenario's name encodes (``""`` if none).

    Family expansions name their members ``<family>/g<G>r<R>``
    (:meth:`repro.system.stochastic.StochasticFamily.expand`); everything
    before the first ``/`` is the family.  Unnamed or flat-named
    scenarios belong to no family.
    """
    name = scenario.name or ""
    return name.split("/", 1)[0] if "/" in name else ""


@dataclass(frozen=True)
class StoredResult:
    """One store row without its (potentially large) payload."""

    key: str
    name: str
    family: str
    backend: str
    horizon: float
    seed: Optional[int]
    clock_hz: float
    watchdog_s: float
    tx_interval_s: float
    transmissions: int
    final_voltage: float
    repro_version: str
    wall_time_s: float
    created_at: str

    @property
    def transmissions_per_hour(self) -> float:
        """Figure of merit normalised to one hour."""
        if self.horizon <= 0.0:
            return 0.0
        return self.transmissions * 3600.0 / self.horizon

    def to_row_dict(self) -> dict:
        """Flat JSON/CSV-ready dictionary of the indexed columns."""
        return {
            "key": self.key,
            "name": self.name,
            "family": self.family,
            "backend": self.backend,
            "horizon": self.horizon,
            "seed": self.seed,
            "clock_hz": self.clock_hz,
            "watchdog_s": self.watchdog_s,
            "tx_interval_s": self.tx_interval_s,
            "transmissions": self.transmissions,
            "transmissions_per_hour": self.transmissions_per_hour,
            "final_voltage": self.final_voltage,
            "repro_version": self.repro_version,
            "wall_time_s": self.wall_time_s,
            "created_at": self.created_at,
        }


#: The ``results`` columns :meth:`ResultStore.query` reads, in
#: :class:`StoredResult` field order.
_QUERY_SELECT = ", ".join(field.name for field in fields(StoredResult))


@dataclass(frozen=True)
class StoredCampaign:
    """One campaign-journal header row (:mod:`repro.store.campaign`).

    The journaled scenarios themselves come from
    :meth:`ResultStore.campaign_rows`.
    """

    name: str
    source: str
    total: int
    created_at: str
    created_unix: float


@dataclass(frozen=True)
class StoredStudy:
    """One study-journal row (:mod:`repro.core.study`), decoded.

    ``keys`` holds the content keys of every simulation the study
    issues, so progress is derivable from the journal alone -- no stage
    registries (which a plugin-registered study's spec may need) are
    required to *inspect* a store.
    """

    name: str
    spec: dict
    spec_key: str
    design_name: str
    points: list
    keys: list
    total: int
    created_at: str
    created_unix: float = 0.0

    def done(self, store: "ResultStore") -> int:
        """How many of this study's simulations ``store`` already holds."""
        return store.count_keys(self.keys)


@dataclass(frozen=True)
class StoreStats:
    """Aggregate view of a store (``repro-wsn store stats``)."""

    path: str
    n_results: int
    n_campaigns: int
    by_backend: Tuple[Tuple[str, int], ...]
    by_family: Tuple[Tuple[str, int], ...]
    payload_bytes: int
    file_bytes: int
    total_wall_time_s: float
    oldest: Optional[str]
    newest: Optional[str]
    by_job_status: Tuple[Tuple[str, int], ...] = ()
    n_shards: int = 1

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"store: {self.path}",
            f"results: {self.n_results} "
            f"({self.payload_bytes / 1e6:.2f} MB payload, "
            f"{self.file_bytes / 1e6:.2f} MB on disk)",
            f"campaigns: {self.n_campaigns}",
            f"simulated wall time banked: {self.total_wall_time_s:.2f} s",
        ]
        if self.n_shards > 1:
            lines.insert(1, f"shards: {self.n_shards}")
        if self.by_job_status:
            lines.append(
                "jobs: "
                + ", ".join(
                    f"{status} {count}" for status, count in self.by_job_status
                )
            )
        if self.by_backend:
            lines.append(
                "by backend: "
                + ", ".join(f"{name} {count}" for name, count in self.by_backend)
            )
        if self.by_family:
            lines.append(
                "by family: "
                + ", ".join(
                    f"{name or '(none)'} {count}" for name, count in self.by_family
                )
            )
        if self.oldest:
            lines.append(f"span: {self.oldest} .. {self.newest}")
        return "\n".join(lines)


class ResultStore:
    """Content-addressed persistent cache of simulation results.

    Parameters
    ----------
    path:
        Database file.  Created (with schema) on first open; the parent
        directory must exist.  In-memory databases are rejected because
        the store's whole point is to outlive the process (and each
        worker connection would see a different empty database).

    A store instance is cheap, picklable (workers re-open their own
    connections) and safe to share across threads and processes.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = _on_disk(path)
        if not self.path.parent.exists():
            raise ConfigError(
                f"store directory {str(self.path.parent)!r} does not exist"
            )
        self._connections: Dict[Tuple[int, int], sqlite3.Connection] = {}
        self._init_schema()

    # -- connection management ------------------------------------------------

    def _conn(self) -> sqlite3.Connection:
        """The calling (process, thread)'s own connection, opened lazily."""
        ident = (os.getpid(), threading.get_ident())
        conn = self._connections.get(ident)
        if conn is None:
            try:
                conn = sqlite3.connect(str(self.path), timeout=60.0)
            except sqlite3.Error as exc:
                raise ConfigError(f"cannot open store {self.path}: {exc}") from exc
            conn.isolation_level = None  # explicit transactions only
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=60000")
            self._connections[ident] = conn
        return conn

    @contextmanager
    def _transaction(self) -> Iterator[sqlite3.Connection]:
        """The caller's connection inside one ``BEGIN IMMEDIATE`` transaction.

        Commits when the block exits normally.  On an exception it rolls
        back only while the transaction is still open -- SQLite rolls
        some failures back by itself (a ``RAISE(ROLLBACK)`` trigger, an
        interrupt, a full disk or I/O error) -- and re-raises the
        original error, never a ``cannot rollback`` in its place.  Every
        write to the store file goes through here.
        """
        conn = self._conn()
        conn.execute("BEGIN IMMEDIATE")
        try:
            yield conn
            conn.execute("COMMIT")
        except BaseException:
            if conn.in_transaction:
                conn.execute("ROLLBACK")
            raise

    def _init_schema(self) -> None:
        with self._transaction() as conn:
            # Not executescript(): that would commit the open transaction.
            for statement in _TABLES.split(";"):
                if statement.strip():
                    conn.execute(statement)
            row = conn.execute(
                "SELECT value FROM store_meta WHERE key='schema'"
            ).fetchone()
            if row is None:
                now = _utc_now()
                conn.execute(
                    "INSERT INTO store_meta(key, value) VALUES (?, ?), (?, ?)",
                    ("schema", str(STORE_SCHEMA), "created_at", now.isoformat()),
                )
            elif row[0] != str(STORE_SCHEMA):
                raise DesignError(
                    f"store {self.path} has layout version {row[0]} "
                    f"(this library reads version {STORE_SCHEMA})"
                )

    def close(self) -> None:
        """Close the calling (process, thread)'s connection.

        sqlite3 connections are thread-bound, so only the owner may
        close one; other workers' connections close when their threads
        or processes end.
        """
        conn = self._connections.pop((os.getpid(), threading.get_ident()), None)
        if conn is not None:
            try:
                conn.close()
            except sqlite3.Error:
                pass

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        # An sqlite3 connection sits in a reference cycle of its own (its
        # statement cache refers back to it), so dropping the store does
        # not free it: the cyclic collector would close it later, paying
        # the WAL checkpoint inside whatever code happens to be running.
        # Close the calling thread's connection now instead.
        try:
            self.close()
        except Exception:  # pragma: no cover - half-built store, shutdown
            pass

    # Connections cannot cross process boundaries; workers reconnect.
    def __getstate__(self) -> dict:
        return {"path": self.path}

    def __setstate__(self, state: dict) -> None:
        self.path = state["path"]
        self._connections = {}

    def __repr__(self) -> str:
        return f"ResultStore({str(self.path)!r})"

    # -- shard hooks --------------------------------------------------------------

    def _shard_for(self, key: str) -> "ResultStore":
        """The store file holding ``key``'s result row (here: this one)."""
        return self

    def _shard_files(self) -> List["ResultStore"]:
        """Every store file holding result rows, in shard order.

        A plain store is its own only shard.  The list is built per
        call: a store keeping a reference to itself would sit in a
        reference cycle and miss its close-on-drop.
        """
        return [self]

    def _group_keys(
        self, keys: Iterable[str]
    ) -> List[Tuple["ResultStore", List[str]]]:
        """``keys`` grouped by the store file holding their rows."""
        shards = self._shard_files()
        groups: Dict[int, List[str]] = {}
        for key in keys:
            groups.setdefault(shard_index(key, len(shards)), []).append(key)
        return [(shards[index], group) for index, group in groups.items()]

    # -- writing ----------------------------------------------------------------

    def put(
        self,
        scenario: Scenario,
        result: SystemResult,
        wall_time_s: float = 0.0,
    ) -> bool:
        """Store ``result`` under ``scenario``'s content hash.

        Idempotent: the first writer of a key wins and later writes of
        the same key are no-ops (identical content by construction --
        the key covers everything that determines the simulation).
        Returns ``True`` when this call inserted the row.
        """
        import repro

        t0 = time.perf_counter() if _OBS.metrics_on else 0.0
        key = scenario.cache_key()
        now = _utc_now()
        with self._shard_for(key)._transaction() as conn:
            cursor = conn.execute(
                _INSERT_RESULT,
                (
                    key,
                    scenario.name,
                    scenario_family(scenario),
                    scenario.backend,
                    scenario.horizon,
                    scenario.seed,
                    scenario.config.clock_hz,
                    scenario.config.watchdog_s,
                    scenario.config.tx_interval_s,
                    int(result.transmissions),
                    float(result.final_voltage),
                    canonical_json(scenario.to_dict()),
                    canonical_json(result.to_payload()),
                    repro.__version__,
                    float(wall_time_s),
                    now.isoformat(),
                    now.timestamp(),
                ),
            )
        inserted = cursor.rowcount == 1
        if _OBS.metrics_on:
            _STORE_OPS.inc(op="put", outcome="insert" if inserted else "dedup")
            _STORE_OP_SECONDS.observe(time.perf_counter() - t0, op="put")
        return inserted

    def put_raw(self, row: Tuple, source: str = "") -> bool:
        """Import one raw results row (a :data:`RESULT_COLUMNS` tuple).

        The merge/sync primitive: unlike :meth:`put` it preserves the
        source row's exact canonical bytes and provenance columns.
        First writer wins, but a key collision with *different*
        canonical bytes (scenario or payload) is a hard
        :class:`~repro.errors.StoreError` -- content-addressed rows may
        only ever collide identically (see :func:`diverging_columns`).
        A payload of a result schema this library cannot read is
        refused too, as unreadable rather than divergent.
        ``source`` labels where the row came from in that error.
        Returns ``True`` when this call inserted the row.
        """
        if len(row) != len(RESULT_COLUMNS):
            raise StoreError(
                f"raw result row must have {len(RESULT_COLUMNS)} columns "
                f"({', '.join(RESULT_COLUMNS)}), got {len(row)}"
            )
        shard = self._shard_for(str(row[0]))
        with shard._transaction() as conn:
            cursor = conn.execute(_INSERT_RESULT, tuple(row))
            held = None
            if cursor.rowcount != 1:
                held = conn.execute(
                    f"SELECT {_RAW_SELECT} FROM results WHERE key=?", (row[0],)
                ).fetchone()
        if held is None:
            return True
        diverged = _compare_rows(held, row, shard.path, source)
        if diverged:
            raise StoreError(
                f"result {row[0]} in {shard.path} and "
                f"{source or 'the incoming row'} share a content key but "
                f"their canonical bytes differ ({', '.join(diverged)}); "
                f"one of the stores is corrupt or non-deterministic"
            )
        return False

    # -- reading ----------------------------------------------------------------

    def _select(
        self, columns: str, scenario_or_key: Union[Scenario, str]
    ) -> Optional[Tuple]:
        """One result row's ``columns``, or ``None``: every point lookup."""
        if isinstance(scenario_or_key, Scenario):
            key = scenario_or_key.cache_key()
        else:
            key = str(scenario_or_key)
        return self._shard_for(key)._conn().execute(
            f"SELECT {columns} FROM results WHERE key=?", (key,)
        ).fetchone()

    def get(self, scenario_or_key: Union[Scenario, str]) -> Optional[SystemResult]:
        """The stored result for a scenario (or raw key), or ``None``."""
        t0 = time.perf_counter() if _OBS.metrics_on else 0.0
        row = self._select("payload", scenario_or_key)
        if _OBS.metrics_on:
            _STORE_OPS.inc(op="get", outcome="hit" if row else "miss")
            _STORE_OP_SECONDS.observe(time.perf_counter() - t0, op="get")
        if row is None:
            return None
        return SystemResult.from_payload(json.loads(row[0]))

    def get_payload_text(
        self, scenario_or_key: Union[Scenario, str]
    ) -> Optional[str]:
        """The stored payload's exact bytes (for integrity checks)."""
        row = self._select("payload", scenario_or_key)
        return None if row is None else row[0]

    def get_raw(self, scenario_or_key: Union[Scenario, str]) -> Optional[Tuple]:
        """One stored row as a raw :data:`RESULT_COLUMNS` tuple, or ``None``.

        The point lookup sibling of :meth:`iter_raw`: exact canonical
        bytes and provenance columns, suitable for :meth:`put_raw` on
        another store.  The service layer serves these to remote
        coordinators so a merge over HTTP preserves the same bytes a
        file-level merge would.
        """
        row = self._select(_RAW_SELECT, scenario_or_key)
        return None if row is None else tuple(row)

    def get_scenario(
        self, scenario_or_key: Union[Scenario, str]
    ) -> Optional[Scenario]:
        """The scenario document stored next to a result, or ``None``."""
        row = self._select("scenario", scenario_or_key)
        return None if row is None else Scenario.from_dict(json.loads(row[0]))

    def __contains__(self, scenario_or_key: Union[Scenario, str]) -> bool:
        return self._select("1", scenario_or_key) is not None

    def __len__(self) -> int:
        return sum(
            int(shard._conn().execute("SELECT COUNT(*) FROM results").fetchone()[0])
            for shard in self._shard_files()
        )

    def count_keys(self, keys: List[str]) -> int:
        """How many of ``keys`` have stored results.

        What study/campaign progress polls want: counted through
        :meth:`have_keys`, so one aggregated query per 500 keys instead
        of a SELECT per key.
        """
        return len(self.have_keys(keys))

    def have_keys(self, keys: List[str]) -> set:
        """The subset of ``keys`` that have stored results.

        Campaign progress needs to know *which* keys are done; one
        aggregated query per 500 keys per shard file.
        """
        present: set = set()
        for shard, group in self._group_keys(dict.fromkeys(keys)):
            conn = shard._conn()
            for placeholders, chunk in _in_chunks(group):
                present.update(
                    row[0]
                    for row in conn.execute(
                        f"SELECT key FROM results WHERE key IN ({placeholders})",
                        chunk,
                    )
                )
        return present

    def keys(self) -> List[str]:
        """Every stored content key, sorted."""
        return sorted(
            row[0]
            for shard in self._shard_files()
            for row in shard._conn().execute("SELECT key FROM results")
        )

    def iter_raw(self) -> Iterator[Tuple]:
        """Every results row as a raw :data:`RESULT_COLUMNS` tuple.

        Streamed shard by shard, key-ordered within each, from the
        reader's own connections; the merge primitives feed these
        straight into :meth:`put_raw` on another store.
        """
        for shard in self._shard_files():
            for row in shard._conn().execute(
                f"SELECT {_RAW_SELECT} FROM results ORDER BY key"
            ):
                yield tuple(row)

    # -- campaign journal --------------------------------------------------------

    def put_campaign(
        self,
        name: str,
        source: str,
        rows: Iterable[Tuple[str, str]],
        created_at: Optional[str] = None,
        created_unix: Optional[float] = None,
    ) -> bool:
        """Journal campaign ``name`` as ordered ``(key, scenario document)`` rows.

        First writer wins, like :meth:`put_study`: the existence check
        runs inside the write transaction, so racing creators serialise
        and the loser gets ``False`` (and can read the winner's
        :meth:`campaign_rows`) instead of dying on the UNIQUE
        constraint.  ``rows`` is only consumed when this call inserts.
        The creation stamp defaults to now; a merge passes the source
        journal's ``created_at``/``created_unix`` so the copy is
        byte-identical.  Returns ``True`` when this call inserted.
        """
        created_at, created_unix = _stamp(created_at, created_unix)
        with self._transaction() as conn:
            if conn.execute(
                "SELECT 1 FROM campaigns WHERE name=?", (name,)
            ).fetchone():
                return False
            rows = list(rows)
            conn.execute(
                "INSERT INTO campaigns(name, source, total, created_at, "
                "created_unix) VALUES (?, ?, ?, ?, ?)",
                (name, source, len(rows), created_at, created_unix),
            )
            conn.executemany(
                "INSERT INTO campaign_scenarios(campaign, idx, key, scenario) "
                "VALUES (?, ?, ?, ?)",
                [(name, idx, key, doc) for idx, (key, doc) in enumerate(rows)],
            )
        return True

    def get_campaign(self, name: str) -> Optional[StoredCampaign]:
        """The campaign-journal header for ``name``, or ``None``."""
        row = self._conn().execute(
            "SELECT name, source, total, created_at, created_unix "
            "FROM campaigns WHERE name=?",
            (name,),
        ).fetchone()
        if row is None:
            return None
        return StoredCampaign(row[0], row[1], int(row[2]), row[3], float(row[4]))

    def campaign_rows(
        self, name: str, start: int = 0, stop: Optional[int] = None
    ) -> List[Tuple[str, str]]:
        """Campaign ``name``'s ``(key, scenario document)`` rows, in order.

        Only journal positions ``[start, stop)``, a primary-key range,
        are read.  Empty for an unknown campaign.  The documents are the
        exact journaled bytes.
        """
        return [
            (row[0], row[1])
            for row in self._conn().execute(
                "SELECT key, scenario FROM campaign_scenarios "
                "WHERE campaign=? AND idx>=? AND idx<? ORDER BY idx",
                (name, start, sys.maxsize if stop is None else stop),
            )
        ]

    def campaign_keys(self, name: str) -> List[str]:
        """Campaign ``name``'s journaled keys, in order, without documents."""
        return [
            row[0]
            for row in self._conn().execute(
                "SELECT key FROM campaign_scenarios WHERE campaign=? ORDER BY idx",
                (name,),
            )
        ]

    def campaign_names(self) -> List[str]:
        """Names of every journaled campaign, sorted."""
        return [
            row[0]
            for row in self._conn().execute(
                "SELECT name FROM campaigns ORDER BY name"
            )
        ]

    # -- study journal ----------------------------------------------------------

    def put_study(
        self,
        name: str,
        spec: dict,
        spec_key: str,
        design_name: str,
        points: list,
        keys: list,
        created_at: Optional[str] = None,
        created_unix: Optional[float] = None,
    ) -> bool:
        """Journal a study (spec + resolved design matrix) under ``name``.

        ``keys`` are the content keys of every simulation the study
        issues (deduplicated design points + the original design);
        ``total`` is derived from them.  First writer wins, exactly
        like :meth:`put`: when two runners race on the same name, one
        row survives and both see it.  Returns ``True`` when this call
        inserted the row.  Spec consistency (same name, different spec)
        is the caller's check -- :class:`~repro.core.study.Study`
        compares ``spec_key``.  The creation stamp defaults to now; a
        merge passes the source row's ``created_at``/``created_unix``.
        """
        created_at, created_unix = _stamp(created_at, created_unix)
        with self._transaction() as conn:
            cursor = conn.execute(
                "INSERT OR IGNORE INTO studies(name, spec, spec_key, "
                "design_name, points, keys, total, created_at, created_unix) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    name,
                    canonical_json(spec),
                    spec_key,
                    design_name,
                    canonical_json(points),
                    canonical_json(list(keys)),
                    len(keys),
                    created_at,
                    created_unix,
                ),
            )
        return cursor.rowcount == 1

    _STUDY_COLUMNS = (
        "name, spec, spec_key, design_name, points, keys, total, created_at, "
        "created_unix"
    )

    @staticmethod
    def _study_row(row) -> StoredStudy:
        return StoredStudy(
            name=row[0],
            spec=json.loads(row[1]),
            spec_key=row[2],
            design_name=row[3],
            points=json.loads(row[4]),
            keys=json.loads(row[5]),
            total=int(row[6]),
            created_at=row[7],
            created_unix=float(row[8]),
        )

    def get_study(self, name: str) -> Optional[StoredStudy]:
        """The decoded study-journal row for ``name``, or ``None``."""
        row = self._conn().execute(
            f"SELECT {self._STUDY_COLUMNS} FROM studies WHERE name=?",
            (name,),
        ).fetchone()
        return None if row is None else self._study_row(row)

    def studies(self) -> List[StoredStudy]:
        """Every journaled study row, sorted by name."""
        return [
            self._study_row(row)
            for row in self._conn().execute(
                f"SELECT {self._STUDY_COLUMNS} FROM studies ORDER BY name"
            )
        ]

    def study_names(self) -> List[str]:
        """Names of every journaled study, sorted."""
        return [
            row[0]
            for row in self._conn().execute(
                "SELECT name FROM studies ORDER BY name"
            )
        ]

    # -- querying ---------------------------------------------------------------

    def query(
        self,
        family: Optional[str] = None,
        backend: Optional[str] = None,
        name_like: Optional[str] = None,
        min_transmissions: Optional[int] = None,
        max_transmissions: Optional[int] = None,
        min_final_voltage: Optional[float] = None,
        max_final_voltage: Optional[float] = None,
        clock_hz: Optional[float] = None,
        watchdog_s: Optional[float] = None,
        tx_interval_s: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> List[StoredResult]:
        """Filter stored rows on indexed columns (payloads stay on disk).

        All filters combine with AND; ``name_like`` is a SQL ``LIKE``
        pattern (``%`` wildcards).  Rows come back oldest-first, then by
        key for a deterministic order within one timestamp.
        """
        clauses: List[str] = []
        params: List[object] = []

        def _where(condition: str, value: object) -> None:
            clauses.append(condition)
            params.append(value)

        if family is not None:
            _where("family = ?", family)
        if backend is not None:
            _where("backend = ?", backend)
        if name_like is not None:
            _where("name LIKE ?", name_like)
        if min_transmissions is not None:
            _where("transmissions >= ?", int(min_transmissions))
        if max_transmissions is not None:
            _where("transmissions <= ?", int(max_transmissions))
        if min_final_voltage is not None:
            _where("final_voltage >= ?", float(min_final_voltage))
        if max_final_voltage is not None:
            _where("final_voltage <= ?", float(max_final_voltage))
        if clock_hz is not None:
            _where("clock_hz = ?", float(clock_hz))
        if watchdog_s is not None:
            _where("watchdog_s = ?", float(watchdog_s))
        if tx_interval_s is not None:
            _where("tx_interval_s = ?", float(tx_interval_s))

        sql = f"SELECT {_QUERY_SELECT} FROM results"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY created_unix, key"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        shards = self._shard_files()
        rows = [
            StoredResult(*row)
            for shard in shards
            for row in shard._conn().execute(sql, params)
        ]
        if len(shards) > 1:
            # Re-establish the store-wide order (ISO-8601 timestamps in
            # one timezone sort lexically), then re-apply the limit that
            # each shard applied only locally.
            rows.sort(key=lambda row: (row.created_at, row.key))
            if limit is not None:
                rows = rows[: int(limit)]
        return rows

    # -- export -----------------------------------------------------------------

    def export_json(self, include_payloads: bool = False, **filters) -> str:
        """Matching rows as a JSON document (optionally with payloads)."""
        entries = []
        for row in self.query(**filters):
            entry = row.to_row_dict()
            if include_payloads:
                text = self.get_payload_text(row.key)
                entry["result"] = None if text is None else json.loads(text)
            entries.append(entry)
        return json.dumps(
            {"schema": STORE_SCHEMA, "count": len(entries), "results": entries},
            indent=2,
            sort_keys=True,
        )

    def export_csv(self, **filters) -> str:
        """Matching rows as CSV over the indexed scalar columns.

        Rendered with :mod:`csv` so arbitrary scenario names (commas,
        quotes, newlines) stay one properly quoted field.
        """
        import csv
        import io

        header = [
            "key", "name", "family", "backend", "horizon", "seed",
            "clock_hz", "watchdog_s", "tx_interval_s", "transmissions",
            "transmissions_per_hour", "final_voltage", "repro_version",
            "wall_time_s", "created_at",
        ]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in self.query(**filters):
            values = row.to_row_dict()
            writer.writerow(
                [
                    ""
                    if values[column] is None
                    else f"{values[column]:.9g}"
                    if isinstance(values[column], float)
                    else values[column]
                    for column in header
                ]
            )
        return buf.getvalue().rstrip("\n")

    # -- maintenance -------------------------------------------------------------

    def stats(self) -> StoreStats:
        """Aggregate counts, sizes and provenance span."""
        by_backend: Dict[str, int] = {}
        by_family: Dict[str, int] = {}
        payload_bytes = file_bytes = 0
        wall_time = 0.0
        stamps: List[str] = []
        for shard in self._shard_files():
            conn = shard._conn()
            for column, counts in (("backend", by_backend), ("family", by_family)):
                for label, count in conn.execute(
                    f"SELECT {column}, COUNT(*) FROM results GROUP BY {column}"
                ):
                    counts[label] = counts.get(label, 0) + int(count)
            size, wall, oldest, newest = conn.execute(
                "SELECT COALESCE(SUM(LENGTH(payload)), 0), "
                "COALESCE(SUM(wall_time_s), 0.0), "
                "MIN(created_at), MAX(created_at) FROM results"
            ).fetchone()
            payload_bytes += int(size)
            wall_time += float(wall)
            stamps.extend(stamp for stamp in (oldest, newest) if stamp)
            if shard.path.exists():
                file_bytes += shard.path.stat().st_size
        # Journals and jobs live in this (meta) file only.
        conn = self._conn()
        return StoreStats(
            path=str(self.path),
            n_results=len(self),
            n_campaigns=int(
                conn.execute("SELECT COUNT(*) FROM campaigns").fetchone()[0]
            ),
            by_backend=tuple(sorted(by_backend.items())),
            by_family=tuple(sorted(by_family.items())),
            payload_bytes=payload_bytes,
            file_bytes=file_bytes,
            total_wall_time_s=wall_time,
            oldest=min(stamps, default=None),
            newest=max(stamps, default=None),
            by_job_status=tuple(
                (row[0], int(row[1]))
                for row in conn.execute(
                    "SELECT status, COUNT(*) FROM jobs "
                    "GROUP BY status ORDER BY status"
                )
            ),
        )

    def gc(
        self,
        older_than_days: Optional[float] = None,
        family: Optional[str] = None,
        orphans: bool = False,
        dry_run: bool = False,
        force: bool = False,
    ) -> int:
        """Delete matching result rows and reclaim their space.

        ``older_than_days`` keeps recent work, ``family`` targets one
        family's rows, ``orphans`` selects rows no campaign or study
        journal references.
        With no selector at all nothing is deleted (an unfiltered purge
        must be an explicit decision -- pass ``older_than_days=0``).
        Returns the number of (to-be-)deleted rows; ``dry_run`` only
        counts.

        Rows an *active* (queued/running) job derives its progress from
        are protected: deleting them would silently regress the job and
        force re-simulation, so matching any of them raises
        :class:`~repro.errors.StoreError` naming the jobs.  ``force``
        overrides the guard (and the jobs re-simulate).
        """
        if older_than_days is None and family is None and not orphans:
            return 0
        candidates = self._gc_candidates(older_than_days, family, orphans)
        if candidates and not force:
            protected = self._active_job_keys()
            hit = protected.keys() & set(candidates)
            if hit:
                jobs = sorted({job for key in hit for job in protected[key]})
                raise StoreError(
                    f"gc would delete {len(hit)} result row(s) that active "
                    f"job(s) {', '.join(jobs)} derive their progress from; "
                    f"wait for them or pass force=True (--force)"
                )
        if dry_run:
            return len(candidates)
        return self._delete_keys(candidates)

    def _gc_candidates(
        self,
        older_than_days: Optional[float],
        family: Optional[str],
        orphans: bool,
    ) -> List[str]:
        """Keys of the rows the given gc selectors match."""
        clauses: List[str] = []
        params: List[object] = []
        if older_than_days is not None:
            cutoff = _utc_now().timestamp() - float(older_than_days) * 86400.0
            clauses.append("created_unix <= ?")
            params.append(cutoff)
        if family is not None:
            clauses.append("family = ?")
            params.append(family)
        where = " AND ".join(clauses) or "1"
        candidates = [
            row[0]
            for shard in self._shard_files()
            for row in shard._conn().execute(
                f"SELECT key FROM results WHERE {where}", params
            )
        ]
        if orphans:
            # The journals live in this (meta) file only, so orphans are
            # filtered here rather than by a per-shard SQL subquery
            # (which would call every other shard's row one).
            journaled = {
                row[0]
                for row in self._conn().execute(
                    "SELECT key FROM campaign_scenarios"
                )
            }
            journaled.update(key for study in self.studies() for key in study.keys)
            candidates = [key for key in candidates if key not in journaled]
        return candidates

    def _delete_keys(self, keys: List[str]) -> int:
        """Delete rows by key (chunked), compact, return the count."""
        deleted = 0
        for shard, group in self._group_keys(keys):
            with shard._transaction() as conn:
                count = sum(
                    conn.execute(
                        f"DELETE FROM results WHERE key IN ({placeholders})",
                        chunk,
                    ).rowcount
                    for placeholders, chunk in _in_chunks(group)
                )
            if count:
                conn.execute("VACUUM")
            deleted += count
        return deleted

    def _active_job_keys(self) -> Dict[str, List[str]]:
        """Result keys active (queued/running) jobs derive progress from.

        Maps each protected key to the job ids that reference it:
        campaign/scenario jobs reference their journaled campaign's
        keys, study jobs the study journal's key list.  Jobs whose
        journal does not exist yet protect nothing -- there is nothing
        stored to lose.
        """
        protected: Dict[str, List[str]] = {}
        for job_id, kind, name in self._conn().execute(
            "SELECT id, kind, name FROM jobs "
            "WHERE status IN ('queued', 'running')"
        ).fetchall():
            if kind == "study":
                study = self.get_study(name)
                keys = study.keys if study is not None else []
            else:
                keys = self.campaign_keys(name)
            for key in keys:
                protected.setdefault(key, []).append(job_id)
        return protected
