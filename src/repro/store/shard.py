"""Sharded result storage: N per-shard SQLite files, one store API.

A :class:`ShardedResultStore` is a directory of ``shard-00.db ..
shard-NN.db`` files behind the exact :class:`~repro.store.db.ResultStore`
read/write API, so everything built on the store -- ``BatchRunner(store=)``,
campaigns, studies, the job queue and the HTTP service -- works unchanged.

Why shard at all: SQLite allows one writer per *file*.  A single store
file caps aggregate write throughput at one writer's speed no matter how
many processes fan out over it; N shard files are N independent writers.
BENCH_shard *models* the win (~Nx aggregate write capacity): its number
is the sum of per-shard intake rates, not a measured concurrent wall.

The class only routes: every result-row operation lives once in
:class:`~repro.store.db.ResultStore` and reaches rows through the
``_shard_for``/``_shard_files`` hooks this class overrides.  Beyond
them it owns only the layout, ``close``, pickling, ``repr`` and labels.

Layout
------
- **Result rows** route by cache-key prefix: ``int(key[:8], 16) % N``
  (:func:`~repro.store.db.shard_index`).  The key is a SHA-256 hex
  digest, so the prefix is uniform and every process computes the same
  route with no coordination.
- **Shard 0 is the meta shard.**  The campaign/study journals and the
  ``jobs`` table -- small, coordination-shaped tables -- stay in
  ``shard-00.db``, served by the inherited connection machinery (the
  base class's ``self.path`` points at shard 0).  Only the hot,
  append-mostly ``results`` table is spread out.
- The shard count is recorded in shard 0's ``store_meta`` and
  re-discovered (and validated) on reopen, so
  ``ShardedResultStore(root)`` with no arguments opens an existing
  sharded store correctly and a mismatched explicit count is refused.

Shards are themselves complete, self-describing stores: a single shard
file opens fine as a plain :class:`ResultStore` (that is exactly what
``store merge`` consumes when partitioned workers hand their local
shards back).
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Union

from repro.errors import ConfigError
from repro.obs.metrics import metrics as _obs_metrics
from repro.obs.state import STATE as _OBS
from repro.store.db import ResultStore, StoreStats, _on_disk, shard_index

#: Per-shard routing telemetry: one count per routed result operation,
#: labelled with the shard index the key resolved to (balance check).
_SHARD_ROUTE = _obs_metrics().counter(
    "repro_store_shard_route_total",
    "Result operations routed per shard",
    ("shard",),
)
_SHARD_COUNT = _obs_metrics().gauge(
    "repro_store_shards",
    "Shard count of the most recently opened sharded store",
)

#: Shard count used when creating a sharded store without an explicit N.
DEFAULT_SHARDS = 4

#: Maximum sensible shard count (a guard against typo'd huge values).
MAX_SHARDS = 256


def shard_file_name(index: int) -> str:
    """The canonical per-shard file name (``shard-00.db``...)."""
    return f"shard-{index:02d}.db"


class ShardedResultStore(ResultStore):
    """A result store spread over N per-shard SQLite files.

    Parameters
    ----------
    root:
        Directory holding the shard files.  Created if missing (the
        parent must exist, mirroring :class:`ResultStore`); an existing
        sharded root is reopened with its recorded shard count.
    shards:
        Shard count when *creating*; on reopen it is validated against
        the recorded count (``None`` means "whatever the store says").

    Instances are picklable exactly like the base class: workers
    re-open their own per-process connections to every shard.
    """

    def __init__(self, root: Union[str, Path], shards: Optional[int] = None):
        self.root = _on_disk(root)
        if shards is not None and not (1 <= int(shards) <= MAX_SHARDS):
            raise ConfigError(
                f"shard count must be in 1..{MAX_SHARDS}, got {shards}"
            )
        if self.root.exists() and not self.root.is_dir():
            raise ConfigError(
                f"sharded store root {str(self.root)!r} exists but is not a directory "
                f"(a plain single-file store? open it with ResultStore)"
            )
        if not self.root.exists():
            if not self.root.parent.exists():
                raise ConfigError(
                    f"store directory {str(self.root.parent)!r} does not exist"
                )
            self.root.mkdir()
        creating = not (self.root / shard_file_name(0)).exists()
        if creating and any(self.root.iterdir()):
            raise ConfigError(
                f"directory {str(self.root)!r} is not empty and holds no "
                f"{shard_file_name(0)}; refusing to scatter shards into it"
            )
        # Shards 1..N-1 only: this object is shard 0 (the meta shard the
        # inherited machinery -- journals, jobs, schema/meta -- operates
        # on via self.path/_conn()), and holding itself would be a
        # reference cycle that defeats close-on-drop.
        self._shards: List[ResultStore] = []
        super().__init__(self.root / shard_file_name(0))
        self.n_shards = self._resolve_shard_count(
            None if shards is None else int(shards), creating
        )
        for index in range(1, self.n_shards):
            shard = ResultStore(self.root / shard_file_name(index))
            self._mark_shard(shard, index)
            self._shards.append(shard)
        self._mark_shard(self, 0)
        if _OBS.metrics_on:
            _SHARD_COUNT.set(self.n_shards)

    # -- layout bookkeeping ------------------------------------------------------

    def _resolve_shard_count(
        self, requested: Optional[int], creating: bool
    ) -> int:
        with self._transaction() as conn:
            row = conn.execute(
                "SELECT value FROM store_meta WHERE key='shards'"
            ).fetchone()
            if row is None:
                if not creating:
                    raise ConfigError(
                        f"{self.path} is a plain single-file store, not a "
                        f"sharded store's meta shard (no shard count recorded)"
                    )
                count = requested if requested is not None else DEFAULT_SHARDS
                conn.execute(
                    "INSERT INTO store_meta(key, value) VALUES ('shards', ?)",
                    (str(count),),
                )
            else:
                count = int(row[0])
        if requested is not None and requested != count:
            raise ConfigError(
                f"sharded store {self.root} has {count} shard(s), "
                f"not the requested {requested}"
            )
        return count

    def _mark_shard(self, shard: ResultStore, index: int) -> None:
        """Make each shard file self-describing (index + total)."""
        with shard._transaction() as conn:
            conn.execute(
                "INSERT OR IGNORE INTO store_meta(key, value) "
                "VALUES ('shard_index', ?), ('shards', ?)",
                (str(index), str(self.n_shards)),
            )

    # -- routing hooks -----------------------------------------------------------

    def _shard_files(self) -> List[ResultStore]:
        return [self, *self._shards]

    def _shard_for(self, key: str) -> ResultStore:
        index = shard_index(key, self.n_shards)
        if _OBS.metrics_on:
            _SHARD_ROUTE.inc(shard=str(index))
        return self._shard_files()[index]

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        for shard in self._shards:
            shard.close()
        super().close()

    def __getstate__(self) -> dict:
        return {"root": self.root, "shards": self.n_shards}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["root"], shards=state["shards"])

    def __repr__(self) -> str:
        return f"ShardedResultStore({str(self.root)!r}, shards={self.n_shards})"

    # -- maintenance -------------------------------------------------------------

    def stats(self) -> StoreStats:
        return replace(super().stats(), path=str(self.root), n_shards=self.n_shards)


def open_store(
    path: Union[str, Path], shards: Optional[int] = None
) -> ResultStore:
    """Open (or create) whichever store shape ``path`` holds.

    A directory -- existing, or requested via ``shards > 1`` -- is a
    :class:`ShardedResultStore`; anything else is a plain single-file
    :class:`ResultStore`.  This is the one store-opening call the CLI
    and service wiring use, so every command transparently accepts both
    shapes.
    """
    target = Path(str(path))
    if shards is not None:
        if int(shards) > 1:
            return ShardedResultStore(target, shards=int(shards))
        if target.is_dir():
            raise ConfigError(
                f"{str(target)!r} is a sharded store directory; "
                f"it cannot be opened with shards={shards}"
            )
        return ResultStore(target)
    if target.is_dir():
        return ShardedResultStore(target)
    return ResultStore(target)
