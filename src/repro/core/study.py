"""Declarative, serialisable, resumable design-space studies.

A :class:`StudySpec` is to the exploration flow what
:class:`~repro.scenario.Scenario` is to one simulation: the complete
DoE -> simulate -> surrogate -> optimise -> verify pipeline as an
immutable, JSON-round-trippable value.  Every stage is a *name* resolved
through a process-wide registry -- designs
(:mod:`repro.doe.registry`), surrogates (:mod:`repro.rsm.registry`),
optimisers (:mod:`repro.optimize.registry`) -- so a spec file can swap
the paper's 10-run D-optimal + quadratic RSM + SA/GA pipeline for an
LHS + cubic + pattern-search one without touching code.  Misspelled
stage names, metrics, or a bad ``jobs`` count fail at *spec
construction* (``ConfigError`` listing the valid choices), not deep
inside a half-finished run.

A :class:`Study` executes a spec.  Attached to a
:class:`~repro.store.ResultStore` it journals the spec and the resolved
design matrix in the store (the ``studies`` table), pushes every
simulation through a store-backed
:class:`~repro.core.batch.BatchRunner` in durable chunks, and derives
stage completion from the results table itself -- a design point is
done exactly when its content-addressed result row exists.  Kill the
process at any moment and ``Study.resume(store, name)`` (or ``repro-wsn
study resume NAME --store DB``) re-simulates only the missing points
and reproduces a bit-identical
:class:`~repro.core.explorer.ExplorationOutcome`.

The named ``"paper"`` spec (:func:`paper_study_spec`) pins the exact
evaluation of the paper's section V; ``run_paper_flow`` and the CLI
``explore`` path are thin wrappers over it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.explorer import (
    DEFAULT_OPTIMIZERS,
    DesignSpaceExplorer,
    ExplorationOutcome,
)
from repro.core.objective import SimulationObjective, get_metric
from repro.doe.design import Design
from repro.doe.registry import get_design
from repro.documents import (
    canonical_json,
    check_document,
    check_options,
    format_json,
    parse_json,
    read_json,
    write_json,
)
from repro.errors import ConfigError, DesignError
from repro.obs.trace import span
from repro.optimize.registry import get_optimizer
from repro.registry import Registry
from repro.rsm.coding import ParameterSpace
from repro.rsm.registry import get_surrogate
from repro.scenario import PartsSpec
from repro.system.config import ORIGINAL_DESIGN, SystemConfig, paper_parameter_space
from repro.system.vibration import VibrationProfile

#: Version stamp written into every study JSON payload.
STUDY_SCHEMA = 1


@dataclass(frozen=True)
class StudySpec:
    """One fully specified exploration pipeline.

    Parameters
    ----------
    name:
        Cosmetic label (journal/default study name); excluded from
        equality and :meth:`cache_key` like a scenario's name.
    space:
        The design space (default: the paper's Table V).
    metric:
        Named response metric (:data:`repro.core.objective.METRICS`)
        each simulation is reduced to.
    design, design_options, n_runs:
        Named :mod:`repro.doe.registry` generator, its options, and the
        run count (structural designs such as ``ccd`` ignore it).
    surrogate, surrogate_options:
        Named :mod:`repro.rsm.registry` fitter and its options.
    optimizers, optimizer_options:
        Named :mod:`repro.optimize.registry` methods (each maximises
        the fitted surface and is verified by simulation), plus
        per-name keyword options.
    original:
        The reference configuration the outcome is compared against
        (Table VI's first column).
    parts, profile:
        Scenario template overrides: physical-system spec and
        excitation profile (``None`` = the paper profile).
    horizon, seed, backend, jobs:
        Simulated seconds per evaluation, the base seed (common random
        numbers + stage seed derivation), the simulation backend, and
        the worker count.  ``jobs`` is an execution detail and is
        excluded from :meth:`cache_key`.
    """

    name: str = field(default="", compare=False)
    space: ParameterSpace = field(default_factory=paper_parameter_space)
    metric: str = "transmissions"
    design: str = "d-optimal"
    design_options: Mapping[str, object] = field(default_factory=dict)
    n_runs: int = 10
    surrogate: str = "quadratic"
    surrogate_options: Mapping[str, object] = field(default_factory=dict)
    optimizers: Tuple[str, ...] = DEFAULT_OPTIMIZERS
    optimizer_options: Mapping[str, Mapping[str, object]] = field(
        default_factory=dict
    )
    original: SystemConfig = ORIGINAL_DESIGN
    parts: Optional[PartsSpec] = None
    profile: Optional[VibrationProfile] = None
    horizon: float = 3600.0
    seed: int = 0
    backend: str = "envelope"
    jobs: int = 1

    def __post_init__(self) -> None:
        # Normalise everything mutable or numpy-typed so the value is
        # genuinely frozen and JSON-serialisable...
        object.__setattr__(self, "n_runs", int(self.n_runs))
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "jobs", int(self.jobs))
        if self.optimizers is None or isinstance(self.optimizers, str):
            raise ConfigError(
                "study optimizers must be a list of registered names"
            )
        try:
            object.__setattr__(
                self, "optimizers", tuple(str(n) for n in self.optimizers)
            )
        except TypeError:
            raise ConfigError(
                "study optimizers must be a list of registered names"
            ) from None
        object.__setattr__(
            self, "design_options", check_options("design", self.design_options)
        )
        object.__setattr__(
            self,
            "surrogate_options",
            check_options("surrogate", self.surrogate_options),
        )
        per_optimizer = self.optimizer_options
        if per_optimizer is None:
            per_optimizer = {}
        if not isinstance(per_optimizer, Mapping):
            raise ConfigError(
                f"optimizer_options must be a JSON object, "
                f"got {type(per_optimizer).__name__}"
            )
        object.__setattr__(
            self,
            "optimizer_options",
            {
                str(name): check_options(f"optimizer {name!r}", opts)
                for name, opts in dict(per_optimizer).items()
            },
        )
        # ...then fail fast: every stage name resolves NOW, with the
        # registry error listing the valid alternatives, instead of
        # blowing up after the design has already been simulated.
        get_metric(self.metric)
        get_design(self.design)
        get_surrogate(self.surrogate)
        if not self.optimizers:
            raise ConfigError("a study needs at least one optimizer")
        for optimizer in self.optimizers:
            get_optimizer(optimizer)
        for name in self.optimizer_options:
            if name not in self.optimizers:
                raise ConfigError(
                    f"optimizer_options for {name!r}, which is not in "
                    f"optimizers {list(self.optimizers)}"
                )
        if self.jobs < 1:
            raise ConfigError("study jobs must be >= 1")
        if self.n_runs < 1:
            raise ConfigError("study n_runs must be >= 1")
        if self.horizon <= 0.0:
            raise ConfigError("study horizon must be positive")
        if not self.backend or not isinstance(self.backend, str):
            raise ConfigError("study backend must be a non-empty string")
        # The simulator has exactly the three Table V firmware knobs,
        # bound *positionally* through SystemConfig.from_vector -- a
        # renamed or reordered space would silently put a watchdog
        # period into the clock field, so reject it here, not after the
        # design has been simulated.
        expected = [p.name for p in paper_parameter_space().parameters]
        if [p.name for p in self.space.parameters] != expected:
            raise ConfigError(
                f"study space parameters must be {expected} in that order "
                f"(the simulated node has exactly these firmware knobs); "
                f"got {[p.name for p in self.space.parameters]}"
            )

    def __hash__(self) -> int:
        return hash(self.cache_key())

    # -- serialisation --------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-JSON dictionary (includes the schema version)."""
        return {
            "schema": STUDY_SCHEMA,
            "name": self.name,
            "space": self.space.to_payload(),
            "metric": self.metric,
            "design": self.design,
            "design_options": dict(self.design_options),
            "n_runs": self.n_runs,
            "surrogate": self.surrogate,
            "surrogate_options": dict(self.surrogate_options),
            "optimizers": list(self.optimizers),
            "optimizer_options": {
                name: dict(opts) for name, opts in self.optimizer_options.items()
            },
            "original": self.original.as_vector(),
            "parts": None if self.parts is None else self.parts.to_payload(),
            "profile": None if self.profile is None else self.profile.to_payload(),
            "horizon": self.horizon,
            "seed": self.seed,
            "backend": self.backend,
            "jobs": self.jobs,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "StudySpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Unversioned payloads are accepted as schema 1; unknown versions
        and non-object payloads raise :class:`~repro.errors.DesignError`.
        """
        check_document(payload, "study", STUDY_SCHEMA)
        # Field-name typos must be as loud as stage-name typos: a spec
        # with "optimiser" would otherwise silently run the defaults.
        known = {
            "schema", "name", "space", "metric", "design", "design_options",
            "n_runs", "surrogate", "surrogate_options", "optimizers",
            "optimizer_options", "original", "parts", "profile", "horizon",
            "seed", "backend", "jobs",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise DesignError(
                f"unknown study spec field(s) {unknown} "
                f"(known: {', '.join(sorted(known))})"
            )
        space = payload.get("space")
        parts = payload.get("parts")
        profile = payload.get("profile")
        original = payload.get("original")
        try:
            return cls._from_fields(payload, space, parts, profile, original)
        except (ValueError, TypeError, AttributeError) as exc:
            # int("ten"), "space": "paper", etc.: malformed JSON values
            # get the same clean error contract as every other spec
            # mistake.
            raise DesignError(f"study spec has a malformed value: {exc}") from exc

    @classmethod
    def _from_fields(cls, payload, space, parts, profile, original) -> "StudySpec":
        return cls(
            name=str(payload.get("name", "")),
            space=(
                paper_parameter_space()
                if space is None
                else ParameterSpace.from_payload(space)
            ),
            metric=str(payload.get("metric", "transmissions")),
            design=str(payload.get("design", "d-optimal")),
            design_options=payload.get("design_options", {}),
            n_runs=int(payload.get("n_runs", 10)),
            surrogate=str(payload.get("surrogate", "quadratic")),
            surrogate_options=payload.get("surrogate_options", {}),
            optimizers=payload.get("optimizers", DEFAULT_OPTIMIZERS),
            optimizer_options=payload.get("optimizer_options", {}),
            original=(
                ORIGINAL_DESIGN
                if original is None
                else SystemConfig.from_vector(original)
            ),
            parts=None if parts is None else PartsSpec.from_payload(parts),
            profile=(
                None if profile is None else VibrationProfile.from_payload(profile)
            ),
            horizon=float(payload.get("horizon", 3600.0)),
            seed=int(payload.get("seed", 0)),
            backend=str(payload.get("backend", "envelope")),
            jobs=int(payload.get("jobs", 1)),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        """JSON text of :meth:`to_dict`."""
        return format_json(self.to_dict(), indent)

    @classmethod
    def from_json(cls, text: str) -> "StudySpec":
        """Parse :meth:`to_json` output."""
        return cls.from_dict(parse_json(text, "study file"))

    def save(self, path: Union[str, Path]) -> None:
        """Write the spec to a JSON file."""
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "StudySpec":
        """Read a spec from a JSON file."""
        return cls.from_dict(read_json(path, "study file"))

    def cache_key(self) -> str:
        """Content hash: equal-valued specs share one key.

        The cosmetic ``name`` and the execution-only ``jobs`` count are
        excluded (neither changes any produced number), so a re-labelled
        spec run on more workers journals under the same identity.
        """
        payload = self.to_dict()
        del payload["name"]
        del payload["jobs"]
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()

    def describe(self) -> str:
        """One-line human-readable summary."""
        label = f"{self.name}: " if self.name else ""
        return (
            f"{label}{self.design}({self.n_runs}) -> {self.surrogate} -> "
            f"{'+'.join(self.optimizers)}, metric={self.metric}, "
            f"backend={self.backend}, horizon={self.horizon:g} s, "
            f"seed={self.seed}"
        )


@dataclass(frozen=True)
class StudyStatus:
    """Progress snapshot of one (journaled) study."""

    name: str
    total: int
    done: int
    design_name: str
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
        return (
            f"{self.name} [{self.design_name}]: {self.done}/{self.total} "
            f"simulations stored ({pct:.0f}%), {self.pending} pending"
        )


class Study:
    """Executor for one :class:`StudySpec`.

    Parameters
    ----------
    spec:
        The pipeline to run.
    store:
        Optional :class:`~repro.store.ResultStore`.  When given, the
        spec and its resolved design matrix are journaled in the store,
        every simulation is written through in durable chunks, and the
        whole study becomes resumable.
    jobs:
        Worker override (default: the spec's ``jobs``).
    chunk_size:
        Design points per durable chunk when a store is attached
        (default ``max(4 * jobs, 8)``); a crash wastes at most one
        chunk of simulations.  Without a store there is nothing durable
        to protect, so the whole design stage executes as **one batch**
        -- on a batch-capable backend one (sharded) ``run_batch``
        dispatch for the entire DoE.
    on_name_conflict:
        What to do when the journal already holds this name with a
        *different* spec: ``"error"`` (default -- the explicit ``study
        run``/``resume`` workflow should fail loudly) or ``"suffix"``
        (journal under ``name@<spec-key prefix>`` instead -- the
        cache-style wrappers ``run_paper_flow`` and ``explore`` use
        this so re-running with a tweaked seed or horizon against the
        same store keeps working, each variant journaled separately).
    """

    def __init__(
        self,
        spec: StudySpec,
        store=None,
        jobs: Optional[int] = None,
        chunk_size: Optional[int] = None,
        on_name_conflict: str = "error",
    ):
        if on_name_conflict not in ("error", "suffix"):
            raise ConfigError(
                f"unknown on_name_conflict {on_name_conflict!r} "
                f"(known: error, suffix)"
            )
        self.spec = spec
        self.store = store
        self.jobs = spec.jobs if jobs is None else int(jobs)
        if self.jobs < 1:
            raise ConfigError("study jobs must be >= 1")
        if chunk_size is None:
            # Durable chunks only matter when results are written
            # through to a store; storeless studies batch the whole
            # design stage in one dispatch instead.
            self.chunk_size = max(4 * self.jobs, 8) if store is not None else 0
        else:
            self.chunk_size = int(chunk_size)
            if self.chunk_size < 1:
                raise ConfigError("chunk_size must be >= 1")
        self.name = spec.name or f"study-{spec.cache_key()[:12]}"
        if store is not None and on_name_conflict == "suffix":
            row = store.get_study(self.name)
            if row is not None and row.spec_key != spec.cache_key():
                self.name = f"{self.name}@{spec.cache_key()[:12]}"
        self.objective = SimulationObjective(
            space=spec.space,
            horizon=spec.horizon,
            seed=spec.seed,
            profile_factory=(
                None if spec.profile is None else (lambda: spec.profile)
            ),
            parts=spec.parts,
            backend=spec.backend,
            jobs=self.jobs,
            store=store,
            metric=spec.metric,
        )
        self.explorer = DesignSpaceExplorer(
            spec.space, self.objective, original_config=spec.original
        )
        self._design: Optional[Design] = None
        self._keys: Optional[List[str]] = None

    # -- journal ----------------------------------------------------------------

    @classmethod
    def load(cls, store, name: str, jobs: Optional[int] = None) -> "Study":
        """Rehydrate a journaled study from ``store``."""
        row = store.get_study(name)
        if row is None:
            known = ", ".join(study_names(store)) or "(none)"
            raise ConfigError(
                f"unknown study {name!r} in {store.path} (known: {known})"
            )
        spec = StudySpec.from_dict(row.spec)
        # Rebind to the *journal* name unconditionally: a suffix-journaled
        # row ("paper@<key>") stores a spec whose cosmetic name is still
        # "paper", and resuming under that name would read the wrong row.
        spec = replace(spec, name=name)
        return cls(spec, store=store, jobs=jobs)

    @classmethod
    def resume(
        cls, store, name: str, jobs: Optional[int] = None
    ) -> ExplorationOutcome:
        """Continue a journaled study after an interruption.

        Completed design points are served from the store (zero
        re-simulation); only missing work runs.  The returned outcome is
        bit-identical to an uninterrupted run of the same spec.
        """
        return cls.load(store, name, jobs=jobs).run()

    def design(self) -> Design:
        """The resolved design matrix: journaled, or freshly generated.

        Read-only -- journaling happens when :meth:`run` starts (so a
        ``status()`` peek never writes anything).  The generator is
        deterministic in the spec seed, but the journal is still
        authoritative: a resumed study reuses the exact matrix it
        already paid simulations for.
        """
        if self._design is not None:
            return self._design
        design = self._journaled_design()
        if design is None:
            spec = self.spec
            design = self.explorer.build_design(
                n_runs=spec.n_runs,
                seed=spec.seed,
                design=spec.design,
                options=spec.design_options,
            )
        self._design = design
        return design

    def _journaled_design(self) -> Optional[Design]:
        if self.store is None:
            return None
        row = self.store.get_study(self.name)
        if row is None:
            return None
        if row.spec_key != self.spec.cache_key():
            raise ConfigError(
                f"study {self.name!r} in {self.store.path} was journaled "
                f"with a different spec; pick another name or store"
            )
        return Design(
            np.asarray(row.points, dtype=float),
            space=self.spec.space,
            name=row.design_name,
        )

    def _ensure_journaled(self) -> Design:
        """Journal the resolved design (first writer wins) and return it."""
        design = self.design()
        if self.store is None:
            return design
        inserted = self.store.put_study(
            self.name,
            self.spec.to_dict(),
            self.spec.cache_key(),
            design.name,
            design.points.tolist(),
            self.design_keys(),
        )
        if not inserted:
            # Raced another creator (or an earlier run): their journal
            # wins, and the spec-key check rejects a mismatched spec.
            design = self._journaled_design()
            self._design = design
            self._keys = None
        return design

    # -- completion state --------------------------------------------------------

    def design_keys(self) -> List[str]:
        """Content keys of every simulation the design stage issues.

        The design-point scenarios (deduplicated -- designs may repeat
        centre points) plus the original-design verification run.  A
        study's completion state is exactly "which of these rows exist
        in the results table".
        """
        if self._keys is None:
            self._keys = self._keys_for(self.design())
        return self._keys

    def _keys_for(self, design: Design) -> List[str]:
        keys = [
            self.objective.scenario_key(np.asarray(row, dtype=float))
            for row in design.points
        ]
        original_coded = self.spec.space.to_coded(
            np.array(self.spec.original.as_vector())
        )
        keys.append(self.objective.scenario_key(original_coded))
        return list(dict.fromkeys(keys))

    def status(self) -> StudyStatus:
        """Progress derived from the durable results table.

        For a journaled study, keys come from the journal row (so no
        scenarios are rebuilt); an unjournaled one derives them from
        the spec.
        """
        row = self.store.get_study(self.name) if self.store is not None else None
        if row is not None:
            if row.spec_key != self.spec.cache_key():
                raise ConfigError(
                    f"study {self.name!r} in {self.store.path} was journaled "
                    f"with a different spec; pick another name or store"
                )
            return _row_status(self.store, row)
        keys = self.design_keys()
        done = self.store.count_keys(keys) if self.store is not None else 0
        return StudyStatus(
            name=self.name,
            total=len(keys),
            done=done,
            design_name=self.design().name,
            created_at="",
        )

    # -- execution ---------------------------------------------------------------

    def run(
        self, on_chunk: Optional[Callable[[int, int], None]] = None
    ) -> ExplorationOutcome:
        """Execute (or continue) the pipeline and return every artefact.

        With a store attached, design points are simulated in durable
        chunks of :attr:`chunk_size` and every result is written
        through before the next chunk starts; stored points are never
        re-simulated.  The optimisation stages are deterministic in the
        spec seed, so re-running a completed study costs only store
        reads and cheap surface maximisation.

        ``on_chunk`` is the job-context hook: called as
        ``on_chunk(done, total)`` over the design points at every
        durable chunk boundary (before each chunk and once after the
        last), where a supervising job runner heartbeats its claim and
        checks for cancellation -- an exception raised from the hook
        aborts between chunks, losing no stored work.
        """
        spec = self.spec
        design = self._ensure_journaled()
        points = design.points
        # ``chunk_size == 0`` (no store, no explicit size) runs the
        # whole design stage as a single batch: one (sharded)
        # ``run_batch`` dispatch on batch-capable backends.
        step = self.chunk_size or max(len(points), 1)
        with span("study.run", study=self.name, points=len(points)):
            for start in range(0, len(points), step):
                if on_chunk is not None:
                    on_chunk(start, len(points))
                with span(
                    "study.chunk",
                    study=self.name,
                    start=start,
                    size=min(step, len(points) - start),
                ):
                    self.objective.evaluate_design(points[start : start + step])
            if on_chunk is not None:
                on_chunk(len(points), len(points))
        return self.explorer.run(
            n_runs=spec.n_runs,
            seed=spec.seed,
            design=design,
            optimizers=spec.optimizers,
            surrogate=spec.surrogate,
            surrogate_options=spec.surrogate_options,
            optimizer_options=spec.optimizer_options,
        )


# -- journal queries -----------------------------------------------------------


def _row_status(store, row) -> StudyStatus:
    """Status straight from a journal row (no spec hydration)."""
    return StudyStatus(
        name=row.name,
        total=row.total,
        done=row.done(store),
        design_name=row.design_name,
        created_at=row.created_at,
    )


def study_names(store) -> List[str]:
    """Names of every study journaled in ``store``, sorted."""
    return store.study_names()


def study_status(store, name: str) -> StudyStatus:
    """Progress snapshot of one journaled study (journal row only)."""
    row = store.get_study(name)
    if row is None:
        known = ", ".join(study_names(store)) or "(none)"
        raise ConfigError(
            f"unknown study {name!r} in {store.path} (known: {known})"
        )
    return _row_status(store, row)


def study_statuses(store) -> List[StudyStatus]:
    """Progress snapshots for every study journaled in ``store``.

    Derived from the journal rows alone -- a study whose spec names a
    plugin-registered stage (unavailable in this process) still lists
    correctly; only *executing* it needs the stage registered.
    """
    return [_row_status(store, row) for row in store.studies()]


# -- named study library -------------------------------------------------------


def variant_name(spec: StudySpec, canonical: StudySpec) -> StudySpec:
    """Qualify a library-derived spec's name when its content differs.

    The cache-style wrappers (``run_paper_flow``, CLI ``explore``) build
    tweaked copies of a library spec; journaling those under the bare
    library name would squat it -- the canonical study could then never
    claim its own name in that store.  A content-differing variant is
    renamed ``<name>@<spec-key prefix>`` instead, which is collision-free
    by construction (same name implies same spec key).
    """
    if spec.cache_key() == canonical.cache_key():
        return spec
    return replace(spec, name=f"{spec.name}@{spec.cache_key()[:12]}")


def paper_study_spec(
    seed: int = 0,
    n_runs: int = 10,
    horizon: float = 3600.0,
    backend: str = "envelope",
    jobs: int = 1,
) -> StudySpec:
    """The paper's section-V evaluation as a declarative spec.

    Table V space, 10-run Fedorov D-optimal design, quadratic response
    surface (eq. 9), SA + GA maximisation, transmissions metric --
    executing it reproduces ``run_paper_flow`` (Table VI) exactly.
    """
    return StudySpec(
        name="paper",
        seed=seed,
        n_runs=n_runs,
        horizon=horizon,
        backend=backend,
        jobs=jobs,
    )


#: Factories for the named studies (each call returns a fresh value).
STUDY_LIBRARY: Registry[Callable[[], StudySpec]] = Registry("study")
STUDY_LIBRARY.register("paper", paper_study_spec)


def named_study(name: str) -> StudySpec:
    """Instantiate a library study spec by name."""
    return STUDY_LIBRARY.lookup(name)()
