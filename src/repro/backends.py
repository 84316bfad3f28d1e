"""Pluggable simulation backends behind one ``run(scenario)`` call.

The envelope and detailed simulators predate this module and keep their
native constructors; a :class:`Backend` adapts each one to the common
contract *scenario in, :class:`~repro.system.result.SystemResult` out*.
Backends are looked up by name in a process-wide registry so drivers
(:class:`~repro.core.batch.BatchRunner`, the CLI, the simulation
objective) never hard-code a fidelity level:

>>> from repro import Scenario, run
>>> result = run(Scenario(horizon=60.0, seed=1))          # envelope
>>> result = run(Scenario(horizon=0.5, backend="detailed", seed=1))

Backends may additionally implement the optional **batch capability**
``run_batch(scenarios) -> list[SystemResult]``; drivers that hold many
scenarios hand the whole list over in one call so the backend can
amortise per-scenario overhead (the ``vectorized`` backend integrates a
batch as NumPy arrays in lockstep).  :func:`run_batch` here is the
capability-aware dispatcher: it groups scenarios by backend, uses
``run_batch`` where available and falls back to per-scenario
:func:`run` otherwise, always preserving submission order.

Third parties extend the registry with :func:`register_backend`; unknown
names fail with a :class:`~repro.errors.ConfigError` that lists what is
available.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.errors import ConfigError, SimulationError
from repro.registry import Registry
from repro.scenario import Scenario
from repro.system.result import SystemResult


@runtime_checkable
class Backend(Protocol):
    """The contract every simulation backend implements."""

    #: Registry name (``scenario.backend`` selects by this).
    name: str

    def simulate(self, scenario: Scenario) -> SystemResult:
        """Run one scenario to completion and return its result."""
        ...


class EnvelopeBackend:
    """The fast energy-balance simulator (hour-scale runs)."""

    name = "envelope"

    def simulate(self, scenario: Scenario) -> SystemResult:
        from repro.system.envelope import EnvelopeSimulator

        return _construct(EnvelopeSimulator, scenario).run(scenario.horizon)


class DetailedBackend:
    """The cycle-accurate MNA co-simulation (seconds-scale runs)."""

    name = "detailed"

    def simulate(self, scenario: Scenario) -> SystemResult:
        from repro.system.detailed import DetailedSimulator

        sim = _construct(DetailedSimulator, scenario)
        return sim.run(scenario.horizon).to_system_result()


class VectorizedBackend:
    """The NumPy lockstep batch integrator (envelope physics, SIMD).

    Semantically the envelope backend; operationally it advances whole
    scenario batches as ``(n_scenarios,)`` arrays per integration step
    (:mod:`repro.system.vectorized`).  Batches narrower than
    :data:`~repro.system.vectorized.LOCKSTEP_MIN_LANES` run lane by lane
    on the scalar integrator instead, where lockstep would be slower;
    the result bytes are the same either way.
    """

    name = "vectorized"

    def simulate(self, scenario: Scenario) -> SystemResult:
        return self.run_batch([scenario])[0]

    def run_batch(self, scenarios: Sequence[Scenario]) -> List[SystemResult]:
        from repro.system.vectorized import (
            LOCKSTEP_MIN_LANES,
            simulate_batch,
            simulate_scalar,
        )

        if len(scenarios) < LOCKSTEP_MIN_LANES:
            return simulate_scalar(scenarios)
        return simulate_batch(scenarios)


def _construct(cls, scenario: Scenario):
    """Build simulator ``cls`` for ``scenario``, bad options as ConfigError.

    Every backend builds its simulators here.  A scenario without parts
    gets the simulator's default :func:`~repro.system.components.paper_system`.
    """
    parts = scenario.build_parts()
    try:
        return cls(
            scenario.config,
            parts=parts,
            profile=scenario.profile,
            seed=scenario.seed,
            **dict(scenario.options),
        )
    except TypeError as exc:
        raise ConfigError(
            f"backend {scenario.backend!r} rejected scenario options "
            f"{sorted(scenario.options)}: {exc}"
        ) from exc


# -- registry -----------------------------------------------------------------

_REGISTRY: Registry[Callable[[], Backend]] = Registry("backend")


def register_backend(
    name: str, factory: Callable[[], Backend], overwrite: bool = False
) -> None:
    """Register a backend factory under ``name``.

    Re-registering an existing name requires ``overwrite=True`` so typos
    cannot silently shadow a shipped backend.

    The registry is per-process.  Process-pool batches
    (:class:`~repro.core.batch.BatchRunner` with ``jobs > 1``) see
    custom backends on platforms whose workers are forked (Linux);
    under a ``spawn``/``forkserver`` start method the registration must
    happen at import time of a module the workers also import, or the
    batch should use ``executor="thread"``.
    """
    _REGISTRY.register(name, factory, overwrite)


def backend_names() -> List[str]:
    """Registered backend names."""
    return _REGISTRY.names()


def get_backend(name: str) -> Backend:
    """Instantiate the backend registered under ``name``."""
    return _REGISTRY.lookup(name)()


register_backend("envelope", EnvelopeBackend)
register_backend("detailed", DetailedBackend)
register_backend("vectorized", VectorizedBackend)


def run(scenario: Scenario) -> SystemResult:
    """Execute one scenario on its named backend."""
    return get_backend(scenario.backend).simulate(scenario)


def supports_batch(backend: Backend) -> bool:
    """Whether ``backend`` implements the batch capability."""
    return callable(getattr(backend, "run_batch", None))


def dispatch_batchable(
    scenarios: Sequence[Scenario],
    batch_executor: Optional[
        Callable[[str, List[Scenario]], List[SystemResult]]
    ] = None,
) -> "tuple[List[Optional[SystemResult]], List[int]]":
    """Run every batch-capable backend group in one call each.

    Groups ``scenarios`` by backend name and hands each group whose
    backend implements ``run_batch`` over in a single call; the returned
    result list carries those results at their submission indices, with
    ``None`` holes for the leftover indices (returned separately) whose
    backends must run scenario by scenario.  This is the one shared
    dispatch primitive behind :func:`run_batch` and
    :class:`~repro.core.batch.BatchRunner`.

    ``batch_executor`` overrides *how* a batch-capable group executes:
    it is called as ``batch_executor(name, batch)`` and must return one
    result per scenario in order.  :class:`~repro.core.batch.BatchRunner`
    passes its sharded fan-out here so ``jobs=N`` composes with
    ``run_batch`` (N workers, one contiguous sub-batch each) instead of
    batch dispatch silently running below the process pool.
    """
    results: List[Optional[SystemResult]] = [None] * len(scenarios)
    leftover: List[int] = []
    groups: Dict[str, List[int]] = {}
    for index, scenario in enumerate(scenarios):
        groups.setdefault(scenario.backend, []).append(index)
    for name, indices in groups.items():
        backend = get_backend(name)
        if not supports_batch(backend):
            leftover.extend(indices)
            continue
        batch = [scenarios[i] for i in indices]
        if batch_executor is not None:
            fresh = batch_executor(name, batch)
        else:
            fresh = backend.run_batch(batch)
        if len(fresh) != len(batch):
            raise SimulationError(
                f"backend {name!r} returned {len(fresh)} results for a "
                f"{len(batch)}-scenario batch"
            )
        for i, result in zip(indices, fresh):
            results[i] = result
    return results, leftover


def run_batch(scenarios: Sequence[Scenario]) -> List[SystemResult]:
    """Execute many scenarios, batching where the backend allows it.

    Scenarios are grouped by backend name; each batch-capable group is
    handed to the backend's ``run_batch`` in one call, the rest run one
    by one through :func:`run`.  Results align with the input order
    regardless of grouping.
    """
    results, leftover = dispatch_batchable(scenarios)
    for i in leftover:
        results[i] = run(scenarios[i])
    return results  # type: ignore[return-value]


def run_conformance(
    scenario: Scenario,
    backends: Sequence[str] = ("envelope", "detailed", "vectorized"),
) -> Dict[str, SystemResult]:
    """Run one scenario on several backends under identical excitation.

    This is the cross-backend conformance primitive: the same
    configuration, parts, profile, horizon and seed on every named
    backend, so the results differ only by model fidelity.  Two
    normalisations make the comparison fair:

    - a ``profile=None`` scenario is materialised to the paper profile
      first (each backend has a *different* native default, which would
      silently compare different excitations), and
    - backend-specific ``options`` are dropped (they do not transfer --
      e.g. the envelope's ``record_traces`` would be rejected by the
      detailed simulator's constructor).
    """
    from dataclasses import replace

    if scenario.profile is None:
        from repro.system.vibration import VibrationProfile

        scenario = replace(scenario, profile=VibrationProfile.paper_profile())
    return {
        name: run(replace(scenario, backend=name, options={}))
        for name in backends
    }


def quiet_options(backend: str) -> dict:
    """Scenario options that suppress trace recording on ``backend``.

    Batch drivers (Monte Carlo, robustness grids, DOE evaluation) want
    lean results; only the envelope-physics backends record optional
    traces, so this is the one place that capability knowledge lives.
    """
    return {"record_traces": False} if backend in ("envelope", "vectorized") else {}
