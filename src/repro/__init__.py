"""repro: reproduction of "Response-surface-based design space exploration
and optimisation of wireless sensor nodes with tunable energy harvesters"
(Wang et al., DATE 2012).

The library has three layers:

1. **Simulation substrates** -- an event-driven mixed-signal kernel
   (:mod:`repro.sim`), a nonlinear analogue circuit solver
   (:mod:`repro.analog`) and physical-domain models
   (:mod:`repro.mech`, :mod:`repro.harvester`).
2. **System model** -- the complete harvester-powered wireless sensor node
   (:mod:`repro.digital`, :mod:`repro.node`, :mod:`repro.control`,
   :mod:`repro.system`), runnable either as a detailed co-simulation or as
   the fast envelope model used for hour-long runs.
3. **Methodology** -- response-surface modelling (:mod:`repro.rsm`), design
   of experiments (:mod:`repro.doe`), global optimisers
   (:mod:`repro.optimize`) and the end-to-end design-space-exploration
   workflow (:mod:`repro.core`), which is the paper's contribution.

The curated public surface lives at the package root and is imported
lazily (``import repro`` stays cheap)::

    import repro

    result = repro.run(repro.Scenario(horizon=600.0, seed=1))
    batch = repro.BatchRunner(jobs=4).run(
        [repro.named_scenario(n) for n in repro.scenario_names()]
    )

    # Stochastic environments: a family expands into seeded scenarios.
    family = repro.named_family("factory-floor")
    results = repro.BatchRunner(jobs=4).run_family(family, n=20, seed=0)

    # Persistence: attach a content-addressed store and results survive
    # the process; campaigns resume instead of re-simulating.
    store = repro.ResultStore("results.db")
    camp = repro.Campaign.create(store, "floor", family.expand(40, seed=0))
    camp.run(jobs=4)

    # Declarative studies: the whole DoE -> surrogate -> optimise ->
    # verify pipeline as one serialisable, resumable value.
    spec = repro.named_study("paper")
    outcome = repro.Study(spec, store=store).run()   # kill it halfway...
    outcome = repro.Study.resume(store, "paper")     # ...zero re-simulation

    # Simulation as a service: a durable job queue in the same store,
    # drained by a worker pool, fronted by a stdlib HTTP JSON API
    # (``repro-wsn serve``).
    queue = repro.JobQueue(store)
    job = queue.submit(family.manifest(n=40, seed=0))
    repro.WorkerPool(store, workers=4).run_once()

    # Distributed campaigns: fan partitions out to remote serve
    # processes, stream-merging results back as partitions finish
    # (``repro-wsn coord run``).
    coord = repro.Coordinator(store, family.manifest(n=40, seed=0),
                              ["http://worker-a:8080", "http://worker-b:8080"])
    coord.run()                          # kill it; resume() re-fetches nothing merged
"""

import importlib
from typing import List

__version__ = "1.21.0"

#: Public name -> defining module.  Resolved on first attribute access so
#: ``import repro`` pulls in nothing beyond this file.
_EXPORTS = {
    # scenarios (repro.scenario)
    "Scenario": "repro.scenario",
    "PartsSpec": "repro.scenario",
    "SCENARIO_LIBRARY": "repro.scenario",
    "named_scenario": "repro.scenario",
    "scenario_names": "repro.scenario",
    # stochastic environments and families (repro.system.stochastic)
    "EnvironmentState": "repro.system.stochastic",
    "RegimeSwitchingVibration": "repro.system.stochastic",
    "ScenarioFamily": "repro.system.stochastic",
    "StochasticFamily": "repro.system.stochastic",
    "FixedFamily": "repro.system.stochastic",
    "FAMILY_LIBRARY": "repro.system.stochastic",
    "named_family": "repro.system.stochastic",
    "family_names": "repro.system.stochastic",
    "manifest_scenarios": "repro.system.stochastic",
    "manifest_name": "repro.system.stochastic",
    # backends (repro.backends)
    "Backend": "repro.backends",
    "run": "repro.backends",
    "run_batch": "repro.backends",
    "supports_batch": "repro.backends",
    "run_conformance": "repro.backends",
    "register_backend": "repro.backends",
    "get_backend": "repro.backends",
    "backend_names": "repro.backends",
    # batch execution (repro.core.batch)
    "BatchRunner": "repro.core.batch",
    # persistence (repro.store)
    "ResultStore": "repro.store",
    "ShardedResultStore": "repro.store",
    "StoredResult": "repro.store",
    "StoreStats": "repro.store",
    "Campaign": "repro.store",
    "CampaignStatus": "repro.store",
    "campaign_names": "repro.store",
    "campaign_statuses": "repro.store",
    "open_store": "repro.store",
    "merge_stores": "repro.store",
    "sync_stores": "repro.store",
    "MergeReport": "repro.store",
    # system model (repro.system)
    "SystemConfig": "repro.system.config",
    "ORIGINAL_DESIGN": "repro.system.config",
    "paper_parameter_space": "repro.system.config",
    "SystemResult": "repro.system.result",
    "EnergyBreakdown": "repro.system.result",
    "VibrationProfile": "repro.system.vibration",
    "SystemParts": "repro.system.components",
    "paper_system": "repro.system.components",
    # stage registries (repro.doe / repro.rsm / repro.optimize)
    "register_design": "repro.doe.registry",
    "get_design": "repro.doe.registry",
    "design_names": "repro.doe.registry",
    "register_surrogate": "repro.rsm.registry",
    "get_surrogate": "repro.rsm.registry",
    "surrogate_names": "repro.rsm.registry",
    "register_optimizer": "repro.optimize.registry",
    "get_optimizer": "repro.optimize.registry",
    "optimizer_names": "repro.optimize.registry",
    # declarative studies (repro.core.study)
    "StudySpec": "repro.core.study",
    "Study": "repro.core.study",
    "StudyStatus": "repro.core.study",
    "STUDY_LIBRARY": "repro.core.study",
    "named_study": "repro.core.study",
    "paper_study_spec": "repro.core.study",
    "study_names": "repro.core.study",
    "study_status": "repro.core.study",
    "study_statuses": "repro.core.study",
    # methodology (repro.core)
    "DesignSpaceExplorer": "repro.core.explorer",
    "ExplorationOutcome": "repro.core.explorer",
    "SimulationObjective": "repro.core.objective",
    "metric_names": "repro.core.objective",
    "monte_carlo": "repro.core.montecarlo",
    "EnvironmentModel": "repro.core.montecarlo",
    "EnvironmentFamily": "repro.core.montecarlo",
    "robustness_study": "repro.core.sensitivity",
    "perturbation_family": "repro.core.sensitivity",
    "paper_objective": "repro.core.paper",
    "paper_explorer": "repro.core.paper",
    "run_paper_flow": "repro.core.paper",
    "save_outcome": "repro.core.campaign",
    "load_outcome": "repro.core.campaign",
    # simulation service (repro.service)
    "Job": "repro.service",
    "JobQueue": "repro.service",
    "JobCancelled": "repro.service",
    "WorkerPool": "repro.service",
    "ServiceApp": "repro.service",
    "ServiceClient": "repro.service",
    "ServiceError": "repro.service",
    "ServiceServer": "repro.service",
    "ServiceUnavailable": "repro.service",
    # distributed campaign coordination (repro.coord)
    "Coordinator": "repro.coord",
    "CoordStatus": "repro.coord",
    "CoordJournal": "repro.coord",
    "PartitionState": "repro.coord",
    "coord_names": "repro.coord",
    "coord_status": "repro.coord",
    # observability (repro.obs)
    "MetricsRegistry": "repro.obs",
    "MetricsSnapshot": "repro.obs",
    "render_prometheus": "repro.obs",
    "span": "repro.obs",
    "event": "repro.obs",
    "read_events": "repro.obs",
    "configure_logging": "repro.obs",
    "get_logger": "repro.obs",
    "log_context": "repro.obs",
    "summarize_events": "repro.obs.report",
    # errors
    "ReproError": "repro.errors",
    "ConfigError": "repro.errors",
    "CoordinationError": "repro.errors",
    "DesignError": "repro.errors",
    "SimulationError": "repro.errors",
    "StoreError": "repro.errors",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    """Resolve a public name by importing its defining module on demand."""
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: subsequent accesses skip __getattr__
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
