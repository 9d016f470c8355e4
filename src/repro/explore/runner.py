"""Parallel grid-sweep runner.

Work is split at (workload, platform, algorithm) granularity so every
grid axis fans out across worker processes, but pricing is shared at
(workload, platform) granularity: a single
:class:`~repro.partition.packed.PackedCostTable` is derived per pair,
cached per worker process (per call when serial), and injected into
every partitioner the worker builds for that pair — so the algorithm
and constraint axes never remap a block a sibling cell already priced.
Constraint-independent search state (the greedy move trajectory, a
cached annealing walk) is shared across the constraints of each
algorithm as before.  Within a worker process, built workloads are
additionally cached by spec, so every platform the worker prices
against the same workload reuses its DFGs.

Tasks fan out over ``concurrent.futures.ProcessPoolExecutor``; with
``max_workers=1`` (or a single task) everything runs in-process, which is
also the automatic fallback where process pools are unavailable.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from .. import telemetry
from ..interp.cache import ProfileCache
from ..parallel import map_tasks
from ..partition.costs import CostModel, CostStats
from ..partition.engine import EngineConfig
from ..partition.packed import PackedCostTable
from ..partition.workload import ApplicationWorkload
from ..search import make_partitioner
from .results import ExplorationReport, ExplorationResult
from .space import DesignSpace, ExplorationTask, PlatformSpec, WorkloadSpec

#: Per-process cache of built workloads (DFG generation is the expensive
#: part of a spec); worker processes each grow their own copy.
_WORKLOAD_CACHE: dict[WorkloadSpec, ApplicationWorkload] = {}

#: Per-process cache of packed cost tables, keyed by the (workload,
#: platform) pair plus the one pricing flag that changes the numbers.
#: One pricing pass per pair serves every algorithm and constraint of
#: every grid cell the worker executes — the tables themselves are tiny
#: tuples of ints (they pickle in microseconds), so callers can equally
#: ship one across processes via ``packed_table``.
_TableKey = tuple[WorkloadSpec, PlatformSpec, bool]
_TABLE_CACHE: dict[_TableKey, PackedCostTable] = {}


def _cached_table(
    task: ExplorationTask,
    workload: ApplicationWorkload,
    platform,
    config: EngineConfig,
    stats: CostStats,
    cache: dict[_TableKey, PackedCostTable] | None = None,
) -> PackedCostTable:
    """Derive (or reuse) the pair's packed table; pricing work on a
    cache miss is charged to ``stats``."""
    if cache is None:
        cache = _TABLE_CACHE
    key = (
        task.workload,
        task.platform,
        config.charge_single_partition_reconfig,
    )
    table = cache.get(key)
    if table is None:
        model = CostModel(
            workload,
            platform,
            charge_single_partition_reconfig=(
                config.charge_single_partition_reconfig
            ),
            stats=stats,
        )
        table = PackedCostTable.from_model(model)
        cache[key] = table
    return table

#: Per-process profile caches keyed by on-disk directory (None = memory
#: only).  Measured workload specs profile real programs; the
#: content-keyed cache means each distinct (program, input) pair is
#: interpreted at most once per process — or once per *fleet* when a
#: shared directory is configured.
_PROFILE_CACHES: dict[str | None, ProfileCache] = {}


def _profile_cache(directory: str | None) -> ProfileCache:
    cache = _PROFILE_CACHES.get(directory)
    if cache is None:
        cache = ProfileCache(directory=directory)
        _PROFILE_CACHES[directory] = cache
    return cache


def _cached_workload(
    spec: WorkloadSpec,
    cache: dict[WorkloadSpec, ApplicationWorkload] | None = None,
    profile_cache_dir: str | None = None,
) -> ApplicationWorkload:
    if cache is None:
        cache = _WORKLOAD_CACHE
    workload = cache.get(spec)
    if workload is None:
        with telemetry.span("build_workload"):
            workload = spec.build(
                profile_cache=_profile_cache(profile_cache_dir)
            )
        cache[spec] = workload
    return workload


@dataclass
class _TaskOutcome:
    """What one task ships back to the coordinating process."""

    results: list[ExplorationResult] = field(default_factory=list)
    block_cost_evaluations: int = 0
    contribution_lookups: int = 0
    blocks_mapped: int = 0

    def absorb(self, stats: CostStats) -> None:
        self.block_cost_evaluations += stats.block_cost_evaluations
        self.contribution_lookups += stats.contribution_lookups
        self.blocks_mapped += stats.blocks_mapped


def _run_task(
    task: ExplorationTask,
    workload_cache: dict[WorkloadSpec, ApplicationWorkload] | None = None,
    table_cache: dict[_TableKey, PackedCostTable] | None = None,
) -> _TaskOutcome:
    """Execute one (workload, platform) pair's (algorithm × constraint)
    sweep.

    The pair is priced once — the shared packed table is derived (or
    fetched from the per-process cache) up front and injected into every
    algorithm's partitioner, so the algorithm and constraint axes add
    zero block-mapping work.
    """
    workload = _cached_workload(
        task.workload, workload_cache, task.profile_cache_dir
    )
    platform = task.platform.build()
    config = task.engine_config or EngineConfig()
    outcome = _TaskOutcome()
    pricing_stats = CostStats()
    table = _cached_table(
        task, workload, platform, config, pricing_stats, table_cache
    )
    outcome.absorb(pricing_stats)
    for algorithm in task.algorithms:
        partitioner = make_partitioner(
            algorithm, workload, platform, config=config, packed_table=table
        )
        initial = partitioner.initial_cycles()
        for fraction in task.constraint_fractions:
            constraint = max(1, round(initial * fraction))
            result = partitioner.run(constraint)
            outcome.results.append(
                ExplorationResult.from_partition_result(
                    result,
                    afpga=task.platform.afpga,
                    cgc_count=task.platform.cgc_count,
                    clock_ratio=task.platform.clock_ratio,
                    reconfig_cycles=task.platform.reconfig_cycles,
                    constraint_fraction=fraction,
                    algorithm=algorithm.label,
                )
            )
        outcome.absorb(partitioner.stats)
    return outcome


def explore(
    space: DesignSpace,
    *,
    max_workers: int | None = None,
    engine_config: EngineConfig | None = None,
    profile_cache_dir: str | None = None,
) -> ExplorationReport:
    """Sweep the whole design space, fanning tasks out across processes.

    ``max_workers=None`` sizes the pool to ``min(tasks, cpu_count)``;
    ``max_workers=1`` forces a serial in-process run.  Results come back
    in grid order (workloads × platforms × constraint fractions)
    regardless of worker scheduling.  ``profile_cache_dir`` enables the
    shared on-disk profile cache for measured workload specs, so worker
    processes (and repeat invocations) never re-profile an identical
    program.
    """
    tasks = space.tasks(engine_config, profile_cache_dir)
    started = time.perf_counter()
    workers = max_workers
    if workers is None:
        workers = min(len(tasks), os.cpu_count() or 1)
    workers = max(1, workers)

    def run_serially(serial_tasks) -> list[_TaskOutcome]:
        # Caches scoped to this call: the coordinating process is long
        # lived and must not accumulate every workload ever explored.
        workloads: dict[WorkloadSpec, ApplicationWorkload] = {}
        tables: dict[_TableKey, PackedCostTable] = {}
        return [_run_task(task, workloads, tables) for task in serial_tasks]

    # The shared fan-out contract (repro.parallel): an unusable pool or
    # a worker dying mid-grid falls back to a serial run; genuine task
    # errors propagate as themselves.
    outcomes, workers = map_tasks(
        _run_task,
        tasks,
        workers,
        what="exploration grid",
        serial_runner=run_serially,
    )

    report = ExplorationReport(
        workers_used=workers,
        tasks_run=len(tasks),
        elapsed_seconds=time.perf_counter() - started,
    )
    for outcome in outcomes:
        report.results.extend(outcome.results)
        report.block_cost_evaluations += outcome.block_cost_evaluations
        report.contribution_lookups += outcome.contribution_lookups
        report.blocks_mapped += outcome.blocks_mapped
    return report
