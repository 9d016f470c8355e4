"""Batched scenario execution.

Runs a list of named scenarios through the :mod:`repro.search`
substrate (the same partitioners the :mod:`repro.explore` grids fan
out), timing each scenario and packaging the outcomes as a
:class:`~repro.suite.store.SuiteRun` ready for the store, the JSON
baseline writer, or a comparison.

Scenarios fan out over ``ProcessPoolExecutor`` like exploration tasks
do, with the same serial fallback when process pools are unavailable;
built workloads and packed cost tables come from the shared
:class:`~repro.serve.cache.PricedTableCache`, so scenarios sharing a
workload (e.g. the skew axis pair) build its DFGs once, and scenarios
that differ only in algorithm or constraint fraction price their
(workload, platform) pair once instead of once per scenario.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from .. import telemetry
from ..parallel import map_tasks
from ..partition.engine import EngineConfig
from ..search import make_partitioner
from .fingerprint import repo_fingerprint
from .scenarios import Scenario, default_suite
from .store import ResultStore, ScenarioResult, SuiteRun

if TYPE_CHECKING:
    from ..serve.cache import PricedTableCache


def run_scenario(
    scenario: Scenario, cache: PricedTableCache | None = None
) -> ScenarioResult:
    """Execute one scenario.

    ``wall_time_seconds`` covers the partitioning search itself
    (pricing through the final result — pricing is amortized to the
    pair's first scenario by the table cache), not the cached workload
    build.  ``configs_per_second`` is the visited-configuration count
    over the search-only time (``run()`` on the warm substrate) — the
    evaluation-throughput metric regressions gate on.  ``cache``
    defaults to the process-wide
    :class:`~repro.serve.cache.PricedTableCache`.

    With telemetry enabled, ``phases`` carries the per-phase seconds of
    the walled region (the scenario span's direct children, e.g.
    ``price_table``/``search``), so their sum never exceeds
    ``wall_time_seconds``; with telemetry off it is empty and nothing
    else changes.
    """
    from ..serve.cache import PricedTableCache

    if cache is None:
        cache = PricedTableCache.process_wide()
    # Outside the scenario span on purpose: the build is cached and
    # excluded from wall_time_seconds, so it must not show up in the
    # phase breakdown that reconciles against the wall either.
    cache.workload(scenario.workload)

    # The walled region runs under one span per scenario, so its direct
    # children (price_table, search, ...) are exactly the phases the
    # result records — their sum is ≤ wall by construction.
    with telemetry.span(f"scenario:{scenario.name}") as scenario_span:
        # Span nodes accumulate across repeat runs in one process; the
        # result's phases must cover only THIS invocation, so diff
        # against the node's state at entry.
        phase_baseline = {
            name: node.seconds
            for name, node in scenario_span.children.items()
        }
        started = time.perf_counter()
        workload, platform, table = cache.resolve(
            (scenario.workload, scenario.platform)
        )
        partitioner = make_partitioner(
            scenario.algorithm,
            workload,
            platform,
            config=EngineConfig(),
            packed_table=table,
        )
        initial = partitioner.initial_cycles()
        constraint = max(1, round(initial * scenario.constraint_fraction))
        search_started = time.perf_counter()
        result = partitioner.run(constraint)
        search_seconds = time.perf_counter() - search_started

        final_subset = tuple(sorted(result.moved_bb_ids))
        rows_used = partitioner.subset_rows_used(final_subset)
        wall = time.perf_counter() - started

    phases = tuple(
        sorted(
            (name, node.seconds - phase_baseline.get(name, 0.0))
            for name, node in scenario_span.children.items()
            if node.seconds > phase_baseline.get(name, 0.0)
        )
    )

    return ScenarioResult(
        scenario=scenario.name,
        workload=result.workload_name,
        platform=scenario.platform.label,
        algorithm=scenario.algorithm.label,
        constraint_fraction=scenario.constraint_fraction,
        timing_constraint=result.timing_constraint,
        initial_cycles=result.initial_cycles,
        total_cycles=result.final_cycles,
        reduction_percent=result.reduction_percent,
        kernels_moved=result.kernels_moved,
        moved_bb_ids=final_subset,
        rows_used=rows_used,
        constraint_met=result.constraint_met,
        wall_time_seconds=wall,
        configs_per_second=(
            partitioner.visited_count / search_seconds
            if search_seconds > 0
            else 0.0
        ),
        # Exact-search scenarios report how many branch-and-bound
        # subtrees the additive bound cut; 0 for every other algorithm.
        pruned_subtrees=getattr(partitioner, "pruned_subtrees", 0),
        phases=phases,
    )


def run_suite(
    scenarios: list[Scenario] | None = None,
    *,
    store: ResultStore | None = None,
    label: str = "",
    max_workers: int | None = None,
    fingerprint: str | None = None,
) -> SuiteRun:
    """Run every scenario (the full registry by default) and return the
    assembled :class:`SuiteRun`, recorded into ``store`` when given.

    ``max_workers=None`` sizes the pool to ``min(scenarios, cpus)``;
    ``max_workers=1`` forces a serial in-process run.  Results come back
    in scenario order regardless of worker scheduling.
    """
    from ..serve.cache import PricedTableCache

    scenarios = default_suite() if scenarios is None else list(scenarios)
    if not scenarios:
        raise ValueError("no scenarios to run")
    names = [scenario.name for scenario in scenarios]
    if len(set(names)) != len(names):
        raise ValueError("scenario names must be unique within a run")

    started = time.perf_counter()

    def run_serially(serial_scenarios) -> list[ScenarioResult]:
        # A cache scoped to this call, as in repro.explore.
        cache = PricedTableCache()
        return [run_scenario(scenario, cache) for scenario in serial_scenarios]

    # Same fallback contract as repro.explore, via the shared
    # repro.parallel fan-out: an unusable pool degrades to a serial
    # run, genuine scenario errors propagate.
    results, workers = map_tasks(
        run_scenario,
        scenarios,
        max_workers,
        what="suite scenarios",
        serial_runner=run_serially,
    )

    run = SuiteRun(
        fingerprint=fingerprint or repo_fingerprint(),
        label=label,
        elapsed_seconds=time.perf_counter() - started,
        results=results,
    )
    if store is not None:
        store.record_run(run)
    return run
