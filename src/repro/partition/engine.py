"""The partitioning engine — paper §3.4 and the Figure 2 flow.

Flow implemented here:

1. Map the whole application to the fine-grain hardware (Figure 3 temporal
   partitioning per block) and compute the all-FPGA execution time.
2. If the timing constraint is met, exit — no partitioning needed.
3. Analysis: order kernel candidates by descending ``total_weight``
   (Eq. 1).
4. Move kernels one by one to the coarse-grain data-path.  After each
   move, recompute ``t_total = t_FPGA + t_coarse + t_comm`` (Eq. 2, with
   Eq. 3/4 aggregation) and stop as soon as the constraint is satisfied.
   A move whose CGC + communication ticks exceed the kernel's FPGA ticks
   strictly worsens Eq. 2 and is reverted (the paper's commit-always
   behaviour survives behind ``EngineConfig.allow_regressing_moves``).

:class:`PartitioningEngine` is the paper-facing facade over
:class:`~repro.search.greedy.GreedyPartitioner`, which runs the loop on
the :class:`~repro.partition.packed.PackedCostTable` pricing substrate.
Because the greedy order and the revert decisions are independent of the
timing constraint, the move *trajectory* is computed lazily once per
engine and replayed, so ``sweep()`` warm-starts every constraint after
the first from the shared prefix.  ``EngineStats`` counts the pricing
work and the greedy decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.weights import WeightModel
from ..platform.soc import HybridPlatform
from .costs import CostStats
from .result import PartitionResult
from .workload import ApplicationWorkload


@dataclass
class EngineConfig:
    """Tunables of the engine loop.

    A config is frozen once its engine has run: the cached move
    trajectory bakes the flags in, so the engine snapshots the config at
    the first ``run()`` / ``initial_cycles()`` and raises on any later
    mutation instead of silently ignoring it.  Build a new engine (or a
    new config) instead.
    """

    max_kernels_moved: int | None = None
    stop_at_constraint: bool = True
    skip_unsupported_kernels: bool = True
    #: Charge the reconfiguration penalty even to blocks that fit in one
    #: temporal partition (disables configuration caching; ablation knob).
    charge_single_partition_reconfig: bool = False
    #: Commit kernel moves even when they increase the Eq. 2 total — the
    #: literal Figure 2 loop, which never reverts.  Ablation knob; the
    #: default reverts moves that strictly worsen the total.
    allow_regressing_moves: bool = False
    #: Worker-process cap for search modes that fan out (the sharded
    #: exhaustive walk).  ``None`` sizes to the machine's cores; ``1``
    #: forces an in-process serial run.  Results are bit-identical
    #: regardless of the value — it only bounds parallelism.
    search_workers: int | None = None

    def __post_init__(self) -> None:
        if self.search_workers is not None and self.search_workers < 1:
            raise ValueError("search_workers must be >= 1")


@dataclass
class EngineStats(CostStats):
    """Work counters for one engine instance (all runs accumulated):
    the pricing counters plus the greedy decisions."""

    moves_committed: int = 0
    moves_reverted: int = 0
    kernels_skipped: int = 0
    #: ``run()`` calls that replayed at least one cached trajectory entry.
    warm_started_runs: int = 0


class PartitioningEngine:
    """Runs the Figure 2 flow for one workload on one platform."""

    def __init__(
        self,
        workload: ApplicationWorkload,
        platform: HybridPlatform,
        weight_model: WeightModel | None = None,
        config: EngineConfig | None = None,
    ) -> None:
        # repro.search imports EngineConfig from this module.
        from ..search.greedy import GreedyPartitioner

        self._greedy = GreedyPartitioner(
            workload, platform, weight_model, config
        )
        self.stats = EngineStats()
        # The partitioner prices lazily, so its cost model will count
        # into the engine's stats.
        self._greedy.stats = self.stats
        self.workload = workload
        self.platform = platform
        self.weight_model = self._greedy.weight_model
        self.config = self._greedy.config

    def initial_cycles(self) -> int:
        """All-FPGA execution time in FPGA cycles (Table 2/3 row 1)."""
        return self._greedy.initial_cycles()

    def run(self, timing_constraint: int) -> PartitionResult:
        """Execute the Figure 2 loop against a timing constraint
        expressed in FPGA clock cycles."""
        if timing_constraint <= 0:
            raise ValueError("timing constraint must be positive")
        cached_entries = len(self._greedy.trajectory.entries)
        result = self._greedy.run(timing_constraint)
        if cached_entries and result.initial_cycles > timing_constraint:
            self.stats.warm_started_runs += 1
        self.stats.moves_committed += len(result.moved_bb_ids)
        self.stats.moves_reverted += len(result.reverted_bb_ids)
        self.stats.kernels_skipped += len(result.skipped_bb_ids)
        return result

    def sweep(self, constraints: list[int]) -> list[PartitionResult]:
        """Run the engine at several timing constraints.

        Every constraint after the first warm-starts from the cached
        move trajectory (the greedy order is constraint-independent), so
        the marginal cost of an extra constraint is O(moves replayed),
        with zero new block-cost evaluations once the trajectory covers
        it.
        """
        return [self.run(constraint) for constraint in constraints]


def partition_application(
    workload: ApplicationWorkload,
    platform: HybridPlatform,
    timing_constraint: int,
    weight_model: WeightModel | None = None,
    config: EngineConfig | None = None,
) -> PartitionResult:
    """One-shot convenience wrapper around :class:`PartitioningEngine`."""
    engine = PartitioningEngine(workload, platform, weight_model, config)
    return engine.run(timing_constraint)
