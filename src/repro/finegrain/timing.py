"""Execution-time model for the fine-grain mapping (Eq. 4 of the paper).

Per basic block::

    t_to_FPGA(BB) = Σ_partitions [ reconfig_cycles + Σ_levels max_delay ]

Nodes of the same ASAP level inside one partition execute in parallel, so a
level costs the maximum delay among its nodes present in that partition
(levels whose nodes all live in other partitions cost nothing here).  Every
temporal partition pays the full-reconfiguration penalty, exactly as §3.2
states: "the reconfiguration time has the same value for each partition and
it is added to the execution time of each temporal partition."

Configuration caching: when a block fits in a *single* temporal partition,
its configuration persists in the device across the block's (typically
loop-iterated) invocations, so no per-invocation reconfiguration is charged
— only multi-partition blocks must swap configurations every invocation.
This caching is what makes a larger A_FPGA reduce the all-FPGA cycle count
(the paper's Tables 2/3 first row) and is the behaviour behind the paper's
observation that "as the FPGA area grows, the reduction of clock cycles is
smaller".  Set ``charge_single_partition=True`` to disable caching (the
ablation benchmarks exercise both policies).

Whole-application time (Eq. 4)::

    t_FPGA = Σ_i t_to_FPGA(BB_i) × Iter(BB_i)
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import telemetry
from ..ir.dfg import DataFlowGraph
from ..platform.characterization import HardwareCharacterization
from .device import FPGADevice
from .temporal import TemporalPartitioning, partition_dfg


@dataclass(frozen=True)
class FineGrainBlockTiming:
    """Timing breakdown of one basic block mapped on the FPGA."""

    compute_cycles: int
    reconfig_cycles: int
    partition_count: int

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.reconfig_cycles


def partition_execution_cycles(
    partitioning: TemporalPartitioning,
    characterization: HardwareCharacterization,
) -> list[int]:
    """Pure compute cycles of each partition (no reconfiguration)."""
    dfg = partitioning.dfg
    asap = dfg.asap_levels()
    cycles: list[int] = []
    for partition in partitioning.partitions:
        by_level: dict[int, int] = {}
        for node_id in partition.node_ids:
            node = dfg.node(node_id)
            delay = characterization.fpga_delay(node.opcode)
            level = asap[node_id]
            if delay > by_level.get(level, 0):
                by_level[level] = delay
        cycles.append(sum(by_level.values()))
    return cycles


def block_fpga_timing(
    dfg: DataFlowGraph,
    device: FPGADevice,
    characterization: HardwareCharacterization,
    charge_single_partition: bool = False,
) -> FineGrainBlockTiming:
    """Map one block (Figure 3) and price it (Eq. 4 inner term)."""
    with telemetry.span("fpga_temporal"):
        partitioning = partition_dfg(dfg, device.usable_area, characterization)
        per_partition = partition_execution_cycles(partitioning, characterization)
    compute = sum(per_partition)
    count = partitioning.partition_count
    if count > 1 or charge_single_partition:
        reconfig = count * device.reconfig_cycles
    else:
        reconfig = 0
    return FineGrainBlockTiming(
        compute_cycles=compute,
        reconfig_cycles=reconfig,
        partition_count=count,
    )


def application_fpga_cycles(
    block_timings: dict[int, FineGrainBlockTiming],
    iterations: dict[int, int],
) -> int:
    """Eq. 4: Σ t_to_FPGA(BB_i) × Iter(BB_i) over the given blocks."""
    total = 0
    for bb_id, timing in block_timings.items():
        total += timing.total_cycles * iterations.get(bb_id, 0)
    return total
