"""Resource-constrained list scheduler for the CGC data-path (§3.3).

"The steps of the mapping process are: (a) scheduling of DFG operations,
and (b) binding with the CGCs.  A proper list-based scheduler has been
developed."  This module is that scheduler.

Model
-----
* Time advances in CGC cycles (unit execution delay per node, §3.3).
* Each CGC node executes one ALU or MUL operation per cycle; a data-path
  with k CGCs of n×m nodes issues up to ``k·n·m`` compute ops per cycle.
* Intra-cycle chaining: steering logic connects nodes of the *same* CGC,
  so a chain of up to ``n`` dependent operations (multiply-add, add-add-…)
  completes within one cycle.  Chains cannot cross CGC boundaries within a
  cycle.
* LOAD/STORE go to the *shared data memory* (Figure 1): an access occupies
  one of ``memory_ports`` ports for ``memory_latency`` CGC cycles
  (non-pipelined — the memory is one physical SRAM shared with the rest of
  the platform and does not scale with the CGC clock).  Memory ops neither
  start from nor extend an intra-cycle chain.
* MOVE/COPY nodes are routing/steering: free, same-cycle, and transparent
  to chain depth.

The scheduler records, for every op, its start cycle, duration, chain depth
and CGC, which makes the result directly bindable (see
:mod:`repro.coarsegrain.binding`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .. import telemetry
from ..ir.dfg import DataFlowGraph
from ..ir.operations import ArrayBase, OpClass
from .datapath import CGCDatapath


@dataclass(frozen=True)
class ScheduledOp:
    """Placement of one DFG node in the schedule."""

    node_id: int
    cycle: int
    chain_depth: int       # 1-based within an intra-cycle chain; 0 for moves
    cgc_index: int | None  # compute ops only; None for moves / memory ops
    unit: str              # "node" | "mem" | "move"
    duration: int = 1      # cycles the op occupies its unit (0 for moves)
    port: int | None = None  # memory ops: which shared-memory port

    @property
    def end(self) -> int:
        """First cycle in which this op's result is available."""
        return self.cycle + self.duration


@dataclass
class CGCSchedule:
    """Complete schedule of one DFG on a CGC data-path."""

    dfg: DataFlowGraph
    datapath: CGCDatapath
    ops: dict[int, ScheduledOp] = field(default_factory=dict)

    @property
    def makespan(self) -> int:
        """Latency in CGC cycles (0 for an empty DFG)."""
        if not self.ops:
            return 0
        return max(op.cycle + max(op.duration, 1) for op in self.ops.values())

    def ops_in_cycle(self, cycle: int) -> list[ScheduledOp]:
        """Ops *active* during ``cycle`` (multi-cycle memory ops included)."""
        return [
            op
            for op in self.ops.values()
            if op.cycle <= cycle < op.cycle + max(op.duration, 1)
        ]

    # ------------------------------------------------------------------
    # Legality checking
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Assert every resource and dependency constraint holds.

        One pass buckets the memory ports and per-CGC issue counts by
        active cycle, then the cycles are checked in ascending order, so
        the cost is O(ops × duration + edges) rather than a rescan of
        every op per cycle.
        """
        dfg, dp = self.dfg, self.datapath
        expected = {node.node_id for node in dfg.nodes}
        if set(self.ops) != expected:
            raise AssertionError("schedule does not cover every DFG node")

        # cycle -> ports of the memory ops active in it
        mem_ports: dict[int, list[int | None]] = {}
        # cycle -> CGC index -> compute ops issued (first-seen order)
        issued: dict[int, dict[int | None, int]] = {}
        for op in self.ops.values():
            active = range(op.cycle, op.cycle + max(op.duration, 1))
            if op.unit == "mem":
                for cycle in active:
                    mem_ports.setdefault(cycle, []).append(op.port)
            elif op.unit == "node":
                for cycle in active:
                    per_cgc = issued.setdefault(cycle, {})
                    per_cgc[op.cgc_index] = per_cgc.get(op.cgc_index, 0) + 1

        for cycle in sorted(mem_ports.keys() | issued.keys()):
            ports_used = mem_ports.get(cycle, [])
            if len(ports_used) > dp.memory_ports:
                raise AssertionError(
                    f"cycle {cycle}: {len(ports_used)} memory ops exceed "
                    f"{dp.memory_ports} ports"
                )
            if len(set(ports_used)) != len(ports_used):
                raise AssertionError(
                    f"cycle {cycle}: shared-memory port double-booked"
                )
            for cgc_index, used in issued.get(cycle, {}).items():
                assert cgc_index is not None
                capacity = dp.cgcs[cgc_index].node_count
                if used > capacity:
                    raise AssertionError(
                        f"cycle {cycle}: CGC {cgc_index} issues {used} ops, "
                        f"capacity {capacity}"
                    )

        for src, dst in dfg.edges():
            self._check_edge(src, dst)

    def _check_edge(self, src: int, dst: int) -> None:
        producer, consumer = self.ops[src], self.ops[dst]
        if producer.end <= consumer.cycle:
            return
        if producer.cycle != consumer.cycle:
            raise AssertionError(
                f"edge {src}->{dst}: consumer starts at {consumer.cycle} "
                f"before producer finishes at {producer.end}"
            )
        # Same cycle: must be a legal chain.
        if producer.unit == "mem" or consumer.unit == "mem":
            raise AssertionError(
                f"edge {src}->{dst}: memory ops cannot chain in-cycle"
            )
        if consumer.unit == "node" and producer.unit == "node":
            if producer.cgc_index != consumer.cgc_index:
                raise AssertionError(
                    f"edge {src}->{dst}: chain crosses CGC boundary"
                )
        if consumer.unit == "node":
            limit = (
                self.datapath.cgcs[consumer.cgc_index].chain_depth
                if consumer.cgc_index is not None
                else self.datapath.chain_depth
            )
            if consumer.chain_depth > limit:
                raise AssertionError(
                    f"edge {src}->{dst}: chain depth {consumer.chain_depth} "
                    f"exceeds limit {limit}"
                )
            if producer.chain_depth >= consumer.chain_depth and (
                producer.unit == "node"
            ):
                raise AssertionError(
                    f"edge {src}->{dst}: chain depth not increasing"
                )


def _node_heights(dfg: DataFlowGraph) -> dict[int, int]:
    """Longest path (in compute+mem ops) from each node to any sink."""
    heights: dict[int, int] = {}
    for node in reversed(list(dfg.nodes)):
        own = 0 if node.op_class is OpClass.MOVE else 1
        succ_heights = [heights[s] for s in dfg.successors(node.node_id)]
        heights[node.node_id] = own + max(succ_heights, default=0)
    return heights


class ListScheduler:
    """Ready-list scheduling with chain-aware per-CGC slot allocation.

    A node enters the ready heap, keyed on ``(-height, node_id)``, once
    its last predecessor is placed.  Each cycle pops the heap in key
    order: a node that places releases its successors into the same
    cycle's heap (their keys sort after its own, so same-cycle chaining
    sees them in priority order), and a node that does not place is
    parked in a wake bucket until its *wake cycle*.  When no bucket is
    due in the next cycle, time jumps to the earliest wake cycle.

    The wake cycle is a lower bound on the node's next feasible cycle:
    the cycle after the failed attempt, the latest ``end`` of its
    (all placed) predecessors, and for a memory op the earliest time a
    shared-memory port frees up.  Placed ops never move and port
    free times only grow, so the bound stays valid while the node
    waits; every attempt it skips would have failed, and a failed
    attempt changes nothing.  Placements are therefore exactly those
    of retrying every waiting node every cycle, in the same
    ``(-height, node_id)`` order within a cycle.
    """

    def __init__(self, dfg: DataFlowGraph, datapath: CGCDatapath):
        self.dfg = dfg
        self.datapath = datapath
        datapath.reject_unsupported(dfg)
        self.heights = _node_heights(dfg)

    def schedule(self) -> CGCSchedule:
        dfg, datapath = self.dfg, self.datapath
        result = CGCSchedule(dfg, datapath)
        ops = result.ops
        preds, succs, heights = dfg.preds, dfg.succs, self.heights
        nodes = dfg.nodes
        unplaced_preds = [len(node_preds) for node_preds in preds]
        ready = [
            (-heights[node_id], node_id)
            for node_id, count in enumerate(unplaced_preds)
            if count == 0
        ]
        heapq.heapify(ready)
        capacities = [cgc.node_count for cgc in datapath.cgcs]
        # busy-until time of each shared-memory port
        port_free_at = [0] * datapath.memory_ports
        # wake cycle -> keys of the nodes parked until then
        wake: dict[int, list[tuple[int, int]]] = {}
        wake_cycles: list[int] = []  # heap of the keys of ``wake``
        remaining = len(dfg)
        cycle = 0
        # Guard: any DAG schedules within |V| · latency cycles.
        max_cycles = (2 + datapath.memory_latency) * (len(dfg) + 8)
        while remaining:
            if cycle > max_cycles:
                raise RuntimeError(
                    "scheduler failed to converge — internal error"
                )
            free_slots = capacities.copy()
            while ready:
                key = heapq.heappop(ready)
                node_id = key[1]
                placement = self._try_place(
                    node_id, cycle, free_slots, port_free_at, ops
                )
                if placement is None:
                    wake_at = cycle + 1
                    for pred in preds[node_id]:
                        end = ops[pred].end
                        if end > wake_at:
                            wake_at = end
                    if nodes[node_id].op_class is OpClass.MEM:
                        wake_at = max(wake_at, min(port_free_at))
                    parked = wake.get(wake_at)
                    if parked is None:
                        wake[wake_at] = [key]
                        heapq.heappush(wake_cycles, wake_at)
                    else:
                        parked.append(key)
                    continue
                ops[node_id] = placement
                remaining -= 1
                if placement.unit == "mem":
                    assert placement.port is not None
                    port_free_at[placement.port] = placement.end
                elif placement.unit == "node":
                    assert placement.cgc_index is not None
                    free_slots[placement.cgc_index] -= 1
                for succ in succs[node_id]:
                    unplaced_preds[succ] -= 1
                    if unplaced_preds[succ] == 0:
                        heapq.heappush(ready, (-heights[succ], succ))
            if remaining:
                # Some node still waits (the DFG is acyclic), so a
                # wake bucket is due.
                cycle = heapq.heappop(wake_cycles)
                ready = wake.pop(cycle)
                heapq.heapify(ready)
        return result

    # ------------------------------------------------------------------
    def _try_place(
        self,
        node_id: int,
        cycle: int,
        free_slots: list[int],
        port_free_at: list[int],
        ops: dict[int, ScheduledOp],
    ) -> ScheduledOp | None:
        node = self.dfg.nodes[node_id]
        op_class = node.op_class
        in_cycle_preds: list[ScheduledOp] = []
        for pred in self.dfg.preds[node_id]:
            placed = ops[pred]  # the ready list only offers placed inputs
            if placed.cycle == cycle and placed.unit in ("node", "move"):
                in_cycle_preds.append(placed)
            elif placed.end > cycle:
                return None  # result not available yet (e.g. memory in flight)

        if op_class is OpClass.MOVE:
            # Moves are wires: free, chain-depth transparent.
            depth = max((p.chain_depth for p in in_cycle_preds), default=0)
            cgcs = {
                p.cgc_index for p in in_cycle_preds if p.cgc_index is not None
            }
            if len(cgcs) > 1:
                return None
            cgc_index = cgcs.pop() if cgcs else None
            return ScheduledOp(
                node_id, cycle, depth, cgc_index, "move", duration=0
            )

        if op_class is OpClass.MEM:
            if in_cycle_preds:
                return None  # address/value must come from earlier cycles
            # Local scratch buffers live in the data-path's register bank
            # and respond in one CGC cycle; globals go to the shared data
            # memory at its own (slower) access time.
            base = node.instruction.operands[0]
            is_local = isinstance(base, ArrayBase) and base.local
            duration = 1 if is_local else self.datapath.memory_latency
            for port, free_at in enumerate(port_free_at):
                if free_at <= cycle:
                    return ScheduledOp(
                        node_id,
                        cycle,
                        0,
                        None,
                        "mem",
                        duration=duration,
                        port=port,
                    )
            return None

        # Compute op (ALU/MUL).
        depth = 1 + max((p.chain_depth for p in in_cycle_preds), default=0)
        forced_cgcs = {
            p.cgc_index for p in in_cycle_preds if p.cgc_index is not None
        }
        if len(forced_cgcs) > 1:
            return None  # chain would span two CGCs
        if forced_cgcs:
            cgc_index = forced_cgcs.pop()
            if free_slots[cgc_index] <= 0:
                return None
            if depth > self.datapath.cgcs[cgc_index].chain_depth:
                return None
            return ScheduledOp(node_id, cycle, depth, cgc_index, "node")
        # Start of a new chain: pick the CGC with the most free slots that
        # satisfies the depth limit.
        best: int | None = None
        for index, slots in enumerate(free_slots):
            if slots <= 0:
                continue
            if depth > self.datapath.cgcs[index].chain_depth:
                continue
            if best is None or slots > free_slots[best]:
                best = index
        if best is None:
            return None
        return ScheduledOp(node_id, cycle, depth, best, "node")


def schedule_dfg(dfg: DataFlowGraph, datapath: CGCDatapath) -> CGCSchedule:
    """Schedule one DFG and return the validated schedule."""
    with telemetry.span("cgc_schedule"):
        schedule = ListScheduler(dfg, datapath).schedule()
    with telemetry.span("schedule_validate"):
        schedule.validate()
    return schedule
