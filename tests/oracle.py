"""Test-only oracles.

* Eq. 2: prices kernel subsets straight from the per-block timing
  models, with no code from the production pricing path
  (``repro.partition.costs``, ``packed``, ``trajectory`` or
  ``repro.search``), and runs the Figure 2 greedy loop and a brute-force
  optimum on those prices.
* CGC list scheduling: :func:`oracle_schedule` is the straightforward
  pass-per-cycle list scheduler, sharing no code with
  ``repro.coarsegrain.scheduler``; the production ready-list scheduler
  must reproduce its placements exactly.
"""

from itertools import combinations

from repro.analysis.weights import WeightModel
from repro.ir.operations import ArrayBase, OpClass
from repro.coarsegrain.timing import block_cgc_timing
from repro.finegrain.timing import block_fpga_timing
from repro.partition.comm import kernel_communication

_TERMS = {}  # (id(workload), id(platform)) -> (workload, platform, terms)


def block_terms(workload, platform):
    """bb_id -> (fpga ticks, cgc ticks or None, comm ticks, cgc rows)."""
    key = (id(workload), id(platform))
    if key not in _TERMS:
        ratio, terms = platform.clock_ratio, {}
        for b in workload.blocks:
            fine = block_fpga_timing(
                b.dfg, platform.fpga, platform.characterization
            )
            coarse = None
            if platform.datapath.supports_dfg(b.dfg):
                coarse = block_cgc_timing(b.dfg, platform.datapath)
            comm = kernel_communication(
                b, platform.memory, platform.interconnect
            )
            terms[b.bb_id] = (
                fine.total_cycles * b.exec_freq * ratio,
                None if coarse is None else coarse.cgc_cycles * b.exec_freq,
                comm.total_cycles * ratio,
                0 if coarse is None else coarse.rows_used,
            )
        _TERMS[key] = (workload, platform, terms)  # pins the ids
    return _TERMS[key][2]


def split_cycles(ratio, ticks):
    """(fpga, cgc, comm, total) FPGA cycles of (fpga, cgc, comm) ticks:
    total rounded up once, parts apportioned by largest remainder."""
    total = -(-sum(ticks) // ratio)
    parts = [t // ratio for t in ticks]
    by_remainder = sorted(range(3), key=lambda k: (-(ticks[k] % ratio), k))
    for k in by_remainder[: total - sum(parts)]:
        parts[k] += 1
    return (*parts, total)


def price_subset(workload, platform, bb_ids):
    """(fpga, cgc, comm, total) FPGA cycles of moving ``bb_ids``."""
    terms = block_terms(workload, platform)
    moved = set(bb_ids)
    ticks = [sum(t[0] for i, t in terms.items() if i not in moved), 0, 0]
    for i in moved:
        ticks[1] += terms[i][1]
        ticks[2] += terms[i][2]
    return split_cycles(platform.clock_ratio, ticks)


def rows_used(workload, platform, bb_ids):
    terms = block_terms(workload, platform)
    return max((terms[i][3] for i in bb_ids), default=0)


def _moves(workload, platform):
    """(kernels in Eq. 1 order, unsupported kernel ids)."""
    terms = block_terms(workload, platform)
    order = [b.bb_id for b in workload.kernel_candidates(WeightModel())]
    return order, {i for i in order if terms[i][1] is None}


def oracle_greedy(workload, platform, constraint, budget=None, stop=True):
    """The Figure 2 loop: (moved, reverted, skipped) BB-id lists."""
    terms = block_terms(workload, platform)
    order, unsupported = _moves(workload, platform)
    moved, reverted, skipped = [], [], []
    if price_subset(workload, platform, ())[3] <= constraint:
        return moved, reverted, skipped
    for i in order:
        if budget is not None and len(moved) >= budget:
            break
        if i in unsupported:
            skipped.append(i)
        elif terms[i][1] + terms[i][2] > terms[i][0]:
            reverted.append(i)
        else:
            moved.append(i)
            if stop and price_subset(workload, platform, moved)[3] <= constraint:
                break
    return moved, reverted, skipped


def brute_force(workload, platform, budget=None):
    """The optimal subset (sorted ids) within the move budget: fewest
    Eq. 2 ticks, then fewest moves, then the smallest ids."""
    order, unsupported = _moves(workload, platform)
    kernels = sorted(set(order) - unsupported)
    sizes = range(len(kernels) + 1 if budget is None else budget + 1)
    terms = block_terms(workload, platform)

    def key(subset):
        ticks = sum(terms[i][1] + terms[i][2] - terms[i][0] for i in subset)
        return ticks, len(subset), subset

    subsets = (s for n in sizes for s in combinations(kernels, n))
    return min(subsets, key=key)


def oracle_schedule(dfg, datapath):
    """node_id -> (cycle, chain_depth, cgc_index, unit, duration, port).

    Every cycle re-sorts the unscheduled nodes by (-height, node_id) and
    sweeps them in that order, placing each node whose inputs are ready
    and whose resources are free; sweeps repeat until one places nothing.
    Same model as the production scheduler: unit-delay CGC nodes with
    in-CGC chaining up to the chain depth, non-pipelined memory ports,
    free MOVE/COPY wires.
    """
    heights = {}
    for node in reversed(dfg.nodes):
        own = 0 if node.op_class is OpClass.MOVE else 1
        below = [heights[s] for s in dfg.successors(node.node_id)]
        heights[node.node_id] = own + max(below, default=0)

    ops = {}  # node_id -> (cycle, depth, cgc, unit, duration, port)
    remaining = {node.node_id for node in dfg.nodes}
    port_free_at = [0] * datapath.memory_ports
    cycle = 0
    while remaining:
        assert cycle <= (2 + datapath.memory_latency) * (len(dfg) + 8)
        free_slots = [cgc.node_count for cgc in datapath.cgcs]
        progressed = True
        while progressed:
            progressed = False
            for node_id in sorted(remaining, key=lambda n: (-heights[n], n)):
                placed = _oracle_place(
                    dfg, datapath, node_id, cycle, free_slots, port_free_at, ops
                )
                if placed is None:
                    continue
                ops[node_id] = placed
                remaining.discard(node_id)
                _, _, cgc, unit, duration, port = placed
                if unit == "mem":
                    port_free_at[port] = cycle + duration
                elif unit == "node":
                    free_slots[cgc] -= 1
                progressed = True
        cycle += 1
    return ops


def _oracle_place(dfg, datapath, node_id, cycle, free_slots, port_free_at, ops):
    node = dfg.node(node_id)
    in_cycle = []  # (depth, cgc) of same-cycle node/move producers
    for pred in dfg.predecessors(node_id):
        if pred not in ops:
            return None
        p_cycle, p_depth, p_cgc, p_unit, p_duration, _ = ops[pred]
        if p_cycle == cycle and p_unit in ("node", "move"):
            in_cycle.append((p_depth, p_cgc))
        elif p_cycle + p_duration > cycle:
            return None
    chained = max((depth for depth, _ in in_cycle), default=0)
    cgcs = {cgc for _, cgc in in_cycle if cgc is not None}
    if node.op_class is OpClass.MOVE:
        if len(cgcs) > 1:
            return None
        return (cycle, chained, cgcs.pop() if cgcs else None, "move", 0, None)
    if node.op_class is OpClass.MEM:
        if in_cycle:
            return None
        base = node.instruction.operands[0]
        local = isinstance(base, ArrayBase) and base.local
        duration = 1 if local else datapath.memory_latency
        for port, free_at in enumerate(port_free_at):
            if free_at <= cycle:
                return (cycle, 0, None, "mem", duration, port)
        return None
    depth = chained + 1
    if len(cgcs) > 1:
        return None
    if cgcs:
        cgc = cgcs.pop()
        if free_slots[cgc] <= 0 or depth > datapath.cgcs[cgc].chain_depth:
            return None
        return (cycle, depth, cgc, "node", 1, None)
    best = None
    for index, slots in enumerate(free_slots):
        if slots <= 0 or depth > datapath.cgcs[index].chain_depth:
            continue
        if best is None or slots > free_slots[best]:
            best = index
    if best is None:
        return None
    return (cycle, depth, best, "node", 1, None)
