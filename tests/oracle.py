"""Test-only Eq. 2 oracle.

Prices kernel subsets straight from the per-block timing models, with
no code from the production pricing path (``repro.partition.costs``,
``packed``, ``trajectory`` or ``repro.search``), and runs the Figure 2
greedy loop and a brute-force optimum on those prices.
"""

from itertools import combinations

from repro.analysis.weights import WeightModel
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
