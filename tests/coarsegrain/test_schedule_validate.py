"""Corruption test for ``CGCSchedule.validate()``.

A valid schedule is damaged in one seeded way per defect class, and
``validate()`` must reject each with that class's message.  Resource
defects use the paper's two 2x2 CGCs with two memory ports; dependency
defects use a roomy data-path (more ports than memory ops, more nodes
per CGC than compute ops), so only the intended edge check can fire.
"""

import random
from dataclasses import replace

import pytest

from repro.coarsegrain import CGCDatapath, make_cgc_array, schedule_dfg
from repro.platform import paper_platform
from repro.workloads import SyntheticBlockProfile, generate_dfg

PROFILE = SyntheticBlockProfile(
    bb_id=1,
    exec_freq=1,
    alu_ops=12,
    mul_ops=4,
    load_ops=6,
    store_ops=2,
    width=2.0,
)
TIGHT = paper_platform(1500, 2).datapath
ROOMY = CGCDatapath(
    cgcs=make_cgc_array(2, rows=3, cols=8), memory_ports=8, memory_latency=3
)
SEEDS = (0, 1, 2)


def valid_schedule(datapath):
    schedule = schedule_dfg(generate_dfg(PROFILE), datapath)
    schedule.validate()
    return schedule


def units(schedule, unit):
    return [op for op in schedule.ops.values() if op.unit == unit]


def chained_edges(schedule):
    """Compute->compute edges placed in the same cycle."""
    ops = schedule.ops
    return [
        (ops[src], ops[dst])
        for src, dst in schedule.dfg.edges()
        if ops[src].unit == ops[dst].unit == "node"
        and ops[src].cycle == ops[dst].cycle
    ]


def sole_input_edges(schedule, producer_unit, consumer_unit):
    """Edges whose consumer has exactly one predecessor."""
    ops, dfg = schedule.ops, schedule.dfg
    return [
        (ops[src], ops[dst])
        for src, dst in dfg.edges()
        if ops[src].unit == producer_unit
        and ops[dst].unit == consumer_unit
        and len(dfg.predecessors(dst)) == 1
    ]


def put(schedule, *ops):
    for op in ops:
        schedule.ops[op.node_id] = op


def drop_node(schedule, rng):
    del schedule.ops[rng.choice(sorted(schedule.ops))]


def exceed_memory_ports(schedule, rng):
    anchor, *others = rng.sample(
        units(schedule, "mem"), schedule.datapath.memory_ports + 1
    )
    put(schedule, *(replace(op, cycle=anchor.cycle) for op in others))


def double_book_port(schedule, rng):
    mem = units(schedule, "mem")
    overlapping = [
        (a, b)
        for a in mem
        for b in mem
        if a.port != b.port and a.cycle < b.end and b.cycle < a.end
    ]
    a, b = rng.choice(overlapping)
    put(schedule, replace(b, port=a.port))


def overfill_cgc(schedule, rng):
    anchor = rng.choice(units(schedule, "node"))
    capacity = schedule.datapath.cgcs[anchor.cgc_index].node_count
    others = rng.sample(
        [op for op in units(schedule, "node") if op is not anchor], capacity
    )
    put(
        schedule,
        *(
            replace(op, cycle=anchor.cycle, cgc_index=anchor.cgc_index)
            for op in others
        ),
    )


def start_before_producer(schedule, rng):
    producer, consumer = rng.choice(
        [
            (p, c)
            for p, c in sole_input_edges(schedule, "mem", "node")
            if p.duration >= 2
        ]
    )
    put(schedule, replace(consumer, cycle=producer.end - 1))


def chain_through_memory(schedule, rng):
    producer, consumer = rng.choice(sole_input_edges(schedule, "mem", "node"))
    put(schedule, replace(consumer, cycle=producer.cycle))


def chain_across_cgcs(schedule, rng):
    _, consumer = rng.choice(chained_edges(schedule))
    other = 1 - consumer.cgc_index
    put(schedule, replace(consumer, cgc_index=other))


def chain_too_deep(schedule, rng):
    _, consumer = rng.choice(chained_edges(schedule))
    limit = schedule.datapath.cgcs[consumer.cgc_index].chain_depth
    put(schedule, replace(consumer, chain_depth=limit + 1))


def chain_depth_flat(schedule, rng):
    producer, consumer = rng.choice(chained_edges(schedule))
    put(schedule, replace(consumer, chain_depth=producer.chain_depth))


CORRUPTIONS = [
    (TIGHT, drop_node, "does not cover every DFG node"),
    (TIGHT, exceed_memory_ports, r"memory ops exceed 2 ports"),
    (TIGHT, double_book_port, "shared-memory port double-booked"),
    (TIGHT, overfill_cgc, r"CGC \d issues \d+ ops, capacity 4"),
    (ROOMY, start_before_producer, r"consumer starts at \d+ before producer"),
    (ROOMY, chain_through_memory, "memory ops cannot chain in-cycle"),
    (ROOMY, chain_across_cgcs, "chain crosses CGC boundary"),
    (ROOMY, chain_too_deep, r"chain depth 4 exceeds limit 3"),
    (ROOMY, chain_depth_flat, "chain depth not increasing"),
]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "datapath, corrupt, message",
    CORRUPTIONS,
    ids=[corrupt.__name__ for _, corrupt, _ in CORRUPTIONS],
)
def test_validate_rejects_corruption(datapath, corrupt, message, seed):
    schedule = valid_schedule(datapath)
    corrupt(schedule, random.Random(seed))
    with pytest.raises(AssertionError, match=message):
        schedule.validate()


def test_roomy_datapath_cannot_overflow():
    """The dependency cases rely on resource checks never firing."""
    schedule = valid_schedule(ROOMY)
    assert len(units(schedule, "mem")) <= ROOMY.memory_ports
    assert len(units(schedule, "node")) <= ROOMY.cgcs[0].node_count
    assert len(ROOMY.cgcs) == 2
