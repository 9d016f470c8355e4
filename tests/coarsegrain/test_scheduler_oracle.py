"""Differential test: the ready-list CGC scheduler against the oracle.

``oracle_schedule`` (tests/oracle.py) is the pass-per-cycle list
scheduler the ready list replaced.  Every placement — cycle, chain
depth, CGC, unit, duration and memory port of every node — must match
exactly, on every block of the paper, measured and synthetic workloads
and on every paper data-path plus a memory-starved and a slow-memory
one.  The oracle retries every waiting node every cycle, so equality
also shows that waking a stalled node only at its wake cycle skips
nothing but attempts that could not place.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import oracle_schedule

from repro.coarsegrain import CGCDatapath, make_cgc_array, schedule_dfg
from repro.coarsegrain.scheduler import ListScheduler
from repro.platform import paper_platform
from repro.specs import workload_spec_from_text
from repro.workloads import (
    SyntheticBlockProfile,
    generate_dfg,
    synthetic_application,
)

PAPER_DATAPATHS = {
    f"paper-{afpga}-{cgcs}": paper_platform(afpga, cgcs).datapath
    for afpga in (1500, 5000)
    for cgcs in (2, 3)
}
#: One shared-memory port, a slow memory and no in-cycle chaining.
STARVED = CGCDatapath(
    cgcs=make_cgc_array(2, rows=1, cols=4), memory_ports=1, memory_latency=6
)
#: One port and a memory far slower than the CGCs: nodes wait many
#: cycles for their inputs, so most of the wake buckets are jumps.
SLOW_MEMORY = CGCDatapath(
    cgcs=make_cgc_array(2), memory_ports=1, memory_latency=12
)
DATAPATHS = {**PAPER_DATAPATHS, "starved": STARVED, "slow-memory": SLOW_MEMORY}

WORKLOADS = [
    "synthetic:50:seed=0",
    "synthetic:50:seed=3",
    "synthetic:100:seed=1",
    "synthetic:100:seed=4",
    "synthetic:200:seed=2",
    "minic:0",
    "minic:5",
    "ofdm",
    "jpeg",
    "ofdm-measured",
    "jpeg-measured",
    "filterbank",
    "viterbi",
]


def placements(schedule):
    return {
        node_id: (
            op.cycle,
            op.chain_depth,
            op.cgc_index,
            op.unit,
            op.duration,
            op.port,
        )
        for node_id, op in schedule.ops.items()
    }


@pytest.mark.parametrize("text", WORKLOADS)
def test_workload_blocks_match_oracle(text):
    workload = workload_spec_from_text(text).build()
    checked = 0
    for name, datapath in DATAPATHS.items():
        for block in workload.blocks:
            if not datapath.supports_dfg(block.dfg):
                continue
            schedule = schedule_dfg(block.dfg, datapath)
            assert placements(schedule) == oracle_schedule(
                block.dfg, datapath
            ), f"{text} bb{block.bb_id} on {name}"
            checked += 1
    assert checked


profiles = st.one_of(
    st.builds(
        SyntheticBlockProfile,
        bb_id=st.integers(1, 400),
        exec_freq=st.just(1),
        alu_ops=st.integers(1, 30),
        mul_ops=st.integers(0, 12),
        load_ops=st.integers(0, 14),
        store_ops=st.integers(0, 5),
        width=st.floats(1.0, 5.0),
    ),
    st.builds(
        SyntheticBlockProfile,
        bb_id=st.integers(1, 400),
        exec_freq=st.just(1),
        alu_ops=st.integers(1, 15),
        mul_ops=st.integers(0, 6),
        load_ops=st.integers(0, 12),
        store_ops=st.integers(1, 5),
        width=st.just(1.0),
        serial_memory=st.just(True),
    ),
)

datapaths = st.builds(
    CGCDatapath,
    cgcs=st.builds(
        make_cgc_array,
        st.integers(1, 3),
        rows=st.integers(1, 3),
        cols=st.integers(1, 3),
    ),
    memory_ports=st.integers(1, 3),
    register_bank_size=st.just(256),
    memory_latency=st.integers(1, 12),
)


@settings(max_examples=60, deadline=None)
@given(profile=profiles, datapath=datapaths)
def test_random_dfgs_match_oracle(profile, datapath):
    dfg = generate_dfg(profile)
    assert placements(schedule_dfg(dfg, datapath)) == oracle_schedule(
        dfg, datapath
    )


def test_stalled_nodes_wait_for_their_wake_cycle(monkeypatch):
    """A node whose input is still in flight is not retried every
    cycle: on four 200-block synthetics at 1500/2 the scheduler makes
    at most 2.5 placement attempts per node (every-cycle retries made
    4.03)."""
    attempts = 0
    try_place = ListScheduler._try_place

    def counting(self, *args):
        nonlocal attempts
        attempts += 1
        return try_place(self, *args)

    monkeypatch.setattr(ListScheduler, "_try_place", counting)
    datapath = paper_platform(1500, 2).datapath
    nodes = 0
    for seed in range(4):
        for block in synthetic_application(200, seed=seed).blocks:
            if datapath.supports_dfg(block.dfg):
                schedule_dfg(block.dfg, datapath)
                nodes += len(block.dfg)
    assert nodes
    assert attempts / nodes <= 2.5
