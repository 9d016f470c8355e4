"""The packed pricing substrate against the test-only Eq. 2 oracle.

On every registered workload (the paper apps, the filter bank and
Viterbi decoder, and the synthetic skew / communication / size
families) and every algorithm, each reported cycle count must re-price
identically through :mod:`oracle`, which recomputes Eq. 2 straight from
the fabric timing models.  Greedy must follow the oracle's Figure 2
loop and exhaustive must find the oracle's brute-force optimum.
"""

import pytest
from oracle import brute_force, oracle_greedy, price_subset, rows_used

from repro.explore import WorkloadSpec
from repro.partition import EngineConfig
from repro.platform import paper_platform
from repro.search import AlgorithmSpec, make_partitioner
from repro.search.pareto import VisitedConfiguration, pareto_front

# Every registered workload family (suite registry coverage), built once
# per module.  Exhaustive runs under a move budget so the brute-force
# oracle stays tractable on the larger ones.
WORKLOAD_SPECS = (
    WorkloadSpec.ofdm(),
    WorkloadSpec.jpeg(),
    WorkloadSpec.filterbank(),
    WorkloadSpec.viterbi(),
    WorkloadSpec.synthetic(32, seed=1, weight_skew=3.0),   # skew axis
    WorkloadSpec.synthetic(32, seed=1, weight_skew=1.0),
    WorkloadSpec.synthetic(24, seed=2, comm_intensity=0.1),  # comm axis
    WorkloadSpec.synthetic(24, seed=2, comm_intensity=1.5),
    WorkloadSpec.synthetic(12, seed=4),                     # size axis
    WorkloadSpec.synthetic(96, seed=4),
)

ALGORITHM_SPECS = (
    AlgorithmSpec.greedy(),
    AlgorithmSpec.exhaustive(max_candidates=128),
    AlgorithmSpec.multi_start(restarts=6, seed=3),
    AlgorithmSpec.annealing(seed=7, temp_levels=10),
)

EXHAUSTIVE_BUDGET = 2


@pytest.fixture(scope="module")
def workloads():
    return {spec.label: spec.build() for spec in WORKLOAD_SPECS}


@pytest.fixture(scope="module")
def platform():
    return paper_platform(1500, 2)


def _config(algorithm: AlgorithmSpec) -> EngineConfig:
    budget = EXHAUSTIVE_BUDGET if algorithm.name == "exhaustive" else None
    return EngineConfig(max_kernels_moved=budget)


def _oracle_visits(workload, platform, visited, algorithm):
    return [
        VisitedConfiguration(
            total_cycles=price_subset(workload, platform, v.moved_bb_ids)[3],
            moved_kernel_count=len(v.moved_bb_ids),
            cgc_rows_used=rows_used(workload, platform, v.moved_bb_ids),
            moved_bb_ids=v.moved_bb_ids,
            algorithm=algorithm,
        )
        for v in visited
    ]


@pytest.mark.parametrize(
    "workload_label", [spec.label for spec in WORKLOAD_SPECS]
)
@pytest.mark.parametrize(
    "algorithm", ALGORITHM_SPECS, ids=[s.name for s in ALGORITHM_SPECS]
)
def test_substrates_are_bit_identical(
    workloads, platform, workload_label, algorithm
):
    workload = workloads[workload_label]
    partitioner = make_partitioner(
        algorithm, workload, platform, config=_config(algorithm)
    )
    initial = partitioner.initial_cycles()
    assert initial == price_subset(workload, platform, ())[3]
    constraints = [1, max(1, initial // 2)]
    for constraint, result in zip(
        constraints, partitioner.sweep(constraints), strict=True
    ):
        assert result.final_cycles <= result.initial_cycles
        assert result.final_cycles == price_subset(
            workload, platform, result.moved_bb_ids
        )[3]
        for count, step in enumerate(result.steps, start=1):
            assert (
                step.fpga_cycles,
                step.cgc_fpga_cycles,
                step.comm_cycles,
                step.total_cycles,
            ) == price_subset(workload, platform, result.moved_bb_ids[:count])
        if algorithm.name == "greedy":
            assert (
                result.moved_bb_ids,
                result.reverted_bb_ids,
                result.skipped_bb_ids,
            ) == oracle_greedy(workload, platform, constraint)
        if algorithm.name == "exhaustive":
            assert tuple(sorted(result.moved_bb_ids)) == brute_force(
                workload, platform, EXHAUSTIVE_BUDGET
            )
    visited = partitioner.visited
    assert len(visited) == partitioner.visited_count
    repriced = _oracle_visits(workload, platform, visited, algorithm.name)
    assert visited == repriced
    assert partitioner.pareto_front() == pareto_front(repriced)


def test_unknown_substrate_rejected():
    """The object substrate and the full-rescan engine are gone, and
    so are the config fields that selected them."""
    with pytest.raises(TypeError, match="substrate"):
        EngineConfig(substrate="packed")
    with pytest.raises(TypeError, match="incremental"):
        EngineConfig(incremental=False)


def test_injected_table_matches_derived(workloads, platform):
    """A pre-derived (even pickled) table yields identical results."""
    import pickle

    from repro.partition import CostModel, PackedCostTable

    workload = workloads["ofdm-transmitter"]
    table = PackedCostTable.from_model(CostModel(workload, platform))
    shipped = pickle.loads(pickle.dumps(table))
    for algorithm in ALGORITHM_SPECS:
        direct = make_partitioner(
            algorithm, workload, platform, config=_config(algorithm)
        )
        injected = make_partitioner(
            algorithm, workload, platform,
            config=_config(algorithm), packed_table=shipped,
        )
        assert injected.run(1) == direct.run(1)
        assert injected.pareto_front() == direct.pareto_front()
        # The injected-table partitioner never had to price a block.
        assert injected.stats.blocks_mapped == 0


def test_exhaustive_unbudgeted_gray_walk_matches_brute_force(platform):
    """The Gray-code walk (no budget) visits every subset once, finds
    the brute-force optimum and the front of all oracle-priced subsets."""
    workload = WorkloadSpec.synthetic(
        12, seed=3, kernel_fraction=0.8, comm_intensity=0.8
    ).build()
    partitioner = make_partitioner(
        AlgorithmSpec.exhaustive(), workload, platform,
        config=EngineConfig(stop_at_constraint=False),
    )
    result = partitioner.run(1)
    assert tuple(sorted(result.moved_bb_ids)) == brute_force(
        workload, platform
    )
    assert partitioner.visited_count == 2 ** len(partitioner.table)
    repriced = _oracle_visits(
        workload, platform, partitioner.visited, "exhaustive"
    )
    assert partitioner.pareto_front() == pareto_front(repriced)
