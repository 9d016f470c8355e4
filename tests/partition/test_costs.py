"""Tests for the per-block pricer (CostModel) and the EngineConfig
freeze-after-run contract of the engine facade."""

import pytest
from oracle import block_terms, price_subset

from repro.partition import (
    CostModel,
    EngineConfig,
    PackedCostTable,
    PartitioningEngine,
)
from repro.partition import costs
from repro.partition.costs import (
    ceil_ticks_to_cycles,
    split_ticks_single_rounding,
)
from repro.platform import paper_platform
from repro.workloads import synthetic_application


@pytest.fixture(scope="module")
def workload():
    return synthetic_application(
        15, seed=4, comm_intensity=0.7, kernel_fraction=0.8
    )


@pytest.fixture(scope="module")
def model(workload):
    return CostModel(workload, paper_platform(1500, 2))


class TestCostModel:
    def test_initial_ticks_match_full_sum(self, workload, model):
        expected = sum(
            model.contribution(block).fpga_ticks for block in workload.blocks
        )
        assert model.initial_ticks() == expected

    def test_contribution_cached_but_counted(self, workload, model):
        before_lookups = model.stats.contribution_lookups
        before_evals = model.stats.block_cost_evaluations
        mapped = model.stats.blocks_mapped
        block = workload.blocks[0]
        model.contribution(block)
        model.contribution(block)
        # Every call counts as a lookup; evaluation/mapping happen at
        # most once (cache hits must not inflate the evaluation count).
        assert model.stats.contribution_lookups == before_lookups + 2
        assert model.stats.block_cost_evaluations <= before_evals + 1
        assert model.stats.blocks_mapped <= mapped + 1

    def test_cache_hits_do_not_count_as_evaluations(self, workload):
        from repro.partition import CostModel
        from repro.platform import paper_platform

        fresh = CostModel(workload, paper_platform(1500, 2))
        block = workload.blocks[0]
        for _ in range(5):
            fresh.contribution(block)
        assert fresh.stats.contribution_lookups == 5
        assert fresh.stats.block_cost_evaluations == 1
        assert fresh.stats.blocks_mapped == 1

    def test_split_ticks_components_sum(self, model):
        ratio = model.platform.clock_ratio
        for ticks in ((10, 11, 12), (1, 1, 1), (0, 0, 5), (7, 0, 0)):
            fpga, cgc, comm, total = split_ticks_single_rounding(ratio, *ticks)
            assert fpga + cgc + comm == total
            assert total == ceil_ticks_to_cycles(sum(ticks), ratio)

    def test_rows_metric_populated(self, workload, model):
        rows = [
            model.contribution(b).cgc_rows
            for b in workload.blocks
            if model.contribution(b).supported
        ]
        assert rows and all(r >= 1 for r in rows)


@pytest.fixture(scope="module")
def synthetic_200():
    return synthetic_application(200, seed=0)


class TestPricingOnlyKernelWork:
    """Non-candidate blocks never move, so a table prices them on the
    FPGA only: no CGC schedule and no t_comm outside the Eq. 1 kernel
    candidates."""

    @pytest.mark.parametrize("name", ["synthetic_200", "ofdm"])
    def test_table_schedules_only_candidates(
        self, name, request, monkeypatch
    ):
        workload = request.getfixturevalue(name)
        platform = paper_platform(1500, 2)
        calls = {"cgc": 0, "comm": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            costs, "block_cgc_timing", counted("cgc", costs.block_cgc_timing)
        )
        monkeypatch.setattr(
            costs,
            "kernel_communication",
            counted("comm", costs.kernel_communication),
        )
        model = CostModel(workload, platform)
        table = PackedCostTable.from_model(model)
        assert calls["cgc"] == len(table.bb_ids)
        assert calls["comm"] == len(table.candidates)
        # Every block is still priced once, on the FPGA at least.
        assert model.stats.blocks_mapped == len(workload.blocks)

        assert table.initial_ticks == sum(
            terms[0] for terms in block_terms(workload, platform).values()
        )
        assert (
            table.initial_cycles()
            == price_subset(workload, platform, ())[3]
        )

    def test_non_candidate_contribution_still_priced(self, synthetic_200):
        """``contribution()`` of a block the table never asked about
        still prices it on both fabrics, equal to the oracle terms."""
        platform = paper_platform(1500, 2)
        model = CostModel(synthetic_200, platform)
        table = PackedCostTable.from_model(model)
        candidate_ids = {bb_id for bb_id, _ in table.candidates}
        outsider = next(
            b for b in synthetic_200.blocks if b.bb_id not in candidate_ids
        )
        contribution = model.contribution(outsider)
        fpga, cgc, comm, rows = block_terms(synthetic_200, platform)[
            outsider.bb_id
        ]
        assert (
            contribution.fpga_ticks,
            contribution.cgc_ticks,
            contribution.comm_ticks,
            contribution.cgc_rows,
        ) == (fpga, cgc, comm, rows)
        assert model.stats.blocks_mapped == len(synthetic_200.blocks)


class TestEngineConfigFreeze:
    def test_mutation_after_run_raises(self, workload):
        engine = PartitioningEngine(
            workload, paper_platform(1500, 2), config=EngineConfig()
        )
        engine.run(1)
        engine.config.stop_at_constraint = False
        with pytest.raises(ValueError, match="mutated"):
            engine.run(1)

    def test_mutation_after_initial_cycles_raises(self, workload):
        engine = PartitioningEngine(workload, paper_platform(1500, 2))
        engine.initial_cycles()
        engine.config.charge_single_partition_reconfig = True
        with pytest.raises(ValueError, match="mutated"):
            engine.run(1)

    def test_mutation_before_first_run_allowed(self, workload):
        engine = PartitioningEngine(workload, paper_platform(1500, 2))
        engine.config.max_kernels_moved = 1
        result = engine.run(1)
        assert result.kernels_moved <= 1

    def test_repeat_runs_with_unchanged_config_fine(self, workload):
        engine = PartitioningEngine(workload, paper_platform(1500, 2))
        first = engine.run(1)
        second = engine.run(1)
        assert first == second

    def test_reverting_the_mutation_unfreezes(self, workload):
        """Equality, not identity: restoring the original values makes
        the config acceptable again."""
        engine = PartitioningEngine(workload, paper_platform(1500, 2))
        engine.run(1)
        engine.config.stop_at_constraint = False
        engine.config.stop_at_constraint = True
        engine.run(1)  # does not raise
