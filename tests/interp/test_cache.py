"""Content-keyed profile cache: hits, invalidation, and the disk layer."""

import json

import pytest

from repro.analysis.dynamic_analysis import profile_cdfg, profile_cdfg_many
from repro.interp import ProfileCache, args_digest, profile_key
from repro.ir import cdfg_from_source
from repro.ir.operations import Const

LOOP_SRC = """
int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) { s += i; }
    return s;
}
"""


def loop_cdfg():
    return cdfg_from_source(LOOP_SRC)


class TestMemoryLayer:
    def test_second_lookup_hits(self):
        cache = ProfileCache()
        cdfg = loop_cdfg()
        first = cache.profile(cdfg, "f", 10)
        second = cache.profile(cdfg, "f", 10)
        assert first.frequencies == second.frequencies
        assert cache.stats.misses == 1
        assert cache.stats.memory_hits == 1

    def test_profile_matches_uncached_run(self):
        cache = ProfileCache()
        cdfg = loop_cdfg()
        cached = cache.profile(cdfg, "f", 10)
        direct = profile_cdfg(cdfg, "f", 10)
        assert cached.frequencies == direct.frequencies

    def test_different_args_miss(self):
        cache = ProfileCache()
        cdfg = loop_cdfg()
        cache.profile(cdfg, "f", 10)
        cache.profile(cdfg, "f", 11)
        assert cache.stats.misses == 2

    def test_different_entry_miss(self):
        src = LOOP_SRC + "\nint g(int n) { return f(n) + 1; }"
        cache = ProfileCache()
        cdfg = cdfg_from_source(src)
        cache.profile(cdfg, "f", 5)
        cache.profile(cdfg, "g", 5)
        assert cache.stats.misses == 2

    def test_equivalent_programs_share_entries(self):
        # Content keying: two CDFG instances from identical source hit
        # the same cache slot.
        cache = ProfileCache()
        cache.profile(loop_cdfg(), "f", 10)
        cache.profile(loop_cdfg(), "f", 10)
        assert cache.stats.misses == 1
        assert cache.stats.memory_hits == 1

    def test_mutated_cdfg_misses(self):
        cache = ProfileCache()
        cdfg = cdfg_from_source(
            "int f(int n) { int s = 0;"
            " for (int i = 0; i < 10; i++) { s += n; } return s; }"
        )
        before = cache.profile(cdfg, "f", 10)
        # Shrink the loop bound 10 -> 4 in the IR.
        mutated = False
        for block in cdfg.all_blocks():
            for ins in block.instructions:
                if any(
                    isinstance(op, Const) and op.value == 10
                    for op in ins.operands
                ):
                    ins.operands = tuple(
                        Const(4) if isinstance(op, Const) and op.value == 10
                        else op
                        for op in ins.operands
                    )
                    mutated = True
        assert mutated
        after = cache.profile(cdfg, "f", 10)
        assert cache.stats.misses == 2
        assert before.frequencies != after.frequencies

    def test_profile_many_accumulates_per_input(self):
        cache = ProfileCache()
        cdfg = loop_cdfg()
        combined = profile_cdfg_many(
            cdfg, "f", [(3,), (5,), (3,)], cache=cache
        )
        assert cache.stats.misses == 2  # (3,) cached after the first run
        assert cache.stats.memory_hits == 1
        direct = profile_cdfg_many(cdfg, "f", [(3,), (5,), (3,)])
        assert combined.frequencies == direct.frequencies
        assert combined.runs == direct.runs == 3

    def test_walker_mode_with_cache_rejected(self):
        cache = ProfileCache()
        cdfg = loop_cdfg()
        with pytest.raises(ValueError):
            profile_cdfg(cdfg, "f", 5, cache=cache, mode="walker")
        with pytest.raises(ValueError):
            profile_cdfg_many(cdfg, "f", [(5,)], cache=cache, mode="walker")

    def test_block_profiles_derived(self):
        cache = ProfileCache()
        cdfg = loop_cdfg()
        profiles = cache.block_profiles(cdfg, "f", 6)
        total_instructions = sum(
            p.dynamic_instructions for p in profiles.values()
        )
        record = cache.get_or_run(cdfg, "f", 6)
        assert total_instructions == record.steps
        assert all(p.exec_freq > 0 for p in profiles.values())


class TestArgsDigest:
    def test_value_kinds_distinguished(self):
        assert args_digest((1,)) != args_digest((1.0,))
        assert args_digest((True,)) != args_digest((1,))
        assert args_digest(([1, 2],)) != args_digest(([2, 1],))
        assert args_digest(([1, 2],)) != args_digest(([1], [2]))

    def test_key_stable_across_instances(self):
        assert profile_key(loop_cdfg(), "f", (10,)) == profile_key(
            loop_cdfg(), "f", (10,)
        )


class TestDiskLayer:
    def test_round_trip_across_cache_instances(self, tmp_path):
        cdfg = loop_cdfg()
        writer = ProfileCache(directory=tmp_path)
        first = writer.profile(cdfg, "f", 10)
        assert writer.stats.misses == 1
        assert len(list(tmp_path.glob("*.json"))) == 1

        reader = ProfileCache(directory=tmp_path)
        second = reader.profile(cdfg, "f", 10)
        assert reader.stats.disk_hits == 1
        assert reader.stats.misses == 0
        assert first.frequencies == second.frequencies

    def test_disk_hit_promoted_to_memory(self, tmp_path):
        cdfg = loop_cdfg()
        ProfileCache(directory=tmp_path).profile(cdfg, "f", 7)
        reader = ProfileCache(directory=tmp_path)
        reader.profile(cdfg, "f", 7)
        reader.profile(cdfg, "f", 7)
        assert reader.stats.disk_hits == 1
        assert reader.stats.memory_hits == 1

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cdfg = loop_cdfg()
        key = profile_key(cdfg, "f", (10,))
        (tmp_path / f"{key}.json").write_text("{not json")
        cache = ProfileCache(directory=tmp_path)
        profile = cache.profile(cdfg, "f", 10)
        assert cache.stats.misses == 1
        assert profile.frequencies  # re-profiled and rewritten
        payload = json.loads((tmp_path / f"{key}.json").read_text())
        assert payload["frequencies"]

    def test_version_mismatch_is_a_miss(self, tmp_path):
        cdfg = loop_cdfg()
        cache = ProfileCache(directory=tmp_path)
        cache.profile(cdfg, "f", 10)
        key = profile_key(cdfg, "f", (10,))
        path = tmp_path / f"{key}.json"
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        reader = ProfileCache(directory=tmp_path)
        reader.profile(cdfg, "f", 10)
        assert reader.stats.misses == 1

    def test_clear_memory_keeps_disk(self, tmp_path):
        cdfg = loop_cdfg()
        cache = ProfileCache(directory=tmp_path)
        cache.profile(cdfg, "f", 10)
        cache.clear_memory()
        assert len(cache) == 0
        cache.profile(cdfg, "f", 10)
        assert cache.stats.disk_hits == 1


class TestWorkloadIntegration:
    def test_jpeg_profile_image_cached(self):
        from repro.workloads import JPEGEncoderApp
        from repro.workloads import test_image as make_test_image

        app = JPEGEncoderApp()
        image = make_test_image(seed=8)
        first = app.profile_image(image)
        second = app.profile_image(image)
        assert first.frequencies == second.frequencies
        assert app.profile_cache.stats.misses == 1
        assert app.profile_cache.stats.memory_hits == 1

    def test_ofdm_symbol_superset_reuses_prefix(self):
        from repro.workloads import (
            BITS_PER_SYMBOL,
            OFDMTransmitterApp,
            random_bits,
        )

        app = OFDMTransmitterApp()
        symbols = [random_bits(BITS_PER_SYMBOL, seed=s) for s in (1, 2, 3)]
        one = app.profile_symbols(symbols[:1])
        all_three = app.profile_symbols(symbols)
        assert app.profile_cache.stats.misses == 3  # not 4
        assert app.profile_cache.stats.memory_hits == 1
        hot_one = dict(one.hottest(3))
        hot_three = dict(all_three.hottest(3))
        for bb_id, freq in hot_one.items():
            assert hot_three[bb_id] == 3 * freq

    def test_explore_measured_workload_uses_disk_cache(
        self, tmp_path, monkeypatch
    ):
        from repro.explore import (
            DesignSpace,
            PlatformSpec,
            WorkloadSpec,
            explore,
        )
        from repro.interp.cache import PROFILE_CACHE_DIR_ENV

        monkeypatch.setenv(PROFILE_CACHE_DIR_ENV, str(tmp_path))
        space = DesignSpace(
            workloads=(WorkloadSpec.ofdm_measured(symbols=1),),
            platforms=(PlatformSpec(afpga=1500, cgc_count=2),),
            constraint_fractions=(0.8,),
        )
        first = explore(space, max_workers=1)
        assert len(list(tmp_path.glob("*.json"))) == 1
        second = explore(space, max_workers=1)
        assert first.results == second.results
        result = first.results[0]
        assert result.workload == "ofdm-transmitter-measured-s1"
        assert result.reduction_percent >= 0

    def test_measured_labels_encode_params(self):
        from repro.explore import WorkloadSpec

        assert (
            WorkloadSpec.ofdm_measured(symbols=3).label
            != WorkloadSpec.ofdm_measured(symbols=6).label
        )
        assert (
            WorkloadSpec.jpeg_measured(image_seed=1).label
            != WorkloadSpec.jpeg_measured(image_seed=2).label
        )


class TestDefaultProfileCacheEnv:
    """The REPRO_PROFILE_CACHE_DIR hook (CI's actions/cache hinge)."""

    def test_env_unset_is_memory_only(self, monkeypatch):
        from repro.interp.cache import default_profile_cache

        monkeypatch.delenv("REPRO_PROFILE_CACHE_DIR", raising=False)
        assert default_profile_cache().directory is None

    def test_env_names_the_disk_layer(self, monkeypatch, tmp_path):
        from pathlib import Path

        from repro.interp.cache import default_profile_cache

        monkeypatch.setenv("REPRO_PROFILE_CACHE_DIR", str(tmp_path))
        assert default_profile_cache().directory == Path(tmp_path)

    def test_measured_build_writes_through_env_cache(
        self, monkeypatch, tmp_path
    ):
        from repro.explore import WorkloadSpec

        monkeypatch.setenv("REPRO_PROFILE_CACHE_DIR", str(tmp_path))
        WorkloadSpec.ofdm_measured(symbols=1).build()
        assert list(tmp_path.glob("*.json")), (
            "measured build ignored REPRO_PROFILE_CACHE_DIR"
        )
