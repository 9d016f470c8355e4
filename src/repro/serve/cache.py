"""The one cache of built workloads and priced tables.

Building a workload (DFGs, and for the measured kinds a profiling run)
and pricing it on a platform (FPGA temporal partitioning plus CGC list
scheduling of every kernel) are the expensive steps of every flow, so
explore, the suite runner and the server all go through
:class:`PricedTableCache`, which does each at most once per key:

* a **workload cache** (spec -> built :class:`ApplicationWorkload`), so
  the same workload priced on several platforms builds once;
* a **table cache** ((workload spec, platform spec,
  ``charge_single_partition_reconfig``) -> priced
  :class:`~repro.partition.packed.PackedCostTable`), so every grid
  cell, scenario or batched job sharing the pair partitions against one
  pricing pass.

``explore()`` and ``run_suite()`` give their serial runner one
call-scoped unbounded cache; pool workers and direct ``run_scenario``
calls use :meth:`PricedTableCache.process_wide`; the server keeps one
LRU-bounded cache (``ServerConfig.cache_capacity``) on its dispatcher.

Both layers are plain LRU dicts (unbounded when ``capacity`` is
``None``) and bump the telemetry counters ``workload_cache_hits/misses``
and ``table_cache_hits/misses`` next to the ``cost_table_builds``
counter the table build itself bumps.  Measured workload specs profile
through the cache's :class:`~repro.interp.cache.ProfileCache`
(``REPRO_PROFILE_CACHE_DIR`` by default), so repeated profiling of an
identical program is also collapsed.

The class lives under :mod:`repro.serve` because the benchmark tracer
hooks ``repro.serve.cache.PricedTableCache.resolve`` by that path;
explore and the suite import it at call time so ``import repro`` does
not load the server package.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Generic, TypeVar

from .. import telemetry
from ..explore.space import PlatformSpec, WorkloadSpec
from ..interp.cache import ProfileCache, default_profile_cache
from ..partition.costs import CostModel, CostStats
from ..partition.packed import PackedCostTable
from ..partition.workload import ApplicationWorkload

__all__ = ["LruCache", "PricedTableCache"]

_Key = TypeVar("_Key")
_Value = TypeVar("_Value")


@dataclass
class CacheCounters:
    hits: int = 0
    misses: int = 0
    evictions: int = 0


class LruCache(Generic[_Key, _Value]):
    """A small least-recently-used mapping with telemetry counters.

    ``capacity=None`` never evicts.  ``counter_prefix`` names the
    telemetry counters this cache bumps (``<prefix>_hits`` /
    ``<prefix>_misses``).  Not thread-safe on its own; the server
    serializes access from its dispatcher thread.
    """

    def __init__(self, capacity: int | None, counter_prefix: str) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.counter_prefix = counter_prefix
        self.counters = CacheCounters()
        self._entries: OrderedDict[_Key, _Value] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: _Key) -> bool:
        return key in self._entries

    def get(self, key: _Key) -> _Value | None:
        """The cached value (refreshed to most-recent), or ``None``."""
        value = self._entries.get(key)
        if value is None:
            self.counters.misses += 1
            telemetry.count(f"{self.counter_prefix}_misses")
            return None
        self._entries.move_to_end(key)
        self.counters.hits += 1
        telemetry.count(f"{self.counter_prefix}_hits")
        return value

    def put(self, key: _Key, value: _Value) -> None:
        """Insert (or refresh) an entry, evicting the least recent."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while self.capacity is not None and len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.counters.evictions += 1

    def stats(self) -> dict[str, int | None]:
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.counters.hits,
            "misses": self.counters.misses,
            "evictions": self.counters.evictions,
        }


_TableKey = tuple[WorkloadSpec, PlatformSpec, bool]

#: The process-wide instance and the pid that created it (see
#: :meth:`PricedTableCache.process_wide`).
_PROCESS_WIDE: tuple[int, PricedTableCache] | None = None


class PricedTableCache:
    """Built workloads and priced tables, keyed by spec.

    ``resolve(pair)`` returns the built ``(workload, platform, table)``
    triple for a (workload-spec, platform-spec) pair, building and
    caching whatever is missing — so N grid cells, scenarios or queued
    jobs sharing a pair cost one ``cost_table_builds``.
    """

    def __init__(
        self,
        capacity: int | None = None,
        profile_cache: ProfileCache | None = None,
    ) -> None:
        self.workloads: LruCache[WorkloadSpec, ApplicationWorkload] = (
            LruCache(capacity, "workload_cache")
        )
        self.tables: LruCache[_TableKey, PackedCostTable] = LruCache(
            capacity, "table_cache"
        )
        self.profile_cache = (
            profile_cache
            if profile_cache is not None
            else default_profile_cache()
        )

    @classmethod
    def process_wide(cls) -> PricedTableCache:
        """The unbounded instance pool workers and direct callers share.

        Created lazily, and afresh in a forked child: a worker never
        inherits its parent's entries, so the pricing work a worker
        reports does not depend on what ran before the fork.
        """
        global _PROCESS_WIDE
        pid = os.getpid()
        if _PROCESS_WIDE is None or _PROCESS_WIDE[0] != pid:
            _PROCESS_WIDE = (pid, cls())
        return _PROCESS_WIDE[1]

    def workload(self, spec: WorkloadSpec) -> ApplicationWorkload:
        """The built workload for ``spec`` (built on a miss)."""
        workload = self.workloads.get(spec)
        if workload is None:
            with telemetry.span("build_workload"):
                workload = spec.build(profile_cache=self.profile_cache)
            self.workloads.put(spec, workload)
        return workload

    def resolve(
        self,
        pair: tuple[WorkloadSpec, PlatformSpec],
        *,
        charge_single_partition_reconfig: bool = False,
        stats: CostStats | None = None,
    ) -> tuple[ApplicationWorkload, "object", PackedCostTable]:
        """The pair's built workload, platform and priced table.

        A table miss charges its pricing work to ``stats`` when given.
        """
        workload_spec, platform_spec = pair
        workload = self.workload(workload_spec)
        platform = platform_spec.build()
        key = (workload_spec, platform_spec, charge_single_partition_reconfig)
        table = self.tables.get(key)
        if table is None:
            # from_model() bumps the cost_table_builds counter — the
            # batching-collapse metric the load bench gates on.
            table = PackedCostTable.from_model(
                CostModel(
                    workload,
                    platform,
                    charge_single_partition_reconfig=(
                        charge_single_partition_reconfig
                    ),
                    stats=stats,
                )
            )
            self.tables.put(key, table)
        return workload, platform, table

    def stats(self) -> dict[str, object]:
        return {
            "workloads": self.workloads.stats(),
            "tables": self.tables.stats(),
            "profile_hits": self.profile_cache.stats.hits,
            "profile_misses": self.profile_cache.stats.misses,
        }
