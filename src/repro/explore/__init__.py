"""Parallel design-space exploration on top of the partitioning engine.

The paper evaluates four hand-picked platform configurations; this
subsystem explores *grids*: every (workload × platform × timing
constraint) point of a declarative :class:`DesignSpace` is partitioned and
reported as a structured :class:`ExplorationResult`.

Three layers:

* :mod:`repro.explore.space` — :class:`WorkloadSpec` / :class:`PlatformSpec`
  (buildable, picklable descriptions) and :class:`DesignSpace`, the grid,
  whose fourth axis is the partitioning algorithm
  (:class:`~repro.search.AlgorithmSpec`: greedy, exhaustive, multi-start,
  annealing — see :mod:`repro.search`).
  ``WorkloadSpec.ofdm_measured()`` / ``WorkloadSpec.jpeg_measured()``
  profile the real mini-C applications under the block-compiled
  interpreter instead of using the calibrated Table 1 statistics; set
  ``REPRO_PROFILE_CACHE_DIR`` to share those profiling runs across
  worker processes and repeat invocations via the content-keyed on-disk
  cache (:mod:`repro.interp.cache`);
* :mod:`repro.explore.runner` — :func:`explore`, which fans the grid out
  across worker processes; each task sweeps every constraint of one
  (workload, platform, algorithm) triple on a single partitioner, with
  the pair's built workload and priced table taken from the shared
  :class:`~repro.serve.cache.PricedTableCache`;
* :mod:`repro.explore.results` — :class:`ExplorationResult` records and
  the :class:`ExplorationReport` aggregate with DSE queries such as
  :meth:`ExplorationReport.cheapest_meeting`.

CSV/JSON/table rendering of a report lives in
:mod:`repro.reporting.exploration`.

Example — sweep both paper apps and a 100-block synthetic workload over
a platform grid, in parallel::

    from repro.explore import DesignSpace, WorkloadSpec, explore

    space = DesignSpace.grid(
        [WorkloadSpec.ofdm(), WorkloadSpec.jpeg(),
         WorkloadSpec.synthetic(100, seed=1)],
        afpga_values=(1500, 3000, 5000),
        cgc_counts=(1, 2, 3),
        constraint_fractions=(0.9, 0.75, 0.5),
    )
    report = explore(space, max_workers=4)
    print(report.summary())
    print(report.cheapest_meeting("ofdm-transmitter", 0.5))
"""

from .results import ExplorationReport, ExplorationResult
from .runner import explore
from .space import DesignSpace, ExplorationTask, PlatformSpec, WorkloadSpec

__all__ = [
    "DesignSpace",
    "ExplorationReport",
    "ExplorationResult",
    "ExplorationTask",
    "PlatformSpec",
    "WorkloadSpec",
    "explore",
]
