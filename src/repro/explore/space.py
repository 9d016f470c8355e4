"""Declarative description of a design space to explore.

Specs rather than objects: a :class:`WorkloadSpec` / :class:`PlatformSpec`
names how to *build* a workload or platform instead of holding the built
object, so a grid is tiny, hashable, and cheap to ship to worker
processes; each worker materializes (and caches) the heavy DFGs locally.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import ClassVar

from ..partition.engine import EngineConfig
from ..partition.workload import ApplicationWorkload
from ..platform.soc import HybridPlatform, paper_platform
from ..search.base import AlgorithmSpec


@dataclass(frozen=True)
class WorkloadSpec:
    """A buildable workload: a paper app (calibrated Table 1 statistics or
    measured by actually profiling the mini-C implementation) or a
    synthetic one."""

    kind: str  # "ofdm" | "jpeg" | "synthetic" | "*-measured" | "filterbank" | "viterbi" | "minic"
    params: tuple[tuple[str, object], ...] = ()

    _KINDS = (
        "ofdm",
        "jpeg",
        "synthetic",
        "ofdm-measured",
        "jpeg-measured",
        "filterbank",
        "viterbi",
        "minic",
    )
    #: Kinds whose workloads are built from a real lowered CDFG (the
    #: ones the IR verifier / ``python -m repro verify`` can inspect).
    CDFG_KINDS = ("ofdm-measured", "jpeg-measured", "minic")
    #: Names the paper-app factories give their workloads; labels must
    #: match them because ExplorationResult.workload is the built name.
    _APP_NAMES: ClassVar[dict[str, str]] = {
        "ofdm": "ofdm-transmitter",
        "jpeg": "jpeg-encoder",
        "ofdm-measured": "ofdm-transmitter-measured",
        "jpeg-measured": "jpeg-encoder-measured",
    }

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(
                f"unknown workload kind {self.kind!r}; expected one of "
                f"{self._KINDS}"
            )
        if self.kind == "synthetic" and "block_count" not in dict(self.params):
            raise ValueError(
                "synthetic workload specs need a block_count parameter "
                "(use WorkloadSpec.synthetic(block_count, ...))"
            )

    @classmethod
    def ofdm(cls) -> "WorkloadSpec":
        return cls(kind="ofdm")

    @classmethod
    def jpeg(cls) -> "WorkloadSpec":
        return cls(kind="jpeg")

    @classmethod
    def synthetic(cls, block_count: int, **params: object) -> "WorkloadSpec":
        merged: dict[str, object] = {"block_count": block_count, **params}
        return cls(kind="synthetic", params=tuple(sorted(merged.items())))

    @classmethod
    def filterbank(cls, **params: object) -> "WorkloadSpec":
        """The FIR/IIR filter-bank pipeline (channels/taps/... params)."""
        return cls(kind="filterbank", params=tuple(sorted(params.items())))

    @classmethod
    def viterbi(cls, **params: object) -> "WorkloadSpec":
        """The Viterbi trellis decoder (states/stages params)."""
        return cls(kind="viterbi", params=tuple(sorted(params.items())))

    @classmethod
    def ofdm_measured(cls, symbols: int = 6) -> "WorkloadSpec":
        """OFDM with frequencies measured by interpreting the mini-C
        transmitter on ``symbols`` deterministic payload symbols."""
        return cls(kind="ofdm-measured", params=(("symbols", symbols),))

    @classmethod
    def jpeg_measured(cls, image_seed: int = 1994) -> "WorkloadSpec":
        """JPEG with frequencies measured by interpreting the mini-C
        encoder on the deterministic test frame for ``image_seed``."""
        return cls(kind="jpeg-measured", params=(("image_seed", image_seed),))

    @classmethod
    def minic(cls, seed: int = 0, optimize: bool = True) -> "WorkloadSpec":
        """A generated mini-C program measured through the full frontend
        + profiling flow (``optimize`` runs the local+global pass
        pipeline before profiling)."""
        return cls(
            kind="minic", params=(("optimize", optimize), ("seed", seed))
        )

    @property
    def label(self) -> str:
        """Predicts the built workload's name (the report query key)."""
        if self.kind in ("ofdm-measured", "jpeg-measured"):
            # Params are part of the label: two measured specs with
            # different inputs must not collide into one report key.
            base = self._APP_NAMES[self.kind]
            params = dict(self.params)
            if self.kind == "ofdm-measured":
                return f"{base}-s{params.get('symbols', 6)}"
            return f"{base}-i{params.get('image_seed', 1994)}"
        if self.kind == "minic":
            from ..workloads.synthetic import minic_workload_name

            return minic_workload_name(int(dict(self.params).get("seed", 0)))  # type: ignore[arg-type]
        if self.kind == "filterbank":
            from ..workloads.filterbank import filterbank_workload_name

            return filterbank_workload_name(**dict(self.params))
        if self.kind == "viterbi":
            from ..workloads.viterbi import viterbi_workload_name

            return viterbi_workload_name(**dict(self.params))
        if self.kind != "synthetic":
            return self._APP_NAMES[self.kind]
        from ..workloads.synthetic import synthetic_workload_name

        params = dict(self.params)
        custom_name = params.pop("name", None)
        if custom_name:
            return str(custom_name)
        return synthetic_workload_name(
            params.pop("block_count"), params.pop("seed", 0), **params
        )

    def build(self, profile_cache=None) -> ApplicationWorkload:
        # Imported here so a spec stays importable without dragging the
        # whole workload layer into every module that names one.
        from ..workloads.profiles import jpeg_workload, ofdm_workload
        from ..workloads.synthetic import synthetic_application

        if self.kind == "ofdm":
            return ofdm_workload()
        if self.kind == "jpeg":
            return jpeg_workload()
        if self.kind == "filterbank":
            from ..workloads.filterbank import filterbank_workload

            return filterbank_workload(**dict(self.params))  # type: ignore[arg-type]
        if self.kind == "viterbi":
            from ..workloads.viterbi import viterbi_workload

            return viterbi_workload(**dict(self.params))  # type: ignore[arg-type]
        if self.kind == "minic":
            from ..workloads.synthetic import minic_application

            params = dict(self.params)
            return minic_application(
                seed=int(params.get("seed", 0)),  # type: ignore[arg-type]
                optimize=bool(params.get("optimize", True)),
            )
        if self.kind in ("ofdm-measured", "jpeg-measured"):
            return self._build_measured(profile_cache)
        return synthetic_application(**dict(self.params))  # type: ignore[arg-type]

    def cdfg(self, optimize: bool | None = None):
        """The lowered CDFG behind this spec, or ``None``.

        Only :attr:`CDFG_KINDS` are backed by real IR; the calibrated
        Table 1 and synthetic-DFG kinds fabricate engine statistics
        directly and have nothing for the verifier to inspect.
        """
        if self.kind == "minic":
            from ..workloads.synthetic import minic_cdfg

            params = dict(self.params)
            return minic_cdfg(
                seed=int(params.get("seed", 0)),  # type: ignore[arg-type]
                optimize=bool(
                    params.get("optimize", True)
                    if optimize is None
                    else optimize
                ),
            )
        if self.kind == "ofdm-measured":
            from ..workloads.ofdm import OFDMTransmitterApp

            return OFDMTransmitterApp().cdfg
        if self.kind == "jpeg-measured":
            from ..workloads.jpeg import JPEGEncoderApp

            return JPEGEncoderApp().cdfg
        return None

    def _build_measured(self, profile_cache) -> ApplicationWorkload:
        """Profile the real mini-C application through the (optionally
        shared, on-disk) content-keyed profile cache."""
        from ..interp.cache import default_profile_cache
        from ..ir.verify import assert_verified, sanitizer_enabled
        from ..partition.workload import workload_from_cdfg

        if profile_cache is None:
            profile_cache = default_profile_cache()
        params = dict(self.params)
        if self.kind == "ofdm-measured":
            from ..workloads.ofdm import (
                BITS_PER_SYMBOL,
                OFDMTransmitterApp,
                random_bits,
            )

            app = OFDMTransmitterApp(profile_cache=profile_cache)
            symbols = int(params.get("symbols", 6))  # type: ignore[arg-type]
            profile = app.profile_symbols(
                [
                    random_bits(BITS_PER_SYMBOL, seed=2004 + index)
                    for index in range(symbols)
                ]
            )
        else:
            from ..workloads.jpeg import JPEGEncoderApp, test_image

            app = JPEGEncoderApp(profile_cache=profile_cache)
            image_seed = int(params.get("image_seed", 1994))  # type: ignore[arg-type]
            profile = app.profile_image(test_image(seed=image_seed))
        if sanitizer_enabled():
            assert_verified(app.cdfg, f"workload {self.label}")
        return workload_from_cdfg(app.cdfg, profile, name=self.label)


@dataclass(frozen=True)
class PlatformSpec:
    """A buildable :func:`paper_platform` configuration."""

    afpga: int = 1500
    cgc_count: int = 2
    clock_ratio: int = 3
    reconfig_cycles: int = 20
    rows: int = 2
    cols: int = 2

    def __post_init__(self) -> None:
        if self.afpga < 1 or self.cgc_count < 1:
            raise ValueError("afpga and cgc_count must be >= 1")
        if self.clock_ratio < 1:
            raise ValueError("clock_ratio must be >= 1")

    @property
    def label(self) -> str:
        return (
            f"A{self.afpga}-{self.cgc_count}x({self.rows}x{self.cols})"
            f"-r{self.clock_ratio}"
        )

    def build(self) -> HybridPlatform:
        return paper_platform(
            self.afpga,
            self.cgc_count,
            reconfig_cycles=self.reconfig_cycles,
            clock_ratio=self.clock_ratio,
            rows=self.rows,
            cols=self.cols,
        )


@dataclass(frozen=True)
class ExplorationTask:
    """One worker unit: the (algorithm × constraint) sweep its
    ``algorithms`` tuple names for one (workload, platform) pair.

    The grid emits one task per (workload, platform, algorithm) triple
    (singleton ``algorithms``) so the algorithm axis still fans out
    across worker processes; the runner resolves every task through the
    shared :class:`~repro.serve.cache.PricedTableCache`, whose table key
    is the (workload, platform) pair plus the engine's
    ``charge_single_partition_reconfig`` flag, so however the triples
    are scheduled, each worker prices a pair at most **once** — no grid
    cell remaps a block another cell of the same pair already priced.
    Constraint-independent search state (the greedy move trajectory, a
    cached annealing walk) is additionally shared across the
    constraints of each algorithm.  Measured workload specs profile
    through the ``REPRO_PROFILE_CACHE_DIR`` on-disk cache when it is
    set.
    """

    workload: WorkloadSpec
    platform: PlatformSpec
    constraint_fractions: tuple[float, ...]
    engine_config: EngineConfig | None = None
    algorithms: tuple[AlgorithmSpec, ...] = (AlgorithmSpec.greedy(),)


@dataclass(frozen=True)
class DesignSpace:
    """A (workload × platform × constraint × algorithm) grid.

    Constraints are *relative*: each fraction is multiplied by the
    workload's all-FPGA cycle count on that platform, so one grid spans
    workloads whose absolute timescales differ by orders of magnitude.
    ``algorithms`` is the partitioning-algorithm axis; the default is the
    paper's greedy loop alone, so existing grids are unchanged.
    """

    workloads: tuple[WorkloadSpec, ...]
    platforms: tuple[PlatformSpec, ...]
    constraint_fractions: tuple[float, ...] = (0.9, 0.75, 0.5)
    algorithms: tuple[AlgorithmSpec, ...] = (AlgorithmSpec.greedy(),)

    def __post_init__(self) -> None:
        if not self.workloads or not self.platforms:
            raise ValueError("a design space needs >= 1 workload and platform")
        if not self.constraint_fractions:
            raise ValueError("a design space needs >= 1 constraint fraction")
        for fraction in self.constraint_fractions:
            if fraction <= 0.0:
                raise ValueError("constraint fractions must be positive")
        if not self.algorithms:
            raise ValueError("a design space needs >= 1 algorithm")

    @property
    def size(self) -> int:
        return (
            len(self.workloads)
            * len(self.platforms)
            * len(self.constraint_fractions)
            * len(self.algorithms)
        )

    def tasks(
        self, engine_config: EngineConfig | None = None
    ) -> list[ExplorationTask]:
        return [
            ExplorationTask(
                workload=workload,
                platform=platform,
                constraint_fractions=self.constraint_fractions,
                engine_config=engine_config,
                algorithms=(algorithm,),
            )
            for workload, platform, algorithm in itertools.product(
                self.workloads, self.platforms, self.algorithms
            )
        ]

    @classmethod
    def grid(
        cls,
        workloads,
        *,
        afpga_values=(1500, 5000),
        cgc_counts=(2, 3),
        clock_ratios=(3,),
        reconfig_cycles_values=(20,),
        constraint_fractions=(0.9, 0.75, 0.5),
        algorithms=(AlgorithmSpec.greedy(),),
    ) -> "DesignSpace":
        """Cross the given axes into a full grid (the §4 neighbourhood by
        default: A_FPGA ∈ {1500, 5000} × {2, 3} CGCs at ratio 3, 20-cycle
        reconfiguration, greedy partitioning)."""
        platforms = tuple(
            PlatformSpec(
                afpga=a, cgc_count=c, clock_ratio=r, reconfig_cycles=g
            )
            for a, c, r, g in itertools.product(
                afpga_values, cgc_counts, clock_ratios, reconfig_cycles_values
            )
        )
        return cls(
            workloads=tuple(workloads),
            platforms=platforms,
            constraint_fractions=tuple(constraint_fractions),
            algorithms=tuple(algorithms),
        )
