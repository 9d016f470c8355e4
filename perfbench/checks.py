"""Output checks, run after the timed region.

Every run checks invariants that hold for any seed:

* each ``PartitionResult`` passes ``validate()``;
* a repeated input gives the same result;
* every served result equals the same request run in-process;
* an exact result is no worse than greedy on the same constraint;
* calibrated OFDM/JPEG jobs at the paper's constraint move the kernels
  of Tables 2/3.

For :data:`DEFAULT_SEED` each job's ``final_cycles`` and
``moved_bb_ids`` are also compared with ``expected.json``, written by
``python3 perfbench/run.py --write-expected``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.explore import explore
from repro.partition.costs import CostModel
from repro.partition.packed import PackedCostTable
from repro.search import make_partitioner
from repro.search.base import AlgorithmSpec

DEFAULT_SEED = 0
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def fingerprint(results) -> list:
    """``[final cycles..., digest of every moved-kernel list]`` of one
    job's results (partition results or an exploration report)."""
    if len(results) == 1 and hasattr(results[0], "results"):
        results = results[0].results
    moved = json.dumps([list(result.moved_bb_ids) for result in results])
    digest = hashlib.sha256(moved.encode()).hexdigest()[:16]
    return [result.final_cycles for result in results] + [digest]


class InProcess:
    """Reference runs through the library, one priced table per pair."""

    def __init__(self) -> None:
        self._built: dict = {}

    def pair(self, workload_spec, platform_spec):
        key = (workload_spec, platform_spec)
        if key not in self._built:
            workload = workload_spec.build()
            platform = platform_spec.build()
            table = PackedCostTable.from_model(CostModel(workload, platform))
            self._built[key] = (workload, platform, table)
        return self._built[key]

    def run(self, request, algorithm=None):
        workload, platform, table = self.pair(request.workload, request.platform)
        constraint = request.constraint
        if constraint is None:
            constraint = max(1, round(table.initial_cycles() * request.fraction))
        partitioner = make_partitioner(
            algorithm or request.algorithm, workload, platform,
            packed_table=table,
        )
        return partitioner.run(constraint)


def check_jobs(load, jobs, seed: int) -> dict[int, str]:
    """Problems found, keyed by job index (at most one per job)."""
    problems: dict[int, str] = {}
    expected = _expected(load.name) if seed == DEFAULT_SEED else None
    if seed == DEFAULT_SEED and not expected:
        problems[-1] = f"{EXPECTED_PATH.name} has no entries for {load.name}"
    seen: dict[int, list] = {}
    reference = InProcess()
    for job in jobs:
        if job.error is not None or not job.results:
            continue
        try:
            _check_results(job.results)
            prints = fingerprint(job.results)
            if seen.setdefault(job.key, prints) != prints:
                raise AssertionError("result differs from an earlier run of the same input")
            if expected is not None and str(job.key) in expected:
                if expected[str(job.key)] != prints:
                    raise AssertionError(
                        f"expected {expected[str(job.key)]}, got {prints}"
                    )
            if load.name == "serve-mix":
                _check_served(load.inputs[job.key], job.results[0], reference)
            if load.name == "explore-grid":
                _check_exact_vs_greedy(job.results[0].results)
                if job.index == 0:
                    serial = explore(load.inputs[job.key], max_workers=1)
                    if serial.results != job.results[0].results:
                        raise AssertionError("pooled grid differs from a serial run")
        except (AssertionError, ValueError) as exc:
            problems[job.index] = f"{load.name} job {job.index} (input {job.key}): {exc}"
    return problems


def _check_results(results) -> None:
    for result in results:
        if hasattr(result, "results"):
            for point in result.results:
                if point.final_cycles > point.initial_cycles:
                    raise AssertionError(f"{point.workload}: worse than all-FPGA")
                if point.kernels_moved != len(point.moved_bb_ids):
                    raise AssertionError(f"{point.workload}: kernel count mismatch")
        else:
            result.validate()


def _check_served(item, served, reference: InProcess) -> None:
    local = reference.run(item.request)
    if served != local:
        raise AssertionError(
            f"served {item.request.describe()} differs from the in-process run"
        )
    if item.request.algorithm.name == "exhaustive":
        greedy = reference.run(item.request, algorithm=AlgorithmSpec.greedy())
        if served.final_cycles > greedy.final_cycles:
            raise AssertionError("exact result is worse than greedy")
    if item.kind == "paper" and tuple(served.moved_bb_ids) != item.paper_moved:
        raise AssertionError(
            f"moved {served.moved_bb_ids}, paper table has {list(item.paper_moved)}"
        )


def _check_exact_vs_greedy(points) -> None:
    greedy = {}
    for point in points:
        if point.algorithm == "greedy":
            greedy[(point.workload, point.platform, point.constraint_fraction)] = point
    for point in points:
        if point.algorithm.startswith("exhaustive"):
            other = greedy.get((point.workload, point.platform, point.constraint_fraction))
            if other is not None and point.final_cycles > other.final_cycles:
                raise AssertionError(f"{point.workload}: exact worse than greedy")


def _expected(workload: str) -> dict | None:
    try:
        payload = json.loads(EXPECTED_PATH.read_text())
    except (OSError, ValueError):
        return None
    return payload.get(workload)


def write_expected(workloads, count: dict[str, int]) -> None:
    """Record the default seed's fingerprints for the first inputs of
    every workload (closed loops run each input; serve-mix requests run
    in-process, which the served results must equal)."""
    payload: dict[str, dict[str, list]] = {}
    for name, load_class in workloads.items():
        load = load_class(DEFAULT_SEED)
        entries = {}
        if name == "serve-mix":
            reference = InProcess()
            for key in range(count[name]):
                result = reference.run(load.inputs[key].request)
                entries[str(key)] = fingerprint([result])
        else:
            for key in range(min(count[name], len(load.inputs))):
                entries[str(key)] = fingerprint(load.run_one(load.inputs[key]))
        payload[name] = entries
    EXPECTED_PATH.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
