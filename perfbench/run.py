"""The repository benchmark: four workloads, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload cold-synth --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --list            # every metric with its unit
    python3 perfbench/run.py --write-expected  # re-record expected.json

``--trace 0`` measures the end-to-end metrics with no instrumentation;
job times are scaled to a reference host speed (``benchstats.HostSpeed``),
set-up times and serve-mix's capacity are as measured, and the details
line prints the measured values.
``--trace 1`` replays a few jobs untraced and traced (tracing overhead),
then runs the workload with the layer wrappers of ``tracer.py`` and
reports the per-layer metrics; its spans are written to
``.perfbench_out/``.  Outputs are checked after the timed region
(``checks.py``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402 - the set-up clock starts before imports
import json  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import benchstats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
#: Set-ups measured per run: this process plus fresh processes.
SETUP_PROBES = 2
#: Untraced/traced replay pairs behind bench.trace_overhead_pct.
REPLAY_PAIRS = 3
#: Inputs per workload recorded in expected.json for the default seed.
EXPECTED_COUNT = {
    "cold-synth": 60,
    "cold-minic": 400,
    "serve-mix": 400,
    "explore-grid": 60,
}
SCALING_LAYERS = ("coarsegrain", "finegrain", "ir", "partition", "search", "workloads")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print every metric with its unit")
    parser.add_argument("--write-expected", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    catalog = json.loads((HERE / "catalog.json").read_text())
    metrics = _metric_specs(catalog)
    if args.list:
        return list_metrics(metrics, catalog)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    import checks
    import workloads

    if args.write_expected:
        checks.write_expected(workloads.WORKLOADS, EXPECTED_COUNT)
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    load = workloads.WORKLOADS[args.workload](args.seed)
    load.setup()
    setup_seconds = time.perf_counter() - STARTED
    if args.setup_probe:
        load.teardown()
        print(json.dumps({"setup_s": setup_seconds}))
        return 0
    if args.trace:
        result = traced_run(load, args, metrics)
    else:
        result = untraced_run(load, args, setup_seconds, metrics)
    print(json.dumps(result))
    return 0


def _metric_specs(catalog) -> dict:
    """Names, units and directions of the metrics, from BENCHMARK.json;
    the catalog must describe exactly the same names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {section: spec[section] for section in ("end_to_end", "per_layer")}
    for section, entries in metrics.items():
        names = [entry["name"] for entry in entries]
        if sorted(names) != sorted(catalog[section]):
            raise SystemExit(
                f"perfbench: catalog.json {section} does not match BENCHMARK.json"
            )
    return metrics


# ----------------------------------------------------------------------
# End to end (untraced)
# ----------------------------------------------------------------------
def untraced_run(load, args, setup_seconds: float, metrics) -> dict:
    """End-to-end metrics; job times are scaled to the reference host
    speed by the workload, set-up times are as measured."""
    import checks

    try:
        jobs, wall = load.run(args.seconds)
    finally:
        load.teardown()
    peak_rss_mb = _peak_rss_mb()
    problems = checks.check_jobs(load, jobs, args.seed)
    valid, notes = _validity(load, jobs)
    setups = [setup_seconds] + [_probe_setup(args) for _ in range(SETUP_PROBES)]

    latencies = [job.latency for job in load.latency_sample(jobs) if job.error is None]
    tail, percentile, samples = load.tail(jobs)
    low_tail = load.low_rate_tail(jobs)
    failed = sum(1 for job in jobs if job.error is not None or job.index in problems)
    measured = {
        "jobs_per_s": load.throughput(jobs, wall),
        "job_p50_s": benchstats.median(latencies),
        "job_tail_s": tail,
        "lowrate_tail_s": low_tail[0],
    }
    values = {
        "setup_s": benchstats.median(setups),
        "jobs_per_s": load.scale_rate(measured["jobs_per_s"]),
        "job_p50_s": load.scale_latency(measured["job_p50_s"]),
        "job_tail_s": load.scale_latency(tail),
        "lowrate_tail_s": load.scale_latency(low_tail[0]),
        "ok_frac": (len(jobs) - failed) / max(1, len(jobs)),
        "reduction_pct": _mean_reduction(load, jobs),
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "workload": load.name,
        "seed": args.seed,
        "jobs": len(jobs),
        "wall_s": wall,
        "job_tail_percentile": percentile,
        "job_tail_samples": samples,
        "lowrate_tail_percentile": low_tail[1],
        "lowrate_tail_samples": low_tail[2],
        "setup_samples_s": setups,
        "host_scale": load.host.scale(),
        "measured": measured,
        "loadgen_lag_tail_s": load.lag_tail(jobs),
        "problems": list(problems.values())[:10] + notes,
    }
    if load.name == "serve-mix":
        details["high_rate_wait_growth_s"] = load.wait_growth(jobs)
    _report(details)
    return _result(metrics["end_to_end"], values, jobs, failed, valid and not problems)


def _mean_reduction(load, jobs) -> float:
    """Mean reduction over the workload's first ``quality_inputs``
    inputs, so the value depends on the seed only, not on how many jobs
    fit in the run."""
    by_input = {}
    for job in jobs:
        # The capacity phase's job count depends on speed, not the seed.
        if job.info.get("phase") == "capacity":
            continue
        if job.error is None and job.results and job.key < load.quality_inputs:
            points = job.results
            if hasattr(points[0], "results"):
                points = points[0].results
            by_input[job.key] = [point.reduction_percent for point in points]
    values = [value for points in by_input.values() for value in points]
    return sum(values) / len(values) if values else 0.0


def _validity(load, jobs) -> tuple[bool, list[str]]:
    """An open-loop run whose generator fell behind its schedule is
    invalid: the generator, not the server, set the latencies."""
    lag = load.lag_tail(jobs)
    if lag is not None and lag > load.LAG_BOUND_S:
        return False, [
            f"invalid run: generator lag tail {lag:.3f}s exceeds "
            f"{load.LAG_BOUND_S}s"
        ]
    return True, []


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (pool
    workers are reaped first, so they count)."""
    deadline = time.monotonic() + 30
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _probe_setup(args) -> float:
    """Set up once more in a fresh process and return its set-up time."""
    completed = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--setup-probe",
        ],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


# ----------------------------------------------------------------------
# Per layer (traced)
# ----------------------------------------------------------------------
def traced_run(load, args, metrics) -> dict:
    import checks
    from repro import telemetry
    from tracer import Tracer, layer_of

    tracer = Tracer()
    try:
        # The first replay pays first-use costs and is not counted; then
        # untraced and traced replays alternate, compared by median.
        load.replay()
        untraced, traced = [], []
        for _ in range(REPLAY_PAIRS):
            untraced.append(load.replay())
            tracer.install()
            traced.append(load.replay(tracer))
            tracer.uninstall()
        tracer.spans.clear()
        tracer.install()
        counters_before = _telemetry_counters(telemetry)
        stats_before = load.server.stats() if load.name == "serve-mix" else None
        jobs, wall = load.run(args.seconds, tracer)
        stats_after = load.server.stats() if load.name == "serve-mix" else None
        counters = _delta(_telemetry_counters(telemetry), counters_before)
    finally:
        tracer.uninstall()
        load.teardown()
    problems = checks.check_jobs(load, jobs, args.seed)
    valid, notes = _validity(load, jobs)
    failed = sum(1 for job in jobs if job.error is not None or job.index in problems)

    work, credited, counts = tracer.totals()
    layer = _by_layer(work, layer_of)

    def seconds(*names):
        return sum(work.get(name, 0.0) for name in names)

    search_s = seconds("search.greedy", "search.exact", "search.anneal", "search.multi_start")
    visited = counts.get("search.configs_visited", 0)
    exact_runs = counts.get("search.exact_runs", 0)
    lookups = counts.get("interp.profile_lookups", 0)
    cgc_s = seconds("coarsegrain.schedule")
    values = {
        "coarsegrain.schedule_s": cgc_s,
        "coarsegrain.calls": counts.get("coarsegrain.schedule.calls", 0),
        "coarsegrain.ops_per_s": counts.get("coarsegrain.ops", 0) / cgc_s if cgc_s else 0.0,
        "finegrain.temporal_s": seconds("finegrain.temporal"),
        "finegrain.calls": counts.get("finegrain.temporal.calls", 0),
        "finegrain.partitions": counts.get("finegrain.partitions", 0),
        "ir.dfg_build_s": seconds("ir.dfg_build"),
        "ir.dfg_builds": counts.get("ir.dfg_build.calls", 0),
        "ir.ops": counts.get("ir.ops", 0),
        "ir.lower_s": seconds("ir.lower"),
        "ir.verify_s": seconds("ir.verify"),
        "ir.verify_calls": counts.get("ir.verify.calls", 0),
        "ir.optimize_s": seconds("ir.optimize"),
        "frontend.parse_s": seconds("frontend.parse"),
        "frontend.semantic_s": seconds("frontend.semantic"),
        "interp.profile_s": layer.get("interp", 0.0),
        "interp.steps": counts.get("interp.steps", 0),
        "interp.profile_hit_ratio": counts.get("interp.profile_hits", 0) / lookups if lookups else 0.0,
        "partition.price_table_s": seconds("partition.price_table"),
        "partition.comm_s": seconds("partition.comm"),
        "partition.workload_s": seconds("partition.workload"),
        "partition.table_builds": counts.get("partition.table_builds", 0),
        "workloads.build_s": seconds("workloads.build"),
        "search.greedy_s": seconds("search.greedy"),
        "search.exact_s": seconds("search.exact"),
        "search.anneal_s": seconds("search.anneal"),
        "search.configs_visited": visited,
        "search.configs_per_s": visited / search_s if search_s else 0.0,
        "search.certified_frac": counts.get("search.exact_certified", 0) / exact_runs if exact_runs else 0.0,
        "parallel.tasks": counts.get("parallel.tasks", 0),
        "parallel.retries": counters.get("task_retries", 0),
        "parallel.pool_rebuilds": counters.get("pool_rebuilds", 0),
        "parallel.overhead_s": credited.get("parallel.map_tasks", 0.0),
        "explore.tables_per_pair": _tables_per_pair(load, jobs, counts),
        "bench.trace_overhead_pct": 100.0 * (
            benchstats.median(traced) / benchstats.median(untraced) - 1
        ),
        "loadgen.lag_tail_s": load.lag_tail(jobs) or 0.0,
    }
    values.update(_serve_layer(load, jobs, stats_before, stats_after))
    wall_s = _busy_wall(load, jobs, tracer)
    attributed = sum(credited.values())
    values["bench.wall_s"] = wall_s
    values["bench.unattributed_s"] = wall_s - attributed
    values["bench.attributed_pct"] = 100.0 * attributed / wall_s if wall_s else 0.0
    values.update(_synth_layer(load, jobs, tracer))
    details = {
        "workload": load.name,
        "seed": args.seed,
        "jobs": len(jobs),
        "spans": len(tracer.spans),
        "layer_self_s": {key: round(value, 6) for key, value in sorted(layer.items())},
        "layer_share_pct": {
            key: round(100.0 * value / wall_s, 2)
            for key, value in sorted(_by_layer(credited, layer_of).items())
        } if wall_s else {},
        "replay_s": {"untraced": untraced, "traced": traced},
        "problems": list(problems.values())[:10] + notes,
    }
    if load.name == "cold-synth":
        details["coarsegrain_share_note"] = COARSEGRAIN_SHARE_NOTE
    _report(details)
    spans_path = OUT_DIR / f"spans-{load.name}-{args.seed}.jsonl"
    tracer.dump(str(spans_path))
    print(f"perfbench: spans written to {spans_path}", file=sys.stderr)
    return _result(metrics["per_layer"], values, jobs, failed, valid and not problems)


COARSEGRAIN_SHARE_NOTE = (
    "ROADMAP's 88% is the CGC scheduler's share of a cold greedy partition "
    "of an already built 200-block workload (pricing plus search): that is "
    "coarsegrain.partition_share_200_pct. coarsegrain.share_200_pct divides "
    "by the whole job, which also generates the workload and builds its "
    "DFGs, so it is lower; cProfile over whole 200-block jobs gives about "
    "the same share (70%) as these wrappers"
)


def _by_layer(seconds: dict, layer_of) -> dict:
    totals: dict[str, float] = {}
    for name, value in seconds.items():
        key = layer_of(name)
        totals[key] = totals.get(key, 0.0) + value
    return totals


def _telemetry_counters(telemetry) -> dict:
    totals: dict[str, int] = {}
    for _, node in telemetry.get_trace().root.walk():
        for key, value in node.counters.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _delta(after: dict, before: dict) -> dict:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def _tables_per_pair(load, jobs, counts) -> float:
    if load.name != "explore-grid":
        return 0.0
    pairs = sum(
        len(load.inputs[job.key].workloads) * len(load.inputs[job.key].platforms)
        for job in jobs
    )
    return counts.get("partition.table_builds", 0) / pairs if pairs else 0.0


def _serve_layer(load, jobs, before, after) -> dict:
    names = (
        "serve.queue_wait_p50_s", "serve.queue_wait_tail_s", "serve.service_p50_s",
        "serve.table_hit_ratio", "serve.workload_hit_ratio", "serve.batches",
        "serve.jobs_per_batch", "serve.rejected", "serve.wait_growth_s",
    )
    if load.name != "serve-mix":
        return dict.fromkeys(names, 0.0)
    # Queue waits of the open-loop phases: the capacity phase keeps a
    # backlog on purpose.
    records = [
        job.info["record"]
        for job in jobs
        if "record" in job.info and job.info["phase"] != "capacity"
    ]
    waits = [r.started_at - r.submitted_at for r in records if r.started_at is not None]
    services = [r.finished_at - r.started_at for r in records if r.started_at is not None]

    def hit_ratio(cache):
        hits = after["caches"][cache]["hits"] - before["caches"][cache]["hits"]
        misses = after["caches"][cache]["misses"] - before["caches"][cache]["misses"]
        return hits / (hits + misses) if hits + misses else 0.0

    batches = after["jobs"]["batches"] - before["jobs"]["batches"]
    submitted = after["jobs"]["submitted"] - before["jobs"]["submitted"]
    return {
        "serve.queue_wait_p50_s": benchstats.median(waits),
        "serve.queue_wait_tail_s": benchstats.tail(waits)[0],
        "serve.service_p50_s": benchstats.median(services),
        "serve.table_hit_ratio": hit_ratio("tables"),
        "serve.workload_hit_ratio": hit_ratio("workloads"),
        "serve.batches": batches,
        "serve.jobs_per_batch": submitted / batches if batches else 0.0,
        "serve.rejected": after["jobs"]["rejected"] - before["jobs"]["rejected"],
        "serve.wait_growth_s": load.wait_growth(jobs),
    }


def _busy_wall(load, jobs, tracer) -> float:
    """The time the program was working for the benchmark: summed job
    latency in a closed loop; on serve-mix the dispatcher's busy time,
    from JobRecord start/finish stamps of each group plus the table
    resolution that precedes it."""
    if load.name != "serve-mix":
        return sum(job.latency for job in jobs)
    groups = {
        (job.info["record"].started_at, job.info["record"].finished_at)
        for job in jobs
        if "record" in job.info and job.info["record"].started_at is not None
    }
    resolve = sum(span.seconds for span in tracer.spans if span.name == "serve.resolve")
    return sum(end - start for start, end in groups) + resolve


def _synth_layer(load, jobs, tracer) -> dict:
    """cold-synth only: the coarsegrain share on 200-block jobs and each
    layer's log-log scaling exponent over 100/200/400 blocks."""
    from tracer import layer_of

    values = {
        "coarsegrain.share_200_pct": 0.0,
        "coarsegrain.partition_share_200_pct": 0.0,
    }
    values.update({f"{name}.scaling_exp": 0.0 for name in SCALING_LAYERS})
    if load.name != "cold-synth":
        return values
    points: dict[str, list] = {name: [] for name in SCALING_LAYERS}
    for blocks in load.BLOCKS:
        group = [job for job in jobs if job.info["blocks"] == blocks]
        if not group:
            continue
        work, _, _ = tracer.totals({job.index for job in group})
        per_layer = _by_layer(work, layer_of)
        for name in SCALING_LAYERS:
            points[name].append((blocks, per_layer.get(name, 0.0) / len(group)))
        if blocks == 200:
            ids = {job.index for job in group}
            coarse = per_layer.get("coarsegrain", 0.0)
            # The partition step alone: pricing the built workload plus
            # the greedy searches (the scope of the ROADMAP's figure).
            partition = sum(
                span.seconds
                for span in tracer.spans
                if span.job in ids
                and span.name in ("partition.price_table", "search.greedy")
            )
            values["coarsegrain.share_200_pct"] = (
                100.0 * coarse / sum(job.latency for job in group)
            )
            values["coarsegrain.partition_share_200_pct"] = 100.0 * coarse / partition
    for name in SCALING_LAYERS:
        values[f"{name}.scaling_exp"] = benchstats.loglog_slope(points[name])
    return values


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def _result(specs, values, jobs, failed, correct) -> dict:
    metrics = {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in specs
    }
    return {
        "correct": bool(correct),
        "attempted": max(1, len(jobs)),
        "failed": failed,
        "metrics": metrics,
    }


def _report(details: dict) -> None:
    for problem in details.get("problems", []):
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"details": details}))


def list_metrics(metrics, catalog) -> int:
    for section in ("end_to_end", "per_layer"):
        print(f"# {section}")
        for spec in metrics[section]:
            name = spec["name"]
            notes = catalog[section][name]
            print(f"{name:28s} {spec['unit']:6s} {spec['better']:6s} {notes['text']}")
            if "moves" in notes:
                print(f"{'':28s} moves: {notes['moves']}")
    print("# workloads")
    for name, spec in catalog["workloads"].items():
        load = (
            f"open loop at {spec['rates_per_s']} jobs/s, then {spec['in_flight']} in flight"
            if spec["loop"] == "open"
            else f"closed loop, {spec['clients']} client"
        )
        print(f"{name:14s} {load}: {spec['why']}")
    print(f"# times\n{catalog['time_scale']}")
    print("# known targets (not benchmark inputs)")
    for target in catalog["known_targets"]:
        print(f"- {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
