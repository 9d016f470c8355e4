"""The benchmark's four workloads.

Each workload makes its inputs from the seed alone (specs, sources and
requests; the program gets nothing else), sets the system up, runs it
for a fixed number of seconds and returns one :class:`Job` per job it
attempted.  The driving thread tags the tracer with the job id, so spans
can be grouped per job.

* ``cold-synth`` — closed loop, 1 client: fresh synthetic apps of 100,
  200 and 400 blocks, built, priced and greedily partitioned at three
  constraint fractions.  Block mapping (list scheduling, temporal
  partitioning, DFG construction) does nearly all the work.
* ``cold-minic`` — closed loop, 1 client: mini-C sources (generated
  programs, the OFDM transmitter, the JPEG encoder) through parsing,
  lowering, verification, optimization and profiling with fresh caches,
  then pricing and greedy search.
* ``serve-mix`` — open loop at two fixed rates against an in-process
  ``repro.serve.Server`` with two pool workers, then a saturated closed
  loop for its capacity; most jobs hit a few hot pairs whose tables are
  cached, a tail of unseen pairs forces table builds on the dispatcher
  thread.
* ``explore-grid`` — back-to-back ``repro.explore.explore`` grid runs,
  each on a fresh two-worker pool.
"""

from __future__ import annotations

import bisect
import random
import time
from collections import deque
from dataclasses import dataclass, field

import benchstats

import repro.explore
from repro.explore import DesignSpace, PlatformSpec, WorkloadSpec
from repro.interp.cache import ProfileCache
from repro.partition.costs import CostModel
from repro.partition.packed import PackedCostTable
from repro.reporting.experiments import scaled_constraint
from repro.search import make_partitioner
from repro.search.base import AlgorithmSpec
from repro.serve import JobRequest, QueueFullError, Server, ServerConfig
from repro.workloads.profiles import (
    JPEG_TIMING_CONSTRAINT,
    OFDM_TIMING_CONSTRAINT,
    PAPER_TABLE2_OFDM,
    PAPER_TABLE3_JPEG,
)

FRACTIONS = (0.9, 0.75, 0.5)
PAPER_PLATFORMS = (
    PlatformSpec(afpga=1500, cgc_count=2),
    PlatformSpec(afpga=1500, cgc_count=3),
    PlatformSpec(afpga=5000, cgc_count=2),
    PlatformSpec(afpga=5000, cgc_count=3),
)
GREEDY = AlgorithmSpec.greedy()
EXACT = AlgorithmSpec.exhaustive(prune=True)
ANNEAL = AlgorithmSpec.annealing()
#: Pool workers for serve-mix and explore-grid (the target has 2 cores).
WORKERS = 2
#: Share of each closed-loop job's latency spent afterwards timing the
#: host's reference routine (:class:`benchstats.HostSpeed`), so the
#: samples follow the host through the run in proportion to its time.
HOST_SAMPLE_SHARE = 0.1


@dataclass
class Job:
    """One attempted job: its input (``key`` indexes the workload's input
    list), wall latency, and what it produced."""

    index: int
    key: int
    latency: float
    results: list = field(default_factory=list)
    error: str | None = None
    #: Workload-specific extras (phase, lag, request, record, report).
    info: dict = field(default_factory=dict)


def latency_tail(jobs: list[Job]) -> tuple[float, float, int]:
    """The latency tail of the completed ``jobs``, as
    :func:`benchstats.tail` gives it."""
    return benchstats.tail([job.latency for job in jobs if job.error is None])


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def partition_job(workload_spec, platform_spec, profile_cache=None):
    """Build, price once, and greedily partition at every fraction."""
    workload = workload_spec.build(profile_cache=profile_cache)
    platform = platform_spec.build()
    table = PackedCostTable.from_model(CostModel(workload, platform))
    partitioner = make_partitioner(
        GREEDY, workload, platform, packed_table=table
    )
    initial = partitioner.initial_cycles()
    return [
        partitioner.run(max(1, round(initial * fraction)))
        for fraction in FRACTIONS
    ]


class ClosedLoop:
    """One client sending its next job when the previous one returns."""

    name = ""
    #: Jobs replayed untraced and traced to measure tracing overhead.
    replay_jobs = 3
    #: Inputs ``reduction_pct`` averages over (a prefix every run reaches).
    quality_inputs = 0

    def __init__(self, seed: int) -> None:
        self.inputs = self.make_inputs(_rng(self.name, seed))
        self.host = benchstats.HostSpeed()

    def make_inputs(self, rng: random.Random) -> list:
        raise NotImplementedError

    def run_one(self, item):
        raise NotImplementedError

    def describe(self, key: int) -> dict:
        return {}

    def latency_sample(self, jobs: list[Job]) -> list[Job]:
        """The jobs the headline latencies are ranked over."""
        return jobs

    def tail(self, jobs: list[Job]) -> tuple[float, float, int]:
        """``job_tail_s`` with its percentile and sample count."""
        return latency_tail(self.latency_sample(jobs))

    def low_rate_tail(self, jobs: list[Job]) -> tuple[float, float, int]:
        """``lowrate_tail_s``: one client never queues, so a closed loop
        runs at its low rate throughout and this is ``job_tail_s``."""
        return self.tail(jobs)

    def throughput(self, jobs: list[Job], wall: float) -> float:
        return sum(self.units(job) for job in jobs if job.error is None) / wall

    def units(self, job: Job) -> int:
        """Work units a completed job counts for in ``jobs_per_s``."""
        return 1

    def lag_tail(self, jobs: list[Job]) -> float | None:
        """How late an open-loop generator ran (None: closed loop)."""
        return None

    def scale_latency(self, seconds: float) -> float:
        """A measured latency in reference-host seconds
        (:class:`benchstats.HostSpeed`)."""
        return seconds * self.host.scale()

    def scale_rate(self, per_second: float) -> float:
        """A measured rate per reference-host second."""
        return per_second / self.host.scale()

    def setup(self) -> None:
        """Pay lazy one-time costs (first-use imports) before timing."""
        for item in self.warmup_inputs():
            self.run_one(item)

    def warmup_inputs(self) -> list:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def run(self, seconds: float, tracer=None) -> tuple[list[Job], float]:
        """Run jobs until ``seconds`` have passed; after each, time the
        host's reference routine for a share of the job's latency.  The
        wall time returned leaves that sampling out."""
        jobs: list[Job] = []
        started = time.perf_counter()
        deadline = started + seconds
        spent = self.host.spent
        index = 0
        while time.perf_counter() < deadline:
            job = self._one(index, index % len(self.inputs), tracer)
            jobs.append(job)
            self.host.sample_for(HOST_SAMPLE_SHARE * job.latency)
            index += 1
        return jobs, time.perf_counter() - started - (self.host.spent - spent)

    def replay(self, tracer=None) -> float:
        started = time.perf_counter()
        for key in range(self.replay_jobs):
            self._one(-1 - key, key, tracer)
        return time.perf_counter() - started

    def _one(self, index: int, key: int, tracer) -> Job:
        if tracer is not None:
            tracer.set_job(index)
        started = time.perf_counter()
        try:
            results = self.run_one(self.inputs[key])
            error = None
        except Exception as exc:  # noqa: BLE001 - a failed job is counted
            results, error = [], f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - started
        if tracer is not None:
            tracer.set_job(None)
        return Job(index, key, latency, results, error, self.describe(key))


class ColdSynth(ClosedLoop):
    name = "cold-synth"
    BLOCKS = (100, 200, 400)
    quality_inputs = 24

    def make_inputs(self, rng):
        # Sizes cycle with period 3 and platforms with period 4, so every
        # 12 jobs cover each (size, platform) pair once.
        return [
            (
                WorkloadSpec.synthetic(
                    self.BLOCKS[i % 3], seed=rng.randrange(1, 10**6)
                ),
                PAPER_PLATFORMS[i % 4],
            )
            for i in range(60)
        ]

    def describe(self, key):
        return {"blocks": self.BLOCKS[key % 3]}

    #: Jobs per full (size x platform) cycle.
    CYCLE = 12

    def latency_sample(self, jobs):
        # Latency is trimodal by size: ranking whole (size x platform)
        # cycles, at most two, keeps every run's median and tail on the
        # same mix, however many jobs fit in the run.
        cycles = min(2, max(1, len(jobs) // self.CYCLE))
        return jobs[: cycles * self.CYCLE]

    def tail(self, jobs):
        """The median latency of the largest (400-block) jobs among the
        ranked ones.  Of 24 ranked jobs a percentile with 10 beyond it is
        p58, inside the 200-block jobs; the 8 largest jobs rank 17-24, so
        their median stands near p83 and shows a super-linear layer."""
        ranked = sorted(
            job.latency for job in self.latency_sample(jobs) if job.error is None
        )
        largest = [
            job.latency
            for job in self.latency_sample(jobs)
            if job.error is None and job.info["blocks"] == self.BLOCKS[-1]
        ]
        if not largest:
            return latency_tail(self.latency_sample(jobs))
        value = benchstats.median(largest)
        return value, 100.0 * bisect.bisect_right(ranked, value) / len(ranked), len(largest)

    def warmup_inputs(self):
        return [(WorkloadSpec.synthetic(20, seed=0), PAPER_PLATFORMS[0])]

    def run_one(self, item):
        return partition_job(*item)


class ColdMinic(ClosedLoop):
    name = "cold-minic"
    replay_jobs = 16
    quality_inputs = 16

    def make_inputs(self, rng):
        inputs = []
        for i in range(400):
            # A quarter generated programs, half OFDM, a quarter JPEG: the
            # median job then falls inside the OFDM class rather than in
            # the gap between two classes of latency.
            kind = i % 4
            if kind == 0:
                spec = WorkloadSpec.minic(rng.randrange(10**6))
            elif kind == 3:
                spec = WorkloadSpec.jpeg_measured(
                    image_seed=rng.randrange(10**6)
                )
            else:
                spec = WorkloadSpec.ofdm_measured(symbols=rng.randint(3, 6))
            inputs.append((spec, PAPER_PLATFORMS[(i // 4) % 4]))
        return inputs

    def warmup_inputs(self):
        return [
            (spec, PAPER_PLATFORMS[0])
            for spec in (
                WorkloadSpec.minic(0),
                WorkloadSpec.ofdm_measured(symbols=1),
                WorkloadSpec.jpeg_measured(image_seed=0),
            )
        ]

    def run_one(self, item):
        workload_spec, platform_spec = item
        return partition_job(workload_spec, platform_spec, ProfileCache())


class ExploreGrid(ClosedLoop):
    name = "explore-grid"
    quality_inputs = 24

    def make_inputs(self, rng):
        return [
            DesignSpace.grid(
                (
                    WorkloadSpec.synthetic(24, seed=rng.randrange(10**6)),
                    WorkloadSpec.minic(rng.randrange(10**6)),
                    WorkloadSpec.ofdm(),
                ),
                constraint_fractions=FRACTIONS,
                algorithms=(GREEDY, ANNEAL, EXACT),
            )
            for _ in range(60)
        ]

    def warmup_inputs(self):
        return [
            DesignSpace.grid((WorkloadSpec.ofdm(),), algorithms=(GREEDY, EXACT))
        ]

    def units(self, job):
        return len(job.results[0].results)

    def run_one(self, space):
        # Looked up at call time, so the tracer's wrapper is seen.
        return [repro.explore.explore(space, max_workers=WORKERS)]


@dataclass(frozen=True)
class Request:
    """One serve-mix request plus what the checks need to know of it."""

    request: JobRequest
    #: "hot", "cold" or "paper" (a Table 2/3 row's scaled constraint).
    kind: str
    #: Paper row for ``paper`` requests: the expected moved kernels.
    paper_moved: tuple[int, ...] = ()


class ServeMix:
    """Open loop against an in-process server at two fixed rates, then a
    closed loop that keeps the server saturated to measure its capacity.

    The rates are fixed fractions of this mix's open-loop saturation
    rate, measured with a rate ladder on a 2-core x86 host: at 32 jobs/s
    the mean queue wait held at 0.03 s, at 40 jobs/s it grew from 0.07 s
    to 0.38 s within 10 s and completions fell behind the offered rate,
    at 48 jobs/s only 41 completed per second.  The low rate is a
    quarter of that saturation rate, the high rate two fifths: the speed
    of a shared host drifts by half over tens of seconds, and at two
    fifths a slow spell still leaves the server below saturation.
    """

    name = "serve-mix"
    #: Open-loop rate (jobs/s) above which the queue grew on this mix.
    SATURATION_RATE = 38
    LOW_RATE = round(SATURATION_RATE / 4)
    HIGH_RATE = round(SATURATION_RATE * 2 / 5)
    #: Shares of the run spent at the low rate, at the high rate and in
    #: the capacity phase.
    PHASE_SHARES = (0.3, 0.45, 0.25)
    #: Requests kept outstanding in the capacity phase: a backlog, so
    #: the dispatcher batches as it would past the saturation rate.
    IN_FLIGHT = 32
    CONFIG = ServerConfig(workers=WORKERS)
    #: Seconds the next request must be away, with nothing outstanding,
    #: for the generator to time the reference routine (two calls of
    #: about 5 ms) without sending late.
    IDLE_GAP_S = 0.03
    #: A run whose generator lag tail exceeds this is invalid: the
    #: schedule, not the server, would be setting the latencies.
    LAG_BOUND_S = 0.1
    #: Every COLD_EVERY-th request after the low rate names a pair never
    #: seen before, so each run forces the same share of table builds.
    COLD_EVERY = 10
    #: The low rate sends only hot requests, so its tail measures service
    #: and dispatch; the high rate's and capacity phase's requests follow.
    LOW_INPUTS = 200
    HIGH_INPUTS = 1800
    #: Algorithms of the hot requests, cycled; "paper" is greedy at the
    #: scaled Table 2/3 constraint where the pair has a paper row.
    ALGORITHMS = ("greedy", "exact", "annealing", "paper", "exact", "greedy", "annealing")
    #: Hot requests replayed untraced and traced for tracing overhead.
    replay_jobs = 40
    #: The schedule is fixed, so every completed job counts.
    quality_inputs = LOW_INPUTS + HIGH_INPUTS

    def __init__(self, seed: int) -> None:
        self.host = benchstats.HostSpeed()
        rng = _rng(self.name, seed)
        synthetic = WorkloadSpec.synthetic(48, seed=rng.randrange(1, 10**6))
        measured = WorkloadSpec.ofdm_measured(symbols=rng.randint(3, 6))
        ofdm, jpeg = WorkloadSpec.ofdm(), WorkloadSpec.jpeg()
        p = PAPER_PLATFORMS
        #: (workload, platform, share of hot requests in 20ths, exact
        #: allowed).  Exact jobs go only to calibrated pairs whose
        #: branch-and-bound certifies in a few milliseconds at every
        #: fraction (OFDM on the small platform takes 16 ms at 0.5).
        self.hot = (
            (ofdm, p[0], 4, False),
            (ofdm, p[3], 3, True),
            (jpeg, p[1], 4, True),
            (jpeg, p[2], 3, True),
            (measured, p[0], 3, False),
            (synthetic, p[2], 3, False),
        )
        # The seed orders the hot pairs and picks the seeded apps; every
        # run gets the same mix of pairs, algorithms and fractions, so
        # runs differ in inputs, not in how much of each kind of work.
        self._pairs = [pair for pair in self.hot for _ in range(pair[2])]
        rng.shuffle(self._pairs)
        # Each slot's rank among its pair's slots: every pair steps
        # through algorithms and fractions on its own, so whole cycles of
        # the list hold the same requests whatever order the seed chose.
        self._turns = [
            self._pairs[:slot].count(pair) for slot, pair in enumerate(self._pairs)
        ]
        self.paper = self._paper_rows()
        self._area_shift = rng.randrange(30)
        self.inputs = [self._hot(ordinal) for ordinal in range(self.LOW_INPUTS)]
        for index in range(self.HIGH_INPUTS):
            if index % self.COLD_EVERY == self.COLD_EVERY - 1:
                self.inputs.append(self._cold(index // self.COLD_EVERY))
            else:
                ordinal = self.LOW_INPUTS + index - index // self.COLD_EVERY
                self.inputs.append(self._hot(ordinal))
        self.server: Server | None = None

    @staticmethod
    def _paper_rows():
        """(workload, platform) -> (scaled constraint, paper kernels)."""
        rows = {}
        for spec, table, constraint in (
            (WorkloadSpec.ofdm(), PAPER_TABLE2_OFDM, OFDM_TIMING_CONSTRAINT),
            (WorkloadSpec.jpeg(), PAPER_TABLE3_JPEG, JPEG_TIMING_CONSTRAINT),
        ):
            scaled, _ = scaled_constraint(spec.build(), table, constraint)
            for row in table:
                platform = PlatformSpec(afpga=row.afpga, cgc_count=row.cgc_count)
                rows[(spec, platform)] = (scaled, row.moved_bbs)
        return rows

    def _cold(self, turn: int) -> Request:
        """The calibrated JPEG encoder on a platform no earlier request
        named: its workload is cached, so every cold job costs the same
        kind of work, one table build on the dispatcher thread.

        Areas step through 16 strata of 1005..5995 (every run's cold
        jobs span the range alike) and never repeat within 480 turns or
        equal a paper platform's area.
        """
        offset = (turn // 16 + self._area_shift) % 30
        platform = PlatformSpec(
            afpga=1005 + 310 * (turn % 16) + 10 * offset, cgc_count=2 + turn % 2
        )
        return Request(
            JobRequest(
                WorkloadSpec.jpeg(),
                platform,
                fraction=FRACTIONS[turn % 3],
                algorithm=(GREEDY, ANNEAL, EXACT)[turn % 3],
            ),
            "cold",
        )

    def _hot(self, ordinal: int) -> Request:
        """The ``ordinal``-th hot request: the pairs cycle in the seeded
        order (period 20); on the ``n``-th request of its pair, the pair
        takes algorithm ``n mod 7`` and fraction ``n mod 3``."""
        slot = ordinal % len(self._pairs)
        workload, platform, weight, exact_ok = self._pairs[slot]
        turn = ordinal // len(self._pairs) * weight + self._turns[slot]
        algorithm = self.ALGORITHMS[turn % len(self.ALGORITHMS)]
        fraction = FRACTIONS[turn % len(FRACTIONS)]
        paper = self.paper.get((workload, platform))
        if algorithm == "paper" and paper is not None:
            return Request(
                JobRequest(workload, platform, constraint=paper[0]),
                "paper",
                paper[1],
            )
        # The low rate runs no exact jobs: ten among its 60 requests put
        # its tail on the border between exact and annealing jobs, where
        # it jumped from one to the other from run to run.
        exact_ok = exact_ok and ordinal >= self.LOW_INPUTS
        spec = {
            "greedy": GREEDY,
            "paper": GREEDY,
            "annealing": ANNEAL,
            "exact": EXACT if exact_ok else ANNEAL,
        }[algorithm]
        return Request(
            JobRequest(workload, platform, fraction=fraction, algorithm=spec),
            "hot",
        )

    def setup(self) -> None:
        """Start the server and warm every hot pair; two jobs per pair
        arrive together, so each pair's group also forks a pool once."""
        self.server = Server(self.CONFIG).start()
        ids = [
            self.server.submit(JobRequest(workload, platform, fraction=fraction))
            for workload, platform, _, _ in self.hot
            for fraction in (0.75, 0.5)
        ]
        for job_id in ids:
            self.server.await_result(job_id, timeout=120)

    def teardown(self) -> None:
        if self.server is not None:
            self.server.shutdown(drain=True, timeout=120)
            self.server = None

    def run(self, seconds: float, tracer=None) -> tuple[list[Job], float]:
        # Server work runs on the dispatcher thread for groups of jobs,
        # so its spans carry no job id; ``tracer`` is unused here.
        low_share, high_share, _ = self.PHASE_SHARES
        low = max(1, round(seconds * low_share * self.LOW_RATE))
        high = max(1, round(seconds * high_share * self.HIGH_RATE))
        started = time.perf_counter()
        jobs = self._phase("low", self.LOW_RATE, 0, 0, min(low, self.LOW_INPUTS))
        jobs += self._phase(
            "high", self.HIGH_RATE, self.LOW_INPUTS, len(jobs),
            min(high, self.HIGH_INPUTS),
        )
        capacity_s = seconds - (time.perf_counter() - started)
        jobs += self._saturate(
            self.LOW_INPUTS + min(high, self.HIGH_INPUTS), len(jobs), capacity_s
        )
        return jobs, time.perf_counter() - started

    def _phase(
        self, phase: str, rate: float, first_key: int, first_index: int, count: int
    ) -> list[Job]:
        """Send ``count`` requests on a fixed schedule from one thread,
        then wait for all of them; latency runs from each due time.
        While every request sent so far has finished and the next is not
        due for a while, the thread times the host's reference routine."""
        assert self.server is not None
        sent = []
        outstanding: list = []
        origin = time.monotonic()
        for offset in range(count):
            key = first_key + offset
            due = origin + offset / rate
            for record in outstanding:
                remaining = due - self.IDLE_GAP_S - time.monotonic()
                if remaining <= 0 or not record.done_event.wait(remaining):
                    break
            outstanding = [record for record in outstanding if not record.finished]
            if not outstanding and due - time.monotonic() > self.IDLE_GAP_S:
                self.host.sample_for(0.0)
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            submitted = time.monotonic()
            job_id, error = self._submit(key)
            if job_id is not None:
                outstanding.append(self.server.record(job_id))
            sent.append((first_index + offset, key, due, submitted, job_id, error))
        jobs = []
        for index, key, due, submitted, job_id, error in sent:
            info = {"phase": phase, "due": due, "lag": submitted - due}
            jobs.append(self._collect(index, key, due, job_id, error, info))
        return jobs

    def _saturate(self, first_key: int, first_index: int, seconds: float) -> list[Job]:
        """Keep ``IN_FLIGHT`` requests outstanding for ``seconds`` from
        one thread: completions per second are the server's capacity on
        this mix.  Latency runs from each submission."""
        assert self.server is not None
        pending: deque = deque()
        jobs: list[Job] = []
        key = first_key
        end = time.monotonic() + max(0.0, seconds)
        while pending or time.monotonic() < end:
            while (
                len(pending) < self.IN_FLIGHT
                and time.monotonic() < end
                and key < len(self.inputs)
            ):
                pending.append((key, time.monotonic()) + self._submit(key))
                key += 1
            if not pending:
                break
            sent_key, submitted, job_id, error = pending.popleft()
            info = {"phase": "capacity", "due": submitted}
            jobs.append(
                self._collect(
                    first_index + len(jobs), sent_key, submitted, job_id, error, info
                )
            )
        return jobs

    def _submit(self, key: int) -> tuple[int | None, str | None]:
        assert self.server is not None
        try:
            return self.server.submit(self.inputs[key].request), None
        except QueueFullError as exc:
            return None, f"refused: {exc}"

    def _collect(self, index, key, start, job_id, error, info) -> Job:
        assert self.server is not None
        if job_id is None:
            return Job(index, key, 0.0, error=error, info=info)
        record = self.server.await_result(job_id, timeout=120)
        info["record"] = record
        latency = record.finished_at - start
        if record.state == "done":
            return Job(index, key, latency, [record.result], info=info)
        return Job(index, key, latency, error=str(record.error), info=info)

    def latency_sample(self, jobs: list[Job]) -> list[Job]:
        """Headline latencies come from the high rate."""
        return [job for job in jobs if job.info["phase"] == "high"]

    def tail(self, jobs: list[Job]) -> tuple[float, float, int]:
        return latency_tail(self.latency_sample(jobs))

    def low_rate_tail(self, jobs: list[Job]) -> tuple[float, float, int]:
        return latency_tail([job for job in jobs if job.info["phase"] == "low"])

    def throughput(self, jobs: list[Job], wall: float) -> float:
        """Capacity: completed jobs of the saturated phase per second
        from its first submission to its last completion."""
        done = [
            job for job in jobs
            if job.info["phase"] == "capacity" and job.error is None
        ]
        span = max(job.info["record"].finished_at for job in done) - min(
            job.info["due"] for job in done
        )
        return len(done) / span

    def scale_latency(self, seconds: float) -> float:
        """A measured open-loop latency in reference-host seconds, from
        the reference routine timed in the phases' idle gaps.  The
        dispatcher's batch window, which every job waits out once, is a
        sleep rather than work, so only the time beyond it is scaled."""
        if not self.host.samples:
            self.host.sample_for(self.IDLE_GAP_S)
        window = min(seconds, self.CONFIG.batch_window_seconds)
        return window + (seconds - window) * self.host.scale()

    def scale_rate(self, per_second: float) -> float:
        """The capacity as measured: the capacity phase is never idle, so
        no reference sample falls in it, and its rate is bound by the
        pool each batch group starts more than by interpreted work (over
        ten seeds it spread 11% between quartiles as measured and 19%
        scaled by the open-loop phases' samples)."""
        return per_second

    def lag_tail(self, jobs: list[Job]) -> float:
        return benchstats.tail(
            [job.info["lag"] for job in jobs if "lag" in job.info]
        )[0]

    def wait_growth(self, jobs: list[Job]) -> float:
        """Mean queue wait of the second half of the high rate minus the
        first half's: near 0 when no queue grows."""
        waits = [
            job.info["record"].started_at - job.info["record"].submitted_at
            for job in self.latency_sample(jobs)
            if job.error is None
        ]
        half = len(waits) // 2
        if half == 0:
            return 0.0
        return sum(waits[half:]) / (len(waits) - half) - sum(waits[:half]) / half

    def replay(self, tracer=None) -> float:
        """A burst of hot requests (cached tables both times)."""
        assert self.server is not None
        burst = [r.request for r in self.inputs if r.kind != "cold"]
        started = time.perf_counter()
        ids = [self.server.submit(r) for r in burst[: self.replay_jobs]]
        for job_id in ids:
            self.server.await_result(job_id, timeout=120)
        return time.perf_counter() - started


WORKLOADS = {
    load.name: load
    for load in (ColdSynth, ColdMinic, ServeMix, ExploreGrid)
}
