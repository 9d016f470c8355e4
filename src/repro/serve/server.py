"""The in-process partitioning server.

A :class:`Server` is the whole service minus the sockets: submit
:class:`~repro.serve.jobs.JobRequest`\\ s (or raw JSON payloads), poll
or await the results, and let a single dispatcher thread batch the
queue.  The HTTP daemon (:mod:`repro.serve.daemon`) is a thin shell
over this class, so tests and the load bench drive the identical code
path without a port.

**Batching.**  The dispatcher drains the queue in gulps (after a short
``batch_window_seconds`` accumulation pause), groups the drained jobs
by their (workload spec × platform spec) pair fingerprint, and resolves
each group against the shared LRU caches — so N concurrent jobs on one
pair cost **one** workload build and **one** priced
:class:`~repro.partition.packed.PackedCostTable`
(``cost_table_builds`` rises once), however the jobs interleaved at
submission.  Each group then fans out over the existing
:func:`repro.parallel.map_tasks` process pool when ``workers > 1``
(tables are picklable, so workers price nothing), or runs in the
dispatcher thread when ``workers == 1``.

**Determinism.**  A job's result depends only on its own request plus
the deterministic table, never on its neighbours in a batch, so cycle
counts are bit-identical to a serial ``python -m repro partition`` run
regardless of arrival order, batch boundaries, or worker count.

**Backpressure.**  The queue is bounded; a submission over capacity is
rejected with :class:`~repro.serve.jobs.QueueFullError` carrying a
``retry_after_seconds`` estimate (queue depth × a recent-job-seconds
EMA ÷ workers).  Nothing is silently dropped.

**Timeouts.**  A job's ``timeout_seconds`` bounds its *queue* time: a
job whose deadline passes before dispatch is cancelled with a
structured ``timeout`` error and never runs.  Dispatch is the
cancellation granularity — a job that already started runs to
completion (partitioning runs are short; the queue is where a loaded
server makes jobs wait).

**Shutdown.**  ``shutdown(drain=True)`` stops intake, lets the
dispatcher finish everything queued, and joins it; ``drain=False``
cancels the queue instead.  Both leave every job in a terminal state.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

from .. import telemetry
from ..faults import Deadline, FaultPlan, RetryPolicy, TaskFailure
from ..parallel import map_tasks
from ..partition.engine import EngineConfig
from ..partition.packed import PackedCostTable
from ..partition.result import PartitionResult
from ..partition.workload import ApplicationWorkload
from ..explore.space import PlatformSpec, WorkloadSpec
from ..interp.cache import ProfileCache
from ..search import make_partitioner
from ..search.base import AlgorithmSpec
from .cache import PricedTableCache
from .jobs import (
    JobError,
    JobRecord,
    JobRequest,
    QueueFullError,
    UnknownJobError,
)

__all__ = ["Server", "ServerConfig", "ServerStoppedError"]


class ServerStoppedError(JobError):
    """A submission arrived after shutdown began."""

    code = "server-stopped"


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of one server instance (all bounded and explicit)."""

    #: Process fan-out per batch group; 1 runs jobs in the dispatcher
    #: thread (no pools, fully deterministic scheduling).
    workers: int = 1
    #: Bounded-queue capacity; submissions beyond it are rejected with
    #: a retry-after estimate rather than buffered without limit.
    queue_capacity: int = 256
    #: How long the dispatcher pauses after waking to let concurrent
    #: submissions pile into one batch.  0 disables the pause.
    batch_window_seconds: float = 0.005
    #: LRU capacity of the workload/table caches (entries per cache).
    cache_capacity: int = 8
    #: Default per-job queue timeout when a request carries none;
    #: ``None`` means queued jobs wait indefinitely.
    default_timeout_seconds: float | None = None
    #: On-disk directory for the shared profile cache (measured
    #: workloads); ``None`` keeps profiling results in memory only.
    profile_cache_dir: str | None = None
    #: Extra executions allowed per crashed/errored job task (0 = fail
    #: on the first counted failure, the historical behaviour).
    task_retries: int = 0
    #: First-retry backoff for job-task retries (doubles per retry).
    retry_backoff_seconds: float = 0.05
    #: Cooperative per-job search budget (seconds); an expired budget
    #: returns the engine's best-so-far flagged uncertified (or the
    #: greedy fallback, with ``degrade_under_deadline``).  ``None``
    #: leaves searches unbounded.
    search_deadline_seconds: float | None = None
    #: Consecutive infrastructure-failure *group* events per (workload ×
    #: platform) pair before its circuit breaker opens and jobs on that
    #: pair fail fast; 0 disables the breaker.
    breaker_threshold: int = 0
    #: How long an open breaker rejects before going half-open.
    breaker_cooldown_seconds: float = 30.0
    #: Opt-in graceful degradation: when the search deadline expires on
    #: a non-greedy algorithm, rerun with greedy (fast, complete) and
    #: mark the job ``degraded`` instead of shipping a partial result.
    degrade_under_deadline: bool = False
    #: Deterministic chaos injection threaded into every group fan-out
    #: (tests / ``benchmarks/bench_chaos.py``); ``None`` in production.
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.batch_window_seconds < 0:
            raise ValueError("batch_window_seconds must be >= 0")
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")
        if (
            self.default_timeout_seconds is not None
            and self.default_timeout_seconds < 0
        ):
            raise ValueError("default_timeout_seconds must be >= 0")
        if self.task_retries < 0:
            raise ValueError("task_retries must be >= 0")
        if self.retry_backoff_seconds < 0:
            raise ValueError("retry_backoff_seconds must be >= 0")
        if (
            self.search_deadline_seconds is not None
            and self.search_deadline_seconds <= 0
        ):
            raise ValueError("search_deadline_seconds must be positive")
        if self.breaker_threshold < 0:
            raise ValueError("breaker_threshold must be >= 0")
        if self.breaker_cooldown_seconds < 0:
            raise ValueError("breaker_cooldown_seconds must be >= 0")


@dataclass(frozen=True)
class _JobTask:
    """One job's picklable work unit (what a pool worker receives)."""

    workload: WorkloadSpec
    platform: PlatformSpec
    algorithm: "object"  # AlgorithmSpec; typed loosely to stay picklable-simple
    constraint: int
    table: PackedCostTable
    #: Cooperative search budget per attempt; None = unbounded.
    deadline_seconds: float | None = None
    #: Exact -> greedy fallback when the budget expires mid-search.
    degrade: bool = False


def _partition_once(
    task: _JobTask,
    workload: ApplicationWorkload,
    platform,
) -> tuple[str, object]:
    """The deadline/degrade-aware partitioning core (shared by the pool
    worker entry point and the dispatcher's serial runner).

    Statuses: ``"ok"`` (result, possibly ``partial``), ``"degraded"``
    (the deadline expired and the greedy fallback answered instead),
    ``"error"`` (the job's own failure, structured, never raising).
    """
    try:
        deadline = (
            None
            if task.deadline_seconds is None
            else Deadline.after(task.deadline_seconds)
        )
        partitioner = make_partitioner(
            task.algorithm,  # type: ignore[arg-type]
            workload,
            platform,
            config=EngineConfig(),
            packed_table=task.table,
        )
        result = partitioner.run(task.constraint, deadline)
        if (
            result.partial
            and task.degrade
            and getattr(task.algorithm, "name", None) != "greedy"
        ):
            # Graceful degradation: greedy is O(n) and always completes;
            # its certified answer beats an uncertified partial one.
            fallback = make_partitioner(
                AlgorithmSpec.greedy(),
                workload,
                platform,
                config=EngineConfig(),
                packed_table=task.table,
            )
            return "degraded", fallback.run(task.constraint)
        return "ok", result
    except Exception as error:  # noqa: BLE001 - a job must not kill the batch
        return "error", f"{type(error).__name__}: {error}"


def _execute_task(task: _JobTask) -> tuple[str, object]:
    """Run one job; never raises (errors come back structured).

    Used by pool workers (hence top-level and picklable).  The injected
    table means a worker prices nothing — ``cost_table_builds`` stays
    with the dispatcher's cache; the worker only takes the built
    workload from its process-wide cache.
    """
    try:
        workload = PricedTableCache.process_wide().workload(task.workload)
        platform = task.platform.build()
    except Exception as error:  # noqa: BLE001
        return "error", f"{type(error).__name__}: {error}"
    return _partition_once(task, workload, platform)


class Server:
    """The long-running batching server (in-process API).

    Use as a context manager for the start/drain lifecycle::

        with Server(ServerConfig(workers=1)) as server:
            job_id = server.submit(request)
            record = server.await_result(job_id)

    Thread-safe: any number of threads may submit/poll concurrently;
    one dispatcher thread owns execution and the caches.
    """

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        # An explicit directory wins; otherwise the cache honours the
        # shared REPRO_PROFILE_CACHE_DIR hook (memory-only when unset).
        self.caches = PricedTableCache(
            capacity=self.config.cache_capacity,
            profile_cache=(
                ProfileCache(directory=self.config.profile_cache_dir)
                if self.config.profile_cache_dir is not None
                else None
            ),
        )
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._queue: deque[JobRecord] = deque()
        self._jobs: dict[int, JobRecord] = {}
        self._next_id = 1
        self._started = False
        self._stopping = False
        self._drain_on_stop = True
        self._thread: threading.Thread | None = None
        #: EMA of per-job run seconds, feeding the retry-after estimate.
        self._job_seconds_ema = 0.05
        self._counts = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "timeouts": 0,
            "cancelled": 0,
            "rejected": 0,
            "batches": 0,
        }
        #: Supervision counters (fed by map_tasks' counters sink plus
        #: the breaker/degrade events); surfaced under /stats
        #: "robustness".  Written only by the dispatcher thread.
        self._robust_counts: dict[str, int] = {
            "task_retries": 0,
            "pool_rebuilds": 0,
            "task_timeouts": 0,
            "tasks_failed": 0,
            "tasks_recovered": 0,
            "breaker_trips": 0,
            "breaker_rejections": 0,
            "degraded_jobs": 0,
        }
        #: Per-(workload × platform) circuit breakers:
        #: pair -> {"failures": consecutive infra-failure group events,
        #:          "open_until": monotonic fail-fast horizon}.
        self._breakers: dict[
            tuple[WorkloadSpec, PlatformSpec], dict[str, float]
        ] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Server":
        """Launch the dispatcher thread (idempotent)."""
        with self._lock:
            if self._stopping:
                raise ServerStoppedError("server already shut down")
            if self._started:
                return self
            self._started = True
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch",
            daemon=True,
        )
        self._thread.start()
        return self

    def shutdown(
        self, drain: bool = True, timeout: float | None = None
    ) -> None:
        """Stop intake; finish (``drain=True``) or cancel the queue.

        Joins the dispatcher, so on return every accepted job is in a
        terminal state.  ``timeout`` is a hard drain deadline: if the
        dispatcher has not finished by then (a stuck job), every job
        still pending is failed with a structured ``server-stopped``
        error and shutdown returns anyway — the dispatcher thread is a
        daemon, so a wedged job cannot block process exit.  Idempotent.
        """
        with self._wakeup:
            self._stopping = True
            self._drain_on_stop = drain and self._started
            self._wakeup.notify_all()
            if not self._started:
                # No dispatcher exists to run the queue: everything
                # still queued resolves as cancelled right here.
                pending = list(self._queue)
                self._queue.clear()
            else:
                pending = []
        for record in pending:
            self._finish_error(
                record, "cancelled", "server shut down before dispatch"
            )
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                # Drain deadline hit with the dispatcher still running:
                # resolve everything pending so no caller blocks on a
                # job that will never be delivered.
                with self._wakeup:
                    self._queue.clear()
                    stuck = [
                        record
                        for record in self._jobs.values()
                        if not record.finished
                    ]
                for record in stuck:
                    self._finish_error(
                        record,
                        "failed",
                        f"drain deadline ({timeout:g}s) expired before "
                        "the job finished",
                        code="server-stopped",
                    )

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown(drain=True)

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(self, request: JobRequest) -> int:
        """Enqueue a job; returns its id.

        Raises :class:`QueueFullError` (with a retry-after estimate)
        over capacity and :class:`ServerStoppedError` after shutdown
        began.
        """
        now = time.monotonic()
        with self._wakeup:
            if self._stopping:
                raise ServerStoppedError(
                    "server is shutting down; no new jobs accepted"
                )
            if len(self._queue) >= self.config.queue_capacity:
                self._counts["rejected"] += 1
                telemetry.count("serve_jobs_rejected")
                raise QueueFullError(
                    f"queue full ({self.config.queue_capacity} jobs "
                    "pending); retry later",
                    retry_after_seconds=self._retry_after_locked(),
                )
            timeout = request.timeout_seconds
            if timeout is None:
                timeout = self.config.default_timeout_seconds
            record = JobRecord(
                job_id=self._next_id,
                request=request,
                submitted_at=now,
                deadline=None if timeout is None else now + timeout,
            )
            self._next_id += 1
            self._jobs[record.job_id] = record
            self._queue.append(record)
            self._counts["submitted"] += 1
            telemetry.count("serve_jobs_submitted")
            self._wakeup.notify_all()
            return record.job_id

    def submit_payload(self, payload: object) -> int:
        """Decode one JSON job payload and enqueue it."""
        return self.submit(JobRequest.from_payload(payload))

    def record(self, job_id: int) -> JobRecord:
        """The live record of a job (raises :class:`UnknownJobError`)."""
        with self._lock:
            record = self._jobs.get(job_id)
        if record is None:
            raise UnknownJobError(f"unknown job id {job_id}")
        return record

    def poll(self, job_id: int) -> dict[str, object]:
        """One JSON-ready status/result snapshot of a job."""
        return self.record(job_id).to_payload()

    def await_result(
        self, job_id: int, timeout: float | None = None
    ) -> JobRecord:
        """Block until the job reaches a terminal state.

        Raises :class:`TimeoutError` when the *wait* (not the job's own
        queue timeout) expires first, and :class:`ServerStoppedError`
        when the dispatcher thread has died with the job still pending —
        a dead dispatcher can never finish it, so callers are failed
        fast instead of blocking forever.
        """
        record = self.record(job_id)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = (
                None if deadline is None else deadline - time.monotonic()
            )
            if remaining is not None and remaining <= 0:
                raise TimeoutError(
                    f"job {job_id} still {record.state} after waiting "
                    f"{timeout}s"
                )
            wait_for = 0.1 if remaining is None else min(0.1, remaining)
            if record.done_event.wait(wait_for):
                return record
            thread = self._thread
            if (
                self._started
                and (thread is None or not thread.is_alive())
                and not record.finished
            ):
                raise ServerStoppedError(
                    f"dispatcher thread died with job {job_id} still "
                    f"{record.state}"
                )

    def cancel(self, job_id: int) -> bool:
        """Cancel a still-queued job; False if it already left the queue."""
        record = self.record(job_id)
        with self._wakeup:
            try:
                self._queue.remove(record)
            except ValueError:
                return False
        self._finish_error(record, "cancelled", "cancelled by client")
        return True

    def stats(self) -> dict[str, object]:
        """A JSON-ready snapshot of counters, caches, and queue state."""
        now = time.monotonic()
        with self._lock:
            queued = len(self._queue)
            counts = dict(self._counts)
            robust: dict[str, object] = dict(self._robust_counts)
            robust["open_breakers"] = sum(
                1
                for state in self._breakers.values()
                if state["failures"] >= self.config.breaker_threshold
                and now < state["open_until"]
            )
        return {
            "state": (
                "stopped" if self._stopping
                else "running" if self._started
                else "idle"
            ),
            "queued": queued,
            "queue_capacity": self.config.queue_capacity,
            "workers": self.config.workers,
            "jobs": counts,
            "robustness": robust,
            "caches": self.caches.stats(),
            "retry_after_seconds": round(self._retry_after_locked(), 3),
        }

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _retry_after_locked(self) -> float:
        """Backpressure hint: how long until the queue likely drains."""
        depth = max(1, len(self._queue))
        return max(
            0.05, depth * self._job_seconds_ema / self.config.workers
        )

    def _dispatch_loop(self) -> None:
        """Dispatcher thread body: the loop, plus a crash boundary.

        An exception escaping the loop means the dispatcher is gone for
        good; every pending job is failed with a structured
        ``server-stopped`` error so pollers and ``await_result`` callers
        see a terminal state instead of hanging forever.
        """
        try:
            self._dispatch_forever()
        except BaseException as error:
            with self._wakeup:
                self._stopping = True
                self._queue.clear()
                pending = [
                    record
                    for record in self._jobs.values()
                    if not record.finished
                ]
            for record in pending:
                self._finish_error(
                    record,
                    "failed",
                    f"dispatcher died: {type(error).__name__}: {error}",
                    code="server-stopped",
                )
            raise

    def _dispatch_forever(self) -> None:
        while True:
            with self._wakeup:
                while not self._queue and not self._stopping:
                    self._wakeup.wait()
                stopping = self._stopping
                if stopping and not self._drain_on_stop:
                    cancelled = list(self._queue)
                    self._queue.clear()
                elif stopping and not self._queue:
                    return
                else:
                    cancelled = []
            if stopping and not self._drain_on_stop:
                for record in cancelled:
                    self._finish_error(
                        record, "cancelled", "server shut down without drain"
                    )
                return
            # Let concurrent submitters pile into this gulp; skipped
            # while draining (latency no longer matters, finish fast).
            if self.config.batch_window_seconds > 0 and not stopping:
                time.sleep(self.config.batch_window_seconds)
            with self._wakeup:
                batch = list(self._queue)
                self._queue.clear()
            if batch:
                self._run_batch(batch)

    def _run_batch(self, batch: list[JobRecord]) -> None:
        self._counts["batches"] += 1
        telemetry.count("serve_batches")
        now = time.monotonic()
        groups: dict[
            tuple[WorkloadSpec, PlatformSpec], list[JobRecord]
        ] = {}
        for record in batch:
            if record.deadline is not None and now >= record.deadline:
                self._finish_error(
                    record,
                    "timeout",
                    f"queued past its {_timeout_of(record):g}s timeout",
                    extra={"timeout_seconds": _timeout_of(record)},
                )
                continue
            groups.setdefault(record.request.pair_key, []).append(record)
        # Group order follows first arrival within the gulp, so a batch
        # is processed deterministically given its contents.
        for pair, records in groups.items():
            self._run_group(pair, records)

    def _breaker_check(
        self, pair: tuple[WorkloadSpec, PlatformSpec]
    ) -> dict[str, float] | None:
        """The pair's breaker state, or None when breakers are off.

        Raises nothing; an *open* breaker is reported by the caller via
        the returned state (``open_until`` in the future).
        """
        if self.config.breaker_threshold <= 0:
            return None
        return self._breakers.setdefault(
            pair, {"failures": 0, "open_until": 0.0}
        )

    def _run_group(
        self,
        pair: tuple[WorkloadSpec, PlatformSpec],
        records: list[JobRecord],
    ) -> None:
        breaker = self._breaker_check(pair)
        if breaker is not None:
            now = time.monotonic()
            if (
                breaker["failures"] >= self.config.breaker_threshold
                and now < breaker["open_until"]
            ):
                # Open: fail fast, protect the pool from a pair that
                # keeps taking workers down.
                retry_after = round(breaker["open_until"] - now, 3)
                self._robust_counts["breaker_rejections"] += len(records)
                telemetry.count("serve_breaker_rejections", len(records))
                for record in records:
                    self._finish_error(
                        record,
                        "failed",
                        f"circuit breaker open for {pair[0].label!r} on "
                        f"{pair[1].label!r} after repeated failures; "
                        f"retry in {retry_after:g}s",
                        extra={"retry_after_seconds": retry_after},
                        code="circuit-open",
                    )
                return
        try:
            workload, platform, table = self.caches.resolve(pair)
        except Exception as error:  # noqa: BLE001 - bad spec, not a crash
            for record in records:
                self._finish_error(
                    record, "failed",
                    f"cannot build {pair[0].label!r} on "
                    f"{pair[1].label!r}: {error}",
                )
            return
        started = time.monotonic()
        tasks = []
        for record in records:
            record.state = "running"
            record.started_at = started
            request = record.request
            constraint = request.constraint
            if constraint is None:
                assert request.fraction is not None
                constraint = max(
                    1, round(table.initial_cycles() * request.fraction)
                )
            tasks.append(
                _JobTask(
                    workload=request.workload,
                    platform=request.platform,
                    algorithm=request.algorithm,
                    constraint=constraint,
                    table=table,
                    deadline_seconds=self.config.search_deadline_seconds,
                    degrade=self.config.degrade_under_deadline,
                )
            )

        def run_serially(serial_tasks) -> list[tuple[str, object]]:
            # The dispatcher already holds the built objects: no
            # per-task rebuild, no pickling.
            return [
                _partition_once(task, workload, platform)
                for task in serial_tasks
            ]

        policy = RetryPolicy(
            max_attempts=self.config.task_retries + 1,
            backoff_seconds=self.config.retry_backoff_seconds,
        )
        outcomes, _ = map_tasks(
            _execute_task,
            tasks,
            self.config.workers if len(tasks) > 1 else 1,
            what=f"serve batch ({pair[0].label})",
            serial_runner=run_serially,
            policy=policy,
            fault_plan=self.config.fault_plan,
            failure_mode="report",
            counters=self._robust_counts,
        )
        finished = time.monotonic()
        per_job = (finished - started) / max(1, len(records))
        self._job_seconds_ema = (
            0.8 * self._job_seconds_ema + 0.2 * per_job
        )
        infra_failures = 0
        for record, outcome in zip(records, outcomes, strict=True):
            if isinstance(outcome, TaskFailure):
                # Supervision exhausted the task's attempts: crashed /
                # timed out / kept raising even after retries.
                if outcome.kind in ("crashed", "timeout"):
                    infra_failures += 1
                self._finish_error(
                    record,
                    "failed",
                    outcome.describe(),
                    extra={
                        "failure_kind": outcome.kind,
                        "attempts": outcome.attempts,
                    },
                )
                continue
            status, value = outcome
            if status in ("ok", "degraded"):
                assert isinstance(value, PartitionResult)
                self._finish_ok(
                    record, value, finished, degraded=status == "degraded"
                )
            else:
                self._finish_error(record, "failed", str(value))
        if breaker is not None:
            if infra_failures:
                breaker["failures"] += 1
                if breaker["failures"] >= self.config.breaker_threshold:
                    breaker["open_until"] = (
                        time.monotonic()
                        + self.config.breaker_cooldown_seconds
                    )
                    self._robust_counts["breaker_trips"] += 1
                    telemetry.count("serve_breaker_trips")
            else:
                # A clean group closes the breaker (half-open probe
                # succeeded, or the pair recovered on its own).
                breaker["failures"] = 0
                breaker["open_until"] = 0.0

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _finish_ok(
        self,
        record: JobRecord,
        result: PartitionResult,
        finished_at: float,
        degraded: bool = False,
    ) -> None:
        if record.done_event.is_set():
            # Already resolved (e.g. force-failed at the drain
            # deadline while the stuck dispatcher kept running).
            return
        record.result = result
        record.finished_at = finished_at
        record.state = "done"
        record.degraded = degraded
        self._counts["completed"] += 1
        telemetry.count("serve_jobs_completed")
        if degraded:
            self._robust_counts["degraded_jobs"] += 1
            telemetry.count("serve_jobs_degraded")
        record.done_event.set()

    def _finish_error(
        self,
        record: JobRecord,
        state: str,
        message: str,
        extra: dict[str, object] | None = None,
        code: str | None = None,
    ) -> None:
        if record.done_event.is_set():
            return
        error: dict[str, object] = {"code": code or state, "message": message}
        if extra:
            error.update(extra)
        record.error = error
        record.finished_at = time.monotonic()
        record.state = state
        key = {"timeout": "timeouts", "cancelled": "cancelled"}.get(
            state, "failed"
        )
        self._counts[key] += 1
        telemetry.count(f"serve_jobs_{key}")
        record.done_event.set()


def _timeout_of(record: JobRecord) -> float:
    assert record.deadline is not None
    return record.deadline - record.submitted_at
