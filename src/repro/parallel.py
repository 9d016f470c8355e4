"""Shared process fan-out with supervision, retries, and a serial fallback.

The explore grids, the scenario suite, the sharded exhaustive walk and
the batch server all fan tasks out the same way: a
``ProcessPoolExecutor`` warmed by a probe submission (worker processes
spawn lazily, so an unusable pool — no fork, no sem_open — may only
surface then), degrading to a serial in-process run when the pool
cannot be built, and re-raising genuine task errors as themselves.
Results always come back in task order, so a caller's merge is
deterministic regardless of worker scheduling.

On top of that baseline, :func:`map_tasks` supervises the pool:

* **Pool resurrection with salvage.**  A worker dying mid-run
  (``BrokenProcessPool``) no longer re-runs the whole batch serially:
  results already completed are salvaged, the pool is rebuilt (bounded
  by :class:`~repro.faults.RetryPolicy.max_pool_rebuilds`), and only the
  lost tasks run again — the merged output stays bit-identical to a
  fault-free serial run in task order.  When the rebuild budget is
  exhausted the remaining tasks finish serially in-process.
* **Bounded per-task retry with deterministic backoff.**  A task
  exception, a poisoned result, or a per-task deadline expiry consumes
  one attempt; tasks with attempts left are resubmitted after a
  deterministic exponential backoff (slept inside the worker, so the
  parent never stalls).
* **Per-task deadlines.**  ``RetryPolicy.task_timeout_seconds`` bounds
  each attempt; an expired task gets the pool's processes killed (the
  only way to preempt a hung worker), is failed or retried, and the
  innocent in-flight neighbours are re-run on the next pool.
* **Structured failure reports.**  ``failure_mode="report"`` replaces
  "one poisoned task loses the batch" with a
  :class:`~repro.faults.TaskFailure` in the failed task's result slot;
  ``failure_mode="raise"`` (the default) keeps the historical contract
  of raising the task's own exception.
* **Deterministic fault injection.**  A
  :class:`~repro.faults.FaultPlan` threads through to the workers, so
  chaos runs (crash / error / slow / hang / poison schedules) are
  reproducible and assertable.

When telemetry is enabled (:mod:`repro.telemetry`), each pooled worker
runs its task under a fresh, isolated trace and ships that subtrace
back alongside the result; the parent absorbs the final successful
attempt's subtrace per task, in task order, so the merged trace is
deterministic and matches what a serial run records in place.
Supervision events surface as counters (``task_retries``,
``pool_rebuilds``, ``task_timeouts``, ``tasks_failed``,
``tasks_recovered``) both in telemetry and in an optional ``counters``
sink dict for callers that keep their own books.

This module sits below every repro subsystem except the (equally leaf)
telemetry and faults layers, so the search layer can use it without
creating an import cycle with :mod:`repro.explore`.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
)
from concurrent.futures import wait as futures_wait
from typing import Callable, Iterable, MutableMapping, Sequence, TypeVar

from repro import telemetry
from repro.faults import (
    CRASH_EXIT_CODE,
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
    PoisonedResult,
    RetryPolicy,
    TaskFailure,
    TaskFailureError,
    WorkerCrashError,
)

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")

#: Errors meaning "the pool itself is unusable" when raised at build /
#: probe time (as opposed to errors a task raised while running).
_POOL_BUILD_ERRORS = (OSError, ImportError, NotImplementedError, BrokenExecutor)


class _TracedCall:
    """Picklable wrapper running ``fn`` under a per-task subtrace.

    Pool workers are long-lived, so recording into the worker's ambient
    trace would accumulate across tasks and double-count once merged;
    a fresh :class:`~repro.telemetry.Trace` per call keeps each task's
    spans isolated.  Returns ``(result, subtrace)``; the subtrace is
    ``None`` when telemetry is disabled in the worker (e.g. the parent
    enabled it programmatically but the env var switches it off in
    spawned children).
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[_Task], _Result]) -> None:
        self.fn = fn

    def __call__(self, task: _Task) -> tuple[_Result, telemetry.Trace | None]:
        if not telemetry.enabled():
            return self.fn(task), None
        with telemetry.use_trace(telemetry.Trace()) as trace:
            result = self.fn(task)
        return result, trace


class _GuardedCall:
    """The pooled per-attempt wrapper: backoff sleep, fault injection,
    per-task subtrace.  Receives ``(index, attempt, delay, task)`` so
    the fault plan can be consulted *inside* the worker — a ``crash``
    fault genuinely kills the worker process, not a simulation."""

    __slots__ = ("fn", "plan")

    def __init__(
        self, fn: Callable[[_Task], _Result], plan: FaultPlan | None
    ) -> None:
        self.fn = fn
        self.plan = plan

    def __call__(
        self, unit: tuple[int, int, float, _Task]
    ) -> tuple[object, telemetry.Trace | None]:
        index, attempt, delay, task = unit
        if delay > 0:
            time.sleep(delay)
        spec = (
            self.plan.lookup(index, attempt)
            if self.plan is not None
            else None
        )
        if spec is not None:
            if spec.kind == "crash":
                os._exit(CRASH_EXIT_CODE)
            if spec.kind == "error":
                raise InjectedFaultError(
                    spec.message
                    or f"injected fault at task {index} attempt {attempt}"
                )
            if spec.kind == "poison":
                return PoisonedResult(index, attempt), None
            if spec.kind in ("slow", "hang"):
                time.sleep(spec.seconds)
        return _TracedCall(self.fn)(task)


class _PoolUnavailable(Exception):
    """Internal: the first pool build / probe failed (full serial
    fallback, exactly the historical behaviour)."""

    def __init__(self, error: BaseException) -> None:
        super().__init__(str(error))
        self.error = error


_MISSING = object()


class _MapRun:
    """One :func:`map_tasks` invocation's supervision state."""

    def __init__(
        self,
        fn: Callable[[_Task], _Result],
        tasks: list[_Task],
        workers: int,
        what: str,
        policy: RetryPolicy,
        plan: FaultPlan | None,
        failure_mode: str,
        counters: MutableMapping[str, int] | None,
        serial_runner: Callable[[Sequence[_Task]], list[_Result]] | None,
    ) -> None:
        self.fn = fn
        self.tasks = tasks
        self.workers = workers
        self.what = what
        self.policy = policy
        self.plan = plan
        self.failure_mode = failure_mode
        self.counters = counters
        self.serial_runner = serial_runner
        n = len(tasks)
        self.results: list[object] = [_MISSING] * n
        self.traces: list[telemetry.Trace | None] = [None] * n
        #: Submissions so far per task — the fault plan's attempt axis.
        self.attempts = [0] * n
        #: Counted failures per task (exception/poison/timeout), judged
        #: against ``policy.max_attempts``.
        self.failures = [0] * n
        #: Tasks that hit any fault/crash/timeout on the way (feeds the
        #: ``tasks_recovered`` counter when they still succeed).
        self.disturbed = [False] * n
        self.rebuild_budget = policy.max_pool_rebuilds
        self.wrapper = _GuardedCall(fn, plan)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        telemetry.count(name, amount)
        if self.counters is not None:
            self.counters[name] = self.counters.get(name, 0) + amount

    def succeed(
        self, index: int, value: object, trace: telemetry.Trace | None
    ) -> None:
        self.results[index] = value
        self.traces[index] = trace
        if self.disturbed[index]:
            self.count("tasks_recovered")

    def record_failure(
        self,
        index: int,
        kind: str,
        message: str,
        error: BaseException | None = None,
    ) -> bool:
        """Count one failed attempt; True when the task may retry."""
        self.failures[index] += 1
        self.disturbed[index] = True
        if self.failures[index] < self.policy.max_attempts:
            self.count("task_retries")
            return True
        failure = TaskFailure(
            index=index,
            kind=kind,
            attempts=self.attempts[index],
            message=message,
        )
        self.count("tasks_failed")
        if self.failure_mode == "raise":
            if error is not None:
                raise error
            raise TaskFailureError(failure)
        self.results[index] = failure
        return False

    def consume_value(
        self, index: int, value: object, trace: telemetry.Trace | None
    ) -> bool:
        """Handle one completed attempt's value; True when the task is
        settled (success or final failure), False when it must retry."""
        if isinstance(value, PoisonedResult):
            return not self.record_failure(index, "poisoned", value.note)
        self.succeed(index, value, trace)
        return True

    # ------------------------------------------------------------------
    # Serial execution (workers == 1, pool fallback, crash exhaustion)
    # ------------------------------------------------------------------
    def call_serially(self, index: int) -> object:
        if self.serial_runner is not None:
            return self.serial_runner([self.tasks[index]])[0]
        return self.fn(self.tasks[index])

    def run_one_serial(self, index: int) -> None:
        while True:
            delay = self.policy.backoff_for(self.failures[index])
            if delay > 0:
                time.sleep(delay)
            attempt = self.attempts[index]
            self.attempts[index] += 1
            spec: FaultSpec | None = (
                self.plan.lookup(index, attempt)
                if self.plan is not None
                else None
            )
            try:
                if spec is not None and spec.kind == "crash":
                    # No worker process to kill in-process: simulate the
                    # crash and recover through the same rebuild budget.
                    raise WorkerCrashError(
                        f"injected crash at task {index} attempt {attempt}"
                    )
                if spec is not None and spec.kind == "error":
                    raise InjectedFaultError(
                        spec.message
                        or f"injected fault at task {index} attempt {attempt}"
                    )
                if spec is not None and spec.kind == "poison":
                    value: object = PoisonedResult(index, attempt)
                else:
                    if spec is not None and spec.kind in ("slow", "hang"):
                        time.sleep(spec.seconds)
                    value = self.call_serially(index)
            except WorkerCrashError as error:
                self.disturbed[index] = True
                if self.rebuild_budget > 0:
                    # Parity with the pooled path: a crash consumes the
                    # rebuild budget, not the task's attempt budget.
                    self.rebuild_budget -= 1
                    self.count("pool_rebuilds")
                    continue
                if self.record_failure(index, "crashed", str(error)):
                    continue
                return
            except Exception as error:  # noqa: BLE001 - classified below
                if self.record_failure(
                    index,
                    "exception",
                    f"{type(error).__name__}: {error}",
                    error=error,
                ):
                    continue
                return
            if self.consume_value(index, value, None):
                return

    def run_serial(self, indices: Iterable[int]) -> None:
        for index in indices:
            self.run_one_serial(index)

    # ------------------------------------------------------------------
    # Pooled execution
    # ------------------------------------------------------------------
    def run_pooled(self) -> None:
        pending = list(range(len(self.tasks)))
        first = True
        while pending:
            try:
                pool = ProcessPoolExecutor(
                    max_workers=min(self.workers, len(pending))
                )
                pool.submit(os.getpid).result()  # force a worker to spawn
            except _POOL_BUILD_ERRORS as error:
                if first:
                    raise _PoolUnavailable(error) from error
                warnings.warn(
                    f"cannot rebuild worker pool ({error}); finishing "
                    f"{len(pending)} {self.what} serially",
                    RuntimeWarning,
                    stacklevel=4,
                )
                self.run_serial(pending)
                return
            first = False
            pending, reason = self.drive_pool(pool, pending)
            if not pending:
                return
            if reason == "crash":
                if self.rebuild_budget <= 0:
                    warnings.warn(
                        f"worker pool crash budget exhausted; finishing "
                        f"{len(pending)} {self.what} serially",
                        RuntimeWarning,
                        stacklevel=4,
                    )
                    self.run_serial(pending)
                    return
                self.rebuild_budget -= 1
                warnings.warn(
                    f"worker pool broke mid-run; salvaged completed "
                    f"{self.what}, re-running {len(pending)} lost task(s) "
                    "on a fresh pool",
                    RuntimeWarning,
                    stacklevel=4,
                )
            # A deadline kill always rebuilds (the per-task attempt
            # budget bounds it); a crash consumed the budget above.
            self.count("pool_rebuilds")

    def drive_pool(
        self, pool: ProcessPoolExecutor, indices: list[int]
    ) -> tuple[list[int], str]:
        """Run ``indices`` on one pool until it empties or breaks.

        Returns ``(lost_indices, reason)`` — the tasks that must re-run
        on a fresh pool (or serially) and why (``"crash"`` for a broken
        pool, ``"kill"`` for a deadline kill, ``""`` when done).
        """
        inflight: dict[Future, tuple[int, float | None]] = {}
        timeout_s = self.policy.task_timeout_seconds
        lost: list[int] = []
        broke = False

        def submit(index: int) -> None:
            nonlocal broke
            delay = self.policy.backoff_for(self.failures[index])
            unit = (index, self.attempts[index], delay, self.tasks[index])
            self.attempts[index] += 1
            try:
                future = pool.submit(self.wrapper, unit)
            except BrokenExecutor:
                broke = True
                self.disturbed[index] = True
                lost.append(index)
                return
            deadline = (
                None
                if timeout_s is None
                else time.monotonic() + delay + timeout_s
            )
            inflight[future] = (index, deadline)

        def sweep(reason: str) -> tuple[list[int], str]:
            """Salvage completed-but-unharvested results; everything
            else re-runs (the bit-identity of salvaged output is free:
            a task's value never depends on which pool ran it)."""
            for future, (index, _) in list(inflight.items()):
                if future.done() and future.exception() is None:
                    value, subtrace = future.result()
                    if not self.consume_value(index, value, subtrace):
                        lost.append(index)
                else:
                    self.disturbed[index] = True
                    lost.append(index)
            inflight.clear()
            return sorted(set(lost)), reason

        try:
            for index in indices:
                submit(index)
            if broke:
                return sweep("crash")
            while inflight:
                wait_for = None
                if timeout_s is not None:
                    deadlines = [
                        deadline
                        for _, deadline in inflight.values()
                        if deadline is not None
                    ]
                    if deadlines:
                        wait_for = (
                            max(0.0, min(deadlines) - time.monotonic())
                            + 0.002
                        )
                done, _ = futures_wait(
                    set(inflight),
                    timeout=wait_for,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    index, _ = inflight.pop(future)
                    error = future.exception()
                    if error is None:
                        value, subtrace = future.result()
                        if not self.consume_value(index, value, subtrace):
                            if broke:
                                lost.append(index)
                            else:
                                submit(index)
                    elif isinstance(error, BrokenExecutor):
                        broke = True
                        self.disturbed[index] = True
                        lost.append(index)
                    else:
                        if self.record_failure(
                            index,
                            "exception",
                            f"{type(error).__name__}: {error}",
                            error=error,
                        ):
                            if broke:
                                lost.append(index)
                            else:
                                submit(index)
                if broke:
                    return sweep("crash")
                if not done and inflight:
                    now = time.monotonic()
                    expired = {
                        future: index
                        for future, (index, deadline) in inflight.items()
                        if deadline is not None and deadline <= now
                    }
                    if not expired:
                        continue
                    self.count("task_timeouts", len(expired))
                    # Killing the processes is the only way to preempt a
                    # hung worker; innocents re-run on the next pool.
                    for process in list(
                        getattr(pool, "_processes", {}).values()
                    ):
                        process.kill()
                    assert timeout_s is not None
                    for future, index in expired.items():
                        inflight.pop(future)
                        if self.record_failure(
                            index,
                            "timeout",
                            f"task exceeded its {timeout_s:g}s deadline",
                        ):
                            lost.append(index)
                    return sweep("kill")
            return sorted(set(lost)), ""
        finally:
            pool.shutdown(wait=False, cancel_futures=True)


def map_tasks(
    fn: Callable[[_Task], _Result],
    tasks: Iterable[_Task],
    max_workers: int | None = None,
    *,
    what: str = "tasks",
    serial_runner: Callable[[Sequence[_Task]], list[_Result]] | None = None,
    policy: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
    failure_mode: str = "raise",
    counters: MutableMapping[str, int] | None = None,
) -> tuple[list[_Result], int]:
    """``[fn(t) for t in tasks]`` across worker processes, in task order.

    Returns ``(results, workers_used)``.  ``max_workers=None`` sizes the
    pool to ``min(len(tasks), cpu_count)``; ``max_workers <= 1`` or a
    single task runs serially in-process; ``serial_runner`` overrides
    the serial path (callers use it to thread per-call caches through
    instead of repickling state per task).  An unusable pool (surfaced
    at construction or by the warm-up probe) falls back to a serial run
    with a warning.

    ``policy`` bounds per-task retries, backoff, per-attempt deadlines
    and the pool-rebuild budget (see :class:`~repro.faults.RetryPolicy`;
    the default allows no retries, matching the historical contract: a
    task's own exception propagates, so the fallback never re-runs work
    that would fail anyway).  A worker dying mid-run salvages completed
    results, rebuilds the pool, and re-runs only the lost tasks — the
    merged output is bit-identical to a fault-free serial run.
    ``failure_mode="report"`` returns a
    :class:`~repro.faults.TaskFailure` in a failed task's slot instead
    of raising.  ``fault_plan`` injects a deterministic
    :class:`~repro.faults.FaultPlan` (tests / chaos benchmarks).
    ``counters`` receives the supervision counters (``task_retries``,
    ``pool_rebuilds``, ``task_timeouts``, ``tasks_failed``,
    ``tasks_recovered``) in addition to telemetry.
    """
    tasks = list(tasks)
    if max_workers is None:
        max_workers = min(len(tasks), os.cpu_count() or 1)
    if failure_mode not in ("raise", "report"):
        raise ValueError(
            f"failure_mode must be 'raise' or 'report', got {failure_mode!r}"
        )
    active = policy or RetryPolicy()
    plain = (
        policy is None
        and fault_plan is None
        and failure_mode == "raise"
        and counters is None
    )

    def run_serially_legacy() -> list[_Result]:
        if serial_runner is not None:
            return serial_runner(tasks)
        return [fn(task) for task in tasks]

    run = _MapRun(
        fn,
        tasks,
        max(1, max_workers),
        what,
        active,
        fault_plan,
        failure_mode,
        counters,
        serial_runner,
    )
    workers = run.workers
    if workers == 1 or len(tasks) <= 1:
        if plain:
            return run_serially_legacy(), 1
        run.run_serial(range(len(tasks)))
        return run.results, 1  # type: ignore[return-value]
    try:
        run.run_pooled()
    except _PoolUnavailable as unavailable:
        warnings.warn(
            f"process pool unavailable ({unavailable.error}); running "
            f"{what} serially",
            RuntimeWarning,
            stacklevel=2,
        )
        if plain:
            return run_serially_legacy(), 1
        run.run_serial(range(len(tasks)))
        return run.results, 1  # type: ignore[return-value]
    # Absorb the final successful attempt's subtrace per task, in task
    # order: deterministic merge no matter how the pool scheduled the
    # work or how many retries it took.
    for trace in run.traces:
        if trace is not None:
            telemetry.absorb(trace)
    return run.results, workers  # type: ignore[return-value]
