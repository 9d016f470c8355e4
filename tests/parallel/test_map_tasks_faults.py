"""Fault-injection coverage for the supervised ``map_tasks``.

Every test drives the *real* process-pool path (where the schedule
kills real workers) or the serial path (where the same schedule is
simulated in-process) with a deterministic
:class:`~repro.faults.FaultPlan`, and asserts the recovered output is
bit-identical to a fault-free serial run — the supervision layer's
central contract.
"""

from __future__ import annotations

import warnings

import pytest

from repro.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
    RetryPolicy,
    TaskFailure,
    TaskFailureError,
)
from repro.parallel import map_tasks


def square(task: int) -> int:
    return task * task


TASKS = list(range(1, 11))
EXPECTED = [square(task) for task in TASKS]


def run(
    plan=None,
    *,
    workers: int | None = 4,
    policy: RetryPolicy | None = None,
    failure_mode: str = "raise",
):
    counters: dict[str, int] = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results, __ = map_tasks(
            square,
            TASKS,
            workers,
            what="squares",
            policy=policy,
            fault_plan=plan,
            failure_mode=failure_mode,
            counters=counters,
        )
    return results, counters


class TestCrashRecovery:
    def test_single_crash_mid_batch_salvages_and_rebuilds(self):
        results, counters = run(FaultPlan.crash_at(3))
        assert results == EXPECTED
        assert counters["pool_rebuilds"] >= 1
        assert counters["tasks_recovered"] >= 1

    def test_two_workers_killed_still_bit_identical(self):
        # The acceptance scenario: a seeded plan killing >= 2 workers.
        results, counters = run(FaultPlan.crash_at(2, 7))
        assert results == EXPECTED
        assert counters["pool_rebuilds"] >= 1
        assert counters["tasks_recovered"] >= 2

    def test_crash_budget_exhausted_finishes_serially(self):
        # More distinct crashes than the rebuild budget: the run must
        # still complete (serially) with identical results.
        plan = FaultPlan.crash_at(0, 2, 4, 6)
        policy = RetryPolicy(max_pool_rebuilds=1)
        results, counters = run(plan, policy=policy)
        assert results == EXPECTED
        assert counters["pool_rebuilds"] >= 1

    def test_serial_run_simulates_crashes(self):
        # workers=1 has no process to kill; the same schedule must be
        # honoured in-process and bounded by the rebuild budget.
        results, counters = run(FaultPlan.crash_at(1, 5), workers=1)
        assert results == EXPECTED
        assert counters["pool_rebuilds"] == 2
        assert counters["tasks_recovered"] == 2


class TestRetries:
    def test_retry_then_succeed(self):
        plan = FaultPlan.of(
            FaultSpec(task_index=4, attempt=0, kind="error", message="flaky")
        )
        policy = RetryPolicy(max_attempts=2, backoff_seconds=0.0)
        results, counters = run(plan, policy=policy)
        assert results == EXPECTED
        assert counters["task_retries"] == 1
        assert counters["tasks_recovered"] == 1

    def test_retry_exhausted_raises_original_exception(self):
        plan = FaultPlan.of(
            FaultSpec(task_index=4, attempt=0, kind="error", message="still"),
            FaultSpec(task_index=4, attempt=1, kind="error", message="dead"),
        )
        policy = RetryPolicy(max_attempts=2, backoff_seconds=0.0)
        with pytest.raises(InjectedFaultError):
            run(plan, policy=policy)

    def test_retry_exhausted_report_mode_yields_task_failure(self):
        plan = FaultPlan.of(
            FaultSpec(task_index=4, attempt=0, kind="error", message="a"),
            FaultSpec(task_index=4, attempt=1, kind="error", message="b"),
        )
        policy = RetryPolicy(max_attempts=2, backoff_seconds=0.0)
        results, counters = run(plan, policy=policy, failure_mode="report")
        failure = results[4]
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "exception"
        assert failure.index == 4
        assert failure.attempts == 2
        assert counters["tasks_failed"] == 1
        # Every other slot is untouched by the one failure.
        assert results[:4] == EXPECTED[:4]
        assert results[5:] == EXPECTED[5:]

    def test_backoff_schedule_is_deterministic(self):
        policy = RetryPolicy(backoff_seconds=0.05, backoff_factor=2.0)
        assert policy.backoff_for(0) == 0.0
        assert policy.backoff_for(1) == pytest.approx(0.05)
        assert policy.backoff_for(2) == pytest.approx(0.10)
        assert policy.backoff_for(3) == pytest.approx(0.20)


class TestPoison:
    def test_poisoned_result_is_detected_not_returned(self):
        plan = FaultPlan.of(
            FaultSpec(task_index=6, attempt=0, kind="poison"),
            FaultSpec(task_index=6, attempt=1, kind="poison"),
        )
        policy = RetryPolicy(max_attempts=2, backoff_seconds=0.0)
        results, counters = run(plan, policy=policy, failure_mode="report")
        failure = results[6]
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "poisoned"
        assert counters["tasks_failed"] == 1
        assert results[:6] == EXPECTED[:6]
        assert results[7:] == EXPECTED[7:]

    def test_poison_retry_then_clean(self):
        plan = FaultPlan.of(
            FaultSpec(task_index=6, attempt=0, kind="poison"),
        )
        policy = RetryPolicy(max_attempts=2, backoff_seconds=0.0)
        results, counters = run(plan, policy=policy)
        assert results == EXPECTED
        assert counters["task_retries"] == 1

    def test_poison_raise_mode_raises_task_failure_error(self):
        plan = FaultPlan.of(FaultSpec(task_index=6, attempt=0, kind="poison"))
        with pytest.raises(TaskFailureError) as excinfo:
            run(plan)
        assert excinfo.value.failure.kind == "poisoned"


class TestTimeouts:
    def test_hang_is_killed_and_retried(self):
        plan = FaultPlan.of(
            FaultSpec(task_index=3, attempt=0, kind="hang", seconds=30.0)
        )
        policy = RetryPolicy(
            max_attempts=2, backoff_seconds=0.0, task_timeout_seconds=0.5
        )
        results, counters = run(plan, policy=policy)
        assert results == EXPECTED
        assert counters["task_timeouts"] == 1
        assert counters["task_retries"] == 1

    def test_hang_exhausted_reports_timeout(self):
        plan = FaultPlan.of(
            FaultSpec(task_index=3, attempt=0, kind="hang", seconds=30.0),
            FaultSpec(task_index=3, attempt=1, kind="hang", seconds=30.0),
        )
        policy = RetryPolicy(
            max_attempts=2, backoff_seconds=0.0, task_timeout_seconds=0.5
        )
        results, counters = run(plan, policy=policy, failure_mode="report")
        failure = results[3]
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "timeout"
        assert counters["task_timeouts"] == 2


class TestDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4, None])
    def test_results_independent_of_worker_count(self, workers):
        plan = FaultPlan.of(
            FaultSpec(task_index=1, attempt=0, kind="crash"),
            FaultSpec(task_index=5, attempt=0, kind="error", message="x"),
            FaultSpec(task_index=8, attempt=0, kind="slow", seconds=0.01),
        )
        policy = RetryPolicy(max_attempts=2, backoff_seconds=0.0)
        results, __ = run(plan, workers=workers, policy=policy)
        assert results == EXPECTED

    def test_task_order_preserved_under_chaos(self):
        # A crash plus retries must never permute the output slots.
        plan = FaultPlan.of(
            FaultSpec(task_index=9, attempt=0, kind="crash"),
            FaultSpec(task_index=0, attempt=0, kind="error", message="x"),
        )
        policy = RetryPolicy(max_attempts=2, backoff_seconds=0.0)
        results, __ = run(plan, policy=policy)
        assert results == EXPECTED

    def test_seeded_plan_is_reproducible(self):
        one = FaultPlan.seeded(7, 32, crash_rate=0.1, error_rate=0.1)
        two = FaultPlan.seeded(7, 32, crash_rate=0.1, error_rate=0.1)
        assert one == two
        assert any(s.kind == "crash" for s in one.specs)

    def test_plain_path_unchanged(self):
        # No policy/plan/counters: the legacy contract — results and
        # worker count, no supervision machinery involved.
        results, used = map_tasks(square, TASKS, 2, what="squares")
        assert results == EXPECTED
        assert used == 2
