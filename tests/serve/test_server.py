"""The in-process batching server: queueing, batching, errors, drain.

Determinism trick used throughout: jobs submitted *before*
``start()`` sit in the queue untouched, so queue-full, timeout-expiry
and cancellation tests never race the dispatcher.
"""

import threading
import time

import pytest

from repro import telemetry
from repro.explore import PlatformSpec, WorkloadSpec
from repro.search import make_partitioner
from repro.serve import (
    JobRequest,
    JobValidationError,
    QueueFullError,
    Server,
    ServerConfig,
    ServerStoppedError,
    UnknownJobError,
)
from repro.specs import algorithm_spec_from_text

SMALL = WorkloadSpec.synthetic(24, seed=5)
OTHER = WorkloadSpec.synthetic(24, seed=9)
GREEDY = algorithm_spec_from_text("greedy")


def request(workload=SMALL, **kwargs):
    kwargs.setdefault("fraction", 0.5)
    return JobRequest(workload=workload, algorithm=GREEDY, **kwargs)


@pytest.fixture(autouse=True)
def fresh_trace():
    telemetry.reset_trace()
    yield
    telemetry.reset_trace()


class TestBatching:
    def test_jobs_sharing_a_pair_build_one_table(self):
        server = Server(ServerConfig(batch_window_seconds=0))
        job_ids = [server.submit(request()) for _ in range(8)]
        server.start()
        records = [server.await_result(j, timeout=60) for j in job_ids]
        server.shutdown()

        assert all(r.state == "done" for r in records)
        trace = telemetry.get_trace()
        assert trace.total_counter("cost_table_builds") == 1
        # One gulp took the whole pre-queued batch.
        assert server.stats()["jobs"]["batches"] == 1
        cycles = {r.result.final_cycles for r in records}
        assert len(cycles) == 1

    def test_result_matches_serial_partitioner(self):
        with Server(ServerConfig(batch_window_seconds=0)) as server:
            record = server.await_result(
                server.submit(request()), timeout=60
            )
        workload, platform = SMALL.build(), PlatformSpec().build()
        partitioner = make_partitioner(GREEDY, workload, platform)
        constraint = max(1, round(partitioner.initial_cycles() * 0.5))
        reference = partitioner.run(constraint)
        assert record.result.final_cycles == reference.final_cycles
        assert record.result.moved_bb_ids == reference.moved_bb_ids
        assert record.result.timing_constraint == reference.timing_constraint

    def test_distinct_pairs_build_distinct_tables(self):
        with Server(ServerConfig(batch_window_seconds=0)) as server:
            ids = [
                server.submit(request(workload))
                for workload in (SMALL, OTHER, SMALL)
            ]
            for job_id in ids:
                server.await_result(job_id, timeout=60)
        assert telemetry.get_trace().total_counter("cost_table_builds") == 2

    def test_lru_eviction_reprices_cold_pairs(self):
        # Capacity 1: alternating pairs evict each other, so each
        # alternation rebuilds; the same pair twice in a row does not.
        with Server(
            ServerConfig(batch_window_seconds=0, cache_capacity=1)
        ) as server:
            for workload in (SMALL, SMALL, OTHER, SMALL):
                server.await_result(
                    server.submit(request(workload)), timeout=60
                )
        trace = telemetry.get_trace()
        # SMALL built, SMALL hit, OTHER evicts SMALL, SMALL rebuilt.
        assert trace.total_counter("cost_table_builds") == 3
        assert trace.total_counter("table_cache_hits") == 1

    def test_worker_pool_results_match_dispatcher_thread(self):
        def run(workers):
            telemetry.reset_trace()
            with Server(
                ServerConfig(workers=workers, batch_window_seconds=0)
            ) as server:
                ids = [server.submit(request()) for _ in range(4)]
                return [
                    server.await_result(j, timeout=120).result
                    for j in ids
                ]

        serial = run(workers=1)
        pooled = run(workers=2)
        assert [r.final_cycles for r in serial] == [
            r.final_cycles for r in pooled
        ]
        assert [r.moved_bb_ids for r in serial] == [
            r.moved_bb_ids for r in pooled
        ]


class TestBackpressure:
    def test_queue_full_rejects_with_retry_after(self):
        server = Server(ServerConfig(queue_capacity=2))
        server.submit(request())
        server.submit(request())
        with pytest.raises(QueueFullError) as excinfo:
            server.submit(request())
        error = excinfo.value
        assert error.retry_after_seconds > 0
        payload = error.to_payload()
        assert payload["code"] == "queue-full"
        assert payload["retry_after_seconds"] > 0
        stats = server.stats()
        assert stats["jobs"]["rejected"] == 1
        assert stats["jobs"]["submitted"] == 2
        server.shutdown()

    def test_rejected_jobs_have_no_record(self):
        server = Server(ServerConfig(queue_capacity=1))
        job_id = server.submit(request())
        with pytest.raises(QueueFullError):
            server.submit(request())
        with pytest.raises(UnknownJobError):
            server.record(job_id + 1)
        server.shutdown()


class TestTimeouts:
    def test_expired_job_gets_structured_timeout_error(self):
        server = Server(ServerConfig(batch_window_seconds=0))
        job_id = server.submit(request(timeout_seconds=0.01))
        time.sleep(0.05)  # expire while still queued, pre-dispatch
        server.start()
        record = server.await_result(job_id, timeout=30)
        server.shutdown()
        assert record.state == "timeout"
        assert record.error["code"] == "timeout"
        assert record.error["timeout_seconds"] == pytest.approx(0.01)
        assert record.result is None
        assert server.stats()["jobs"]["timeouts"] == 1

    def test_config_default_timeout_applies(self):
        server = Server(
            ServerConfig(
                batch_window_seconds=0, default_timeout_seconds=0.01
            )
        )
        job_id = server.submit(request())  # no per-job timeout
        time.sleep(0.05)
        server.start()
        record = server.await_result(job_id, timeout=30)
        server.shutdown()
        assert record.state == "timeout"

    def test_await_timeout_is_a_wait_timeout_not_a_job_state(self):
        server = Server(ServerConfig(batch_window_seconds=0))
        job_id = server.submit(request())
        with pytest.raises(TimeoutError):
            server.await_result(job_id, timeout=0.01)  # never started
        server.start()
        record = server.await_result(job_id, timeout=60)
        server.shutdown()
        assert record.state == "done"


class TestLifecycle:
    def test_cancel_queued_job(self):
        server = Server()
        job_id = server.submit(request())
        assert server.cancel(job_id) is True
        record = server.record(job_id)
        assert record.state == "cancelled"
        assert record.done_event.is_set()
        # Already out of the queue: a second cancel is a no-op.
        assert server.cancel(job_id) is False
        server.shutdown()

    def test_submit_after_shutdown_raises(self):
        server = Server()
        server.shutdown()
        with pytest.raises(ServerStoppedError):
            server.submit(request())

    def test_shutdown_drains_queued_jobs(self):
        server = Server(ServerConfig(batch_window_seconds=0))
        ids = [server.submit(request()) for _ in range(3)]
        server.start()
        server.shutdown(drain=True)
        records = [server.record(j) for j in ids]
        assert all(r.state == "done" for r in records)

    def test_shutdown_without_drain_cancels_queue(self):
        server = Server()
        ids = [server.submit(request()) for _ in range(3)]
        server.shutdown(drain=False)  # dispatcher never started
        assert all(
            server.record(j).state == "cancelled" for j in ids
        )

    def test_concurrent_submitters_all_complete(self):
        with Server(ServerConfig(batch_window_seconds=0.01)) as server:
            ids: list[int] = []
            lock = threading.Lock()

            def push():
                for _ in range(5):
                    job_id = server.submit(request())
                    with lock:
                        ids.append(job_id)

            threads = [threading.Thread(target=push) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            records = [
                server.await_result(j, timeout=120) for j in ids
            ]
        assert len(records) == 20
        assert all(r.state == "done" for r in records)
        assert telemetry.get_trace().total_counter("cost_table_builds") == 1


class TestPayloads:
    def test_submit_payload_round_trip(self):
        with Server(ServerConfig(batch_window_seconds=0)) as server:
            job_id = server.submit_payload(
                {"workload": "synthetic:24:seed=5", "fraction": 0.5}
            )
            record = server.await_result(job_id, timeout=60)
            payload = server.poll(job_id)
        assert record.state == "done"
        assert payload["state"] == "done"
        assert payload["result"]["final_cycles"] == (
            record.result.final_cycles
        )
        assert payload["latency_seconds"] >= 0

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ([], "JSON object"),
            ({}, "'workload'"),
            ({"workload": 7}, "'workload'"),
            ({"workload": "nonsense"}, "unknown workload"),
            ({"workload": "synthetic:24"}, "constraint"),
            (
                {"workload": "synthetic:24", "fraction": 0.5,
                 "constraint": 10},
                "exactly one",
            ),
            ({"workload": "synthetic:24", "fraction": -0.5}, "fraction"),
            (
                {"workload": "synthetic:24", "fraction": 0.5,
                 "algorithm": "quantum"},
                "unknown algorithm",
            ),
            (
                {"workload": "synthetic:24", "fraction": 0.5,
                 "flavor": "spicy"},
                "unknown job field",
            ),
            (
                {"workload": "synthetic:24", "fraction": 0.5,
                 "timeout_seconds": -1},
                "timeout_seconds",
            ),
        ],
    )
    def test_invalid_payloads_are_structured_errors(
        self, payload, fragment
    ):
        server = Server()
        with pytest.raises(JobValidationError) as excinfo:
            server.submit_payload(payload)
        assert fragment in str(excinfo.value)
        assert excinfo.value.to_payload()["code"] == "invalid-request"
        server.shutdown()

    def test_unknown_job_is_structured(self):
        server = Server()
        with pytest.raises(UnknownJobError) as excinfo:
            server.poll(41)
        assert excinfo.value.to_payload()["code"] == "unknown-job"
        server.shutdown()
