"""The worker-fleet layer: leases, compaction, ``repro worker``.

Covers the lease lifecycle at the store level (claim / heartbeat /
expire / complete), journal compaction on recovery, the claim and
completion wire schema, the in-process :class:`Worker` loop, and — as
a subprocess crash test — a worker SIGKILLed mid-lease whose job
re-enqueues and is completed byte-identically by a second worker.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import ConfigError, ServiceError
from repro.eval.journal import (
    JOB_DONE,
    JOB_FAILED,
    JOB_RUNNING,
    JOB_SUBMITTED,
    read_journal,
)
from repro.eval.orchestrator import Orchestrator
from repro.serve import schema
from repro.serve.execution import execute_job
from repro.serve.store import JobStore
from repro.serve.worker import Worker

from test_serve import (  # noqa: F401  (fixtures)
    REPO,
    results_env,
    service,
    submit_experiment,
    sweeps_env,
)


def wait_until(predicate, timeout=60.0, interval=0.05, message="condition"):
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out after {timeout}s waiting for {message}")
        time.sleep(interval)


class TestStoreLeases:
    def test_claim_journals_the_lease(self, results_env):
        store = JobStore(str(results_env / "queue"))
        store.submit({"task": "bench", "quick": True, "only": None}, fingerprint="fp")
        record = store.claim(worker="w1", lease_ttl=30.0)
        assert record.status == JOB_RUNNING and record.worker == "w1"
        assert record.lease_ttl == 30.0 and record.lease_expires_at > time.time()
        # The lease is durable: a fresh replay sees the same holder.
        again = JobStore(store.root, recover=False).get(record.job_id)
        assert again.worker == "w1" and again.lease_expires_at == record.lease_expires_at

    def test_heartbeat_extends_and_guards_the_lease(self, results_env):
        store = JobStore(str(results_env / "queue"))
        store.submit({"task": "bench", "quick": True, "only": None})
        record = store.claim(worker="w1", lease_ttl=30.0)
        before = record.lease_expires_at
        time.sleep(0.02)
        renewed = store.heartbeat(record.job_id, "w1")
        assert renewed.lease_expires_at > before
        with pytest.raises(ConfigError, match="lease lost"):
            store.heartbeat(record.job_id, "w2")
        # The server's own lease-less claims have nothing to heartbeat.
        store.submit({"task": "bench", "quick": True, "only": None})
        local = store.claim()
        with pytest.raises(ConfigError, match="no lease"):
            store.heartbeat(local.job_id, "")

    def test_expired_lease_requeues_with_attempt_bumped(self, results_env):
        store = JobStore(str(results_env / "queue"))
        store.submit({"task": "bench", "quick": True, "only": None})
        record = store.claim(worker="w1", lease_ttl=0.01)
        time.sleep(0.05)
        (requeued,) = store.expire_leases()
        assert requeued.job_id == record.job_id
        assert requeued.status == JOB_SUBMITTED and requeued.attempt == 1
        assert requeued.worker == "" and requeued.lease_expires_at == 0.0
        # A live lease and a lease-less running job are both left alone.
        second = store.claim(worker="w2", lease_ttl=60.0)
        assert second.attempt == 1  # the re-enqueued job again
        assert store.expire_leases() == []

    def test_lease_attempts_exhaust_into_failure(self, results_env):
        store = JobStore(str(results_env / "queue"))
        store.submit({"task": "bench", "quick": True, "only": None})
        store.claim(worker="w1", lease_ttl=0.01)
        time.sleep(0.05)
        (dead,) = store.expire_leases(max_attempts=1)
        assert dead.status == JOB_FAILED and dead.error_type == "LeaseExpired"
        assert "lease expired" in dead.error

    def test_finish_requires_the_lease_holder(self, results_env):
        store = JobStore(str(results_env / "queue"))
        store.submit({"task": "bench", "quick": True, "only": None})
        record = store.claim(worker="w1", lease_ttl=30.0)
        with pytest.raises(ConfigError, match="lease lost"):
            store.finish(record.job_id, JOB_DONE, result={}, worker="w2")
        done = store.finish(record.job_id, JOB_DONE, result={"report": 1}, worker="w1")
        assert done.status == JOB_DONE and done.lease_expires_at == 0.0

    def test_restart_spares_jobs_under_a_live_lease(self, results_env):
        root = str(results_env / "queue")
        store = JobStore(root)
        store.submit({"task": "bench", "quick": True, "only": None})
        leased = store.claim(worker="w1", lease_ttl=60.0)
        store.submit({"task": "bench", "quick": False, "only": None})
        local = store.claim()  # lease-less: a dead server's own execution
        fresh = JobStore(root)  # recover() runs
        assert fresh.get(leased.job_id).status == JOB_RUNNING
        assert fresh.get(leased.job_id).worker == "w1"
        requeued = fresh.get(local.job_id)
        assert requeued.status == JOB_SUBMITTED and requeued.attempt == 1

    def test_tags_route_claims(self, results_env):
        store = JobStore(str(results_env / "queue"))
        tagged = store.submit(
            {"task": "bench", "quick": True, "only": None}, tags=["gpu", "big-mem"]
        )
        assert store.claim(worker="w1", lease_ttl=5.0, tags=[]) is None
        assert store.claim(worker="w1", lease_ttl=5.0, tags=["gpu"]) is None
        record = store.claim(worker="w1", lease_ttl=5.0, tags=["gpu", "big-mem", "x"])
        assert record.job_id == tagged.job_id
        # tags=None is the in-process executor: it matches everything.
        other = store.submit({"task": "bench", "quick": False, "only": None}, tags=["gpu"])
        assert store.claim().job_id == other.job_id


class TestCompaction:
    def test_recover_compacts_to_newest_record_per_job(self, results_env):
        root = str(results_env / "queue")
        store = JobStore(root)
        for _ in range(3):
            record = store.submit({"task": "bench", "quick": True, "only": None})
            store.claim()
            store.finish(record.job_id, JOB_DONE, result={"report": 1})
        assert len(read_journal(store.path).jobs) == 9
        fresh = JobStore(root)
        view = read_journal(fresh.path)
        assert len(view.jobs) == 3  # one line per job survives
        assert view.header is not None and view.header["compactions"] == 1
        assert [r.status for r in view.jobs] == [JOB_DONE] * 3
        assert all(r.result == {"report": 1} for r in view.jobs)

    def test_compaction_is_idempotent_and_preserves_order(self, results_env):
        root = str(results_env / "queue")
        store = JobStore(root)
        first = store.submit({"task": "bench", "quick": True, "only": None}, priority=1)
        second = store.submit({"task": "bench", "quick": False, "only": None})
        store.claim()
        reopened = JobStore(root)  # compacts (claim superseded a submit)
        again = JobStore(root)  # nothing left to compact
        view = read_journal(again.path)
        assert view.header["compactions"] == 1
        assert [r.job_id for r in view.jobs] == [first.job_id, second.job_id]
        # Queue semantics survive both reopenings: the claimed job was
        # requeued (attempt 1) and still outranks the later submission.
        assert again.claim().job_id == first.job_id


    def test_fifo_within_priority_survives_compaction_cycle(self, results_env):
        # Enough finished-job churn to trip live compaction (threshold 2),
        # then a recover() reopen: claim order must still be priority-desc
        # with FIFO inside each priority band.
        root = str(results_env / "queue")
        store = JobStore(root, compact_records=2)
        for i in range(4):
            done = store.submit({"task": "bench", "seed": i}, fingerprint=f"fp{i}")
            store.claim()
            store.finish(done.job_id, JOB_DONE, result={"i": i})
        low = [store.submit({"task": "bench", "lane": i}) for i in range(3)]
        high = [store.submit({"task": "bench", "hot": i}, priority=5) for i in range(2)]
        assert int(read_journal(store.path).header.get("compactions", 0)) >= 1
        reopened = JobStore(root)  # recover + another compaction pass
        claimed = [reopened.claim().job_id for _ in range(5)]
        assert claimed == [r.job_id for r in high + low]


class TestLeaseSchema:
    def test_claim_and_complete_validation(self):
        worker, ttl, tags = schema.validate_claim({"worker": "w1", "tags": ["b", "a", "a"]})
        assert (worker, ttl, tags) == ("w1", schema.DEFAULT_LEASE_TTL, ["a", "b"])
        with pytest.raises(ConfigError, match="worker"):
            schema.validate_claim({"lease_ttl": 5})
        with pytest.raises(ConfigError, match="lease_ttl"):
            schema.validate_claim({"worker": "w1", "lease_ttl": 0})
        done = schema.validate_complete({"worker": "w1", "ok": True, "result": {"x": 1}})
        assert done["result"] == {"x": 1} and done["elapsed_s"] == 0.0
        with pytest.raises(ConfigError, match="'error'"):
            schema.validate_complete({"worker": "w1", "ok": False})


class TestLeaseWire:
    def test_claim_heartbeat_complete_round_trip(self, results_env, service):
        svc, client = service(workers=1, external_only=True)
        submitted = submit_experiment(client, "table1_config")
        answer = client.claim("w1", lease_ttl=30.0)
        view = answer["job"]
        assert view["id"] == submitted["id"] and view["worker"] == "w1"
        assert answer["outstanding"] == 1
        renewed = client.heartbeat(view["id"], "w1")
        assert renewed["lease_expires_at"] >= view["lease_expires_at"]
        with pytest.raises(ServiceError) as err:
            client.heartbeat(view["id"], "w2")
        assert err.value.status == 409
        with pytest.raises(ServiceError) as err:
            client.complete(view["id"], "w2", ok=True, result={})
        assert err.value.status == 409
        final = client.complete(view["id"], "w1", ok=True, result={"task": "experiment"})
        assert final["status"] == JOB_DONE
        assert client.claim("w1")["job"] is None

    def test_empty_claim_reports_outstanding_work(self, results_env, service):
        svc, client = service(workers=1, external_only=True)
        assert client.claim("w1") == {"job": None, "outstanding": 0, "total": 0}


class TestWorker:
    def test_bad_server_argument_exits_2_cleanly(self, capsys):
        # ``repro worker --server localhost`` (no port) must exit 2 with
        # a HOST:PORT hint on stderr, not an int() traceback.
        from repro.cli import main

        assert main(["worker", "--server", "localhost"]) == 2
        captured = capsys.readouterr()
        assert "HOST:PORT" in captured.err
        assert "'localhost'" in captured.err
        assert "Traceback" not in captured.err + captured.out

    def test_worker_drains_the_queue_once(self, results_env, service):
        svc, client = service(workers=1, external_only=True)
        a = submit_experiment(client, "table1_config")
        b = submit_experiment(client, "fig03_adam_slowdown")
        worker = Worker(
            port=svc.port, worker_id="w1", lease_ttl=30.0, jobs=1, once=True, verbose=False
        )
        assert worker.run() == 0
        for view in (client.job(a["id"]), client.job(b["id"])):
            assert view["status"] == JOB_DONE and view["worker"] == "w1"
        result = client.result(a["id"])["result"]
        assert os.path.isfile(result["artifact"])

    def test_prewarmed_worker_waits_for_first_submission(self, results_env, service):
        """A --once worker started before any submission must not exit
        immediately on the empty queue (the fleet lane pre-warms workers
        first, then submits) — it drains only once work has existed."""
        svc, client = service(workers=1, external_only=True)
        worker = Worker(
            port=svc.port, worker_id="early", lease_ttl=30.0, jobs=1, once=True, verbose=False
        )
        done = {}
        thread = threading.Thread(target=lambda: done.setdefault("code", worker.run()))
        thread.start()
        try:
            time.sleep(0.5)
            assert thread.is_alive(), "worker drain-exited before any job was ever submitted"
            submitted = submit_experiment(client, "table1_config")
            thread.join(timeout=60)
            assert not thread.is_alive() and done["code"] == 0
            view = client.job(submitted["id"])
            assert view["status"] == JOB_DONE and view["worker"] == "early"
        finally:
            worker.request_stop()
            thread.join(timeout=10)

    def test_worker_reports_job_failures(self, results_env, sweeps_env, service):
        svc, client = service(workers=1, external_only=True)
        bad = client.submit({"task": "sweep", "spec": "m22", "quick": True, "limit": 1})
        # Sabotage: the spec vanishes between submit and execution.
        (sweeps_env / "m22.toml").unlink()
        worker = Worker(
            port=svc.port, worker_id="w1", lease_ttl=30.0, jobs=1, once=True, verbose=False
        )
        assert worker.run() == 1
        view = client.job(bad["id"])
        assert view["status"] == JOB_FAILED and view["error_type"] == "ConfigError"


class TestWorkerCrashRecovery:
    def _worker_args(self, port, worker_id, lease_ttl="1"):
        return [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--server",
            f"127.0.0.1:{port}",
            "--lease-ttl",
            lease_ttl,
            "--jobs",
            "1",
            "--once",
            "--poll",
            "0.1",
            "--id",
            worker_id,
            "--quiet",
        ]

    def test_sigkill_mid_lease_requeues_and_second_worker_completes(
        self, results_env, service, monkeypatch
    ):
        """The satellite crash test: a worker dies holding a lease."""
        svc, client = service(workers=1, external_only=True)
        submitted = submit_experiment(client, "table1_config")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(REPO, "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        # The doomed worker claims, heartbeats, but never starts executing.
        env["REPRO_WORKER_HOLD_S"] = "120"
        doomed = subprocess.Popen(self._worker_args(svc.port, "doomed"), env=env, cwd=REPO)
        try:
            view = wait_until(
                lambda: (lambda v: v if v["worker"] == "doomed" else None)(
                    client.job(submitted["id"])
                ),
                message="the doomed worker to claim the job",
            )
            assert view["status"] == JOB_RUNNING and view["lease_expires_at"] > 0
        finally:
            doomed.send_signal(signal.SIGKILL)
            doomed.wait(timeout=30)
        # Heartbeats stopped: the supervisor reaps the lease and requeues.
        requeued = wait_until(
            lambda: (lambda v: v if v["status"] == JOB_SUBMITTED else None)(
                client.job(submitted["id"])
            ),
            message="the lease to expire and the job to requeue",
        )
        assert requeued["worker"] == "" and requeued["attempts"] == 1
        rescuer = Worker(
            port=svc.port, worker_id="rescuer", lease_ttl=30.0, jobs=1, once=True, verbose=False
        )
        assert rescuer.run() == 0
        final = client.job(submitted["id"])
        assert final["status"] == JOB_DONE and final["worker"] == "rescuer"
        assert final["attempts"] == 2  # the doomed claim burned attempt 1
        artifact = client.result(submitted["id"])["result"]["artifact"]
        with open(artifact, "rb") as f:
            rescued_bytes = f.read()
        # Byte-identical to the same job executed in a pristine tree.
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(results_env / "pristine"))
        orch = Orchestrator(jobs=1, verbose=False)
        ok, result, _, _ = execute_job("experiment", dict(final["spec"]), orch)
        assert ok
        with open(result["artifact"], "rb") as f:
            assert f.read() == rescued_bytes
