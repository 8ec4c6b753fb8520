"""The ``repro serve`` job-queue service: store, schema, HTTP API, CLI.

The end-to-end tests run a real :class:`JobService` on an ephemeral port
and drive it through :class:`ServeClient` / ``repro jobs``; the
kill/restart test SIGKILLs an actual server subprocess mid-queue and
asserts a restarted server resumes the journaled jobs.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.errors import ConfigError, ServiceError
from repro.eval.journal import (
    CRASH_EXIT_CODE,
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_RUNNING,
    JOB_SUBMITTED,
    JobRecord,
    RunJournal,
    read_journal,
)
from repro.eval.orchestrator import Orchestrator, PointRequest
from repro.eval.registry import REGISTRY, ExperimentRegistry, experiment
from repro.serve import schema
from repro.serve.client import ServeClient
from repro.serve.server import JobService
from repro.serve.store import JobStore

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

M22_TOML = """
[sweep]
name = "m22"
experiment = "mac_policy"

[[sweep.axes]]
param = "granule_bytes"
values = [64, 256]

[[sweep.axes]]
param = "policy"
values = ["eager", "delayed"]

[[sweep.metrics]]
name = "perf"
path = "perf_overhead"
"""


@pytest.fixture
def results_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    return tmp_path


@pytest.fixture
def sweeps_env(tmp_path, monkeypatch):
    root = tmp_path / "sweep-specs"
    root.mkdir()
    (root / "m22.toml").write_text(M22_TOML)
    monkeypatch.setenv("REPRO_SWEEPS_DIR", str(root))
    return root


@pytest.fixture
def temp_experiment():
    """Inject a throwaway experiment into the global registry."""
    injected = []

    def inject(name, func, render=None):
        registry = ExperimentRegistry()
        experiment(name, render=render, registry=registry)(func)
        REGISTRY.load_all()
        REGISTRY._specs[name] = registry._specs[name]
        injected.append(name)
        return REGISTRY._specs[name]

    yield inject
    for name in injected:
        REGISTRY._specs.pop(name, None)


@pytest.fixture
def service(results_env):
    """Start JobService instances on ephemeral ports; closes them all."""
    started = []

    def start(**kwargs):
        kwargs.setdefault("workers", 1)
        kwargs.setdefault("verbose", False)
        svc = JobService(host="127.0.0.1", port=0, **kwargs)
        svc.start()
        started.append(svc)
        return svc, ServeClient(port=svc.port)

    yield start
    for svc in started:
        svc.close()


def free_port():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def submit_experiment(client, name, priority=0, seed=0, params=None):
    return client.submit(
        {
            "task": "experiment",
            "experiment": name,
            "params": params or {},
            "seed": seed,
            "priority": priority,
        }
    )


class TestJobJournal:
    def test_job_records_round_trip(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        journal = RunJournal.start(path, {"queue": "repro-serve"})
        a = JobRecord(
            job_id="a1",
            task="experiment",
            status=JOB_SUBMITTED,
            spec={"task": "experiment", "experiment": "x"},
            priority=2,
            fingerprint="f" * 20,
            submitted_at=1.0,
            ts=1.0,
        )
        b = JobRecord(
            job_id="a1",
            task="experiment",
            status=JOB_FAILED,
            error="Traceback...\nboom\n",
            error_type="RuntimeError",
            elapsed_s=0.25,
            ts=2.0,
        )
        journal.append_job(a)
        journal.append_job(b)
        view = read_journal(path)
        assert [r.status for r in view.jobs] == [JOB_SUBMITTED, JOB_FAILED]
        assert view.jobs[0] == a
        assert view.last_by_job() == {"a1": b}
        assert not view.jobs[0].terminal and view.jobs[1].terminal

    def test_roundtrip_and_resume_marker(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = RunJournal.start(path, {"queue": "q"})
        a = JobRecord(job_id="a", task="bench", status=JOB_SUBMITTED, ts=1.0)
        b = JobRecord(job_id="b", task="bench", status=JOB_FAILED, error="boom\n", ts=2.0)
        journal.append_job(a)
        journal.append_job(b)
        RunJournal.attach(path)
        view = read_journal(path)
        assert view.header["queue"] == "q"
        assert view.jobs == [a, b]
        assert view.resumes == 1
        assert not view.truncated

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = RunJournal.start(path, {"queue": "q"})
        record = JobRecord(job_id="a", task="bench", status=JOB_DONE)
        journal.append_job(record)
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"kind": "job", "job_id": "torn')  # crash mid-write
        view = read_journal(path)
        assert view.truncated
        assert view.jobs == [record]

    def test_attach_after_torn_tail_keeps_later_records_visible(self, tmp_path):
        # Regression: reopening over a crash-torn final line must not fuse
        # the partial line with the resume marker — that single garbage
        # line would hide every later record from the reader.
        path = str(tmp_path / "j.jsonl")
        journal = RunJournal.start(path, {"queue": "q"})
        durable = JobRecord(job_id="ok", task="bench", status=JOB_DONE)
        journal.append_job(durable)
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"kind": "job", "job_id": "torn')  # no newline: torn
        reopened = RunJournal.attach(path)
        after = JobRecord(job_id="after", task="bench", status=JOB_SUBMITTED)
        reopened.append_job(after)
        view = read_journal(path)
        assert not view.truncated  # the torn tail was truncated away
        assert view.resumes == 1
        assert view.jobs == [durable, after]

    def test_malformed_job_line_is_skipped_not_fatal(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = RunJournal.start(path, {"queue": "q"})
        good = JobRecord(job_id="good", task="bench", status=JOB_DONE)
        journal.append_job(good)
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"kind": "job", "job_id": "no-required-fields"}\n')
        journal.append_job(JobRecord(job_id="late", task="bench", status=JOB_DONE))
        view = read_journal(path)
        assert view.malformed == 1
        assert [r.job_id for r in view.jobs] == ["good", "late"]

    def test_missing_journal_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="no journal"):
            read_journal(str(tmp_path / "absent.jsonl"))

    def test_start_truncates_previous_run(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = RunJournal.start(path, {"queue": "old"})
        journal.append_job(JobRecord(job_id="a", task="bench", status=JOB_DONE))
        RunJournal.start(path, {"queue": "new"})
        view = read_journal(path)
        assert view.header["queue"] == "new"
        assert view.jobs == []


class TestJobStore:
    def test_lifecycle_and_reopen(self, tmp_path):
        root = str(tmp_path / "q")
        store = JobStore(root)
        record = store.submit({"task": "bench", "quick": True, "only": None}, fingerprint="fp1")
        assert record.status == JOB_SUBMITTED
        claimed = store.claim()
        assert claimed.job_id == record.job_id and claimed.status == JOB_RUNNING
        done = store.finish(record.job_id, JOB_DONE, result={"report": 1}, elapsed_s=0.5)
        assert done.terminal and store.claim() is None
        assert store.counts() == {JOB_DONE: 1}
        # Reopen: the journal alone reconstructs the queue.
        fresh = JobStore(root)
        again = fresh.get(record.job_id)
        assert again.status == JOB_DONE and again.result == {"report": 1}
        assert fresh.find_completed("fp1").job_id == record.job_id
        assert fresh.find_completed("other") is None

    def test_priority_then_fifo_claim_order(self, tmp_path):
        store = JobStore(str(tmp_path / "q"))
        low1 = store.submit({"task": "bench"}, priority=0)
        high = store.submit({"task": "bench"}, priority=5)
        low2 = store.submit({"task": "bench"}, priority=0)
        order = [store.claim().job_id for _ in range(3)]
        assert order == [high.job_id, low1.job_id, low2.job_id]

    def test_invalid_transitions(self, tmp_path):
        store = JobStore(str(tmp_path / "q"))
        record = store.submit({"task": "bench"})
        with pytest.raises(ConfigError, match="not running"):
            store.finish(record.job_id, JOB_DONE)
        store.claim()
        with pytest.raises(ConfigError, match="only queued jobs"):
            store.cancel(record.job_id)
        store.finish(record.job_id, JOB_FAILED, error="boom", error_type="RuntimeError")
        with pytest.raises(ConfigError, match="only queued jobs"):
            store.cancel(record.job_id)
        with pytest.raises(ConfigError, match="unknown job id"):
            store.get("nope")

    def test_cancel_pending(self, tmp_path):
        store = JobStore(str(tmp_path / "q"))
        record = store.submit({"task": "bench"})
        assert store.cancel(record.job_id).status == JOB_CANCELLED
        assert store.claim() is None

    def test_restart_requeues_running_jobs(self, tmp_path):
        root = str(tmp_path / "q")
        store = JobStore(root)
        record = store.submit({"task": "bench"})
        store.claim()
        # "Crash": drop the store with the job still running.
        peek = JobStore(root, recover=False)
        assert peek.get(record.job_id).status == JOB_RUNNING
        recovered = JobStore(root)
        fresh = recovered.get(record.job_id)
        assert fresh.status == JOB_SUBMITTED and fresh.attempt == 1
        assert recovered.claim().job_id == record.job_id

    def test_torn_tail_is_survived(self, tmp_path):
        root = str(tmp_path / "q")
        store = JobStore(root)
        record = store.submit({"task": "bench"})
        with open(store.path, "a", encoding="utf-8") as f:
            f.write('{"kind": "job", "torn...')
        reopened = JobStore(root)
        assert reopened.get(record.job_id).status == JOB_SUBMITTED
        # The torn tail was truncated away; new appends stay parseable.
        reopened.claim()
        assert JobStore(root, recover=False).get(record.job_id).status == JOB_RUNNING


class TestSubmissionSchema:
    def test_experiment_canonicalized(self):
        spec, priority = schema.validate_submission(
            {"task": "experiment", "experiment": "table1_config", "priority": 3}
        )
        assert spec == {
            "task": "experiment",
            "experiment": "table1_config",
            "params": {},
            "seed": 0,
        }
        assert priority == 3

    def test_sweep_and_bench_canonicalized(self, results_env, sweeps_env):
        spec, _ = schema.validate_submission({"task": "sweep", "spec": "m22"})
        assert spec == {"task": "sweep", "spec": "m22", "quick": False, "limit": None}
        spec, _ = schema.validate_submission({"task": "bench", "only": ["crypto.mac_fold"]})
        assert spec == {"task": "bench", "quick": True, "only": ["crypto.mac_fold"]}

    @pytest.mark.parametrize(
        "payload, match",
        [
            ("nope", "must be a JSON object"),
            ({"task": "mystery"}, "'task' must be one of"),
            ({"task": "experiment"}, "needs an 'experiment' name"),
            ({"task": "experiment", "experiment": "nope"}, "unknown experiment"),
            (
                {"task": "experiment", "experiment": "table1_config", "params": 7},
                "'params' must be a JSON object",
            ),
            (
                {"task": "experiment", "experiment": "table1_config", "seed": "x"},
                "'seed' must be an integer",
            ),
            (
                {"task": "experiment", "experiment": "table1_config", "extra": 1},
                "unknown submission field",
            ),
            ({"task": "sweep"}, "needs a 'spec' name"),
            ({"task": "sweep", "spec": "no-such-sweep"}, "no sweep spec"),
            ({"task": "sweep", "spec": "m22", "limit": 0}, "'limit' must be positive"),
            ({"task": "sweep", "spec": "m22", "quick": 1}, "'quick' must be a boolean"),
            ({"task": "bench", "only": "crypto.mac_fold"}, "must be a list"),
            ({"task": "bench", "only": ["nope"]}, "unknown benchmark"),
            ({"task": "bench", "priority": None}, "'priority' must be an integer"),
        ],
    )
    def test_rejected_submissions(self, results_env, sweeps_env, payload, match):
        with pytest.raises(ConfigError, match=match):
            schema.validate_submission(payload)

    def test_fingerprint_keys_on_spec_and_source(self):
        spec_a = {"task": "experiment", "experiment": "x", "params": {}, "seed": 0}
        spec_b = {"seed": 0, "params": {}, "experiment": "x", "task": "experiment"}
        assert schema.fingerprint(spec_a, "d1") == schema.fingerprint(spec_b, "d1")
        assert schema.fingerprint(spec_a, "d1") != schema.fingerprint(spec_a, "d2")
        assert schema.fingerprint({**spec_a, "seed": 1}, "d1") != schema.fingerprint(spec_a, "d1")


class TestPersistentPool:
    def test_pool_is_reused_across_batches(self, results_env):
        points = [
            PointRequest(experiment="table1_config", label="pool/a"),
            PointRequest(experiment="fig03_adam_slowdown", label="pool/b"),
        ]
        with Orchestrator(jobs=2, use_cache=False, verbose=False, persistent_pool=True) as orch:
            orch.run_points(points, write_manifest=False, save_artifacts=False)
            first_pool = orch._pool
            assert first_pool is not None
            orch.run_points(
                [PointRequest(experiment="table1_config", label="pool/c")],
                write_manifest=False,
                save_artifacts=False,
            )
            # The single-point batch ran on the same warm pool, not inline
            # and not on a throwaway executor.
            assert orch._pool is first_pool
        assert orch._pool is None  # the context manager shut it down

    def test_broken_pool_is_recycled(self, results_env):
        orch = Orchestrator(jobs=2, verbose=False, persistent_pool=True)
        pool = orch._ensure_pool()
        orch._pool_broken = True
        fresh = orch._ensure_pool()
        assert fresh is not pool and orch._pool_broken is False
        orch.shutdown_pool()

    def test_priority_orders_execution(self, results_env, temp_experiment):
        executed = []

        def probe(label: str = "") -> str:
            executed.append(label)
            return label

        temp_experiment("prio-probe", probe)
        points = [
            PointRequest(
                experiment="prio-probe", params={"label": label}, label=label, priority=priority
            )
            for label, priority in (("prio/low", 0), ("prio/high", 5), ("prio/mid", 1))
        ]
        orch = Orchestrator(jobs=1, use_cache=False, verbose=False)
        orch.run_points(points, write_manifest=False, save_artifacts=False)
        assert executed == ["prio/high", "prio/mid", "prio/low"]


class TestServiceEndToEnd:
    def test_experiment_roundtrip_and_cache_hit(self, service):
        svc, client = service(workers=2)
        first = submit_experiment(client, "table1_config")
        assert first["status"] == JOB_SUBMITTED and first["cached"] is False
        first = client.wait(first["id"], timeout=120)
        assert first["status"] == JOB_DONE
        first_result = client.result(first["id"])["result"]
        assert first_result["status"] == "executed"
        # Resubmission: answered at submit time, straight from the cache.
        second = submit_experiment(client, "table1_config")
        assert second["status"] == JOB_DONE and second["cached"] is True
        second_result = client.result(second["id"])["result"]
        assert second_result["text"] == first_result["text"]
        with open(second_result["artifact"], encoding="utf-8") as f:
            assert f.read() == first_result["text"].rstrip() + "\n"
        # A different seed is different work: queued, not cached.
        third = submit_experiment(client, "table1_config", seed=7)
        assert third["cached"] is False

    def test_failed_job_reports_worker_traceback(self, service, temp_experiment):
        def explode():
            raise RuntimeError("meltdown in the worker")

        temp_experiment("serve_explode", explode)
        svc, client = service()
        view = submit_experiment(client, "serve_explode")
        view = client.wait(view["id"], timeout=60)
        assert view["status"] == JOB_FAILED
        assert view["error_type"] == "RuntimeError"
        assert "meltdown in the worker" in view["error"]
        assert "Traceback" in view["error"]
        result = client.result(view["id"])
        assert result["status"] == JOB_FAILED and result["result"] is None

    def test_sweep_job_and_fingerprint_dedup(self, service, sweeps_env):
        svc, client = service()
        view = client.submit({"task": "sweep", "spec": "m22", "quick": False})
        view = client.wait(view["id"], timeout=240)
        assert view["status"] == JOB_DONE
        document = client.result(view["id"])["result"]["document"]
        assert len(document["points"]) == 4
        assert document["counts"]["failed"] == 0
        again = client.submit({"task": "sweep", "spec": "m22"})
        assert again["status"] == JOB_DONE and again["cached"] is True
        assert client.result(again["id"])["result"]["document"] == document

    def test_bench_job(self, service):
        svc, client = service()
        view = client.submit({"task": "bench", "only": ["crypto.mac_fold"], "quick": True})
        view = client.wait(view["id"], timeout=240)
        assert view["status"] == JOB_DONE
        report = client.result(view["id"])["result"]["report"]
        assert [b["name"] for b in report["benchmarks"]] == ["crypto.mac_fold"]

    def test_cancel_and_http_errors(self, service):
        svc, client = service(start_executor=False)
        view = submit_experiment(client, "table1_config")
        cancelled = client.cancel(view["id"])
        assert cancelled["status"] == JOB_CANCELLED
        with pytest.raises(ServiceError) as excinfo:
            client.cancel(view["id"])
        assert excinfo.value.status == 409
        with pytest.raises(ServiceError) as excinfo:
            client.result(submit_experiment(client, "fig03_adam_slowdown")["id"])
        assert excinfo.value.status == 409 and "not ready" in str(excinfo.value)
        with pytest.raises(ServiceError) as excinfo:
            client.job("doesnotexist")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"task": "mystery"})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nowhere")
        assert excinfo.value.status == 404

    def test_keepalive_connection_survives_bodied_cancel(self, service):
        import http.client

        svc, client = service(start_executor=False)
        view = submit_experiment(client, "table1_config")
        conn = http.client.HTTPConnection("127.0.0.1", svc.port, timeout=10)
        try:
            # A client that POSTs a body to /cancel must not desync the
            # persistent connection: the next request on the same socket
            # has to parse cleanly.
            conn.request(
                "POST",
                f"/v1/jobs/{view['id']}/cancel",
                body=b"{}",
                headers={"Content-Type": "application/json"},
            )
            first = conn.getresponse()
            assert first.status == 200
            assert json.loads(first.read())["status"] == JOB_CANCELLED
            conn.request("GET", "/v1/health")
            second = conn.getresponse()
            assert second.status == 200
            assert json.loads(second.read())["status"] == "ok"
        finally:
            conn.close()

    def test_unexpected_handler_error_is_a_500(self, service):
        svc, client = service(start_executor=False)
        svc.submit = lambda payload: (_ for _ in ()).throw(RuntimeError("handler bug"))
        with pytest.raises(ServiceError) as excinfo:
            submit_experiment(client, "table1_config")
        assert excinfo.value.status == 500
        assert "internal error" in str(excinfo.value) and "handler bug" in str(excinfo.value)

    def test_executor_survives_store_errors(self, service):
        svc, client = service()
        real_claim = svc.store.claim
        blown = threading.Event()

        def claim_once_broken():
            if not blown.is_set():
                blown.set()
                raise OSError("journal fsync failed")
            return real_claim()

        svc.store.claim = claim_once_broken
        view = submit_experiment(client, "table1_config")
        assert client.wait(view["id"], timeout=120)["status"] == JOB_DONE

    def test_attempts_count_only_real_executions(self, service):
        svc, client = service(start_executor=False)
        queued = submit_experiment(client, "table1_config")
        assert queued["attempts"] == 0
        cancelled = client.cancel(queued["id"])
        assert cancelled["attempts"] == 0  # never ran
        svc2, client2 = service()
        ran = submit_experiment(client2, "fig03_adam_slowdown", seed=3)
        assert client2.wait(ran["id"], timeout=120)["attempts"] == 1
        cached = submit_experiment(client2, "fig03_adam_slowdown", seed=3)
        assert cached["cached"] is True and cached["attempts"] == 0

    def test_malformed_body_is_a_400(self, service):
        svc, client = service(start_executor=False)
        request = urllib.request.Request(
            client.base_url + "/jobs", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert "not valid JSON" in body["error"]

    def test_health_and_list(self, service):
        svc, client = service(start_executor=False)
        submit_experiment(client, "table1_config")
        health = client.health()
        assert health["status"] == "ok" and health["jobs"] == 1
        assert health["counts"] == {JOB_SUBMITTED: 1}
        listing = client.jobs()
        assert len(listing) == 1 and listing[0]["task"] == "experiment"

    def test_restart_resumes_pending_jobs(self, results_env, tmp_path):
        queue_dir = str(tmp_path / "queue")
        first = JobService(
            port=0, workers=1, verbose=False, queue_dir=queue_dir, start_executor=False
        )
        first.start()
        client = ServeClient(port=first.port)
        a = submit_experiment(client, "table1_config")
        b = submit_experiment(client, "fig03_adam_slowdown")
        first.close()
        second = JobService(port=0, workers=1, verbose=False, queue_dir=queue_dir)
        second.start()
        try:
            client = ServeClient(port=second.port)
            assert client.wait(a["id"], timeout=120)["status"] == JOB_DONE
            assert client.wait(b["id"], timeout=120)["status"] == JOB_DONE
        finally:
            second.close()

    def test_once_drains_and_exits(self, results_env, tmp_path):
        svc = JobService(
            port=0,
            workers=1,
            verbose=False,
            queue_dir=str(tmp_path / "queue"),
            once=True,
            grace=0.2,
        )
        exit_code = {}
        thread = threading.Thread(target=lambda: exit_code.setdefault("rc", svc.run()))
        thread.start()
        client = ServeClient(port=svc.port)
        view = submit_experiment(client, "table1_config")
        assert client.wait(view["id"], timeout=120)["status"] == JOB_DONE
        thread.join(timeout=60)
        assert not thread.is_alive() and exit_code["rc"] == 0

    def test_shutdown_endpoint_stops_run(self, results_env, tmp_path):
        svc = JobService(port=0, workers=1, verbose=False, queue_dir=str(tmp_path / "q"))
        exit_code = {}
        thread = threading.Thread(target=lambda: exit_code.setdefault("rc", svc.run()))
        thread.start()
        client = ServeClient(port=svc.port)
        assert client.shutdown()["status"] == "stopping"
        thread.join(timeout=60)
        assert not thread.is_alive() and exit_code["rc"] == 0

    def test_port_already_bound_is_config_error(self, results_env, tmp_path):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        port = blocker.getsockname()[1]
        try:
            with pytest.raises(ConfigError, match="cannot bind"):
                JobService(port=port, verbose=False, queue_dir=str(tmp_path / "q"))
        finally:
            blocker.close()


class TestKillAndRestart:
    def test_sigkill_mid_queue_then_restart_completes(self, tmp_path):
        """The acceptance crash test, against a real server process."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(REPO, "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        env["REPRO_RESULTS_DIR"] = str(tmp_path)
        queue_dir = str(tmp_path / "queue")
        port = free_port()
        env_paused = dict(env, REPRO_SERVE_NO_EXECUTOR="1")
        args = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            str(port),
            "--queue-dir",
            queue_dir,
            "--workers",
            "1",
            "--quiet",
        ]
        server = subprocess.Popen(args, env=env_paused, cwd=REPO)
        try:
            client = ServeClient(port=port)
            for _ in range(100):
                try:
                    client.health()
                    break
                except ServiceError:
                    time.sleep(0.1)
            a = submit_experiment(client, "table1_config")
            b = submit_experiment(client, "fig03_adam_slowdown")
            assert client.job(a["id"])["status"] == JOB_SUBMITTED
        finally:
            server.send_signal(signal.SIGKILL)
            server.wait(timeout=30)
        restarted = subprocess.run(
            args + ["--once", "--grace", "0.2"], env=env, cwd=REPO, timeout=240
        )
        assert restarted.returncode == 0
        store = JobStore(queue_dir, recover=False)
        assert store.get(a["id"]).status == JOB_DONE
        assert store.get(b["id"]).status == JOB_DONE


class TestJobsCli:
    def test_server_not_running_is_exit_2(self, results_env, capsys):
        from repro.cli import main

        port = str(free_port())
        assert main(["jobs", "status", "someid", "--port", port]) == 2
        err = capsys.readouterr().err
        assert "cannot reach repro serve" in err and "Traceback" not in err

    def test_unknown_job_id_is_exit_2(self, service, capsys):
        from repro.cli import main

        svc, _ = service(start_executor=False)
        assert main(["jobs", "status", "nope", "--port", str(svc.port)]) == 2
        assert "unknown job id" in capsys.readouterr().err

    def test_malformed_params_json_is_exit_2(self, results_env, capsys):
        from repro.cli import main

        code = main(["jobs", "submit", "experiment", "table1_config", "--params", "{oops"])
        assert code == 2
        assert "--params is not valid JSON" in capsys.readouterr().err

    def test_params_must_be_an_object(self, results_env, capsys):
        from repro.cli import main

        code = main(["jobs", "submit", "experiment", "table1_config", "--params", "[1]"])
        assert code == 2
        assert "must be a JSON object" in capsys.readouterr().err

    def test_missing_targets_are_exit_2(self, results_env, capsys):
        from repro.cli import main

        assert main(["jobs", "submit", "experiment"]) == 2
        assert "needs an experiment name" in capsys.readouterr().err
        assert main(["jobs", "submit", "sweep"]) == 2
        assert "needs a spec name" in capsys.readouterr().err
        assert main(["jobs", "submit", "bench", "oops"]) == 2
        assert "takes no target" in capsys.readouterr().err

    def test_inapplicable_flags_are_exit_2(self, results_env, capsys):
        from repro.cli import main

        assert main(["jobs", "submit", "sweep", "m22", "--seed", "7"]) == 2
        assert "does not take --seed" in capsys.readouterr().err
        assert main(["jobs", "submit", "experiment", "table1_config", "--quick"]) == 2
        assert "does not take --quick" in capsys.readouterr().err
        assert main(["jobs", "submit", "bench", "--limit", "3"]) == 2
        assert "does not take --limit" in capsys.readouterr().err

    def test_submit_wait_status_result_list(self, service, capsys):
        from repro.cli import main

        svc, _ = service(workers=1)
        port = str(svc.port)
        code = main(
            ["jobs", "submit", "experiment", "table1_config", "--port", port, "--wait", "--json"]
        )
        assert code == 0
        view = json.loads(capsys.readouterr().out)
        assert view["status"] == JOB_DONE
        assert main(["jobs", "status", view["id"], "--port", port]) == 0
        assert "[done]" in capsys.readouterr().out
        assert main(["jobs", "wait", view["id"], "--port", port]) == 0
        capsys.readouterr()
        assert main(["jobs", "result", view["id"], "--port", port, "--text"]) == 0
        text = capsys.readouterr().out
        assert "Table 1" in text or text.strip()
        assert main(["jobs", "list", "--port", port]) == 0
        assert view["id"] in capsys.readouterr().out

    def test_cancel_and_failed_wait_exit_codes(self, service, capsys, temp_experiment):
        from repro.cli import main

        def explode():
            raise RuntimeError("cli sees the traceback")

        temp_experiment("serve_cli_explode", explode)
        svc, client = service(start_executor=False)
        port = str(svc.port)
        pending = submit_experiment(client, "table1_config")
        assert main(["jobs", "cancel", pending["id"], "--port", port]) == 0
        assert "[cancelled]" in capsys.readouterr().out
        assert main(["jobs", "wait", pending["id"], "--port", port]) == 1
        capsys.readouterr()
        svc2, client2 = service()
        failing = submit_experiment(client2, "serve_cli_explode")
        assert main(["jobs", "wait", failing["id"], "--port", str(svc2.port)]) == 1
        out = capsys.readouterr().out
        assert "RuntimeError" in out and "cli sees the traceback" in out

    def test_wait_timeout_is_exit_2(self, service, capsys):
        from repro.cli import main

        svc, client = service(start_executor=False)
        pending = submit_experiment(client, "table1_config")
        code = main(["jobs", "wait", pending["id"], "--port", str(svc.port), "--timeout", "0.3"])
        assert code == 2
        assert "timed out" in capsys.readouterr().err

    def test_serve_once_cli_roundtrip(self, results_env, tmp_path):
        from repro.cli import main

        port = free_port()
        rc = {}
        thread = threading.Thread(
            target=lambda: rc.setdefault(
                "serve",
                main(
                    [
                        "serve",
                        "--port",
                        str(port),
                        "--once",
                        "--grace",
                        "0.2",
                        "--quiet",
                        "--workers",
                        "1",
                        "--queue-dir",
                        str(tmp_path / "queue"),
                    ]
                ),
            )
        )
        thread.start()
        client = ServeClient(port=port)
        for _ in range(100):
            try:
                client.health()
                break
            except ServiceError:
                time.sleep(0.1)
        view = submit_experiment(client, "table1_config")
        assert client.wait(view["id"], timeout=120)["status"] == JOB_DONE
        thread.join(timeout=120)
        assert not thread.is_alive() and rc["serve"] == 0

    def test_serve_negative_grace_is_exit_2(self, results_env, capsys):
        from repro.cli import main

        assert main(["serve", "--grace", "-1"]) == 2
        assert "--grace" in capsys.readouterr().err


class TestBatchSchema:
    def test_submit_batch_envelope(self):
        assert schema.validate_batch_jobs({"jobs": [{"task": "bench"}]}) == [{"task": "bench"}]
        with pytest.raises(ConfigError, match="JSON object"):
            schema.validate_batch_jobs([{"task": "bench"}])
        with pytest.raises(ConfigError, match="unknown batch field"):
            schema.validate_batch_jobs({"jobs": [], "oops": 1})
        with pytest.raises(ConfigError, match="non-empty 'jobs' list"):
            schema.validate_batch_jobs({"jobs": []})
        with pytest.raises(ConfigError, match="exceeds the limit"):
            schema.validate_batch_jobs({"jobs": [{}] * (schema.MAX_BATCH + 1)})

    def test_status_batch_body(self):
        assert schema.validate_batch_status({"ids": ["a", "b"]}) == (["a", "b"], False)
        assert schema.validate_batch_status({"all": True}) == ([], True)
        with pytest.raises(ConfigError, match="not both"):
            schema.validate_batch_status({"ids": ["a"], "all": True})
        with pytest.raises(ConfigError, match="non-empty 'ids' list"):
            schema.validate_batch_status({"ids": []})
        with pytest.raises(ConfigError, match="non-empty 'ids' list"):
            schema.validate_batch_status({})
        with pytest.raises(ConfigError, match="must be a boolean"):
            schema.validate_batch_status({"all": "yes"})
        with pytest.raises(ConfigError, match="unknown status batch field"):
            schema.validate_batch_status({"id": "a"})


class TestBatchEndpoints:
    def test_mixed_batch_rejects_only_bad_entries(self, service):
        svc, client = service(start_executor=False)
        answer = client.submit_batch(
            [
                {"task": "experiment", "experiment": "table1_config", "seed": 1},
                {"task": "mystery"},
                {"task": "experiment", "experiment": "table1_config", "seed": 2},
                {"task": "experiment", "experiment": "no_such_experiment"},
            ]
        )
        assert answer["accepted"] == 2 and answer["rejected"] == 2
        entries = answer["jobs"]
        assert entries[0]["status"] == JOB_SUBMITTED
        assert entries[1] == {"index": 1, "error": entries[1]["error"]}
        assert "mystery" in entries[1]["error"]
        assert entries[2]["status"] == JOB_SUBMITTED
        assert "no_such_experiment" in entries[3]["error"]
        # The rejected entries were never enqueued, let alone journaled.
        assert svc.store.total() == 2
        assert {r.job_id for r in svc.store.jobs()} == {entries[0]["id"], entries[2]["id"]}

    def test_batch_is_one_round_trip(self, service):
        svc, _ = service(start_executor=False)
        fresh = ServeClient(port=svc.port)
        batch = [
            {"task": "experiment", "experiment": "table1_config", "seed": seed}
            for seed in range(50)
        ]
        answer = fresh.submit_batch(batch)
        assert answer["accepted"] == 50
        assert fresh.requests == 1  # M jobs, O(1) HTTP round trips
        views = fresh.status_batch(ids=[v["id"] for v in answer["jobs"]])["jobs"]
        assert fresh.requests == 2
        assert [v["id"] for v in views] == [v["id"] for v in answer["jobs"]]

    def test_duplicate_fingerprints_in_batch_are_cached(self, service):
        svc, client = service(start_executor=False)
        body = {"task": "bench", "only": ["crypto.mac_fold"], "quick": True}
        first = client.submit(dict(body))
        claim = client.claim(worker="w1", lease_ttl=60.0)
        assert claim["job"]["id"] == first["id"]
        client.complete(first["id"], "w1", ok=True, result={"task": "bench", "report": {}})
        answer = client.submit_batch(
            [dict(body), {"task": "experiment", "experiment": "table1_config"}, dict(body)]
        )
        assert answer["accepted"] == 3 and answer["rejected"] == 0
        dup_a, unique, dup_b = answer["jobs"]
        assert dup_a["cached"] is True and dup_a["status"] == JOB_DONE
        assert dup_b["cached"] is True and dup_b["status"] == JOB_DONE
        assert unique["cached"] is False and unique["status"] == JOB_SUBMITTED
        assert client.result(dup_a["id"])["result"]["cached"] is True

    def test_batch_sweep_entry_fans_out(self, service, sweeps_env):
        svc, client = service(start_executor=False)
        answer = client.submit_batch(
            [
                {"task": "sweep", "spec": "m22", "shards": 2},
                {"task": "experiment", "experiment": "table1_config"},
            ]
        )
        assert answer["accepted"] == 2
        parent = answer["jobs"][0]
        assert len(parent["children"]) == 2
        assert svc.store.total() == 4  # parent + 2 shard children + experiment

    def test_status_batch_ids_all_and_unknown(self, service):
        svc, client = service(start_executor=False)
        submitted = client.submit_batch(
            [
                {"task": "experiment", "experiment": "table1_config", "seed": seed}
                for seed in range(3)
            ]
        )["jobs"]
        ids = [v["id"] for v in submitted]
        answer = client.status_batch(ids=[ids[0], "doesnotexist", ids[2]])
        views = answer["jobs"]
        assert views[0]["id"] == ids[0] and views[0]["status"] == JOB_SUBMITTED
        assert views[1] == {"id": "doesnotexist", "error": views[1]["error"]}
        assert "unknown job id" in views[1]["error"]
        assert views[2]["id"] == ids[2]
        everything = client.status_batch(all_jobs=True)
        assert [v["id"] for v in everything["jobs"]] == ids  # submission order
        assert everything["total"] == 3
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/jobs/status_batch", {"ids": [], "all": True})
        assert excinfo.value.status == 400

    def test_concurrent_claims_drain_batch_exactly_once(self, service):
        svc, client = service(start_executor=False)
        total = 40
        claimed = []
        stop = threading.Event()

        def hammer():
            worker = ServeClient(port=svc.port)
            while not stop.is_set():
                answer = worker.claim(worker="w", lease_ttl=120.0)
                if answer["job"] is not None:
                    claimed.append(answer["job"]["id"])
                elif len(claimed) >= total:
                    return

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            answer = client.submit_batch(
                [
                    {"task": "experiment", "experiment": "table1_config", "seed": seed}
                    for seed in range(total)
                ]
            )
            assert answer["accepted"] == total
            deadline = time.time() + 60
            while len(claimed) < total and time.time() < deadline:
                time.sleep(0.02)
        finally:
            stop.set()
            thread.join(timeout=30)
        # Every batch job was claimable and claimed exactly once — a
        # concurrent claimer saw none-or-all of the batch, never a
        # half-journaled prefix.
        assert sorted(claimed) == sorted(v["id"] for v in answer["jobs"])


class TestLiveCompaction:
    def churn(self, store, cycles):
        ids = []
        for i in range(cycles):
            record = store.submit({"task": "bench", "seed": i}, fingerprint=f"fp{i}")
            ids.append(record.job_id)
            store.claim()
            store.finish(record.job_id, JOB_DONE, result={"i": i})
        return ids

    def test_live_compaction_bounds_journal(self, tmp_path):
        root = str(tmp_path / "q")
        store = JobStore(root, compact_records=8)
        ids = self.churn(store, 20)
        view = read_journal(store.path)
        assert int(view.header.get("compactions", 0)) >= 1
        # 20 jobs x 3 transitions = 60 lines without compaction; the live
        # file stays bounded by max(threshold, 2 x queue size).
        assert len(view.jobs) <= max(store.compact_records, 2 * store.total())
        assert not os.path.exists(store.path + ".compact.tmp")
        reopened = JobStore(root, recover=False)
        assert [reopened.get(job_id).status for job_id in ids] == [JOB_DONE] * 20
        assert reopened.get(ids[-1]).result == {"i": 19}

    def test_compact_records_knobs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_COMPACT_RECORDS", "16")
        store = JobStore(str(tmp_path / "q"))
        assert store.compact_records == 16
        assert JobStore(str(tmp_path / "q2"), compact_records=64).compact_records == 64
        with pytest.raises(ConfigError, match="compact_records"):
            JobStore(str(tmp_path / "q3"), compact_records=1)

    def test_large_live_queue_is_not_thrashed(self, tmp_path):
        # All-live journals (no superseded lines) must never be rewritten,
        # even past the record threshold.
        store = JobStore(str(tmp_path / "q"), compact_records=4)
        for i in range(12):
            store.submit({"task": "bench", "seed": i})
        view = read_journal(store.path)
        assert int(view.header.get("compactions", 0)) == 0
        assert len(view.jobs) == 12

    def test_kill_during_compaction_loses_no_records(self, tmp_path):
        root = str(tmp_path / "queue")
        child = (
            "import sys\n"
            "from repro.serve.store import JobStore\n"
            "from repro.eval.journal import JOB_DONE\n"
            "store = JobStore(sys.argv[1], compact_records=8)\n"
            "for i in range(100):\n"
            "    record = store.submit({'task': 'bench', 'seed': i}, fingerprint=f'fp{i}')\n"
            "    print(record.job_id, flush=True)\n"
            "    store.claim()\n"
            "    store.finish(record.job_id, JOB_DONE, result={'i': i})\n"
            "print('NOCRASH', flush=True)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(REPO, "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        env["REPRO_STORE_CRASH_IN_COMPACT"] = "1"
        done = subprocess.run(
            [sys.executable, "-c", child, root],
            env=env,
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=120,
        )
        # The store hard-exited inside its first live compaction, after
        # the snapshot was durable but before the atomic swap.
        assert done.returncode == CRASH_EXIT_CODE, done.stderr
        printed = [line for line in done.stdout.split() if line != "NOCRASH"]
        assert printed and "NOCRASH" not in done.stdout
        store_path = os.path.join(root, "jobs.jsonl")
        assert os.path.exists(store_path + ".compact.tmp")
        # The journal itself is intact: every id the child announced is
        # still there (the crash can only have journaled one *extra*
        # un-announced record, never lost one).
        survivors = {r.job_id for r in read_journal(store_path).jobs}
        assert set(printed) <= survivors
        assert len(survivors) - len(set(printed)) <= 1
        store = JobStore(root)  # reopen: cleans the tmp, replays, compacts
        assert not os.path.exists(store_path + ".compact.tmp")
        for job_id in printed:
            assert store.get(job_id).status in (JOB_SUBMITTED, JOB_RUNNING, JOB_DONE)

    def test_listing_mid_compaction_sees_committed_state(self, tmp_path):
        # The `repro jobs list` regression: a listing racing a live
        # compaction must block on the store lock and then see the full
        # committed queue — never a half-written snapshot.
        store = JobStore(str(tmp_path / "q"), compact_records=10_000)
        ids = self.churn(store, 6)  # 18 lines, 6 jobs: plenty superseded
        paused = threading.Event()
        release = threading.Event()
        snapshot = store._write_snapshot

        def slow_snapshot(tmp, header):
            paused.set()
            assert release.wait(timeout=30)
            snapshot(tmp, header)

        store._write_snapshot = slow_snapshot
        compactor = threading.Thread(target=store._compact)
        compactor.start()
        assert paused.wait(timeout=30)
        try:
            # On-disk journal is still the old, complete one (the tmp
            # file is invisible to readers of jobs.jsonl).
            view = read_journal(store.path)
            assert {r.job_id for r in view.jobs} == set(ids)
            listing = {}
            lister = threading.Thread(target=lambda: listing.setdefault("jobs", store.jobs()))
            lister.start()
            lister.join(timeout=0.3)
            assert "jobs" not in listing  # blocked on committed state
        finally:
            release.set()
        compactor.join(timeout=30)
        lister.join(timeout=30)
        assert {r.job_id for r in listing["jobs"]} == set(ids)
        compacted = read_journal(store.path)
        assert len(compacted.jobs) == 6
        assert {r.job_id for r in compacted.jobs} == set(ids)

    def test_http_list_mid_compaction_is_complete(self, service):
        svc, client = service(start_executor=False)
        batch = client.submit_batch(
            [
                {"task": "experiment", "experiment": "table1_config", "seed": seed}
                for seed in range(5)
            ]
        )
        ids = {v["id"] for v in batch["jobs"]}
        for job_id in list(ids)[:3]:
            client.cancel(job_id)  # superseded lines so _compact has work
        store = svc.store
        paused = threading.Event()
        release = threading.Event()
        snapshot = store._write_snapshot

        def slow_snapshot(tmp, header):
            paused.set()
            assert release.wait(timeout=30)
            snapshot(tmp, header)

        store._write_snapshot = slow_snapshot
        compactor = threading.Thread(target=store._compact)
        compactor.start()
        assert paused.wait(timeout=30)
        listing = {}
        lister = threading.Thread(target=lambda: listing.setdefault("jobs", client.jobs()))
        lister.start()
        try:
            lister.join(timeout=0.3)
            assert "jobs" not in listing  # the GET is waiting, not guessing
        finally:
            release.set()
        compactor.join(timeout=30)
        lister.join(timeout=30)
        assert {v["id"] for v in listing["jobs"]} == ids


class TestServeLoadBenches:
    def test_family_is_registered(self):
        from repro.perf.registry import BENCH_REGISTRY

        names = [s.name for s in BENCH_REGISTRY.select(tags=["serve"])]
        assert names == [
            "serve.submit_unique",
            "serve.submit_cached",
            "serve.submit_batch",
            "serve.status_batch",
            "serve.claim_cycle",
            "serve.mixed_load",
        ]

    def test_submit_batch_bench_quick(self, results_env):
        from repro.perf.harness import run_spec
        from repro.perf.registry import BENCH_REGISTRY

        record = run_spec(BENCH_REGISTRY.get("serve.submit_batch"), quick=True)
        assert record["items"] == 16
        assert record["modes"]["vector"]["throughput_items_per_s"] > 0
        assert record["speedup"] is None

    def test_claim_cycle_bench_reports_latency(self, results_env):
        from repro.perf.harness import run_spec
        from repro.perf.registry import BENCH_REGISTRY

        record = run_spec(BENCH_REGISTRY.get("serve.claim_cycle"), quick=True)
        latency = record["extra"]["claim_latency"]
        assert latency["samples"] > 0
        assert 0 < latency["p50_s"] <= latency["p90_s"]


class TestJobsCliBatch:
    def test_batch_file_array_and_jsonl(self, service, tmp_path, capsys):
        from repro.cli import main

        svc, _ = service(start_executor=False)
        port = str(svc.port)
        array_file = tmp_path / "batch.json"
        array_file.write_text(
            json.dumps(
                [
                    {"task": "experiment", "experiment": "table1_config", "seed": 1},
                    {"task": "mystery"},
                ]
            )
        )
        assert main(["jobs", "submit", "--batch-file", str(array_file), "--port", port]) == 1
        captured = capsys.readouterr()
        assert "1 accepted, 1 rejected" in captured.out
        assert "entry 1: error" in captured.err and "mystery" in captured.err
        jsonl_file = tmp_path / "batch.jsonl"
        jsonl_file.write_text(
            '{"task": "experiment", "experiment": "table1_config", "seed": 2}\n'
            '{"task": "experiment", "experiment": "table1_config", "seed": 3}\n'
        )
        code = main(["jobs", "submit", "--batch-file", str(jsonl_file), "--port", port, "--json"])
        assert code == 0
        answer = json.loads(capsys.readouterr().out)
        assert answer["accepted"] == 2 and answer["rejected"] == 0
        assert svc.store.total() == 3

    def test_batch_file_misuse_is_exit_2(self, service, tmp_path, capsys):
        from repro.cli import main

        svc, _ = service(start_executor=False)
        port = str(svc.port)
        batch = tmp_path / "b.json"
        batch.write_text('[{"task": "bench"}]')
        code = main(["jobs", "submit", "bench", "--batch-file", str(batch), "--port", port])
        assert code == 2
        assert "no positional task" in capsys.readouterr().err
        code = main(["jobs", "submit", "--batch-file", str(batch), "--seed", "7", "--port", port])
        assert code == 2
        assert "--seed" in capsys.readouterr().err
        assert main(["jobs", "submit", "--port", port]) == 2
        assert "or --batch-file" in capsys.readouterr().err
        empty = tmp_path / "empty.json"
        empty.write_text("  \n")
        assert main(["jobs", "submit", "--batch-file", str(empty), "--port", port]) == 2
        assert "is empty" in capsys.readouterr().err
        torn = tmp_path / "torn.jsonl"
        torn.write_text('{"task": "bench"}\n{oops\n')
        assert main(["jobs", "submit", "--batch-file", str(torn), "--port", port]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_status_multi_id_and_all(self, service, capsys):
        from repro.cli import main

        svc, client = service(start_executor=False)
        port = str(svc.port)
        views = client.submit_batch(
            [
                {"task": "experiment", "experiment": "table1_config", "seed": seed}
                for seed in range(2)
            ]
        )["jobs"]
        a, b = views[0]["id"], views[1]["id"]
        assert main(["jobs", "status", a, b, "--port", port]) == 0
        out = capsys.readouterr().out
        assert a in out and b in out
        assert main(["jobs", "status", "--all", "--port", port]) == 0
        out = capsys.readouterr().out
        assert a in out and b in out
        # An unknown id among several is a per-entry error and exit 2.
        assert main(["jobs", "status", a, "nope", "--port", port]) == 2
        captured = capsys.readouterr()
        assert a in captured.out and "unknown job id" in captured.err
        assert main(["jobs", "status", a, "--all", "--port", port]) == 2
        assert "not both" in capsys.readouterr().err
        assert main(["jobs", "status", "--port", port]) == 2
        assert "at least one job id" in capsys.readouterr().err
