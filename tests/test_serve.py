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
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_RUNNING,
    JOB_SUBMITTED,
    JobRecord,
    RunJournal,
    read_journal,
)
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


def submit_experiment(client, name, seed=0, params=None):
    return client.submit(
        {"task": "experiment", "experiment": name, "params": params or {}, "seed": seed}
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

    def test_fifo_claim_order(self, tmp_path):
        root = str(tmp_path / "q")
        store = JobStore(root)
        first, second, third = (store.submit({"task": "bench", "n": n}) for n in range(3))
        assert store.claim().job_id == first.job_id
        # A restart re-enqueues the running job in its submission place,
        # ahead of the jobs queued after it.
        reopened = JobStore(root)
        order = [reopened.claim().job_id for _ in range(3)]
        assert order == [first.job_id, second.job_id, third.job_id]
        assert reopened.claim() is None

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
        # "Crash": drop the store with the job still running. A look at
        # the journal leaves it byte-identical.
        with open(store.path, "rb") as f:
            journal = f.read()
        assert read_journal(store.path).last_by_job()[record.job_id].status == JOB_RUNNING
        with open(store.path, "rb") as f:
            assert f.read() == journal
        recovered = JobStore(root)
        fresh = recovered.get(record.job_id)
        assert fresh.status == JOB_SUBMITTED and fresh.attempt == 1
        assert recovered.claim().job_id == record.job_id

    def test_reopens_a_journal_with_retired_fields(self, tmp_path):
        # Lines in the older format carry priority, worker, lease and tags
        # fields. They open; a running job under a still-live lease comes
        # back queued, and claims ignore the old priorities.
        now = time.time()

        def record(job_id, status, **fields):
            line = JobRecord(job_id, "experiment", status, fingerprint=f"fp-{job_id}").to_json()
            line.update(priority=0, worker="", lease_ttl=0.0, lease_expires_at=0.0, tags=[])
            line.update(fields)
            return line

        lines = [
            {"kind": "header", "schema": 1, "queue": "repro-serve", "compactions": 1},
            record("done1", JOB_DONE, worker="w1", result={"text": "t"}, elapsed_s=0.5),
            record("leased", JOB_SUBMITTED),
            record("leased", JOB_RUNNING, worker="w2", lease_ttl=60.0, lease_expires_at=now + 3600),
            record("urgent", JOB_SUBMITTED, priority=9, tags=["gpu"]),
        ]
        root = tmp_path / "q"
        root.mkdir()
        (root / "jobs.jsonl").write_text("".join(json.dumps(line) + "\n" for line in lines))
        store = JobStore(str(root))
        assert store.get("done1").status == JOB_DONE
        assert store.find_completed("fp-done1").result == {"text": "t"}
        leased = store.get("leased")
        assert leased.status == JOB_SUBMITTED and leased.attempt == 1
        assert [store.claim().job_id for _ in range(2)] == ["leased", "urgent"]
        view = schema.job_view(store.get("urgent"))
        assert not {"priority", "worker", "lease_expires_at", "tags"} & set(view)

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
        view = read_journal(reopened.path)
        assert not view.truncated
        assert view.last_by_job()[record.job_id].status == JOB_RUNNING


class TestSubmissionSchema:
    def test_experiment_canonicalized(self):
        spec = schema.validate_submission({"task": "experiment", "experiment": "table1_config"})
        assert spec == {
            "task": "experiment",
            "experiment": "table1_config",
            "params": {},
            "seed": 0,
        }

    def test_sweep_canonicalized(self, results_env, sweeps_env):
        spec = schema.validate_submission({"task": "sweep", "spec": "m22"})
        assert spec == {"task": "sweep", "spec": "m22", "quick": False, "limit": None}

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
            (
                {"task": "experiment", "experiment": "table1_config", "priority": 1},
                "unknown submission field",
            ),
            ({"task": "sweep", "spec": "m22", "tags": ["gpu"]}, "unknown submission field"),
            ({"task": "sweep", "spec": "m22", "shards": 2}, "unknown submission field"),
            ({"task": "sweep", "spec": "m22", "shard": "1/2"}, "unknown submission field"),
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

    def test_sweep_job_and_fingerprint_dedup(self, results_env, service, sweeps_env, monkeypatch):
        from repro.eval import sweep as sweep_mod

        # Reference: the same sweep run directly, in a separate results tree.
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(results_env / "reference"))
        reference = sweep_mod.run_sweep(
            sweep_mod.load_spec("m22"), jobs=1, verbose=False
        ).document()
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(results_env))

        svc, client = service()
        view = client.submit({"task": "sweep", "spec": "m22", "quick": False})
        view = client.wait(view["id"], timeout=240)
        assert view["status"] == JOB_DONE
        result = client.result(view["id"])["result"]
        document = result["document"]
        with open(result["json_path"], encoding="utf-8") as f:
            assert document == json.load(f)  # the served document is the written one
        assert len(document["points"]) == 4
        assert document["counts"]["failed"] == 0
        assert sweep_mod.canonical_document(document) == sweep_mod.canonical_document(reference)
        again = client.submit({"task": "sweep", "spec": "m22"})
        assert again["status"] == JOB_DONE and again["cached"] is True
        assert client.result(again["id"])["result"]["document"] == document

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
        # Bad requests are 400 by error type, whatever the message says.
        for request in (
            lambda: client.submit({"task": "sweep", "spec": "release_notes"}),
            lambda: client.submit({"task": "experiment", "experiment": "lease_probe"}),
        ):
            with pytest.raises(ServiceError) as excinfo:
                request()
            assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nowhere")
        assert excinfo.value.status == 404
        # The worker-fleet and batch endpoints are gone.
        for path in (
            "/jobs/claim",
            "/jobs/submit_batch",
            "/jobs/status_batch",
            f"/jobs/{view['id']}/heartbeat",
        ):
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", path, {})
            assert excinfo.value.status == 404, path

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

    def test_malformed_content_length_is_a_400(self, service):
        svc, _ = service(start_executor=False)
        with socket.create_connection(("127.0.0.1", svc.port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/jobs HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                b"Content-Type: application/json\r\nContent-Length: abc\r\n\r\n"
            )
            reply = b""
            # The body cannot be framed, so the server answers and closes.
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400"), reply
        assert b"Connection: close" in head
        assert "Content-Length" in json.loads(body)["error"]
        assert svc.store.total() == 0

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
        # The queue was never opened: a live server on that port may own it,
        # and opening runs restart recovery.
        assert not (tmp_path / "q" / "jobs.jsonl").exists()


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
        jobs = read_journal(os.path.join(queue_dir, "jobs.jsonl")).last_by_job()
        assert jobs[a["id"]].status == JOB_DONE
        assert jobs[b["id"]].status == JOB_DONE


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

    def test_inapplicable_flags_are_exit_2(self, results_env, capsys):
        from repro.cli import main

        assert main(["jobs", "submit", "sweep", "m22", "--seed", "7"]) == 2
        assert "does not take --seed" in capsys.readouterr().err
        assert main(["jobs", "submit", "experiment", "table1_config", "--quick"]) == 2
        assert "does not take --quick" in capsys.readouterr().err
        assert main(["jobs", "submit", "experiment", "table1_config", "--limit", "3"]) == 2
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
