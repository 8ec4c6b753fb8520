"""The ``serve`` bench family: load generation against a live job queue.

Every bench here starts a real :class:`repro.serve.server.JobService` on
an ephemeral localhost port with a throwaway queue directory, drives it
over actual HTTP through :class:`repro.serve.client.ServeClient`, and
tears it down when its timing mode ends (via the workload ``close``
hook). What is measured is the serve hot path end to end — request
parsing, submission validation, the cache probe, and the fsynced journal
append — as jobs per second (the harness's ``throughput_items_per_s``
with one item per submission or claim).

The family's entries:

- ``serve.submit_unique`` / ``serve.submit_cached``: N concurrent
  submitter threads posting one job per request — the all-miss and
  all-hit extremes of the submit path;
- ``serve.submit_batch`` / ``serve.status_batch``: the batched wire
  endpoints, amortizing HTTP round trips and journal fsyncs
  (Cimple-style batching through the hot path);
- ``serve.claim_cycle``: a worker's claim→complete loop over a
  prefilled queue, recording claim latency p50/p90 into the record's
  ``extra`` field;
- ``serve.mixed_load``: concurrent submitters with a mixed cache-hit /
  cache-miss, experiment / sweep job mix plus status polling, sampling
  queue depth over time into ``extra``.

Executors are disabled (``start_executor=False``): submissions are never
run, so the benches time the service layer, not the workloads. Client
threads and server handler threads share one process (and one GIL) —
the numbers are a self-contained localhost load test, comparable against
the committed baseline on equal terms, not a distributed-throughput
claim.
"""

from __future__ import annotations

import itertools
import shutil
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional

from repro.perf.harness import BenchContext, _percentile
from repro.perf.registry import benchmark
from repro.serve.client import ServeClient
from repro.serve.server import JobService

#: Experiment every load bench submits; cheap to validate and always
#: registered (the bench never executes it).
_EXPERIMENT = "table1_config"

#: Sweep spec the mixed bench submits when the sweeps directory is
#: resolvable from the bench's working directory.
_SWEEP = "mee_geometry"

#: Body whose completed twin turns later duplicates into cache hits.
_CACHED_BODY = {"task": "bench", "only": ["crypto.mac_fold"], "quick": True}


class _Bench:
    """One throwaway serve deployment: server, temp queue, clients."""

    def __init__(self) -> None:
        self.queue_dir = tempfile.mkdtemp(prefix="repro-serve-bench-")
        self.service = JobService(
            queue_dir=self.queue_dir,
            host="127.0.0.1",
            port=0,
            workers=1,
            verbose=False,
            start_executor=False,
        )
        self.service.start()
        self._seeds = itertools.count(1)

    def client(self) -> ServeClient:
        return ServeClient(port=self.service.port)

    def unique_body(self) -> Dict[str, object]:
        """A submission no prior job fingerprints (fresh seed)."""
        return {"task": "experiment", "experiment": _EXPERIMENT, "seed": next(self._seeds)}

    def seed_cached(self, client: ServeClient) -> None:
        """Complete one bench job so duplicates of it are cache hits."""
        view = client.submit(dict(_CACHED_BODY))
        answer = client.claim(worker="bench-seeder", lease_ttl=300.0)
        job = answer["job"]
        if job is None or job["id"] != view["id"]:
            raise RuntimeError("serve bench setup could not claim its seed job")
        client.complete(job["id"], "bench-seeder", ok=True, result={"task": "bench"})
        probe = client.submit(dict(_CACHED_BODY))
        if not probe.get("cached"):
            raise RuntimeError("serve bench setup did not produce a cache hit")

    def close(self) -> None:
        self.service.close()
        shutil.rmtree(self.queue_dir, ignore_errors=True)


def _in_threads(tasks: List[Callable[[], None]]) -> None:
    """Run the callables concurrently; re-raise the first failure."""
    errors: List[BaseException] = []

    def guarded(task: Callable[[], None]) -> Callable[[], None]:
        def run() -> None:
            try:
                task()
            except BaseException as exc:  # surfaced to the harness caller
                errors.append(exc)

        return run

    threads = [threading.Thread(target=guarded(task)) for task in tasks]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _submitter_workload(
    ctx: BenchContext, body_for: Callable[[_Bench], Callable[[], Dict[str, object]]]
):
    """N submitter threads x M single submissions per timed call."""
    deployment = _Bench()
    submitters = 2 if ctx.quick else 4
    per_thread = ctx.n(16, 8)
    ctx.items = submitters * per_thread
    make_body = body_for(deployment)
    clients = [deployment.client() for _ in range(submitters)]

    def run() -> int:
        def submit_all(client: ServeClient) -> None:
            for _ in range(per_thread):
                client.submit(make_body())

        _in_threads([lambda c=client: submit_all(c) for client in clients])
        return ctx.items

    run.close = deployment.close
    return run


@benchmark("serve.submit_unique", tags=("serve", "wire"))
def bench_submit_unique(ctx: BenchContext):
    """Concurrent single-job submissions, all cache misses.

    Each request pays validate + fingerprint + cache probe + one
    fsynced journal append.
    """
    return _submitter_workload(ctx, lambda deployment: deployment.unique_body)


@benchmark("serve.submit_cached", tags=("serve", "wire"))
def bench_submit_cached(ctx: BenchContext):
    """Concurrent duplicate submissions served from the fingerprint cache.

    Every request is answered straight from a completed prior job.
    """

    def body_for(deployment: _Bench):
        deployment.seed_cached(deployment.client())
        return lambda: dict(_CACHED_BODY)

    return _submitter_workload(ctx, body_for)


@benchmark("serve.submit_batch", tags=("serve", "wire", "batch"))
def bench_submit_batch(ctx: BenchContext):
    """One submit_batch POST carrying M unique jobs.

    M submissions, one HTTP round trip, one journal fsync.
    """
    deployment = _Bench()
    batch = ctx.n(64, 16)
    ctx.items = batch
    client = deployment.client()

    def run() -> int:
        answer = client.submit_batch([deployment.unique_body() for _ in range(batch)])
        if answer["accepted"] != batch:
            raise RuntimeError(f"batch submit rejected {answer['rejected']} of {batch} jobs")
        return batch

    run.close = deployment.close
    return run


@benchmark("serve.status_batch", tags=("serve", "wire", "batch"))
def bench_status_batch(ctx: BenchContext):
    """One status_batch POST resolving every job on the server."""
    deployment = _Bench()
    jobs = ctx.n(64, 16)
    ctx.items = jobs
    client = deployment.client()
    answer = client.submit_batch([deployment.unique_body() for _ in range(jobs)])
    if answer["accepted"] != jobs:
        raise RuntimeError("status_batch bench could not prefill its queue")

    def run() -> int:
        views = client.status_batch(all_jobs=True)["jobs"]
        if len(views) != jobs:
            raise RuntimeError(f"status_batch answered {len(views)} of {jobs} jobs")
        return jobs

    run.close = deployment.close
    return run


@benchmark("serve.claim_cycle", tags=("serve", "wire"))
def bench_claim_cycle(ctx: BenchContext):
    """A worker's claim-complete cycle over a prefilled queue.

    Claim latency p50/p90 lands in the record's ``extra`` field.
    """
    deployment = _Bench()
    cycles = ctx.n(32, 8)
    ctx.items = cycles
    client = deployment.client()
    # Prefill enough pending jobs for every warmup + timed call.
    backlog = cycles * 16
    for start in range(0, backlog, 200):
        count = min(200, backlog - start)
        client.submit_batch([deployment.unique_body() for _ in range(count)])
    latencies: List[float] = []

    def run() -> int:
        for _ in range(cycles):
            began = time.perf_counter()
            answer = client.claim(worker="bench-worker", lease_ttl=300.0)
            latencies.append(time.perf_counter() - began)
            job = answer["job"]
            if job is None:
                raise RuntimeError("claim_cycle bench drained its prefilled queue")
            client.complete(job["id"], "bench-worker", ok=True, result={"task": "experiment"})
        ordered = sorted(latencies)
        ctx.extra["claim_latency"] = {
            "p50_s": _percentile(ordered, 0.5),
            "p90_s": _percentile(ordered, 0.9),
            "samples": len(ordered),
        }
        return cycles

    run.close = deployment.close
    return run


@benchmark("serve.mixed_load", tags=("serve", "wire"))
def bench_mixed_load(ctx: BenchContext):
    """Concurrent submitters mixing hits, misses, experiments, and sweeps.

    Each wave also polls status_batch; queue depth over time lands in
    the record's ``extra`` field.
    """
    deployment = _Bench()
    submitters = 2 if ctx.quick else 4
    waves = ctx.n(6, 3)
    ctx.items = submitters * waves * 3
    clients = [deployment.client() for _ in range(submitters)]
    deployment.seed_cached(clients[0])
    sweep_body: Optional[Dict[str, object]] = {"task": "sweep", "spec": _SWEEP}
    try:
        clients[0].submit(dict(sweep_body))
    except Exception:
        sweep_body = None  # no sweeps dir here; keep the mix all-experiment
    depth_lock = threading.Lock()

    def run() -> int:
        samples: List[List[float]] = []
        began = time.perf_counter()

        def drive(client: ServeClient) -> None:
            for _ in range(waves):
                miss = client.submit(deployment.unique_body())
                hit = client.submit(dict(_CACHED_BODY))
                third = client.submit(
                    dict(sweep_body) if sweep_body is not None else deployment.unique_body()
                )
                client.status_batch(ids=[miss["id"], hit["id"], third["id"]])
                health = client.health()
                counts = health.get("counts", {})
                depth = counts.get("submitted", 0) + counts.get("running", 0)
                with depth_lock:
                    samples.append([round(time.perf_counter() - began, 6), depth])
        _in_threads([lambda c=client: drive(c) for client in clients])
        depths = [depth for _, depth in samples]
        ctx.extra["queue_depth"] = {
            "samples": len(samples),
            "peak": max(depths),
            "final": samples[-1][1],
            "series": samples[:50],
        }
        return ctx.items

    run.close = deployment.close
    return run
