"""CLI: ``python -m repro {run,list,clean,bench,sweep,digest,serve,worker,jobs}``.

Examples::

    python -m repro list
    python -m repro run --jobs 4
    python -m repro run --only fig16_overall,fig17_breakdown --no-cache
    python -m repro run --tag paper --json
    python -m repro clean
    python -m repro bench --quick
    python -m repro bench --quick --compare benchmarks/baseline.json --threshold 1.25
    python -m repro sweep list
    python -m repro sweep show mac_policy
    python -m repro sweep run npu_scaling --jobs 4
    python -m repro sweep run npu_scaling --shard 1/2
    python -m repro sweep merge npu_scaling
    python -m repro digest --check benchmarks/artifact_digests.json
    python -m repro serve --port 8765 --workers 4
    python -m repro serve --external-only --autosplit 3
    python -m repro worker --server 127.0.0.1:8765 --lease-ttl 60 --once
    python -m repro jobs submit experiment fig16_overall --wait
    python -m repro jobs submit sweep mee_geometry --quick --shards 3
    python -m repro jobs status <id> / wait <id> / result <id> / cancel <id> / list

See EXPERIMENTS.md for the experiment catalogue, the sweep-spec format,
the bench JSON schema, and the service wire schema.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import sys
from typing import List, Optional, Sequence

from repro.errors import ConfigError, ServiceError
from repro.eval.orchestrator import Orchestrator, _execute_one, clean, derive_seed
from repro.eval.registry import REGISTRY


def _split_names(values: Sequence[str]) -> Optional[List[str]]:
    """Flatten repeated/comma-separated ``--only``/``--tag`` values."""
    names = [name.strip() for value in values for name in value.split(",")]
    names = [name for name in names if name]
    return names or None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's figures and tables (see EXPERIMENTS.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute experiments (parallel, cached)")
    run.add_argument(
        "--only",
        action="append",
        default=[],
        metavar="NAME[,NAME...]",
        help="run only these experiments (repeatable or comma-separated)",
    )
    run.add_argument(
        "--tag",
        action="append",
        default=[],
        metavar="TAG[,TAG...]",
        help="run only experiments carrying every given tag",
    )
    run.add_argument(
        "--jobs", "-j", type=int, default=None,
        help="worker processes (default: CPU count; 1 = in-process serial)",
    )
    run.add_argument(
        "--no-cache", action="store_true",
        help="always execute, and do not store new cache entries",
    )
    run.add_argument("--seed", type=int, default=0, help="run-level RNG seed")
    run.add_argument(
        "--json", action="store_true",
        help="print the manifest to stdout instead of progress lines",
    )
    run.add_argument(
        "--show-text", action="store_true",
        help="echo each rendered artifact (the legacy runner's output)",
    )
    run.add_argument("--quiet", "-q", action="store_true", help="no progress lines")

    lst = sub.add_parser("list", help="list registered experiments")
    lst.add_argument("--tag", action="append", default=[], metavar="TAG[,TAG...]")
    lst.add_argument("--json", action="store_true", help="machine-readable listing")

    cln = sub.add_parser("clean", help="remove rendered artifacts + manifest + cache")
    cln.add_argument(
        "--keep-cache", action="store_true", help="leave the result cache in place"
    )

    bench = sub.add_parser("bench", help="run the kernel, trace-replay and serve microbenchmarks")
    bench.add_argument(
        "--quick", action="store_true",
        help="smaller problem sizes and fewer repeats (CI smoke mode)",
    )
    bench.add_argument(
        "--json", metavar="PATH", default=None,
        help="report path (default: BENCH_<timestamp>.json in the cwd)",
    )
    bench.add_argument(
        "--only",
        action="append",
        default=[],
        metavar="NAME[,NAME...]",
        help="run only these benchmarks (repeatable or comma-separated)",
    )
    bench.add_argument(
        "--tag", action="append", default=[], metavar="TAG[,TAG...]",
        help="run only benchmarks carrying every given tag",
    )
    bench.add_argument(
        "--compare", metavar="BASELINE", default=None,
        help="compare medians against a previous BENCH json; regressions exit 1",
    )
    bench.add_argument(
        "--threshold", type=float, default=1.25,
        help="regression threshold for --compare (default: 1.25x slower)",
    )
    bench.add_argument("--list", action="store_true", help="list benchmarks and exit")
    bench.add_argument("--quiet", "-q", action="store_true", help="no progress lines")

    sweep = sub.add_parser("sweep", help="declarative parameter sweeps (sweeps/*.toml)")
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    sweep_run = sweep_sub.add_parser("run", help="expand a spec and run every point")
    sweep_run.add_argument("spec", help="spec name under sweeps/ or a TOML path")
    sweep_run.add_argument(
        "--jobs", "-j", type=int, default=None,
        help="worker processes (default: CPU count; 1 = in-process serial)",
    )
    sweep_run.add_argument(
        "--no-cache", action="store_true",
        help="always execute, and do not store new cache entries",
    )
    sweep_run.add_argument(
        "--quick", action="store_true",
        help="truncate every axis to its first two values (CI smoke shape)",
    )
    sweep_run.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="cap the expanded matrix at its first N points",
    )
    sweep_run.add_argument(
        "--shard", metavar="K/N", default=None,
        help="run only the K-th of N deterministic matrix slices "
        "(consolidate with `sweep merge`)",
    )
    sweep_run.add_argument(
        "--json", action="store_true",
        help="print the consolidated sweep document to stdout",
    )
    sweep_run.add_argument("--quiet", "-q", action="store_true", help="no progress lines")

    sweep_list = sweep_sub.add_parser("list", help="list shipped sweep specs")
    sweep_list.add_argument("--json", action="store_true", help="machine-readable listing")

    sweep_show = sweep_sub.add_parser("show", help="print a spec's expanded matrix")
    sweep_show.add_argument("spec", help="spec name under sweeps/ or a TOML path")
    sweep_show.add_argument("--quick", action="store_true", help="apply the --quick truncation")
    sweep_show.add_argument("--json", action="store_true", help="machine-readable matrix")

    sweep_merge = sweep_sub.add_parser(
        "merge", help="consolidate per-shard runs into sweep.json + sweep.csv"
    )
    sweep_merge.add_argument("spec", help="spec name under sweeps/ or a TOML path")
    sweep_merge.add_argument(
        "--json", action="store_true", help="print the merged document to stdout"
    )
    sweep_merge.add_argument("--quiet", "-q", action="store_true", help="no progress lines")

    serve = sub.add_parser(
        "serve", help="persistent job-queue service over the orchestrator"
    )
    serve.add_argument("--host", default=None, help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None, help="bind port (default: 8765)")
    serve.add_argument(
        "--workers", "-w", type=int, default=None,
        help="pool worker processes (default: CPU count; 1 = in-process)",
    )
    serve.add_argument(
        "--queue-dir", default=None, metavar="DIR",
        help="queue directory (default: <results>/queue)",
    )
    serve.add_argument(
        "--once", action="store_true",
        help="exit once at least one job was submitted and the queue has "
        "drained (headless CI mode)",
    )
    serve.add_argument(
        "--grace", type=float, default=5.0, metavar="SECONDS",
        help="idle time after the last request before --once exits (default: 5)",
    )
    serve.add_argument(
        "--external-only", action="store_true",
        help="never execute jobs in-process; only `repro worker` processes "
        "drain the queue (the server still merges sweep fan-outs)",
    )
    serve.add_argument(
        "--autosplit", type=int, default=1, metavar="N",
        help="fan sweep submissions out into N shard jobs by default "
        "(clamped to the matrix size; default: 1 = no fan-out)",
    )
    serve.add_argument(
        "--autosplit-min-seconds", type=float, default=0.0, metavar="SECONDS",
        help="size server-default fan-outs off the learned cost model: "
        "shrink the --autosplit width until every shard job carries at "
        "least this much predicted work (default: 0 = fixed width)",
    )
    serve.add_argument("--quiet", "-q", action="store_true", help="no request/job lines")

    worker = sub.add_parser(
        "worker", help="remote executor: claim jobs from a `repro serve` queue"
    )
    worker.add_argument(
        "--server", default=None, metavar="HOST:PORT",
        help="serve endpoint to pull from (default: 127.0.0.1:8765)",
    )
    worker.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS",
        help="lease length per claim; heartbeats renew it (default: 60)",
    )
    worker.add_argument(
        "--tags", action="append", default=[], metavar="TAG[,TAG...]",
        help="capabilities this worker offers (claims only jobs it covers)",
    )
    worker.add_argument(
        "--jobs", "-j", type=int, default=None,
        help="worker pool processes (default: CPU count; 1 = in-process serial)",
    )
    worker.add_argument(
        "--once", action="store_true",
        help="exit once a claim comes back empty and nothing is outstanding "
        "(fleet drain mode for CI)",
    )
    worker.add_argument(
        "--poll", type=float, default=0.2, metavar="SECONDS",
        help="nap between empty claims (default: 0.2)",
    )
    worker.add_argument(
        "--id", default=None, metavar="NAME",
        help="worker identity in leases and logs (default: <hostname>-<pid>)",
    )
    worker.add_argument("--quiet", "-q", action="store_true", help="no per-job lines")

    jobs = sub.add_parser("jobs", help="client for a running `repro serve`")
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)

    def client_flags(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument("--host", default=None, help="server address (default: 127.0.0.1)")
        sub_parser.add_argument("--port", type=int, default=None, help="server port (default: 8765)")
        sub_parser.add_argument("--json", action="store_true", help="machine-readable output")

    jobs_submit = jobs_sub.add_parser("submit", help="submit an experiment/sweep/bench job")
    jobs_submit.add_argument(
        "task",
        nargs="?",
        default=None,
        choices=("experiment", "sweep", "bench"),
        help="what kind of work to enqueue (omit with --batch-file)",
    )
    jobs_submit.add_argument(
        "target", nargs="?", default=None,
        help="experiment name or sweep spec (bench takes no target)",
    )
    jobs_submit.add_argument(
        "--params", metavar="JSON", default=None,
        help="experiment keyword overrides as a JSON object",
    )
    jobs_submit.add_argument("--seed", type=int, default=0, help="experiment run seed")
    jobs_submit.add_argument(
        "--quick", action="store_true", help="sweep/bench smoke shape (CI sizes)"
    )
    jobs_submit.add_argument(
        "--limit", type=int, default=None, metavar="N", help="cap a sweep matrix at N points"
    )
    jobs_submit.add_argument(
        "--only",
        action="append",
        default=[],
        metavar="NAME[,NAME...]",
        help="bench: run only these benchmarks",
    )
    jobs_submit.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="sweep: fan out into N shard jobs a worker fleet work-steals",
    )
    jobs_submit.add_argument(
        "--shard", metavar="K/N", default=None,
        help="sweep: submit only slice K of N (see `sweep run --shard`)",
    )
    jobs_submit.add_argument(
        "--priority", type=int, default=0, help="higher runs first (default: 0)"
    )
    jobs_submit.add_argument(
        "--wait", action="store_true", help="block until the job is terminal"
    )
    jobs_submit.add_argument(
        "--timeout", type=float, default=600.0, metavar="SECONDS",
        help="--wait deadline (default: 600)",
    )
    jobs_submit.add_argument(
        "--batch-file", metavar="FILE", default=None,
        help="submit every submission in FILE (a JSON array, or JSONL with "
        "one submission object per line) in a single batch round trip",
    )
    client_flags(jobs_submit)

    jobs_status = jobs_sub.add_parser("status", help="job status (and failure traceback)")
    jobs_status.add_argument(
        "id", nargs="*", default=[],
        help="job id(s) from `jobs submit`; several ids go out as one "
        "status batch round trip",
    )
    jobs_status.add_argument(
        "--all", action="store_true",
        help="every job the server knows, one round trip",
    )
    client_flags(jobs_status)

    jobs_wait = jobs_sub.add_parser("wait", help="block until a job is terminal")
    jobs_wait.add_argument("id", help="job id from `jobs submit`")
    jobs_wait.add_argument(
        "--timeout", type=float, default=600.0, metavar="SECONDS",
        help="give up (exit 2) after this long (default: 600)",
    )
    jobs_wait.add_argument(
        "--interval", type=float, default=0.2, metavar="SECONDS",
        help="poll interval (default: 0.2)",
    )
    client_flags(jobs_wait)

    jobs_result = jobs_sub.add_parser("result", help="a finished job's result payload")
    jobs_result.add_argument("id", help="job id from `jobs submit`")
    jobs_result.add_argument(
        "--text", action="store_true",
        help="print only the rendered artifact text (experiment jobs)",
    )
    client_flags(jobs_result)

    jobs_cancel = jobs_sub.add_parser("cancel", help="cancel a still-queued job")
    jobs_cancel.add_argument("id", help="job id from `jobs submit`")
    client_flags(jobs_cancel)

    jobs_list = jobs_sub.add_parser("list", help="every job the server knows about")
    client_flags(jobs_list)

    digest = sub.add_parser(
        "digest", help="SHA-256 digests of rendered artifacts (CI drift tripwire)"
    )
    digest_mode = digest.add_mutually_exclusive_group(required=True)
    digest_mode.add_argument(
        "--check", metavar="PATH", default=None,
        help="regenerate the file's experiments and fail on any digest drift",
    )
    digest_mode.add_argument(
        "--update", metavar="PATH", default=None,
        help="write current digests to PATH (keeps its experiment set unless --only)",
    )
    digest.add_argument(
        "--only",
        action="append",
        default=[],
        metavar="NAME[,NAME...]",
        help="with --update: record exactly these experiments; "
        "with --check: verify only this subset of the file",
    )
    return parser


def _selection(only_args: Sequence[str], tag_args: Sequence[str]):
    """Resolve --only/--tag into a non-empty experiment selection.

    A flag that was given but names nothing, and a tag set no experiment
    carries, both used to run the wrong thing silently (everything and
    nothing respectively); they are hard errors listing the valid names.
    """
    only = _split_names(only_args)
    tags = _split_names(tag_args)
    if only_args and only is None:
        raise ConfigError(
            f"--only given but empty; known experiments: {', '.join(REGISTRY.names())}"
        )
    if tag_args and tags is None:
        known_tags = sorted({t for s in REGISTRY.specs() for t in s.tags})
        raise ConfigError(f"--tag given but empty; known tags: {', '.join(known_tags)}")
    if not REGISTRY.select(only=only, tags=tags):
        known_tags = sorted({t for s in REGISTRY.specs() for t in s.tags})
        raise ConfigError(
            f"selection matches no experiments (only={only}, tags={tags}); "
            f"known experiments: {', '.join(REGISTRY.names())}; "
            f"known tags: {', '.join(known_tags)}"
        )
    return only, tags


def cmd_run(args: argparse.Namespace) -> int:
    only, tags = _selection(args.only, args.tag)
    orchestrator = Orchestrator(
        jobs=args.jobs,
        use_cache=not args.no_cache,
        run_seed=args.seed,
        verbose=not (args.quiet or args.json),
        show_text=args.show_text,
    )
    report = orchestrator.run(only=only, tags=tags)
    if args.json:
        json.dump(report.manifest(), sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0 if report.ok else 1


def cmd_list(args: argparse.Namespace) -> int:
    _, tags = _selection([], args.tag)
    specs = REGISTRY.select(tags=tags)
    if args.json:
        listing = [
            {
                "name": s.name,
                "module": s.module,
                "tags": list(s.tags),
                "cost": s.cost,
                "description": s.description,
                "params": s.param_schema(),
            }
            for s in specs
        ]
        json.dump(listing, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    width = max((len(s.name) for s in specs), default=0)
    for spec in specs:
        tags = ",".join(spec.tags)
        print(f"{spec.name:<{width}}  [{spec.cost}] ({tags}) {spec.description}")
    return 0


def cmd_clean(args: argparse.Namespace) -> int:
    for path in clean(remove_cache=not args.keep_cache):
        print(f"removed {path}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf.harness import compare_reports, run_benchmarks, validate_report
    from repro.perf.registry import BENCH_REGISTRY

    specs = BENCH_REGISTRY.select(only=_split_names(args.only), tags=_split_names(args.tag))
    if args.list:
        width = max((len(s.name) for s in specs), default=0)
        for spec in specs:
            print(f"{spec.name:<{width}}  ({','.join(spec.tags)}) {spec.description}")
        return 0
    if not specs:
        print("error: no benchmarks selected", file=sys.stderr)
        return 2
    progress = None if args.quiet else lambda line: print(line, flush=True)
    report = run_benchmarks(specs, quick=args.quick, progress=progress)
    problems = validate_report(report)
    if problems:
        for problem in problems:
            print(f"error: invalid report: {problem}", file=sys.stderr)
        return 2
    path = args.json
    if path is None:
        stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
        path = f"BENCH_{stamp}.json"
    try:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write report {path!r}: {exc}") from exc
    if not args.quiet:
        print(f"report: {path}")
    if args.compare is not None:
        try:
            with open(args.compare, "r", encoding="utf-8") as f:
                baseline = json.load(f)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read baseline {args.compare!r}: {exc}") from exc
        lines, regressions = compare_reports(report, baseline, threshold=args.threshold)
        for line in lines:
            print(line)
        if regressions:
            print(
                f"{len(regressions)} regression(s) beyond {args.threshold:.2f}x",
                file=sys.stderr,
            )
            return 1
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.eval import sweep as sweep_mod

    if args.sweep_command == "list":
        names = sweep_mod.available_specs()
        if args.json:
            listing = []
            for name in names:
                spec = sweep_mod.load_spec(name)
                listing.append(
                    {
                        "name": spec.name,
                        "experiment": spec.experiment,
                        "mode": spec.mode,
                        "points": spec.n_points(),
                        "description": spec.description,
                    }
                )
            json.dump(listing, sys.stdout, indent=2)
            sys.stdout.write("\n")
            return 0
        if not names:
            print(f"no sweep specs under {sweep_mod.sweeps_dir()}")
            return 0
        width = max(len(n) for n in names)
        for name in names:
            spec = sweep_mod.load_spec(name)
            print(
                f"{name:<{width}}  {spec.experiment} [{spec.mode}] "
                f"{spec.n_points()} points — {spec.description}"
            )
        return 0

    spec = sweep_mod.load_spec(args.spec)
    if args.sweep_command == "merge":
        document, json_path, csv_path = sweep_mod.merge_shards(
            spec, verbose=not (args.quiet or args.json)
        )
        if args.json:
            json.dump(document, sys.stdout, indent=2)
            sys.stdout.write("\n")
        elif not args.quiet:
            print(f"sweep: {json_path}\ncsv:   {csv_path}")
        return 0 if document["counts"]["failed"] == 0 else 1

    if args.sweep_command == "show":
        points = sweep_mod.expand(spec, quick=args.quick)
        if args.json:
            matrix = [
                {"point": p.point_id, "index": p.index, "coords": p.coords}
                for p in points
            ]
            json.dump(
                {"sweep": spec.name, "experiment": spec.experiment, "points": matrix},
                sys.stdout,
                indent=2,
                default=repr,
            )
            sys.stdout.write("\n")
            return 0
        print(f"sweep {spec.name}: {spec.experiment} [{spec.mode}], {len(points)} points")
        for point in points:
            print(f"  {point.index:3d}  {point.point_id}")
        return 0

    result = sweep_mod.run_sweep(
        spec,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        quick=args.quick,
        limit=args.limit,
        verbose=not (args.quiet or args.json),
        shard=sweep_mod.parse_shard(args.shard) if args.shard else None,
    )
    if args.json:
        json.dump(result.document(), sys.stdout, indent=2)
        sys.stdout.write("\n")
    elif not args.quiet:
        print()
        print(result.table())
        print(f"\nsweep: {result.json_path}\ncsv:   {result.csv_path}")
    return 0 if result.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import schema as serve_schema
    from repro.serve.server import build_service

    if args.host is None:
        args.host = serve_schema.DEFAULT_HOST
    if args.port is None:
        args.port = serve_schema.DEFAULT_PORT
    if args.grace < 0:
        raise ConfigError(f"--grace must be >= 0, got {args.grace}")
    return build_service(args).run()


def cmd_worker(args: argparse.Namespace) -> int:
    from repro.serve import schema as serve_schema
    from repro.serve.worker import build_worker

    if args.server is None:
        args.server = f"{serve_schema.DEFAULT_HOST}:{serve_schema.DEFAULT_PORT}"
    if args.lease_ttl is None:
        args.lease_ttl = serve_schema.DEFAULT_LEASE_TTL
    if args.lease_ttl <= 0:
        raise ConfigError(f"--lease-ttl must be > 0, got {args.lease_ttl}")
    if args.poll <= 0:
        raise ConfigError(f"--poll must be > 0, got {args.poll}")
    args.tags = _split_names(args.tags) or []
    return build_worker(args).run()


def _reject_flags(task: str, given: dict) -> None:
    """Refuse `jobs submit` flags the chosen task would silently ignore."""
    offending = sorted(flag for flag, used in given.items() if used)
    if offending:
        raise ConfigError(
            f"jobs submit {task} does not take {', '.join(offending)}; "
            "see `python -m repro jobs submit --help`"
        )


def _submission_payload(args: argparse.Namespace) -> dict:
    """Build the wire submission from `jobs submit` arguments."""
    payload: dict = {"task": args.task, "priority": args.priority}
    sharding = {"--shards": args.shards is not None, "--shard": args.shard is not None}
    if args.task == "experiment":
        if not args.target:
            raise ConfigError("jobs submit experiment needs an experiment name")
        _reject_flags(
            "experiment",
            {
                "--quick": args.quick,
                "--limit": args.limit is not None,
                "--only": bool(args.only),
                **sharding,
            },
        )
        params = {}
        if args.params is not None:
            try:
                params = json.loads(args.params)
            except ValueError as exc:
                raise ConfigError(f"--params is not valid JSON: {exc}") from exc
            if not isinstance(params, dict):
                raise ConfigError(f"--params must be a JSON object, got {args.params!r}")
        payload.update({"experiment": args.target, "params": params, "seed": args.seed})
    elif args.task == "sweep":
        if not args.target:
            raise ConfigError("jobs submit sweep needs a spec name")
        _reject_flags(
            "sweep",
            {
                "--params": args.params is not None,
                "--seed": args.seed != 0,
                "--only": bool(args.only),
            },
        )
        payload.update({"spec": args.target, "quick": args.quick, "limit": args.limit})
        if args.shards is not None:
            payload["shards"] = args.shards
        if args.shard is not None:
            payload["shard"] = args.shard
    else:  # bench
        if args.target:
            raise ConfigError(
                f"jobs submit bench takes no target (got {args.target!r}); "
                "use --only NAME[,NAME...] to subset"
            )
        _reject_flags(
            "bench",
            {
                "--params": args.params is not None,
                "--seed": args.seed != 0,
                "--limit": args.limit is not None,
                **sharding,
            },
        )
        payload.update({"quick": args.quick, "only": _split_names(args.only)})
    return payload


def _load_batch_file(path: str) -> list:
    """Parse a `jobs submit --batch-file`: a JSON array, or JSONL lines."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read --batch-file {path!r}: {exc}") from exc
    stripped = text.lstrip()
    if not stripped:
        raise ConfigError(f"--batch-file {path!r} is empty")
    if stripped.startswith("["):
        try:
            entries = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"--batch-file {path!r} is not valid JSON: {exc}") from exc
        if not isinstance(entries, list):
            raise ConfigError(f"--batch-file {path!r} must hold a JSON array of submissions")
        return entries
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            entries.append(json.loads(line))
        except ValueError as exc:
            raise ConfigError(
                f"--batch-file {path!r} line {lineno} is not valid JSON: {exc}"
            ) from exc
    return entries


def _entry_is_error(view: dict) -> bool:
    """Whether a batch answer entry is a rejection, not a job view."""
    return "error" in view and "status" not in view


def _submit_batch(client, args: argparse.Namespace) -> int:
    """`jobs submit --batch-file`: one round trip for the whole file."""
    from repro.serve import schema as serve_schema

    if args.task is not None:
        raise ConfigError(
            "jobs submit --batch-file takes no positional task; "
            "each file entry names its own"
        )
    _reject_flags(
        "--batch-file",
        {
            "--params": args.params is not None,
            "--seed": args.seed != 0,
            "--quick": args.quick,
            "--limit": args.limit is not None,
            "--only": bool(args.only),
            "--shards": args.shards is not None,
            "--shard": args.shard is not None,
            "--priority": args.priority != 0,
        },
    )
    answer = client.submit_batch(_load_batch_file(args.batch_file))
    if args.wait:
        answer["jobs"] = [
            view
            if _entry_is_error(view) or serve_schema.view_is_terminal(view)
            else client.wait(view["id"], timeout=args.timeout)
            for view in answer["jobs"]
        ]
    rc = 0 if answer["rejected"] == 0 else 1
    for view in answer["jobs"]:
        if not _entry_is_error(view) and view["status"] not in ("submitted", "running", "done"):
            rc = 1
    if args.json:
        json.dump(answer, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return rc
    for index, view in enumerate(answer["jobs"]):
        if _entry_is_error(view):
            print(f"entry {view.get('index', index)}: error — {view['error']}", file=sys.stderr)
        else:
            _print_job(view, False)
    print(f"{answer['accepted']} accepted, {answer['rejected']} rejected")
    return rc


def _status_batch(client, args: argparse.Namespace) -> int:
    """`jobs status` with several ids or --all: one round trip."""
    answer = (
        client.status_batch(all_jobs=True) if args.all else client.status_batch(ids=args.id)
    )
    rc = 0
    for view in answer["jobs"]:
        if _entry_is_error(view):
            rc = 2
    if args.json:
        json.dump(answer, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return rc
    if not answer["jobs"]:
        print("no jobs")
        return rc
    for view in answer["jobs"]:
        if _entry_is_error(view):
            print(f"job {view['id']}: error — {view['error']}", file=sys.stderr)
        else:
            _print_job(view, False)
    return rc


def _print_job(view: dict, as_json: bool) -> None:
    if as_json:
        json.dump(view, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return
    line = (
        f"job {view['id']}: {view['task']} [{view['status']}]"
        f"{' (cached)' if view.get('cached') else ''}"
    )
    if view.get("error_type"):
        line += f" — {view['error_type']}"
    print(line)
    if view.get("error"):
        print(view["error"], end="" if str(view["error"]).endswith("\n") else "\n")


def cmd_jobs(args: argparse.Namespace) -> int:
    from repro.serve import schema as serve_schema
    from repro.serve.client import ServeClient

    client = ServeClient(
        host=args.host or serve_schema.DEFAULT_HOST,
        port=args.port or serve_schema.DEFAULT_PORT,
    )
    if args.jobs_command == "submit":
        if args.batch_file is not None:
            return _submit_batch(client, args)
        if args.task is None:
            raise ConfigError(
                "jobs submit needs a task (experiment, sweep, or bench) or --batch-file"
            )
        view = client.submit(_submission_payload(args))
        if args.wait and not serve_schema.view_is_terminal(view):
            view = client.wait(view["id"], timeout=args.timeout)
        _print_job(view, args.json)
        return 0 if view["status"] in ("submitted", "running", "done") else 1
    if args.jobs_command == "status":
        if args.all and args.id:
            raise ConfigError("jobs status takes ids or --all, not both")
        if not args.all and not args.id:
            raise ConfigError("jobs status needs at least one job id (or --all)")
        if args.all or len(args.id) > 1:
            return _status_batch(client, args)
        _print_job(client.job(args.id[0]), args.json)
        return 0
    if args.jobs_command == "wait":
        view = client.wait(args.id, timeout=args.timeout, interval=args.interval)
        _print_job(view, args.json)
        return 0 if view["status"] == "done" else 1
    if args.jobs_command == "result":
        view = client.result(args.id)
        if args.text:
            result = view.get("result") or {}
            if "text" not in result:
                raise ServiceError(f"job {args.id} has no artifact text (task {view['task']!r})")
            sys.stdout.write(result["text"])
            return 0 if view["status"] == "done" else 1
        json.dump(view, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0 if view["status"] == "done" else 1
    if args.jobs_command == "cancel":
        _print_job(client.cancel(args.id), args.json)
        return 0
    # list
    views = client.jobs()
    if args.json:
        json.dump({"jobs": views}, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    if not views:
        print("no jobs")
        return 0
    for view in views:
        cached = " (cached)" if view.get("cached") else ""
        print(
            f"{view['id']}  {view['task']:<10} {view['status']:<9}"
            f" p{view['priority']}{cached}"
        )
    return 0


def artifact_digest(name: str) -> str:
    """SHA-256 of one experiment's freshly rendered artifact file bytes.

    Executes outside the result cache with the orchestrator's seed
    derivation and applies ``save_result``'s trailing-newline
    normalization, so the digest matches ``sha256sum results/<name>.txt``
    after a ``repro run`` byte for byte.
    """
    record = _execute_one(name, derive_seed(0, name), {})
    artifact_bytes = (record["text"].rstrip() + "\n").encode("utf-8")
    return hashlib.sha256(artifact_bytes).hexdigest()


def cmd_digest(args: argparse.Namespace) -> int:
    path = args.check or args.update
    only = _split_names(args.only)
    if args.update:
        names = only
        if names is None:
            try:
                with open(path, "r", encoding="utf-8") as f:
                    names = sorted(json.load(f).get("experiments", {}))
            except (OSError, ValueError):
                raise ConfigError(
                    f"cannot read {path!r} to keep its experiment set; "
                    "pass --only NAME[,NAME...] to choose one"
                ) from None
        digests = {name: artifact_digest(REGISTRY.get(name).name) for name in names}
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"schema": 1, "experiments": digests}, f, indent=2, sort_keys=True)
            f.write("\n")
        for name, value in sorted(digests.items()):
            print(f"{name}: {value}")
        print(f"wrote {path}")
        return 0
    try:
        with open(path, "r", encoding="utf-8") as f:
            recorded = json.load(f)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read digest file {path!r}: {exc}") from exc
    expected = recorded.get("experiments", {})
    if not expected:
        raise ConfigError(f"digest file {path!r} records no experiments")
    if only:
        unknown = sorted(set(only) - set(expected))
        if unknown:
            raise ConfigError(
                f"--only names not in {path!r}: {unknown}; "
                f"recorded: {sorted(expected)}"
            )
        expected = {name: expected[name] for name in only}
    drifted = []
    for name in sorted(expected):
        actual = artifact_digest(REGISTRY.get(name).name)
        if actual == expected[name]:
            print(f"{name}: ok ({actual[:16]}…)")
        else:
            drifted.append(name)
            print(f"{name}: DRIFT expected {expected[name]} got {actual}")
    if drifted:
        print(
            f"{len(drifted)} artifact(s) drifted: {', '.join(drifted)}\n"
            f"refresh with: python -m repro digest --update {path}",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "run": cmd_run,
        "list": cmd_list,
        "clean": cmd_clean,
        "bench": cmd_bench,
        "sweep": cmd_sweep,
        "digest": cmd_digest,
        "serve": cmd_serve,
        "worker": cmd_worker,
        "jobs": cmd_jobs,
    }[args.command]
    try:
        return handler(args)
    except (ConfigError, ServiceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
