"""CLI: ``python -m repro {run,list,clean,sweep,digest,serve,jobs}``.

Examples::

    python -m repro list
    python -m repro run --jobs 4
    python -m repro run --only fig16_overall,fig17_breakdown --no-cache
    python -m repro run --tag paper --json
    python -m repro clean
    python -m repro sweep list
    python -m repro sweep show mac_policy
    python -m repro sweep run npu_scaling --jobs 4
    python -m repro digest --check benchmarks/artifact_digests.json
    python -m repro serve --port 8765 --workers 4
    python -m repro jobs submit experiment fig16_overall --wait
    python -m repro jobs submit sweep mee_geometry --quick
    python -m repro jobs status <id> / wait <id> / result <id> / cancel <id> / list

See EXPERIMENTS.md for the experiment catalogue, the sweep-spec format,
and the service wire schema.
"""

from __future__ import annotations

import argparse
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

    serve = sub.add_parser("serve", help="job-queue service over the orchestrator")
    serve.add_argument("--host", default=None, help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None, help="bind port (default: 8765)")
    serve.add_argument(
        "--workers", "-w", type=int, default=None,
        help="worker processes per job (default: CPU count; 1 = in-process)",
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
    serve.add_argument("--quiet", "-q", action="store_true", help="no request/job lines")

    jobs = sub.add_parser("jobs", help="client for a running `repro serve`")
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)

    def client_flags(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument("--host", default=None, help="server address (default: 127.0.0.1)")
        sub_parser.add_argument("--port", type=int, default=None, help="server port (default: 8765)")
        sub_parser.add_argument("--json", action="store_true", help="machine-readable output")

    jobs_submit = jobs_sub.add_parser("submit", help="submit an experiment or sweep job")
    jobs_submit.add_argument(
        "task", choices=("experiment", "sweep"), help="what kind of work to enqueue"
    )
    jobs_submit.add_argument(
        "target", nargs="?", default=None,
        help="experiment name or sweep spec",
    )
    jobs_submit.add_argument(
        "--params", metavar="JSON", default=None,
        help="experiment keyword overrides as a JSON object",
    )
    jobs_submit.add_argument("--seed", type=int, default=0, help="experiment run seed")
    jobs_submit.add_argument(
        "--quick", action="store_true", help="sweep smoke shape (CI sizes)"
    )
    jobs_submit.add_argument(
        "--limit", type=int, default=None, metavar="N", help="cap a sweep matrix at N points"
    )
    jobs_submit.add_argument(
        "--wait", action="store_true", help="block until the job is terminal"
    )
    jobs_submit.add_argument(
        "--timeout", type=float, default=600.0, metavar="SECONDS",
        help="--wait deadline (default: 600)",
    )
    client_flags(jobs_submit)

    jobs_status = jobs_sub.add_parser("status", help="job status (and failure traceback)")
    jobs_status.add_argument("id", help="job id from `jobs submit`")
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
    payload: dict = {"task": args.task}
    if args.task == "experiment":
        if not args.target:
            raise ConfigError("jobs submit experiment needs an experiment name")
        _reject_flags(
            "experiment",
            {
                "--quick": args.quick,
                "--limit": args.limit is not None,
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
    else:  # sweep
        if not args.target:
            raise ConfigError("jobs submit sweep needs a spec name")
        _reject_flags("sweep", {"--params": args.params is not None, "--seed": args.seed != 0})
        payload.update({"spec": args.target, "quick": args.quick, "limit": args.limit})
    return payload


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
        view = client.submit(_submission_payload(args))
        if args.wait and not serve_schema.view_is_terminal(view):
            view = client.wait(view["id"], timeout=args.timeout)
        _print_job(view, args.json)
        return 0 if view["status"] in ("submitted", "running", "done") else 1
    if args.jobs_command == "status":
        _print_job(client.job(args.id), args.json)
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
        print(f"{view['id']}  {view['task']:<10} {view['status']:<9}{cached}")
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
        "sweep": cmd_sweep,
        "digest": cmd_digest,
        "serve": cmd_serve,
        "jobs": cmd_jobs,
    }[args.command]
    try:
        return handler(args)
    except (ConfigError, ServiceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
