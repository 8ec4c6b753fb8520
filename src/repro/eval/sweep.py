"""Declarative parameter-sweep and scenario-matrix engine.

A *sweep spec* — a Python dict or a TOML file under ``sweeps/`` — names a
registered experiment, axes of parameter values, and the metrics to pull
out of each point's result summary::

    [sweep]
    name = "mac_policy"
    experiment = "mac_policy"
    mode = "grid"                      # or "zip"

    [[sweep.axes]]
    param = "granule_bytes"            # dotted paths reach dataclass fields
    values = [64, 256, 1024, 4096]

    [[sweep.axes]]
    param = "policy"
    values = ["eager", "delayed"]

    [[sweep.metrics]]
    name = "perf"
    path = "perf_overhead"             # dotted path into the summary

The engine expands the matrix (``grid`` = cross product in axis order,
``zip`` = position-wise), validates every point against the experiment's
introspected parameter schema, schedules all points through the
process-pool orchestrator — so points run in parallel and re-runs are
served from the content-hash cache — and consolidates the results into
``results/sweeps/<name>/sweep.json`` plus a ``sweep.csv`` table (one row
per point: axis values, status, metrics).

A sweep that failed or was interrupted is finished by running it again:
every point that completed was stored, fsynced, in the result cache and
replays from there, so only the missing points execute. ``--shard K/N``
runs one deterministic slice of the matrix and :func:`merge_shards`
consolidates the slices.

An axis ``param`` may use a dotted path (``config.meta_table_capacity``)
to sweep one field of a dataclass-typed parameter; the remaining fields
keep the experiment's default (or the spec's ``base`` override).
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import itertools
import json
import os
import re
import tomllib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.eval.orchestrator import (
    STATUS_CACHED,
    STATUS_EXECUTED,
    STATUS_FAILED,
    Orchestrator,
    PointRequest,
    RunReport,
)
from repro.eval.metrics import extract_metric
from repro.eval.registry import REGISTRY, ExperimentSpec, normalize_params
from repro.eval.tables import ascii_table, results_dir
from repro.schema import check_schema_version

#: ``sweep.json`` layout version; bump on breaking changes.
#: 1 -> 2: explicit ``schema_version`` field (readers refuse other versions
#: via :func:`repro.schema.check_schema_version` instead of KeyError-ing).
SWEEP_SCHEMA = 2

#: How to re-record a sweep document that fails the version check.
_SWEEP_REFRESH_HINT = "Re-run the sweep (`python -m repro sweep run <name>`)."

MODE_GRID = "grid"
MODE_ZIP = "zip"
MODES = (MODE_GRID, MODE_ZIP)

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


@dataclass(frozen=True)
class Axis:
    """One swept parameter (dotted path) and its values, in sweep order."""

    param: str
    values: Tuple[Any, ...]

    @property
    def short(self) -> str:
        """Column/point-id label: the last path segment."""
        return self.param.rpartition(".")[2]


@dataclass(frozen=True)
class MetricSpec:
    """One derived metric: a dotted path into the point's result summary."""

    name: str
    path: str


@dataclass(frozen=True)
class SweepSpec:
    """A validated sweep definition (see the module docstring)."""

    name: str
    experiment: str
    axes: Tuple[Axis, ...]
    mode: str = MODE_GRID
    base: Mapping[str, Any] = field(default_factory=dict)
    metrics: Tuple[MetricSpec, ...] = ()
    description: str = ""
    seed: int = 0

    def n_points(self) -> int:
        if self.mode == MODE_ZIP:
            return len(self.axes[0].values)
        count = 1
        for axis in self.axes:
            count *= len(axis.values)
        return count


@dataclass(frozen=True)
class SweepPoint:
    """One expanded matrix point, ready to schedule."""

    index: int
    point_id: str  #: "granule_bytes=64,policy=eager" (axis order)
    coords: Dict[str, Any]  #: axis param (full dotted path) -> value
    params: Dict[str, Any]  #: resolved ``run()`` keyword overrides


@dataclass(frozen=True)
class Shard:
    """One slice of a sweep matrix: shard ``index`` of ``count`` (1-based)."""

    index: int
    count: int

    @property
    def tag(self) -> str:
        """Directory name of this shard's output tree, e.g. ``1of4``."""
        return f"{self.index}of{self.count}"

    def as_dict(self) -> dict:
        return {"index": self.index, "count": self.count}


def parse_shard(text: str) -> Shard:
    """Parse a CLI ``K/N`` shard selector (1-based, ``1 <= K <= N``)."""
    match = re.match(r"^(\d+)/(\d+)$", text.strip())
    if not match:
        raise ConfigError(f"shard must look like K/N (e.g. 2/4), got {text!r}")
    index, count = int(match.group(1)), int(match.group(2))
    if count < 1 or not 1 <= index <= count:
        raise ConfigError(f"shard index must satisfy 1 <= K <= N, got {index}/{count}")
    return Shard(index=index, count=count)


def shard_points(points: Sequence[SweepPoint], shard: Optional[Shard]) -> List[SweepPoint]:
    """Deterministic round-robin partition of the expanded matrix.

    Point ``i`` belongs to shard ``(i % count) + 1``; the partition is a
    pure function of the expansion order, so any machine expanding the
    same spec computes the same disjoint, complete slices.
    """
    if shard is None:
        return list(points)
    return [p for p in points if p.index % shard.count == shard.index - 1]


# -- spec construction --------------------------------------------------------


def _slug(value: Any) -> str:
    text = str(value)
    return re.sub(r"[^A-Za-z0-9_.+-]", "-", text) or "none"


def spec_from_dict(raw: Mapping[str, Any], origin: str = "<dict>") -> SweepSpec:
    """Build and validate a :class:`SweepSpec` from a plain mapping.

    The mapping is the ``[sweep]`` table of the TOML layout; Python callers
    pass the same shape directly.
    """

    def fail(message: str) -> ConfigError:
        return ConfigError(f"sweep spec {origin}: {message}")

    if not isinstance(raw, Mapping):
        raise fail(f"expected a mapping, got {type(raw).__name__}")
    known_keys = {"name", "experiment", "mode", "base", "axes", "metrics", "description", "seed"}
    unknown = sorted(set(raw) - known_keys)
    if unknown:
        raise fail(f"unknown key(s) {unknown}; known: {sorted(known_keys)}")
    name = raw.get("name")
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise fail(f"'name' must be a filename-safe string, got {name!r}")
    experiment = raw.get("experiment")
    if not isinstance(experiment, str) or not experiment:
        raise fail("'experiment' must name a registered experiment")
    mode = raw.get("mode", MODE_GRID)
    if mode not in MODES:
        raise fail(f"'mode' must be one of {MODES}, got {mode!r}")
    base = raw.get("base", {})
    if not isinstance(base, Mapping):
        raise fail("'base' must be a table of parameter defaults")
    axes_raw = raw.get("axes")
    if not isinstance(axes_raw, Sequence) or not axes_raw:
        raise fail("'axes' must be a non-empty array of {param, values} tables")
    axes: List[Axis] = []
    for i, entry in enumerate(axes_raw):
        if not isinstance(entry, Mapping) or set(entry) != {"param", "values"}:
            raise fail(f"axes[{i}] must be a table with exactly 'param' and 'values'")
        param = entry["param"]
        values = entry["values"]
        if not isinstance(param, str) or not param:
            raise fail(f"axes[{i}].param must be a non-empty string")
        if not isinstance(values, Sequence) or isinstance(values, (str, bytes)) or not values:
            raise fail(f"axes[{i}].values must be a non-empty array")
        axes.append(Axis(param=param, values=tuple(values)))
    params = [axis.param for axis in axes]
    dupes = sorted({p for p in params if params.count(p) > 1})
    if dupes:
        raise fail(f"duplicate axis param(s) {dupes}")
    if mode == MODE_ZIP:
        lengths = {len(axis.values) for axis in axes}
        if len(lengths) > 1:
            raise fail(f"zip mode needs equal-length axes, got lengths {sorted(lengths)}")
    metrics_raw = raw.get("metrics", ())
    metrics: List[MetricSpec] = []
    if not isinstance(metrics_raw, Sequence):
        raise fail("'metrics' must be an array of {name, path} tables")
    for i, entry in enumerate(metrics_raw):
        if not isinstance(entry, Mapping) or set(entry) != {"name", "path"}:
            raise fail(f"metrics[{i}] must be a table with exactly 'name' and 'path'")
        if not entry["name"] or not entry["path"]:
            raise fail(f"metrics[{i}]: 'name' and 'path' must be non-empty")
        metrics.append(MetricSpec(name=str(entry["name"]), path=str(entry["path"])))
    metric_names = [m.name for m in metrics]
    if len(metric_names) != len(set(metric_names)):
        raise fail(f"duplicate metric name(s) in {metric_names}")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise fail(f"'seed' must be an integer, got {seed!r}")
    for axis in axes:
        slugs = [_slug(v) for v in axis.values]
        dupes = sorted({s for s in slugs if slugs.count(s) > 1})
        if dupes:
            raise fail(f"axis {axis.param!r} has duplicate values {dupes}")
    spec = SweepSpec(
        name=name,
        experiment=experiment,
        axes=tuple(axes),
        mode=mode,
        base=dict(base),
        metrics=tuple(metrics),
        description=str(raw.get("description", "")),
        seed=seed,
    )
    _validate_spec_params(spec)
    return spec


def _validate_spec_params(spec: SweepSpec) -> None:
    """Check base + every axis value against the experiment's schema.

    Per-value validation (O(sum of axis lengths)) gives the same name and
    scalar-type guarantees as expanding the whole matrix would, without
    materializing a potentially huge cross product just to parse a spec.
    """
    experiment = REGISTRY.get(spec.experiment)
    context = f"sweep {spec.name!r}"
    base_params: Dict[str, Any] = {}
    for param, value in spec.base.items():
        _apply_param(experiment, base_params, param, value, context)
    experiment.validate_params(base_params)
    for axis in spec.axes:
        for value in axis.values:
            point = dict(base_params)
            _apply_param(experiment, point, axis.param, value, context)
            experiment.validate_params(point)


def sweeps_dir() -> str:
    """The directory spec files live in (repo-level ``sweeps/``).

    ``REPRO_SWEEPS_DIR`` overrides it — tests and CI shards point it at
    scratch trees.
    """
    override = os.environ.get("REPRO_SWEEPS_DIR")
    if override:
        return override
    here = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.abspath(os.path.join(here, "..", "..", ".."))
    return os.path.join(repo, "sweeps")


def available_specs() -> List[str]:
    """Spec names shipped in :func:`sweeps_dir` (sorted, extension-less)."""
    root = sweeps_dir()
    if not os.path.isdir(root):
        return []
    return sorted(name[: -len(".toml")] for name in os.listdir(root) if name.endswith(".toml"))


def load_spec(ref: str) -> SweepSpec:
    """Load a spec from a TOML path or a name under :func:`sweeps_dir`."""
    candidates = [ref]
    if not ref.endswith(".toml"):
        candidates.append(os.path.join(sweeps_dir(), f"{ref}.toml"))
    path = next((c for c in candidates if os.path.isfile(c)), None)
    if path is None:
        known = ", ".join(available_specs()) or "(none)"
        raise ConfigError(f"no sweep spec {ref!r}; known specs: {known}")
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read sweep spec {path!r}: {exc}") from exc
    document = _loads_toml(text, origin=path)
    table = document.get("sweep")
    if not isinstance(table, dict):
        raise ConfigError(f"sweep spec {path!r}: missing [sweep] table")
    return spec_from_dict(table, origin=path)


def _loads_toml(text: str, origin: str) -> Dict[str, Any]:
    """Parse TOML via stdlib ``tomllib``; syntax errors name the spec file."""
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"cannot parse sweep spec {origin!r}: {exc}") from exc


# -- expansion ----------------------------------------------------------------


def _replace_field(owner: Any, path: str, value: Any, context: str) -> Any:
    """Return ``owner`` with the dotted ``path`` field replaced by ``value``."""
    if not dataclasses.is_dataclass(owner) or isinstance(owner, type):
        raise ConfigError(
            f"{context}: cannot reach {path!r} inside non-dataclass "
            f"{type(owner).__name__}"
        )
    head, _, rest = path.partition(".")
    names = {f.name for f in dataclasses.fields(owner)}
    if head not in names:
        raise ConfigError(
            f"{context}: {type(owner).__name__} has no field {head!r}; "
            f"fields: {sorted(names)}"
        )
    new = value if not rest else _replace_field(getattr(owner, head), rest, value, context)
    return dataclasses.replace(owner, **{head: new})


def _apply_param(
    spec: ExperimentSpec, params: Dict[str, Any], path: str, value: Any, context: str
) -> None:
    """Set one (possibly dotted) parameter path on a point's overrides."""
    head, _, rest = path.partition(".")
    if not rest:
        params[head] = value
        return
    owner = params.get(head, spec.default_of(head))
    params[head] = _replace_field(owner, rest, value, context=f"{context}: {path!r}")


def effective_axes(spec: SweepSpec, quick: bool = False) -> Tuple[Axis, ...]:
    """The axes a run actually sweeps (``quick`` keeps two values each)."""
    if not quick:
        return spec.axes
    return tuple(Axis(a.param, a.values[:2]) for a in spec.axes)


def expand(spec: SweepSpec, quick: bool = False, limit: Optional[int] = None) -> List[SweepPoint]:
    """Expand the matrix into validated :class:`SweepPoint` rows.

    ``quick`` truncates every axis to its first two values (the CI smoke
    shape); ``limit`` caps the expanded point count.
    """
    experiment = REGISTRY.get(spec.experiment)
    axes = effective_axes(spec, quick=quick)
    if spec.mode == MODE_ZIP:
        combos = list(zip(*(axis.values for axis in axes)))
    else:
        combos = list(itertools.product(*(axis.values for axis in axes)))
    if limit is not None:
        if limit <= 0:
            raise ConfigError(f"limit must be positive, got {limit}")
        combos = combos[:limit]
    points: List[SweepPoint] = []
    for index, combo in enumerate(combos):
        context = f"sweep {spec.name!r} point {index}"
        params: Dict[str, Any] = {}
        for param, value in spec.base.items():
            _apply_param(experiment, params, param, value, context)
        coords: Dict[str, Any] = {}
        for axis, value in zip(axes, combo):
            coords[axis.param] = value
            _apply_param(experiment, params, axis.param, value, context)
        experiment.validate_params(params)
        point_id = ",".join(f"{axis.short}={_slug(value)}" for axis, value in zip(axes, combo))
        points.append(SweepPoint(index=index, point_id=point_id, coords=coords, params=params))
    ids = [p.point_id for p in points]
    if len(ids) != len(set(ids)):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ConfigError(f"sweep {spec.name!r}: duplicate point id(s) {dupes}")
    return points


# -- execution ----------------------------------------------------------------


@dataclass
class SweepResult:
    """Everything one sweep invocation produced.

    ``axes`` are the *effective* (possibly ``--quick``-truncated) axes of
    this run — the document records what was actually swept, never the
    spec's full value lists when they differ.
    """

    spec: SweepSpec
    points: List[SweepPoint]
    report: RunReport
    out_dir: str
    axes: Tuple[Axis, ...] = ()
    quick: bool = False
    limit: Optional[int] = None
    shard: Optional[Shard] = None
    json_path: Optional[str] = None
    csv_path: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.axes:
            self.axes = self.spec.axes

    @property
    def ok(self) -> bool:
        return self.report.ok

    def point_records(self) -> List[dict]:
        """One consolidated record per point (the ``sweep.json`` rows)."""
        records = []
        for point, run in zip(self.points, self.report.runs):
            metrics = {m.name: extract_metric(run.summary, m.path) for m in self.spec.metrics}
            records.append(
                {
                    "point": point.point_id,
                    "index": point.index,
                    "coords": {k: normalize_params(v) for k, v in point.coords.items()},
                    "params": run.params,
                    "status": run.status,
                    "cached": run.status == STATUS_CACHED,
                    "elapsed_s": round(run.elapsed_s, 6),
                    "seed": run.seed,
                    "cache_key": run.cache_key,
                    "artifact": run.artifact,
                    "error": run.error,
                    "error_type": run.error_type,
                    "metrics": metrics,
                }
            )
        return records

    def document(self) -> dict:
        """The full ``sweep.json`` payload."""
        document = self._document_base()
        if self.shard is not None:
            document["shard"] = self.shard.as_dict()
        return document

    def _document_base(self) -> dict:
        return {
            "schema_version": SWEEP_SCHEMA,
            "schema": SWEEP_SCHEMA,  # legacy spelling kept for older tooling
            "kind": "repro-sweep",
            "sweep": self.spec.name,
            "experiment": self.spec.experiment,
            "description": self.spec.description,
            "mode": self.spec.mode,
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "seed": self.spec.seed,
            "jobs": self.report.jobs,
            "cache_enabled": self.report.cache_enabled,
            "quick": self.quick,
            "limit": self.limit,
            "source_digest": self.report.source_digest,
            "wall_s": round(self.report.wall_s, 6),
            "counts": self.report.counts(),
            "axes": [
                {"param": a.param, "values": [normalize_params(v) for v in a.values]}
                for a in self.axes
            ],
            "base": normalize_params(dict(self.spec.base)),
            "metrics": [{"name": m.name, "path": m.path} for m in self.spec.metrics],
            "points": self.point_records(),
        }

    def table(self) -> str:
        """ASCII table of the matrix: axis values x metrics per point."""
        headers = [a.short for a in self.axes]
        headers += ["status"] + [m.name for m in self.spec.metrics]
        rows = []
        for point, record in zip(self.points, self.point_records()):
            row = [point.coords[a.param] for a in self.axes]
            row.append(record["status"])
            for metric in self.spec.metrics:
                value = record["metrics"].get(metric.name)
                row.append(_format_cell(value))
            rows.append(row)
        title = f"Sweep {self.spec.name} — {self.spec.experiment} over {len(rows)} points"
        if self.spec.description:
            title += f"\n{self.spec.description}"
        return title + "\n\n" + ascii_table(headers, rows)

    def write(self) -> Tuple[str, str]:
        """Persist ``sweep.json`` + ``sweep.csv``; returns their paths."""
        self.json_path, self.csv_path = write_outputs(self.out_dir, self.document())
        return self.json_path, self.csv_path


def write_outputs(out_dir: str, document: dict) -> Tuple[str, str]:
    """Write a sweep document as ``sweep.json`` + ``sweep.csv``.

    Operates purely on the consolidated document so the live run path and
    ``sweep merge`` produce byte-identical layouts for identical content.
    """
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "sweep.json")
    tmp = json_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(document, f, indent=2)
        f.write("\n")
    os.replace(tmp, json_path)
    csv_path = os.path.join(out_dir, "sweep.csv")
    axis_params = [a["param"] for a in document["axes"]]
    metric_names = [m["name"] for m in document["metrics"]]
    with open(csv_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        header = ["point"] + [p.rpartition(".")[2] for p in axis_params]
        header += ["status", "cached", "elapsed_s"]
        header += metric_names
        writer.writerow(header)
        for record in document["points"]:
            row: List[Any] = [record["point"]]
            row += [record["coords"][p] for p in axis_params]
            row += [record["status"], record["cached"], record["elapsed_s"]]
            row += [record["metrics"].get(name) for name in metric_names]
            writer.writerow(row)
    return json_path, csv_path


#: Top-level document keys that vary run to run without the swept content
#: changing (timing, scheduling environment, shard bookkeeping).
VOLATILE_DOCUMENT_KEYS = (
    "generated_at",
    "wall_s",
    "jobs",
    "cache_enabled",
    "counts",
    "shard",
    "shards",
)

#: Per-point keys that vary between an executed and a cache-replayed (or
#: merged) instance of the same result.
VOLATILE_POINT_KEYS = ("status", "cached", "elapsed_s", "artifact")


def canonical_document(document: dict) -> dict:
    """The run-invariant content view of a sweep document.

    Strips timing, scheduling, and path fields so that an uninterrupted
    run, an interrupted run finished by a plain re-run, and a shard-merged
    run of the same matrix compare equal — the property the re-run and
    shard tests assert.
    """
    view = {k: v for k, v in document.items() if k not in VOLATILE_DOCUMENT_KEYS}
    view["points"] = [
        {k: v for k, v in record.items() if k not in VOLATILE_POINT_KEYS}
        for record in document["points"]
    ]
    return view


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return "-" if value is None else str(value)


def point_label(sweep_name: str, point_id: str) -> str:
    """The orchestrator label (and artifact path stem) of one point."""
    return f"sweeps/{sweep_name}/points/{point_id}"


def sweep_dir(sweep_name: str, shard: Optional[Shard] = None) -> str:
    """Output tree of a sweep run (a shard gets its own subtree)."""
    base = os.path.join(results_dir(), "sweeps", sweep_name)
    if shard is None:
        return base
    return os.path.join(base, "shards", shard.tag)


def run_sweep(
    spec: SweepSpec,
    jobs: Optional[int] = None,
    use_cache: bool = True,
    quick: bool = False,
    limit: Optional[int] = None,
    verbose: bool = True,
    write: bool = True,
    shard: Optional[Shard] = None,
    orchestrator: Optional[Orchestrator] = None,
) -> SweepResult:
    """Expand ``spec`` and run every point through the orchestrator.

    Points are scheduled on the shared process pool with content-hash
    caching, so an unchanged re-run is all cache hits — and a re-run of
    a failed or interrupted sweep executes only the points that did not
    complete. Each point's rendered artifact lands under
    ``results/sweeps/<name>/points/`` and the per-point manifest next to
    the consolidated ``sweep.json``. ``shard`` restricts the run to a
    deterministic slice of the matrix (consolidate with
    :func:`merge_shards`).

    ``orchestrator`` is the service (sweep-as-job) entry: pass a live
    :class:`Orchestrator` — typically one holding a persistent worker
    pool — and the sweep is scheduled on it instead of a throwaway
    instance. Its ``jobs``/``use_cache`` settings take precedence over
    the same-named arguments here; its ``run_seed`` is set to the spec's
    seed so cache keys stay consistent.
    """
    if orchestrator is not None:
        orchestrator.run_seed = spec.seed
    points = shard_points(expand(spec, quick=quick, limit=limit), shard)
    out_dir = sweep_dir(spec.name, shard)
    os.makedirs(out_dir, exist_ok=True)
    requests = [
        PointRequest(
            experiment=spec.experiment,
            params=point.params,
            label=point_label(spec.name, point.point_id),
        )
        for point in points
    ]
    if orchestrator is None:
        orchestrator = Orchestrator(
            jobs=jobs, use_cache=use_cache, run_seed=spec.seed, verbose=verbose
        )
    report = orchestrator.run_points(
        requests,
        write_manifest=True,
        manifest_path=os.path.join(out_dir, "manifest.json"),
    )
    result = SweepResult(
        spec=spec,
        points=points,
        report=report,
        out_dir=out_dir,
        axes=effective_axes(spec, quick=quick),
        quick=quick,
        limit=limit,
        shard=shard,
    )
    if write:
        result.write()
    return result


# -- shard merge --------------------------------------------------------------


def _uniform(docs: List[dict], key: str, context: str) -> Any:
    values = {json.dumps(doc.get(key), sort_keys=True) for doc in docs}
    if len(values) > 1:
        raise ConfigError(
            f"{context}: shards disagree on {key!r} "
            f"({', '.join(sorted(values))}); re-run them from the same spec and source"
        )
    return docs[0].get(key)


def merge_shards(
    spec: SweepSpec, verbose: bool = True, expect_count: Optional[int] = None
) -> Tuple[dict, str, str]:
    """Consolidate per-shard runs into the single ``sweep.json`` + CSV.

    Reads every ``shards/*/sweep.json`` under the sweep's output tree,
    checks the slices are mutually consistent (same spec echo, same
    source digest, disjoint points) and together cover the full expanded
    matrix, then writes the consolidated document exactly where an
    unsharded run would have: ``results/sweeps/<name>/``.

    ``expect_count`` pins the shard width the caller fanned out (the
    serve layer's merge step passes its child count) so a stale shard
    tree from an earlier, differently-sized run is refused instead of
    silently merged.
    """
    base = sweep_dir(spec.name)
    shards_root = os.path.join(base, "shards")
    if not os.path.isdir(shards_root):
        raise ConfigError(
            f"no shard runs under {shards_root}; "
            f"run `sweep run {spec.name} --shard K/N` first"
        )
    context = f"sweep merge {spec.name!r}"
    docs: List[dict] = []
    dirs: List[str] = []
    for entry in sorted(os.listdir(shards_root)):
        shard_json = os.path.join(shards_root, entry, "sweep.json")
        if not os.path.isfile(shard_json):
            raise ConfigError(
                f"{context}: shard {entry} has no sweep.json — it crashed or is "
                "still running; finish it by running it again "
                f"(`sweep run {spec.name} --shard K/N`)"
            )
        try:
            with open(shard_json, "r", encoding="utf-8") as f:
                doc = json.load(f)
        except ValueError as exc:
            raise ConfigError(f"{context}: cannot parse {shard_json!r}: {exc}") from exc
        if doc.get("kind") != "repro-sweep" or "shard" not in doc:
            raise ConfigError(f"{context}: {shard_json!r} is not a shard sweep document")
        check_schema_version(doc, SWEEP_SCHEMA, f"{context}: {shard_json!r}", _SWEEP_REFRESH_HINT)
        if doc.get("sweep") != spec.name or doc.get("experiment") != spec.experiment:
            raise ConfigError(
                f"{context}: {shard_json!r} belongs to sweep "
                f"{doc.get('sweep')!r}/{doc.get('experiment')!r}"
            )
        docs.append(doc)
        dirs.append(os.path.join(shards_root, entry))
    counts = {doc["shard"]["count"] for doc in docs}
    if len(counts) != 1:
        raise ConfigError(f"{context}: mixed shard counts {sorted(counts)}")
    count = counts.pop()
    if expect_count is not None and count != expect_count:
        raise ConfigError(
            f"{context}: expected a {expect_count}-way shard tree, found {count}-way; "
            "a stale tree from an earlier run is in the way"
        )
    indices = sorted(doc["shard"]["index"] for doc in docs)
    if indices != list(range(1, count + 1)):
        missing = sorted(set(range(1, count + 1)) - set(indices))
        raise ConfigError(
            f"{context}: expected shards 1..{count}, have {indices}"
            + (f"; missing {missing}" if missing else "")
        )
    for key in (
        "mode",
        "seed",
        "quick",
        "limit",
        "source_digest",
        "axes",
        "base",
        "metrics",
        "schema",
        "schema_version",
    ):
        _uniform(docs, key, context)
    quick = bool(docs[0].get("quick"))
    limit = docs[0].get("limit")
    expected_ids = [p.point_id for p in expand(spec, quick=quick, limit=limit)]
    collected: Dict[str, dict] = {}
    for doc in docs:
        for record in doc["points"]:
            if record["point"] in collected:
                raise ConfigError(
                    f"{context}: point {record['point']!r} appears in more than one shard"
                )
            collected[record["point"]] = record
    missing = [pid for pid in expected_ids if pid not in collected]
    extra = sorted(set(collected) - set(expected_ids))
    if missing or extra:
        raise ConfigError(
            f"{context}: shard union does not cover the matrix "
            f"(missing {missing or 'none'}, extra {extra or 'none'})"
        )
    points = [collected[pid] for pid in expected_ids]
    status_counts = {STATUS_EXECUTED: 0, STATUS_CACHED: 0, STATUS_FAILED: 0}
    for record in points:
        status_counts[record["status"]] += 1
    merged = {
        key: docs[0][key]
        for key in (
            "schema_version",
            "schema",
            "kind",
            "sweep",
            "experiment",
            "description",
            "mode",
            "seed",
        )
    }
    merged.update(
        {
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "jobs": max(doc["jobs"] for doc in docs),
            "cache_enabled": all(doc["cache_enabled"] for doc in docs),
            "quick": quick,
            "limit": limit,
            "source_digest": docs[0]["source_digest"],
            "wall_s": round(sum(doc["wall_s"] for doc in docs), 6),
            "counts": status_counts,
            "axes": docs[0]["axes"],
            "base": docs[0]["base"],
            "metrics": docs[0]["metrics"],
            "shards": [
                {
                    "index": doc["shard"]["index"],
                    "count": doc["shard"]["count"],
                    "dir": path,
                    "counts": doc["counts"],
                    "wall_s": doc["wall_s"],
                }
                for doc, path in sorted(zip(docs, dirs), key=lambda t: t[0]["shard"]["index"])
            ],
            "points": points,
        }
    )
    json_path, csv_path = write_outputs(base, merged)
    if verbose:
        print(
            f"merged {count} shard(s), {len(points)} points — "
            f"{status_counts[STATUS_EXECUTED]} executed, "
            f"{status_counts[STATUS_CACHED]} cached, "
            f"{status_counts[STATUS_FAILED]} failed",
            flush=True,
        )
    return merged, json_path, csv_path
