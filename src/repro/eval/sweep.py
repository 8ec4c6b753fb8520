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
replays from there, so only the missing points execute.

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
from repro.eval.orchestrator import STATUS_CACHED, Orchestrator, PointRequest, RunReport
from repro.eval.metrics import extract_metric
from repro.eval.registry import REGISTRY, ExperimentSpec, normalize_params
from repro.eval.tables import ascii_table, results_dir

#: ``sweep.json`` layout version; bump on breaking changes.
#: 1 -> 2: explicit ``schema_version`` field.
SWEEP_SCHEMA = 2

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

    ``REPRO_SWEEPS_DIR`` overrides it — tests point it at scratch trees.
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
    json_path: Optional[str] = None
    csv_path: Optional[str] = None
    _document: Optional[dict] = field(default=None, init=False, repr=False, compare=False)

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
        """The full ``sweep.json`` payload, built on the first call.

        Every later call returns the same object, so what :meth:`write`
        wrote is what ``sweep run --json`` prints and a served sweep job
        returns.
        """
        if self._document is not None:
            return self._document
        self._document = {
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
        return self._document

    def table(self) -> str:
        """ASCII table of the matrix: axis values x metrics per point."""
        headers = [a.short for a in self.axes]
        headers += ["status"] + [m.name for m in self.spec.metrics]
        rows = []
        for point, record in zip(self.points, self.document()["points"]):
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
        document = self.document()
        os.makedirs(self.out_dir, exist_ok=True)
        self.json_path = os.path.join(self.out_dir, "sweep.json")
        tmp = self.json_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(document, f, indent=2)
            f.write("\n")
        os.replace(tmp, self.json_path)
        self.csv_path = os.path.join(self.out_dir, "sweep.csv")
        with open(self.csv_path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            header = ["point"] + [a.short for a in self.axes]
            header += ["status", "cached", "elapsed_s"]
            header += [m.name for m in self.spec.metrics]
            writer.writerow(header)
            for record in document["points"]:
                row: List[Any] = [record["point"]]
                row += [record["coords"][a.param] for a in self.axes]
                row += [record["status"], record["cached"], record["elapsed_s"]]
                row += [record["metrics"].get(m.name) for m in self.spec.metrics]
                writer.writerow(row)
        return self.json_path, self.csv_path


#: Top-level document keys that vary run to run without the swept content
#: changing (timing, scheduling environment).
VOLATILE_DOCUMENT_KEYS = ("generated_at", "wall_s", "jobs", "cache_enabled", "counts")

#: Per-point keys that vary between an executed and a cache-replayed
#: instance of the same result.
VOLATILE_POINT_KEYS = ("status", "cached", "elapsed_s", "artifact")


def canonical_document(document: dict) -> dict:
    """The run-invariant content view of a sweep document.

    Strips timing, scheduling, and path fields so that an uninterrupted
    run and an interrupted run finished by a plain re-run of the same
    matrix compare equal — the property the re-run test asserts.
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


def sweep_dir(sweep_name: str) -> str:
    """Output tree of a sweep run."""
    return os.path.join(results_dir(), "sweeps", sweep_name)


def run_sweep(
    spec: SweepSpec,
    jobs: Optional[int] = None,
    use_cache: bool = True,
    quick: bool = False,
    limit: Optional[int] = None,
    verbose: bool = True,
    write: bool = True,
) -> SweepResult:
    """Expand ``spec`` and run every point through the orchestrator.

    Points are scheduled on the orchestrator's process pool with content-hash
    caching, so an unchanged re-run is all cache hits — and a re-run of
    a failed or interrupted sweep executes only the points that did not
    complete. Each point's rendered artifact lands under
    ``results/sweeps/<name>/points/`` and the per-point manifest next to
    the consolidated ``sweep.json``.
    """
    points = expand(spec, quick=quick, limit=limit)
    out_dir = sweep_dir(spec.name)
    os.makedirs(out_dir, exist_ok=True)
    requests = [
        PointRequest(
            experiment=spec.experiment,
            params=point.params,
            label=point_label(spec.name, point.point_id),
        )
        for point in points
    ]
    orchestrator = Orchestrator(jobs=jobs, use_cache=use_cache, run_seed=spec.seed, verbose=verbose)
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
    )
    if write:
        result.write()
    return result
