"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each boundary function of the ``tmsflow``
modules with a wrapper, in every module namespace that holds a reference to
it (``analysis.correlation_report`` as well as
``correlations.correlation_report``), so calls between modules are seen
too.  Each span records its name, start, end, parent span, the job it
belongs to and the class of any exception that left it.  Spans stay in
memory until the run ends.  Untraced runs never import this module's
wrappers into the program.
"""

from __future__ import annotations

import fnmatch
import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (metric prefix, module, attribute); the prefix is the span name.
BOUNDARIES = (
    ("cli.main", "tmsflow.cli", "main"),
    ("cli.parse_grid", "tmsflow.cli", "parse_grid"),
    ("states.StateModel.state", "tmsflow.states", "StateModel.state"),
    ("symplectic.validate", "tmsflow.symplectic", "validate"),
    ("symplectic.symplectic_summary", "tmsflow.symplectic", "symplectic_summary"),
    ("symplectic.von_neumann_entropy", "tmsflow.symplectic", "von_neumann_entropy"),
    ("symplectic.homodyne_condition", "tmsflow.symplectic", "homodyne_condition"),
    ("symplectic.partial_trace", "tmsflow.symplectic", "partial_trace"),
    ("correlations.correlation_report", "tmsflow.correlations", "correlation_report"),
    ("analysis.sweep", "tmsflow.analysis", "sweep"),
    ("analysis.sudden_death_point", "tmsflow.analysis", "sudden_death_point"),
    ("analysis.crossover_point", "tmsflow.analysis", "crossover_point"),
    ("qkd.secret_key", "tmsflow.qkd", "secret_key"),
    ("qkd.holevo_quantity", "tmsflow.qkd", "holevo_quantity"),
    ("qkd.cloner_state", "tmsflow.qkd", "cloner_state"),
    ("qkd.key_threshold", "tmsflow.qkd", "key_threshold"),
    ("fit.fit", "tmsflow.fit", "fit"),
    ("fit.cost", "tmsflow.fit", "cost"),
    ("fit.synthetic_records", "tmsflow.fit", "synthetic_records"),
    ("tomography.samples_from_csv", "tmsflow.tomography", "samples_from_csv"),
    ("tomography.covariance_from_samples", "tmsflow.tomography", "covariance_from_samples"),
    ("tomography.project_to_physical", "tmsflow.tomography", "project_to_physical"),
    ("tomography.cumulants", "tmsflow.tomography", "cumulants"),
)

# Groups of functions the CLI calls, matched by name in its namespace.
GROUPS = {
    "cli.parse": ("*_from_csv", "*_from_json"),
    "cli.serialise": ("*_to_csv", "*_to_json", "*_csv_row", "_json_with_meta", "_emit"),
}

ROOT_FINDERS = ("analysis.sudden_death_point", "analysis.crossover_point")

# Span fields.
NAME, START, END, PARENT, JOB, ERROR, KEY = range(7)


def _root_key(args, kwargs):
    return args + tuple(sorted(kwargs.items()))


KEYED = {name: _root_key for name in ROOT_FINDERS}


def _short(module: str) -> str:
    return module.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job = -1
        self.members: dict[str, set[str]] = {}
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, key):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job, None,
                   key(args, kwargs) if key else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every boundary and group member of the imported package."""
        cli = sys.modules["tmsflow.cli"]
        named: dict = {}  # original function -> span name
        owners: list = []  # (class, attribute, original)
        for name, module, attr in BOUNDARIES:
            owner = sys.modules[module]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = owner.__dict__[leaf] if path else getattr(owner, leaf)
            named[fn] = name
            if path:
                owners.append((owner, leaf, fn))
        for group, patterns in GROUPS.items():
            members = set()
            for attr, fn in vars(cli).items():
                if callable(fn) and getattr(fn, "__module__", "").startswith("tmsflow") and any(
                    fnmatch.fnmatchcase(attr, p) for p in patterns
                ):
                    named.setdefault(fn, f"{_short(fn.__module__)}.{fn.__name__}")
                    members.add(named[fn])
            self.members[group] = members
        wrappers = {fn: self._wrap(name, fn, KEYED.get(name)) for fn, name in named.items()}
        for owner, leaf, fn in owners:
            setattr(owner, leaf, wrappers[fn])
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tmsflow" or mod_name.startswith("tmsflow.")):
                continue
            for attr, value in list(vars(mod).items()):
                try:
                    wrapper = wrappers.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, job, error."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec[:KEY]) + "\n")


def summarise(spans: list[list], members: dict[str, set[str]], cycles: int,
              job_walls: list[float]) -> tuple[dict[str, float], dict[str, dict[str, int]]]:
    """Per-layer metrics per cycle, and exception counts by class."""
    n = len(spans)
    child = [0.0] * n
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    errors: defaultdict = defaultdict(Counter)
    for i, rec in enumerate(spans):
        name = rec[NAME]
        calls[name] += 1
        self_s[name] += rec[END] - rec[START] - child[i]
        if rec[ERROR]:
            errors[name][rec[ERROR]] += 1

    def ancestor_in(i: int, names) -> bool:
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] in names:
                return True
            p = spans[p][PARENT]
        return False

    def nested(inner: str, outer) -> int:
        return sum(1 for i, r in enumerate(spans) if r[NAME] == inner and ancestor_in(i, outer))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: dict[str, float] = {}
    by_class: dict[str, dict[str, int]] = {}
    scale = 1.0 / max(cycles, 1)
    for name, _, _ in BOUNDARIES:
        metrics[f"{name}.calls"] = calls[name] * scale
        metrics[f"{name}.self_s"] = self_s[name] * scale
        metrics[f"{name}.errors"] = sum(errors[name].values()) * scale
        by_class[name] = dict(errors[name])
    for group, names in members.items():
        metrics[f"{group}.calls"] = sum(calls[m] for m in names) * scale
        metrics[f"{group}.self_s"] = sum(self_s[m] for m in names) * scale
        group_errors = sum((errors[m] for m in names), Counter())
        metrics[f"{group}.errors"] = sum(group_errors.values()) * scale
        by_class[group] = dict(group_errors)

    roots = [i for i, r in enumerate(spans) if r[NAME] in ROOT_FINDERS]
    has_root_child = {spans[i][PARENT] for i in roots}
    leaf_roots = sum(1 for i in roots if i not in has_root_child)
    crossings = [r for r in spans if r[NAME] == "analysis.crossover_point"]
    metrics["symplectic.validate_per_report"] = ratio(
        nested("symplectic.validate", {"correlations.correlation_report"}),
        calls["correlations.correlation_report"],
    )
    metrics["analysis.evals_per_root"] = ratio(
        nested("states.StateModel.state", set(ROOT_FINDERS)), leaf_roots
    )
    metrics["analysis.unique_root_ratio"] = ratio(
        len({(r[JOB], r[KEY]) for r in crossings}), len(crossings)
    )
    metrics["qkd.evals_per_threshold"] = ratio(
        nested("qkd.secret_key", {"qkd.key_threshold"}), calls["qkd.key_threshold"]
    )
    metrics["fit.cost_calls_per_fit"] = ratio(nested("fit.cost", {"fit.fit"}), calls["fit.fit"])
    top = sum(r[END] - r[START] for r in spans if r[PARENT] < 0 and r[NAME] == "cli.main")
    metrics["trace.coverage"] = ratio(top, sum(job_walls))
    return metrics, by_class
