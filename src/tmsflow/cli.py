"""Command-line front end: batch sweeps, feature extraction, QKD keys,
fitting and tomography with deterministic CSV/JSON output.

Grid arguments accept a single value (``6.5``), a comma list
(``1,2,6.5``) or an inclusive range ``start:stop:step`` (endpoints kept
within half a step).  A JSON config file can stand in for any flag;
explicit flags win on conflict.  Every output embeds the tool version
and the effective config, as ``#`` comment lines in CSV or a ``meta``
field in JSON, and identical configs produce byte-identical files.

Exit codes: 0 success, 2 usage or config error, 3 model or numeric
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import warnings

from . import __version__
from .analysis import (
    _sweep_doc,
    crossover_point,
    sudden_death_point,
    sweep,
    sweep_to_csv,
)
from .errors import DomainError, TmsflowError
from .fit import (
    DEFAULT_COUPLING,
    DEFAULT_WEIGHTS,
    _fit_result_doc,
    fit,
    records_from_csv,
    records_to_csv,
    synthetic_records,
)
from .qkd import (
    DEFAULT_CLONER_COUPLING,
    QKD_CSV_HEADER,
    QkdScenario,
    _key_result_doc,
    key_result_to_csv_row,
    key_threshold,
    secret_key,
)
from .states import JpaNoiseModel, StateModel, squeezing_db_to_r
from .symplectic import _covariance_doc, covariance_from_csv, covariance_from_json, validate
from .tomography import (
    _cumulant_report_doc,
    covariance_from_samples,
    cumulants,
    project_to_physical,
    samples_from_csv,
)


class ConfigError(Exception):
    pass


def parse_grid(spec: str) -> list[float]:
    """Parse a scalar, comma list, or inclusive start:stop:step range."""
    spec = str(spec).strip()
    if not spec:
        raise ConfigError("empty grid specification")
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range must be start:stop:step, got {spec!r}")
        start, stop, step = (_finite(p, "grid value") for p in parts)
        if step <= 0:
            raise ConfigError(f"range step must be positive, got {step}")
        if stop < start:
            raise ConfigError(f"range stop below start in {spec!r}")
        steps = (stop - start) / step + 0.5
        if steps >= 1e6:  # also catches an overflowing quotient
            raise ConfigError(f"range {spec!r} has more than 10**6 points")
        count = int(math.floor(steps)) + 1
        return [start + i * step for i in range(count)]
    return [_finite(tok, "grid value") for tok in spec.split(",") if tok.strip()]


def _finite(value, what: str) -> float:
    """A grid token, flag or config value as a finite float."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return number


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    return doc


def _merged(args: argparse.Namespace, config: dict, key: str, default=None):
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in config:
        return config[key]
    return default


def _path(args: argparse.Namespace, config: dict, key: str) -> str | None:
    """A path-valued flag or config key: a non-empty string, or None if unset."""
    path = _merged(args, config, key)
    if path is not None and not (isinstance(path, str) and path):
        raise ConfigError(f"{key} must be a non-empty path, got {path!r}")
    return path


def _checked(build, *args, **kwargs):
    """``build(*args, **kwargs)``; a parameter it rejects is a usage error."""
    try:
        return build(*args, **kwargs)
    except TmsflowError as exc:
        raise ConfigError(str(exc)) from None


def _build_model(args, config) -> StateModel:
    model_spec = _merged(args, config, "model", "ideal")
    if isinstance(model_spec, dict):
        beta = model_spec.get("coupling_beta")
        jpa = model_spec.get("jpa")
        jpa_model = None
        if jpa is not None:
            if not isinstance(jpa, dict) or not {"chi1", "chi2"} <= jpa.keys():
                raise ConfigError(f"model jpa must be an object with chi1 and chi2, got {jpa!r}")
            jpa_model = JpaNoiseModel(
                chi1=_finite(jpa["chi1"], "chi1"), chi2=_finite(jpa["chi2"], "chi2")
            )
        return StateModel(
            coupling_beta=None if beta is None else _finite(beta, "coupling_beta"),
            jpa=jpa_model,
        )
    name = str(model_spec)
    if name == "ideal":
        return StateModel.ideal()
    beta = _finite(_merged(args, config, "beta", DEFAULT_COUPLING), "beta")
    if name == "coupler":
        return StateModel.coupler(beta)
    if name == "realistic":
        chi1 = _finite(_merged(args, config, "chi1", 0.05), "chi1")
        chi2 = _finite(_merged(args, config, "chi2", 0.56), "chi2")
        return StateModel.realistic(chi1, chi2, beta)
    raise ConfigError(f"unknown model {name!r} (ideal | coupler | realistic)")


def _model_echo(model: StateModel) -> dict:
    """The model's kind, beta and chi1/chi2 for a meta echo (None is not echoed)."""
    jpa = dataclasses.asdict(model.jpa) if model.jpa else {}
    return {"model": model.kind, "beta": model.coupling_beta, **jpa}


def _meta_config(pairs: dict) -> str:
    return json.dumps({k: v for k, v in sorted(pairs.items()) if v is not None})


def _csv_header_lines(config_echo: str) -> str:
    return f"# tmsflow {__version__}\n# config: {config_echo}\n"


def _emit(*documents: tuple[str, str | None]) -> None:
    """Write each ``(text, path)`` document, to stdout where the path is None.

    Every path is opened (without truncation) before any text is written,
    and an unwritable path is a usage error that leaves no new file behind.
    """
    paths = [path for _, path in documents if path]
    created = [path for path in paths if not os.path.exists(path)]
    try:
        for path in paths:
            open(path, "a").close()
        for text, path in documents:
            if path:
                with open(path, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
    except OSError as exc:
        for done in filter(os.path.exists, created):
            os.remove(done)
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _json_with_meta(payload: dict, config_echo: str) -> str:
    """The payload document with a ``meta`` field, encoded once."""
    meta = {"tool": f"tmsflow {__version__}", "config": json.loads(config_echo)}
    return json.dumps({**payload, "meta": meta}, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_sweep(args, config) -> int:
    out = _path(args, config, "out")
    model = _checked(_build_model, args, config)
    s_spec = _merged(args, config, "s")
    n_spec = _merged(args, config, "n")
    if s_spec is None or n_spec is None:
        raise ConfigError("sweep needs both --s and --n grids")
    s_vals, n_vals = parse_grid(s_spec), parse_grid(n_spec)
    grid = _checked(sweep, model, s_vals, n_vals)  # rejects only a malformed axis
    echo = _meta_config({"command": "sweep", "s": s_spec, "n": n_spec, **_model_echo(model)})
    fmt = _merged(args, config, "format", "csv")
    if fmt == "json":
        _emit((_json_with_meta(_sweep_doc(grid), echo), out))
    elif fmt == "csv":
        _emit((_csv_header_lines(echo) + sweep_to_csv(grid), out))
    else:
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    if all(cell.report is None for cell in grid.cells):
        return 3
    return 0


def _cmd_features(args, config) -> int:
    out = _path(args, config, "out")
    model = _checked(_build_model, args, config)
    s_spec = _merged(args, config, "s")
    if s_spec is None:
        raise ConfigError("features needs an --s grid")
    s_vals = parse_grid(s_spec)
    what = str(_merged(args, config, "what", "nsd,nc")).split(",")
    if not set(what) <= {"nsd", "nc"}:
        raise ConfigError(f"what must be a comma list of nsd, nc, got {','.join(what)!r}")
    flavors = str(_merged(args, config, "flavors", "A,B,AB")).split(",")
    if not set(flavors) <= {"A", "B", "AB"}:
        raise ConfigError(f"flavors must be a comma list of A, B, AB, got {','.join(flavors)!r}")
    echo = _meta_config(
        {
            "command": "features",
            "s": s_spec,
            "what": ",".join(what),
            "flavors": ",".join(flavors),
            **_model_echo(model),
        }
    )
    cols = ["s_db"]
    if "nsd" in what:
        cols.append("n_sd")
    if "nc" in what:
        cols += [f"n_c_{f}" for f in flavors]
    cols.append("status")
    lines = [",".join(cols)]
    successes = 0
    for s_db in s_vals:
        row = [repr(float(s_db))]
        notes = []
        ok = True
        if "nsd" in what:
            try:
                row.append(repr(sudden_death_point(model, s_db)))
            except TmsflowError as exc:
                row.append("nan")
                notes.append(f"n_sd: {exc}")
                ok = False
        if "nc" in what:
            solved: dict = {}
            for flavor in flavors:
                try:
                    row.append(repr(_crossover_n_c(model, s_db, flavor, solved)))
                except TmsflowError as exc:
                    row.append("nan")
                    notes.append(f"n_c_{flavor}: {exc}")
                    ok = False
        row.append("ok" if not notes else "; ".join(notes).replace(",", ";"))
        successes += 1 if ok else 0
        lines.append(",".join(row))
    _emit((_csv_header_lines(echo) + "\n".join(lines) + "\n", out))
    return 0 if successes else 3


def _crossover_n_c(model: StateModel, s_db: float, flavor: str, solved: dict) -> float:
    """``crossover_point(model, s_db, flavor).n_c`` with the A and B roots
    (or their failures) kept in ``solved``, so AB reuses them."""
    if flavor == "AB":
        n_a = _crossover_n_c(model, s_db, "A", solved)
        return 0.5 * (n_a + _crossover_n_c(model, s_db, "B", solved))
    if flavor not in solved:
        try:
            solved[flavor] = crossover_point(model, s_db, flavor).n_c
        except TmsflowError as exc:
            solved[flavor] = exc
    if isinstance(solved[flavor], TmsflowError):
        raise solved[flavor]
    return solved[flavor]


def _cmd_qkd(args, config) -> int:
    out = _path(args, config, "out")
    threshold_out = _path(args, config, "threshold-out")
    s_spec = _merged(args, config, "s")
    nq_spec = _merged(args, config, "nq")
    if s_spec is None or nq_spec is None:
        raise ConfigError("qkd needs --s and --nq")
    s_vals, nq_vals = parse_grid(s_spec), parse_grid(nq_spec)
    beta = _finite(_merged(args, config, "cloner-beta", DEFAULT_CLONER_COUPLING), "cloner-beta")
    tol = _finite(_merged(args, config, "tolerance", 1e-6), "tolerance")
    if tol <= 0.0:
        raise ConfigError(f"tolerance must be > 0, got {tol}")
    echo = _meta_config(
        {"command": "qkd", "s": s_spec, "nq": nq_spec, "cloner_beta": beta}
    )
    if len(s_vals) == 1 and len(nq_vals) == 1:
        scenario = _checked(QkdScenario, squeezing_db_to_r(s_vals[0]), nq_vals[0], beta)
        text = _json_with_meta(_key_result_doc(scenario, secret_key(scenario)), echo)
    else:
        rows = []
        for s_db in s_vals:
            for n_q in nq_vals:
                scenario = _checked(QkdScenario, squeezing_db_to_r(s_db), n_q, beta)
                rows.append(key_result_to_csv_row(s_db, n_q, secret_key(scenario)))
        text = _csv_header_lines(echo) + QKD_CSV_HEADER + "\n" + "\n".join(rows) + "\n"
    if not threshold_out:
        _emit((text, out))
        return 0
    tl = ["s_db,n_q_threshold,status"]
    any_ok = False
    for s_db in s_vals:
        try:
            tl.append(f"{s_db!r},{key_threshold(s_db, tol, beta)!r},ok")
            any_ok = True
        except TmsflowError as exc:
            tl.append(f"{s_db!r},nan,{str(exc).replace(',', ';')}")
    _emit((text, out), (_csv_header_lines(echo) + "\n".join(tl) + "\n", threshold_out))
    return 0 if any_ok else 3


def _cmd_fit(args, config) -> int:
    out = _path(args, config, "out")
    path = _path(args, config, "records")
    if path is None:
        raise ConfigError("fit needs --records FILE")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            records = records_from_csv(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read records: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"malformed records CSV: {exc}") from None
    weights = (
        _finite(_merged(args, config, "w1", DEFAULT_WEIGHTS[0]), "w1"),
        _finite(_merged(args, config, "w2", DEFAULT_WEIGHTS[1]), "w2"),
        _finite(_merged(args, config, "w3", DEFAULT_WEIGHTS[2]), "w3"),
    )
    if min(weights) < 0.0 or max(weights) == 0.0:
        raise ConfigError(f"weights must be >= 0 and not all zero, got {list(weights)}")
    init_spec = str(_merged(args, config, "init", "0,1"))
    init = tuple(_finite(x, "init") for x in init_spec.split(","))
    if len(init) != 2:
        raise ConfigError(f"--init needs two comma-separated values, got {init_spec!r}")
    beta = _finite(_merged(args, config, "beta", DEFAULT_COUPLING), "beta")
    _checked(StateModel.coupler, beta)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fit(records, weights=weights, initial=init, coupling_beta=beta)
    except DomainError as exc:  # too few usable records
        raise ConfigError(f"records {path}: {exc}") from None
    for warning in caught:  # the S = 0 exclusion
        print(f"tmsflow: warning: {warning.message}", file=sys.stderr)
    echo = _meta_config(
        {
            "command": "fit",
            "records": path,
            "weights": list(weights),
            "init": list(init),
            "beta": beta,
        }
    )
    _emit((_json_with_meta(_fit_result_doc(result), echo), out))
    return 0


def _cmd_tomo(args, config) -> int:
    covariance_out = _path(args, config, "covariance-out")
    cumulants_out = _path(args, config, "cumulants-out")
    path = _path(args, config, "samples")
    if path is None:
        raise ConfigError("tomo needs --samples FILE")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            samples = samples_from_csv(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read samples: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"malformed samples CSV: {exc}") from None
    threshold = _finite(_merged(args, config, "threshold", 5.0), "threshold")
    project = _merged(args, config, "project")
    if project is not None and not isinstance(project, bool):
        raise ConfigError(f"project must be true or false, got {project!r}")
    echo = _meta_config(
        # "project" is echoed only when set, so un-projected outputs keep their bytes
        {"command": "tomo", "samples": path, "threshold": threshold, "project": project or None}
    )
    try:
        report = cumulants(samples, threshold=threshold)
    except DomainError as exc:  # a constant column
        raise ConfigError(f"samples: {exc}") from None
    cov = covariance_from_samples(samples)
    if project:
        cov = project_to_physical(cov)
    _emit(
        (_json_with_meta(_covariance_doc(cov), echo), covariance_out),
        (_json_with_meta(_cumulant_report_doc(report), echo), cumulants_out),
    )
    return 0


def _cmd_validate(args, config) -> int:
    out = _path(args, config, "out")
    path = _path(args, config, "state")
    if path is None:
        raise ConfigError("validate needs --state FILE")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read state: {exc}") from None
    try:
        if text.lstrip().startswith("{"):
            cov = covariance_from_json(text)
        else:
            cov = covariance_from_csv(text)
    except (ValueError, KeyError, TmsflowError) as exc:
        raise ConfigError(f"malformed state file: {exc}") from None
    verdict = validate(cov)
    payload = {
        "ok": verdict.ok,
        "violations": list(verdict.violations),
        "min_symplectic_eigenvalue": verdict.min_symplectic_eigenvalue,
    }
    echo = _meta_config({"command": "validate", "state": path})
    _emit((_json_with_meta(payload, echo), out))
    return 0


def _cmd_gen_synthetic(args, config) -> int:
    out = _path(args, config, "out")
    s_spec = _merged(args, config, "s", "3:9:1.5")
    n_spec = _merged(args, config, "n", "0,0.1,0.25,0.5,1,2")
    chi1 = _finite(_merged(args, config, "chi1", 0.05), "chi1")
    chi2 = _finite(_merged(args, config, "chi2", 0.56), "chi2")
    beta = _finite(_merged(args, config, "beta", DEFAULT_COUPLING), "beta")
    noise = _finite(_merged(args, config, "noise", 0.0), "noise")
    if noise < 0.0:
        raise ConfigError(f"noise amplitude must be >= 0, got {noise}")
    seed = _merged(args, config, "seed")
    if seed is not None and (type(seed) is not int or seed < 0):
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    _checked(StateModel.realistic, chi1, chi2, beta)
    records = synthetic_records(
        parse_grid(s_spec),
        parse_grid(n_spec),
        chi=(chi1, chi2),
        coupling_beta=beta,
        noise=noise,
        seed=seed,
    )
    echo = _meta_config(
        {
            "command": "gen-synthetic",
            "s": s_spec,
            "n": n_spec,
            "chi1": chi1,
            "chi2": chi2,
            "beta": beta,
            "noise": noise,
            "seed": seed,
        }
    )
    _emit((_csv_header_lines(echo) + records_to_csv(records), out))
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmsflow",
        description="Noisy two-mode squeezed states: correlation sweeps, "
        "noise thresholds, CV-QKD keys, fits, and tomography.",
    )
    parser.add_argument("--version", action="version", version=f"tmsflow {__version__}")
    sub = parser.add_subparsers(dest="command")

    def add_common(p, out=True):
        p.add_argument("--config", help="JSON config file; explicit flags win")
        if out:
            p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("sweep", help="correlation reports on an (S, n) grid")
    add_common(p)
    p.add_argument("--s", help="squeezing grid in dB: value, list, or start:stop:step")
    p.add_argument("--n", help="noise photon grid: value, list, or start:stop:step")
    p.add_argument("--model", help="ideal | coupler | realistic")
    p.add_argument("--beta", type=float, help="coupler power coupling")
    p.add_argument("--chi1", type=float, help="amplifier noise coefficient")
    p.add_argument("--chi2", type=float, help="amplifier noise exponent")
    p.add_argument("--format", help="csv (default) or json")

    p = sub.add_parser("features", help="sudden-death and crossover tables n_sd(S), n_c(S)")
    add_common(p)
    p.add_argument("--s", help="squeezing grid in dB")
    p.add_argument("--what", help="comma list of nsd,nc (default both)")
    p.add_argument("--flavors", help="comma list of A,B,AB (default all)")
    p.add_argument("--model", help="ideal | coupler | realistic")
    p.add_argument("--beta", type=float)
    p.add_argument("--chi1", type=float)
    p.add_argument("--chi2", type=float)

    p = sub.add_parser("qkd", help="secret keys on an (S, n_q) grid, plus threshold curve")
    add_common(p)
    p.add_argument("--s", help="squeezing grid in dB")
    p.add_argument("--nq", help="detected-quadrature noise grid")
    p.add_argument("--cloner-beta", type=float, dest="cloner_beta")
    p.add_argument("--threshold-out", dest="threshold_out", help="path for the threshold curve")
    p.add_argument("--tolerance", type=float, help="|K| tolerance at the threshold")

    p = sub.add_parser("fit", help="fit the amplifier-noise power law to records")
    add_common(p)
    p.add_argument("--records", help="CSV of s_db,n,d_a,d_b,e_f[,sd_a,sd_b,se_f]")
    p.add_argument("--w1", type=float)
    p.add_argument("--w2", type=float)
    p.add_argument("--w3", type=float)
    p.add_argument("--init", help="initial chi1,chi2 (default 0,1)")
    p.add_argument("--beta", type=float)

    p = sub.add_parser("tomo", help="covariance + cumulant report from quadrature samples")
    add_common(p, out=False)
    p.add_argument("--samples", help="CSV with header I1,Q1,I2,Q2")
    p.add_argument("--threshold", type=float, help="Gaussianity threshold in standard errors")
    p.add_argument(
        "--project", action="store_true", default=None, help="clamp the spectrum to physical"
    )
    p.add_argument("--covariance-out", dest="covariance_out")
    p.add_argument("--cumulants-out", dest="cumulants_out")

    p = sub.add_parser("validate", help="physicality verdict for a stored covariance")
    add_common(p)
    p.add_argument("--state", help="covariance file (JSON or CSV)")

    p = sub.add_parser("gen-synthetic", help="generate synthetic measurement records")
    add_common(p)
    p.add_argument("--s", help="squeezing grid in dB")
    p.add_argument("--n", help="noise photon grid")
    p.add_argument("--chi1", type=float)
    p.add_argument("--chi2", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--noise", type=float, help="Gaussian perturbation amplitude")
    p.add_argument("--seed", type=int)

    return parser


_HANDLERS = {
    "sweep": _cmd_sweep,
    "features": _cmd_features,
    "qkd": _cmd_qkd,
    "fit": _cmd_fit,
    "tomo": _cmd_tomo,
    "validate": _cmd_validate,
    "gen-synthetic": _cmd_gen_synthetic,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help(sys.stderr)
        return 2
    try:
        config = _load_config(getattr(args, "config", None))
        return _HANDLERS[args.command](args, config)
    except ConfigError as exc:
        print(f"tmsflow: {exc}", file=sys.stderr)
        return 2
    except TmsflowError as exc:
        print(f"tmsflow: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
