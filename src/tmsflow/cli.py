"""Command-line front end: batch sweeps, feature extraction, QKD keys,
fitting and tomography with deterministic CSV/JSON output.

Grid arguments accept a single value (``6.5``), a comma list
(``1,2,6.5``) or an inclusive range ``start:stop:step`` (endpoints kept
within half a step).  A JSON config file can stand in for any flag: its
keys are the flag names, spelled with ``-`` or ``_``, and explicit flags
win on conflict.  Every output embeds the tool version and the effective
config, as ``#`` comment lines in CSV or a ``meta`` field in JSON, and
identical configs produce byte-identical files.  Every setting is declared
once, in ``_SETTINGS``; ``_COMMANDS`` lists each subcommand's settings.
Each subcommand imports the model modules it runs, so a job loads no other.

Exit codes: 0 success, 2 usage or config error, 3 model or numeric
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import warnings
from itertools import chain
from typing import Callable, NamedTuple

from . import __version__
from ._defaults import (
    DEFAULT_CHI,
    DEFAULT_CLONER_COUPLING,
    DEFAULT_COUPLING,
    DEFAULT_INITIAL,
    DEFAULT_THRESHOLD,
    DEFAULT_WEIGHTS,
)
from .errors import DomainError, TmsflowError, TooFewSamplesError


class ConfigError(Exception):
    pass


def parse_grid(spec: str) -> list[float]:
    """Parse a scalar, comma list, or inclusive start:stop:step range."""
    spec = str(spec).strip()
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
    values = [_finite(tok, "grid value") for tok in spec.split(",") if tok.strip()]
    if not values:
        raise ConfigError("empty grid specification")
    return values


def _finite(value, what: str) -> float:
    """A grid token, flag or config value as a finite float."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return number


def _positive(value, what: str) -> float:
    """A flag or config value as a finite float > 0."""
    number = _finite(value, what)
    if not number > 0.0:
        raise ConfigError(f"{what} must be > 0, got {value!r}")
    return number


def _accepting(ok: Callable, wants: str):
    """The check that keeps a value for which ``ok`` holds."""

    def check(value, name: str):
        if not ok(value):
            raise ConfigError(f"{name} must be {wants}, got {value!r}")
        return value

    return check


_path = _accepting(lambda v: isinstance(v, str) and v, "a non-empty path")
_seed = _accepting(lambda v: type(v) is int and v >= 0, "a non-negative integer")
_bool = _accepting(lambda v: isinstance(v, bool), "true or false")
_format = _accepting(lambda v: v in ("csv", "json"), "csv or json")


def _pair(value, name: str) -> tuple[float, float]:
    pair = tuple(_finite(x, name) for x in str(value).split(","))
    if len(pair) != 2:
        raise ConfigError(f"--{name} needs two comma-separated values, got {str(value)!r}")
    return pair


def _distinct(*allowed: str):
    """The check for a comma list of distinct names from ``allowed``."""

    def ok(value) -> bool:
        names = str(value).split(",")
        return set(names) <= set(allowed) and len(set(names)) == len(names)

    return _accepting(ok, f"a comma list of distinct {', '.join(allowed)}")


class _Setting(NamedTuple):
    """A setting ``name`` of ``_SETTINGS``: flag ``--name``, config key ``name``."""

    check: Callable | None  # (value, name) -> checked value; None keeps a grid spec or model raw
    default: object = None  # used as is, unchecked
    help: str | None = None
    flag: dict = {}  # further argparse keywords


_FLOAT = {"type": float}

_SETTINGS = {
    "out": _Setting(_path, help="output path (default: stdout)"),
    "s": _Setting(None, help="squeezing grid in dB: value, list, or start:stop:step"),
    "n": _Setting(None, help="noise photon grid: value, list, or start:stop:step"),
    "model": _Setting(None, "ideal", "ideal | coupler | realistic"),
    "beta": _Setting(_finite, DEFAULT_COUPLING, "coupler power coupling", _FLOAT),
    "chi1": _Setting(_finite, DEFAULT_CHI[0], "amplifier noise coefficient", _FLOAT),
    "chi2": _Setting(_finite, DEFAULT_CHI[1], "amplifier noise exponent", _FLOAT),
    "format": _Setting(_format, "csv", "csv (default) or json"),
    "what": _Setting(_distinct("nsd", "nc"), "nsd,nc", "comma list of nsd,nc (default both)"),
    "flavors": _Setting(_distinct("A", "B", "AB"), "A,B,AB", "comma list of A,B,AB (default all)"),
    "nq": _Setting(None, help="detected-quadrature noise grid"),
    "cloner-beta": _Setting(_finite, DEFAULT_CLONER_COUPLING, flag=_FLOAT),
    "threshold-out": _Setting(_path, help="path for the threshold curve"),
    "records": _Setting(_path, help="CSV of s_db,n,d_a,d_b,e_f[,sd_a,sd_b,se_f]"),
    "w1": _Setting(_finite, DEFAULT_WEIGHTS[0], flag=_FLOAT),
    "w2": _Setting(_finite, DEFAULT_WEIGHTS[1], flag=_FLOAT),
    "w3": _Setting(_finite, DEFAULT_WEIGHTS[2], flag=_FLOAT),
    "init": _Setting(_pair, DEFAULT_INITIAL, "initial chi1,chi2 (default 0,1)"),
    "samples": _Setting(_path, help="CSV with header I1,Q1,I2,Q2"),
    "threshold": _Setting(
        _positive, DEFAULT_THRESHOLD, "Gaussianity threshold in standard errors (> 0)", _FLOAT
    ),
    "project": _Setting(
        _bool, None, "clamp the spectrum to physical", {"action": "store_true", "default": None}
    ),
    "covariance-out": _Setting(_path),
    "cumulants-out": _Setting(_path),
    "state": _Setting(_path, help="covariance file (JSON or CSV)"),
    "noise": _Setting(_finite, 0.0, "Gaussian perturbation amplitude", _FLOAT),
    "seed": _Setting(_seed, flag={"type": int}),
}


class _Settings(dict):
    """A command's settings by name, resolved and checked at once: a flag
    wins over a config key, which wins over the default.  Every given value
    is checked, also one the run does not use, such as a model's unused
    parameter; defaults are used as they are."""

    def __init__(self, args: argparse.Namespace, config: dict, command: _Command):
        super().__init__()
        self._command = args.command
        for name in command.settings.split():
            setting = _SETTINGS[name]
            value = getattr(args, name.replace("-", "_"))
            if value is None:
                value = config.get(name)
            if value is None:
                value = command.defaults.get(name, setting.default)
            elif setting.check:
                value = setting.check(value, name)
            self[name] = value

    def echo(self, names: tuple[str, ...], **derived) -> str:
        """The config echo: the command, the named settings and the
        ``derived`` values, with keys sorted and None values left out."""
        pairs = {name.replace("-", "_"): self[name] for name in names}
        pairs.update(command=self._command, **derived)
        return json.dumps({k: v for k, v in sorted(pairs.items()) if v is not None})


def _load_config(path: str | None) -> dict:
    """The config file's object, keyed by setting name; a key no subcommand
    reads, one given twice in an object, or one spelled both with ``-`` and
    with ``_``, is a usage error."""
    if not path:
        return {}

    def unique(pairs: list) -> dict:
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ConfigError(f"config {path} has key {key} twice")
            doc[key] = value
        return doc

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=unique)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    config = {}
    for key, value in doc.items():
        name = key.replace("_", "-")
        if name in config:
            raise ConfigError(f"config {path} has key {name} twice, spelled with - and with _")
        config[name] = value
    # "command" is in every output's config echo
    unknown = sorted(config.keys() - _SETTINGS.keys() - {"command"})
    if unknown:
        raise ConfigError(f"config {path} has unknown keys: {', '.join(unknown)}")
    return config


def _read_input(settings: _Settings, name: str, parse, what: str, binary: bool = False):
    """``parse`` of the open file the path setting ``name`` names, as UTF-8
    text or, with ``binary``, as bytes; a file that cannot be opened or
    decoded as UTF-8, or is malformed, is a usage error.  A decode error
    names the byte's offset in a seekable file: the bytes the decoder
    failed on, the text stream's last read or the block of bytes ``parse``
    decoded, end where the file has been read to."""
    try:
        with open(settings[name], "rb") if binary else open(settings[name], encoding="utf-8") as fh:
            try:
                return parse(fh)
            except UnicodeDecodeError as exc:
                byte = f"byte 0x{exc.object[exc.start]:02x}"
                raw = fh if binary else fh.buffer
                if raw.seekable():  # a pipe has no offset
                    byte += f" at file offset {raw.tell() - len(exc.object) + exc.start}"
                raise ConfigError(
                    f"cannot read {name}: 'utf-8' codec can't decode {byte}: {exc.reason}"
                ) from None
    except OSError as exc:
        raise ConfigError(f"cannot read {name}: {exc}") from None
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"malformed {what}: {exc}") from None
    except TmsflowError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _checked(build, *args, **kwargs):
    """``build(*args, **kwargs)``; a parameter it rejects is a usage error."""
    try:
        return build(*args, **kwargs)
    except TmsflowError as exc:
        raise ConfigError(str(exc)) from None


def _build_model(settings: _Settings) -> StateModel:
    from .states import StateModel

    name = str(settings["model"])
    if name == "ideal":
        return StateModel.ideal()
    if name == "coupler":
        return StateModel.coupler(settings["beta"])
    if name == "realistic":
        return StateModel.realistic(settings["chi1"], settings["chi2"], settings["beta"])
    raise ConfigError(f"unknown model {name!r} (ideal | coupler | realistic)")


def _model_echo(model: StateModel) -> dict:
    """The model's kind, beta and chi1/chi2 for a meta echo (None is not echoed)."""
    jpa = dataclasses.asdict(model.jpa) if model.jpa else {}
    return {"model": model.kind, "beta": model.coupling_beta, **jpa}


def _csv_header_lines(config_echo: str) -> str:
    return f"# tmsflow {__version__}\n# config: {config_echo}\n"


def _emit(*documents: tuple) -> None:
    """Write each ``(text, path)`` document, to stdout where the path is None;
    the text is a string or an iterable of string chunks.

    Every path is opened (without truncation) before any text is written,
    and an unwritable path is a usage error that leaves no new file behind.
    """
    paths = [path for _, path in documents if path]
    created = [path for path in paths if not os.path.exists(path)]
    try:
        for path in paths:
            open(path, "a").close()
        for text, path in documents:
            chunks = (text,) if isinstance(text, str) else text
            if path:
                with open(path, "w", encoding="utf-8", newline="\n") as fh:
                    fh.writelines(chunks)
            else:
                sys.stdout.writelines(chunks)
    except OSError as exc:
        for done in filter(os.path.exists, created):
            os.remove(done)
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _meta(config_echo: str) -> dict:
    """The ``meta`` field of a JSON output: tool version and config echo."""
    return {"tool": f"tmsflow {__version__}", "config": json.loads(config_echo)}


def _json_with_meta(payload: dict, config_echo: str) -> str:
    """The payload document with a ``meta`` field, encoded once."""
    return json.dumps({**payload, "meta": _meta(config_echo)}, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_sweep(settings: _Settings) -> int:
    from .analysis import sweep, sweep_blocks_to_csv, sweep_blocks_to_json

    out, fmt = settings["out"], settings["format"]
    model = _checked(_build_model, settings)
    s_vals, n_vals = parse_grid(settings["s"]), parse_grid(settings["n"])
    grid = _checked(sweep, model, s_vals, n_vals)  # rejects only a malformed axis
    echo = settings.echo(("s", "n"), **_model_echo(model))
    if fmt == "json":
        _emit((sweep_blocks_to_json(grid, _meta(echo)), out))
    else:
        _emit((chain((_csv_header_lines(echo),), sweep_blocks_to_csv(grid)), out))
    return 3 if len(grid.arrays.errors) == grid.arrays.d_a.size else 0


def _cmd_features(settings: _Settings) -> int:
    from .analysis import _crossovers, _sudden_deaths, csv_status

    out = settings["out"]
    model = _checked(_build_model, settings)
    s_vals = parse_grid(settings["s"])
    what, flavors = settings["what"].split(","), settings["flavors"].split(",")
    echo = settings.echo(("s", "what", "flavors"), **_model_echo(model))
    cols = (["n_sd"] if "nsd" in what else []) + [f"n_c_{f}" for f in flavors if "nc" in what]
    # n_sd alone makes no kernel call
    table = (_crossovers if "nc" in what else _sudden_deaths)(model, s_vals)
    lines = [",".join(["s_db", *cols, "status"])]
    successes = 0
    for s_db, entry in zip(s_vals, table):
        row, notes = [repr(float(s_db))], []
        for col in cols:
            value = entry[col.removeprefix("n_c_")]
            if isinstance(value, TmsflowError):
                row.append("nan")
                notes.append(f"{col}: {value}")
            else:
                row.append(repr(value))
        row.append(csv_status("; ".join(notes)) if notes else "ok")
        successes += 1 if not notes else 0
        lines.append(",".join(row))
    _emit((_csv_header_lines(echo) + "\n".join(lines) + "\n", out))
    return 0 if successes else 3


def _cmd_qkd(settings: _Settings) -> int:
    from .analysis import csv_status
    from .qkd import (
        QKD_CSV_HEADER,
        QkdScenario,
        _key_bits,
        _key_result_doc,
        _key_thresholds,
        _level,
        secret_key,
    )
    from .states import _squeezing_factor

    out, threshold_out = settings["out"], settings["threshold-out"]
    s_vals, nq_vals = parse_grid(settings["s"]), parse_grid(settings["nq"])
    r_vals = [_checked(_squeezing_factor, s_db) for s_db in s_vals]
    beta = settings["cloner-beta"]
    echo = settings.echo(("s", "nq", "cloner-beta"))
    if len(s_vals) == 1 and len(nq_vals) == 1:
        scenario = _checked(QkdScenario, r_vals[0], nq_vals[0], beta)
        text = _json_with_meta(_key_result_doc(scenario, secret_key(scenario)), echo)
    else:
        # each cell's key_result_to_csv_row, with the level terms and reprs formed once
        rows, nq_reprs = [], [repr(n_q) for n_q in nq_vals]
        for i, (s_db, r) in enumerate(zip(s_vals, r_vals)):
            level, s_repr = _level(r), repr(s_db)
            for n_q, nq_repr in zip(nq_vals, nq_reprs):
                if not i:  # the other rows read the same n_q and beta
                    _checked(QkdScenario, r, n_q, beta)
                mi, chi = _key_bits(level, n_q, beta)
                rows.append(f"{s_repr},{nq_repr},{mi!r},{chi!r},{mi - chi!r}")
        text = _csv_header_lines(echo) + QKD_CSV_HEADER + "\n" + "\n".join(rows) + "\n"
    if not threshold_out:
        _emit((text, out))
        return 0
    tl = ["s_db,n_q_threshold,status"]
    any_ok = False
    for s_db, threshold in zip(s_vals, _key_thresholds(s_vals, beta)):
        if isinstance(threshold, TmsflowError):
            tl.append(f"{s_db!r},nan,{csv_status(str(threshold))}")
        else:
            tl.append(f"{s_db!r},{threshold!r},ok")
            any_ok = True
    _emit((text, out), (_csv_header_lines(echo) + "\n".join(tl) + "\n", threshold_out))
    return 0 if any_ok else 3


def _cmd_fit(settings: _Settings) -> int:
    from .fit import fit, records_from_csv
    from .states import StateModel

    out = settings["out"]
    records = _read_input(settings, "records", records_from_csv, "records CSV")
    weights = (settings["w1"], settings["w2"], settings["w3"])
    if min(weights) < 0.0 or max(weights) == 0.0:
        raise ConfigError(f"weights must be >= 0 and not all zero, got {list(weights)}")
    init, beta = settings["init"], settings["beta"]
    _checked(StateModel.coupler, beta)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fit(records, weights=weights, initial=init, coupling_beta=beta)
    except DomainError as exc:  # too few usable records
        raise ConfigError(f"records {settings['records']}: {exc}") from None
    for warning in caught:  # the S = 0 exclusion
        print(f"tmsflow: warning: {warning.message}", file=sys.stderr)
    echo = settings.echo(("records", "beta", "w1", "w2", "w3"), init="%r,%r" % init)
    _emit((_json_with_meta(dataclasses.asdict(result), echo), out))
    return 0


def _cmd_tomo(settings: _Settings) -> int:
    from .symplectic import _covariance_doc
    from .tomography import (
        _cumulant_report_doc,
        _report_covariance,
        cumulants,
        project_to_physical,
        samples_from_csv,
    )

    covariance_out, cumulants_out = settings["covariance-out"], settings["cumulants-out"]
    samples = _read_input(settings, "samples", samples_from_csv, "samples CSV", binary=True)
    threshold, project = settings["threshold"], settings["project"]
    # "project" is echoed only when set, so un-projected outputs keep their bytes
    echo = settings.echo(("samples", "threshold"), project=project or None)
    try:
        report = cumulants(samples, threshold=threshold)
    except (DomainError, TooFewSamplesError) as exc:  # a constant column, too few rows
        raise ConfigError(f"samples: {exc}") from None
    cov = _report_covariance(report)
    if project:
        cov = project_to_physical(cov)
    _emit(
        (_json_with_meta(_covariance_doc(cov), echo), covariance_out),
        (_json_with_meta(_cumulant_report_doc(report), echo), cumulants_out),
    )
    return 0


def _covariance_from_file(fh):
    """A stored covariance: JSON where the text starts with ``{``, else CSV."""
    from .symplectic import covariance_from_csv, covariance_from_json

    text = fh.read()
    return (covariance_from_json if text.lstrip().startswith("{") else covariance_from_csv)(text)


def _cmd_validate(settings: _Settings) -> int:
    from .symplectic import validate

    out = settings["out"]
    cov = _read_input(settings, "state", _covariance_from_file, "state file")
    verdict = validate(cov)
    payload = {
        "ok": verdict.ok,
        "violations": list(verdict.violations),
        "min_symplectic_eigenvalue": verdict.min_symplectic_eigenvalue,
    }
    echo = settings.echo(("state",))
    _emit((_json_with_meta(payload, echo), out))
    return 0


def _cmd_gen_synthetic(settings: _Settings) -> int:
    from .fit import records_to_csv, synthetic_records
    from .states import StateModel, _check_noise, _squeezing_factor

    out = settings["out"]
    chi1, chi2, beta = settings["chi1"], settings["chi2"], settings["beta"]
    noise, seed = settings["noise"], settings["seed"]
    if noise < 0.0:
        raise ConfigError(f"noise amplitude must be >= 0, got {noise}")
    _checked(StateModel.realistic, chi1, chi2, beta)
    s_vals, n_vals = parse_grid(settings["s"]), parse_grid(settings["n"])
    for s_db in s_vals:
        _checked(_squeezing_factor, s_db)
    for n in n_vals:
        _checked(_check_noise, n)
    records = synthetic_records(
        s_vals, n_vals, chi=(chi1, chi2), coupling_beta=beta, noise=noise, seed=seed
    )
    echo = settings.echo(("s", "n", "chi1", "chi2", "beta", "noise", "seed"))
    _emit((_csv_header_lines(echo) + records_to_csv(records), out))
    return 0


# ---------------------------------------------------------------------------


class _Command(NamedTuple):
    handler: Callable[[_Settings], int]
    help: str
    settings: str  # setting names in flag order, after --config
    needs: str = ""  # the settings it cannot run without
    defaults: dict = {}  # its own defaults, in place of the settings' defaults


_COMMANDS = {
    "sweep": _Command(
        _cmd_sweep, "correlation reports on an (S, n) grid",
        "out s n model beta chi1 chi2 format", needs="s n",
    ),
    "features": _Command(
        _cmd_features, "sudden-death and crossover tables n_sd(S), n_c(S)",
        "out s what flavors model beta chi1 chi2", needs="s",
    ),
    "qkd": _Command(
        _cmd_qkd, "secret keys on an (S, n_q) grid, plus threshold curve",
        "out s nq cloner-beta threshold-out", needs="s nq",
    ),
    "fit": _Command(
        _cmd_fit, "fit the amplifier-noise power law to records",
        "out records w1 w2 w3 init beta", needs="records",
    ),
    "tomo": _Command(
        _cmd_tomo, "covariance + cumulant report from quadrature samples",
        "samples threshold project covariance-out cumulants-out", needs="samples",
    ),
    "validate": _Command(
        _cmd_validate, "physicality verdict for a stored covariance", "out state", needs="state"
    ),
    "gen-synthetic": _Command(
        _cmd_gen_synthetic, "generate synthetic measurement records",
        "out s n chi1 chi2 beta noise seed", defaults={"s": "3:9:1.5", "n": "0,0.1,0.25,0.5,1,2"},
    ),
}


@functools.cache  # parse_args keeps no state on the parser, and help is formatted when printed
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmsflow",
        description="Noisy two-mode squeezed states: correlation sweeps, "
        "noise thresholds, CV-QKD keys, fits, and tomography.",
    )
    parser.add_argument("--version", action="version", version=f"tmsflow {__version__}")
    sub = parser.add_subparsers(dest="command")
    for command, spec in _COMMANDS.items():
        p = sub.add_parser(command, help=spec.help)
        p.add_argument("--config", help="JSON config file; explicit flags win")
        for name in spec.settings.split():
            setting = _SETTINGS[name]
            p.add_argument(f"--{name}", help=setting.help, **setting.flag)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help(sys.stderr)
        return 2
    command = _COMMANDS[args.command]
    try:
        settings = _Settings(args, _load_config(args.config), command)
        for name in command.needs.split():
            if settings[name] is None:
                raise ConfigError(f"{args.command} needs --{name}")
        return command.handler(settings)
    except ConfigError as exc:
        print(f"tmsflow: {exc}", file=sys.stderr)
        return 2
    except TmsflowError as exc:
        print(f"tmsflow: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
