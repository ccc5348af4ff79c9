"""Weighted least-squares estimation of the amplifier-noise power law.

Fits the two coefficients of ``n_jpa(G) = chi1 (G - 1)**chi2`` against
measured (squeezing level, injected noise, discord/EoF) records by
minimizing a weighted quadratic cost with a derivative-free simplex
search.  Ships a synthetic-record generator so the recovery pipeline can
be exercised without access to raw measurement data.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .correlations import correlation_report
from .errors import DomainError, ModelFailureError, TmsflowError
from .states import StateModel

DEFAULT_WEIGHTS = (0.5, 0.5, 1.0)
DEFAULT_COUPLING = 0.01  # -20 dB directional coupler
DEFAULT_INITIAL = (0.0, 1.0)
_MAX_ITERATIONS = 2000


@dataclass(frozen=True)
class MeasurementRecord:
    """One measured point: squeezing level (dB), injected noise photons,
    and the three observables in nats."""

    s_db: float
    n: float
    d_a: float
    d_b: float
    e_f: float
    sd_a: float | None = None
    sd_b: float | None = None
    se_f: float | None = None

    def __post_init__(self) -> None:
        if self.s_db < 0:
            raise DomainError(f"squeezing level must be >= 0 dB, got {self.s_db}")
        if self.n < 0:
            raise DomainError(f"noise photon number must be >= 0, got {self.n}")


@dataclass(frozen=True)
class FitResult:
    chi1: float
    chi2: float
    final_cost: float
    iterations: int
    converged: bool
    clamp_activations: int = 0


def _fit_model(chi: tuple[float, float], coupling_beta: float) -> StateModel:
    """The realistic model at chi, with chi1 clamped to >= 0."""
    return StateModel.realistic(chi1=max(chi[0], 0.0), chi2=chi[1], beta=coupling_beta)


def _model_observables(model: StateModel, s_db: float, n: float) -> tuple[float, float, float]:
    rep = correlation_report(model.state(s_db, n))
    return rep.d_a, rep.d_b, rep.e_f


def cost(
    records: list[MeasurementRecord],
    chi: tuple[float, float],
    weights: tuple[float, float, float] = DEFAULT_WEIGHTS,
    coupling_beta: float = DEFAULT_COUPLING,
) -> float:
    """Weighted sum of squared residuals of (D_A, D_B, E_F) over records."""
    if not records:
        raise DomainError("cost needs at least one record")
    w1, w2, w3 = weights
    model = _fit_model(chi, coupling_beta)
    total = 0.0
    for idx, rec in enumerate(records):
        try:
            d_a, d_b, e_f = _model_observables(model, rec.s_db, rec.n)
        except TmsflowError as exc:
            raise ModelFailureError(
                f"model evaluation failed for record {idx} "
                f"(S={rec.s_db} dB, n={rec.n}): {exc}",
                record_index=idx,
            ) from exc
        total += (
            w1 * (d_a - rec.d_a) ** 2
            + w2 * (d_b - rec.d_b) ** 2
            + w3 * (e_f - rec.e_f) ** 2
        )
    return total


def fit(
    records: list[MeasurementRecord],
    weights: tuple[float, float, float] = DEFAULT_WEIGHTS,
    initial: tuple[float, float] = DEFAULT_INITIAL,
    coupling_beta: float = DEFAULT_COUPLING,
) -> FitResult:
    """Simplex descent of the weighted cost from the given initial point.

    Records at exactly S = 0 are excluded with a warning (the power law
    has an infinite gain slope there).  chi1 is clamped to >= 0 inside
    the cost; the number of evaluations that hit the clamp is reported.
    Convergence requires both the simplex diameter below 1e-6 and the
    cost spread below 1e-12; on iteration exhaustion the best vertex is
    returned with ``converged=False``.  The weights must be nonnegative and
    not all zero, or the cost has no minimum.
    """
    from scipy.optimize import minimize

    if not (min(weights) >= 0.0 and max(weights) > 0.0):
        raise DomainError(f"weights must be >= 0 and not all zero, got {list(weights)}")
    usable = [r for r in records if r.s_db > 0.0]
    if len(usable) < len(records):
        warnings.warn(
            f"excluded {len(records) - len(usable)} record(s) at S = 0 dB from the fit",
            stacklevel=2,
        )
    if len({r.s_db for r in usable}) < 2:
        raise DomainError("fit needs records at two or more distinct squeezing levels")

    clamps = 0

    def objective(chi: np.ndarray) -> float:
        nonlocal clamps
        if chi[0] < 0.0:
            clamps += 1
        return cost(usable, (float(chi[0]), float(chi[1])), weights, coupling_beta)

    result = minimize(
        objective,
        x0=np.array(initial, dtype=float),
        method="Nelder-Mead",
        options={
            "xatol": 1e-6,
            "fatol": 1e-12,
            "maxiter": _MAX_ITERATIONS,
            "maxfev": 4 * _MAX_ITERATIONS,
        },
    )
    chi1 = max(float(result.x[0]), 0.0)
    return FitResult(
        chi1=chi1,
        chi2=float(result.x[1]),
        final_cost=float(result.fun),
        iterations=int(result.nit),
        converged=bool(result.success),
        clamp_activations=clamps,
    )


def synthetic_records(
    s_values,
    n_values,
    chi: tuple[float, float] = (0.05, 0.56),
    coupling_beta: float = DEFAULT_COUPLING,
    noise: float = 0.0,
    seed: int | None = None,
) -> list[MeasurementRecord]:
    """Model-generated records, optionally with Gaussian perturbations of
    the given amplitude on every observable."""
    if not noise >= 0.0:
        raise DomainError(f"noise amplitude must be >= 0, got {noise}")
    model = _fit_model(chi, coupling_beta)
    rng = np.random.default_rng(seed)
    records = []
    for s_db in s_values:
        for n in n_values:
            d_a, d_b, e_f = _model_observables(model, float(s_db), float(n))
            if noise > 0.0:
                d_a += noise * rng.standard_normal()
                d_b += noise * rng.standard_normal()
                e_f += noise * rng.standard_normal()
            records.append(
                MeasurementRecord(s_db=float(s_db), n=float(n), d_a=d_a, d_b=d_b, e_f=e_f)
            )
    return records


# ---------------------------------------------------------------------------
# CSV / JSON interchange
# ---------------------------------------------------------------------------

RECORDS_CSV_HEADER = "s_db,n,d_a,d_b,e_f"


def records_to_csv(records: list[MeasurementRecord]) -> str:
    lines = [RECORDS_CSV_HEADER]
    for r in records:
        fields = [r.s_db, r.n, r.d_a, r.d_b, r.e_f]
        if r.sd_a is not None:
            fields += [r.sd_a, r.sd_b, r.se_f]
        lines.append(",".join(repr(float(x)) for x in fields))
    return "\n".join(lines) + "\n"


def records_from_csv(text: str) -> list[MeasurementRecord]:
    """Parse a record table; raises ValueError naming the offending line."""
    reader = csv.reader(io.StringIO(text))
    records = []
    header_allowed = True
    for line_no, row in enumerate(reader, start=1):
        if not row or (row[0].strip().startswith("#")):
            continue
        if header_allowed and not _is_number(row[0]):
            header_allowed = False
            continue  # header row
        header_allowed = False
        if len(row) not in (5, 8):
            raise ValueError(f"line {line_no}: expected 5 or 8 columns, got {len(row)}")
        try:
            vals = [float(tok) for tok in row]
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"line {line_no}: non-finite entry")
        extra = {}
        if len(vals) == 8:
            extra = {"sd_a": vals[5], "sd_b": vals[6], "se_f": vals[7]}
        try:
            record = MeasurementRecord(
                s_db=vals[0], n=vals[1], d_a=vals[2], d_b=vals[3], e_f=vals[4], **extra
            )
        except DomainError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
        records.append(record)
    return records


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def fit_result_to_json(result: FitResult) -> str:
    return json.dumps(
        {
            "chi1": result.chi1,
            "chi2": result.chi2,
            "final_cost": result.final_cost,
            "iterations": result.iterations,
            "converged": result.converged,
            "clamp_activations": result.clamp_activations,
        }
    )
