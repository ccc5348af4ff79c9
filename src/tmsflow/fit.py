"""Weighted least-squares estimation of the amplifier-noise power law.

Fits the two coefficients of ``n_jpa(G) = chi1 (G - 1)**chi2`` against
measured (squeezing level, injected noise, discord/EoF) records by
minimizing a weighted sum of squared residuals with a damped Gauss-Newton
(Levenberg) iteration on a forward-difference Jacobian, and reports
standard errors of both coefficients from the same Jacobian.  Ships a
synthetic-record generator so the recovery pipeline can be exercised
without access to raw measurement data.

Refs: Levenberg, Q. Appl. Math. 2, 164 (1944); Marquardt, SIAM J. Appl.
Math. 11, 431 (1963).
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .correlations import correlation_arrays
from .errors import DomainError, ModelFailureError
from .states import StateModel

DEFAULT_WEIGHTS = (0.5, 0.5, 1.0)
DEFAULT_COUPLING = 0.01  # -20 dB directional coupler
DEFAULT_INITIAL = (0.0, 1.0)
_MAX_ITERATIONS = 200
_FD_STEP = math.sqrt(np.finfo(float).eps)  # relative forward-difference step
_INITIAL_DAMPING = 1e-3
_MIN_DAMPING = 1e-12
_MAX_DAMPING = 1e16
_DECREMENT_TOL = 1e-12  # Gauss-Newton decrement relative to the cost
_STEP_TOL = 1e-10  # Gauss-Newton step relative to |chi|
_MAX_CONDITION = 1e8  # of the normalised J^T J; the forward difference resolves no more


@dataclass(frozen=True)
class MeasurementRecord:
    """One measured point: squeezing level (dB), injected noise photons,
    the three observables in nats, and optionally the standard deviation
    of each observable (all three or none; each finite and > 0)."""

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
        sigmas = (self.sd_a, self.sd_b, self.se_f)
        if sigmas.count(None) not in (0, 3):
            raise DomainError(f"give all three of sd_a, sd_b, se_f or none, got {sigmas}")
        if self.sd_a is not None and not all(math.isfinite(s) and s > 0.0 for s in sigmas):
            raise DomainError(f"standard deviations must be finite and > 0, got {sigmas}")


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficients with their standard errors (None where J^T J is
    singular at the optimum) and the reduced chi-squared cost / (m - 2)."""

    chi1: float
    chi2: float
    final_cost: float
    iterations: int
    converged: bool
    clamp_activations: int = 0
    chi1_se: float | None = None
    chi2_se: float | None = None
    reduced_chi2: float | None = None


def _fit_model(chi: tuple[float, float], coupling_beta: float) -> StateModel:
    """The realistic model at chi, with chi1 clamped to >= 0."""
    return StateModel.realistic(chi1=max(chi[0], 0.0), chi2=chi[1], beta=coupling_beta)


def _residuals(records, chi, weights, coupling_beta: float) -> np.ndarray:
    """Residuals of (D_A, D_B, E_F), three per record: ``(model - measured)
    / sigma`` for a record that carries sigma, ``sqrt(w) (model - measured)``
    otherwise.  All records are one kernel call; the first record whose
    model evaluation fails raises :class:`ModelFailureError`."""
    s_db, n = np.array([[rec.s_db, rec.n] for rec in records]).reshape(-1, 2).T
    res = correlation_arrays(_fit_model(chi, coupling_beta).standard_form(s_db, n))
    if res.errors:
        idx = min(res.errors)
        rec = records[idx]
        raise ModelFailureError(
            f"model evaluation failed for record {idx} "
            f"(S={rec.s_db} dB, n={rec.n}): {res.errors[idx]}",
            record_index=idx,
        ) from res.errors[idx]
    root_w = [math.sqrt(w) for w in weights]
    scale, sigma = [], []
    for rec in records:
        if rec.sd_a is None:
            scale.append(root_w)
            sigma.append((1.0, 1.0, 1.0))
        else:
            scale.append((1.0, 1.0, 1.0))
            sigma.append((rec.sd_a, rec.sd_b, rec.se_f))
    predicted = np.stack((res.d_a, res.d_b, res.e_f), axis=-1)
    measured = np.array([(rec.d_a, rec.d_b, rec.e_f) for rec in records])
    return ((np.array(scale) * (predicted - measured)) / np.array(sigma)).ravel()


def cost(
    records: list[MeasurementRecord],
    chi: tuple[float, float],
    weights: tuple[float, float, float] = DEFAULT_WEIGHTS,
    coupling_beta: float = DEFAULT_COUPLING,
) -> float:
    """Sum of squared residuals of (D_A, D_B, E_F) over records: weighted
    by ``weights``, or by ``1/sigma**2`` for a record that carries sigma."""
    if not records:
        raise DomainError("cost needs at least one record")
    r = _residuals(records, chi, weights, coupling_beta)
    return float(r @ r)


def fit(
    records: list[MeasurementRecord],
    weights: tuple[float, float, float] = DEFAULT_WEIGHTS,
    initial: tuple[float, float] = DEFAULT_INITIAL,
    coupling_beta: float = DEFAULT_COUPLING,
) -> FitResult:
    """Levenberg descent of the cost from the given initial point.

    Records at exactly S = 0 are excluded with a warning (the power law
    has an infinite gain slope there).  The weights must be nonnegative and
    not all zero, or the cost has no minimum.

    Each iteration forms the forward-difference Jacobian J of the residual
    vector r (two extra residual evaluations) and tries the damped step
    ``-(J^T J + lam tr(J^T J) I)^-1 J^T r``: a step that lowers the cost is
    taken and lam divided by 10, otherwise lam is multiplied by 10 (a step
    on which the model fails counts as infinite cost).  chi1 >= 0 is a
    bound: the start and every step are projected onto it, and each
    projection is counted in ``clamp_activations``; a start where the model
    fails raises ``ModelFailureError``.  ``iterations`` counts taken steps.

    The fit has converged when the Gauss-Newton step from the current
    point, over the coefficients not held at the bound, predicts a cost
    decrease below 1e-12 of the cost, or is shorter than 1e-10 |chi| (a
    zero-residual fit).  It stops unconverged after 200 steps or when no
    damping up to 1e16 lowers the cost.  The standard errors come from the
    last Jacobian, ``(J^T J)^-1 cost / (m - 2)`` for m residuals; they are
    None when J^T J is singular there (as on the bound chi1 = 0).
    """
    if not (min(weights) >= 0.0 and max(weights) > 0.0):
        raise DomainError(f"weights must be >= 0 and not all zero, got {list(weights)}")
    usable = [r for r in records if r.s_db > 0.0]
    if len(usable) < len(records):
        warnings.warn(
            f"excluded {len(records) - len(usable)} record(s) at S = 0 dB from the fit",
            stacklevel=2,
        )
    levels = len({r.s_db for r in usable})
    if levels < 2:
        raise DomainError(
            f"fit needs records at two or more distinct squeezing levels above 0 dB, got {levels}"
        )

    clamps = 0

    def projected(chi: np.ndarray) -> np.ndarray:
        nonlocal clamps
        if chi[0] < 0.0:
            clamps += 1
            chi = np.array([0.0, chi[1]])
        return chi

    def residuals(chi: np.ndarray) -> np.ndarray:
        return _residuals(usable, (float(chi[0]), float(chi[1])), weights, coupling_beta)

    x = projected(np.array(initial, dtype=float))
    r = residuals(x)
    c = float(r @ r)
    lam = _INITIAL_DAMPING
    iterations = 0
    converged = False
    while True:
        J = _jacobian(residuals, x, r)
        A, g = J.T @ J, J.T @ r
        if _stationary(x, A, g, c):
            converged = True
            break
        if iterations == _MAX_ITERATIONS:
            break
        while lam <= _MAX_DAMPING:
            step = np.linalg.solve(A + lam * np.trace(A) * np.eye(2), -g)
            trial = projected(x + step)
            try:
                r_trial = residuals(trial)
                c_trial = float(r_trial @ r_trial)
            except ModelFailureError:
                c_trial = math.inf
            if c_trial < c:
                break
            lam *= 10.0
        else:
            break  # no damping lowers the cost
        x, r, c = trial, r_trial, c_trial
        lam = max(lam / 10.0, _MIN_DAMPING)
        iterations += 1
    reduced = c / (len(r) - 2)
    chi1_se, chi2_se = _standard_errors(A, reduced)
    return FitResult(
        chi1=float(x[0]),
        chi2=float(x[1]),
        final_cost=c,
        iterations=iterations,
        converged=converged,
        clamp_activations=clamps,
        chi1_se=chi1_se,
        chi2_se=chi2_se,
        reduced_chi2=reduced,
    )


def _jacobian(residuals, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian of ``residuals`` at x, where it is r."""
    J = np.empty((len(r), 2))
    for j in range(2):
        shifted = x.copy()
        shifted[j] += _FD_STEP * max(abs(x[j]), 1.0)
        J[:, j] = (residuals(shifted) - r) / (shifted[j] - x[j])
    return J


def _stationary(x: np.ndarray, A: np.ndarray, g: np.ndarray, c: float) -> bool:
    """Whether the Gauss-Newton step over the free coefficients is negligible.

    chi1 is held when it sits on the bound and the cost rises with it.
    """
    free = np.array([x[0] > 0.0 or g[0] <= 0.0, True])
    step = np.zeros(2)
    step[free] = -np.linalg.pinv(A[np.ix_(free, free)]) @ g[free]
    decrement = -float(g @ step)
    return decrement <= _DECREMENT_TOL * c or bool(
        np.linalg.norm(step) <= _STEP_TOL * (np.linalg.norm(x) + _STEP_TOL)
    )


def _standard_errors(A: np.ndarray, reduced_chi2: float) -> tuple[float | None, float | None]:
    """sqrt(diag((J^T J)^-1) reduced_chi2), or None twice if J^T J is singular."""
    d = np.sqrt(np.diag(A))
    if not np.all(d > 0.0):
        return None, None
    normalised = A / np.outer(d, d)
    if not np.linalg.cond(normalised) <= _MAX_CONDITION:
        return None, None
    variances = np.diag(np.linalg.inv(normalised)) / d**2 * reduced_chi2
    return float(math.sqrt(variances[0])), float(math.sqrt(variances[1]))


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
    s_vals = [float(s_db) for s_db in s_values]
    n_vals = [float(n) for n in n_values]
    model = _fit_model(chi, coupling_beta)
    res = correlation_arrays(model.standard_form(np.array(s_vals)[:, None], np.array(n_vals)))
    if res.errors:
        raise res.errors[min(res.errors)]
    observables = zip(res.d_a.ravel().tolist(), res.d_b.ravel().tolist(), res.e_f.ravel().tolist())
    rng = np.random.default_rng(seed)
    records = []
    for s_db in s_vals:
        for n in n_vals:
            d_a, d_b, e_f = next(observables)
            if noise > 0.0:
                d_a += noise * rng.standard_normal()
                d_b += noise * rng.standard_normal()
                e_f += noise * rng.standard_normal()
            records.append(MeasurementRecord(s_db=s_db, n=n, d_a=d_a, d_b=d_b, e_f=e_f))
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
    return json.dumps(_fit_result_doc(result), allow_nan=False)


def _fit_result_doc(result: FitResult) -> dict:
    return {
        "chi1": result.chi1,
        "chi2": result.chi2,
        "final_cost": result.final_cost,
        "iterations": result.iterations,
        "converged": result.converged,
        "clamp_activations": result.clamp_activations,
        "chi1_se": result.chi1_se,
        "chi2_se": result.chi2_se,
        "reduced_chi2": result.reduced_chi2,
    }
