"""Weighted least-squares estimation of the amplifier-noise power law.

Fits the two coefficients of ``n_jpa(G) = chi1 (G - 1)**chi2`` against
measured (squeezing level, injected noise, discord/EoF) records by
minimizing a weighted sum of squared residuals with a damped Gauss-Newton
(Levenberg) iteration on a forward-difference Jacobian, and reports
standard errors of both coefficients from the same Jacobian.  Each trial
point is one kernel call that also carries its two forward-difference
points, so an accepted trial brings the next Jacobian with it.  The sums
are exactly rounded and the 2x2 algebra is closed-form, so no BLAS or
LAPACK routine runs.  Ships a synthetic-record generator so the recovery
pipeline can be exercised without access to raw measurement data.

Refs: Levenberg, Q. Appl. Math. 2, 164 (1944); Marquardt, SIAM J. Appl.
Math. 11, 431 (1963); Shewchuk, Discrete Comput. Geom. 18, 305 (1997).
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from ._defaults import DEFAULT_CHI, DEFAULT_COUPLING, DEFAULT_INITIAL, DEFAULT_WEIGHTS
from .correlations import correlation_arrays
from .errors import DomainError, ModelFailureError, NumericalError
from .states import StateModel, _amplified, _amplifier_q
from .symplectic import _integers

_MAX_ITERATIONS = 200
_FD_STEP = math.sqrt(np.finfo(float).eps)  # relative forward-difference step
_INITIAL_DAMPING = 1e-3
_MIN_DAMPING = 1e-12
_MAX_DAMPING = 1e16
_DECREMENT_TOL = 1e-12  # Gauss-Newton decrement relative to the cost
_STEP_TOL = 1e-10  # Gauss-Newton step relative to |chi|
_MAX_CONDITION = 1e8  # of the normalised J^T J; the forward difference resolves no more
_PINV_CUTOFF = 1e-15  # numpy.linalg.pinv's default relative cutoff


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


def _residuals(records, chi, weights, coupling_beta: float) -> np.ndarray:
    """Residuals of D_A, D_B and E_F, in that order, each over all records:
    ``(model - measured) / sigma`` for a record that carries sigma, ``sqrt(w)
    (model - measured)`` otherwise.  All records are one kernel call; the
    first record whose model evaluation fails raises
    :class:`ModelFailureError`."""
    (r,) = _evaluator(records, weights, coupling_beta)([chi])
    if isinstance(r, ModelFailureError):
        raise r
    return r


def _evaluator(records, weights, coupling_beta: float):
    """:func:`_residuals` of ``records`` as a function of a list of chi
    points, evaluated together in one kernel call.

    What does not depend on chi is formed once: the per-record arrays
    and, for each number of points, the :meth:`StateModel._levels` (the
    gain excess ``expm1(2r)``, the rejected levels and the level terms)
    and :meth:`StateModel._base_family` of the (point, record) stack.  A
    point adds only ``q = 2 chi1 excess**chi2`` per distinct level, by
    :func:`_amplifier_q`, and the amplifier scaling (:func:`_amplified`).
    For each point the function returns its residual vector or, unraised,
    the :class:`ModelFailureError` that :func:`_residuals` raises there.
    """
    model = StateModel.coupler(coupling_beta)  # _levels and _base_family read only beta
    s_db = np.array([rec.s_db for rec in records])
    n = np.array([rec.n for rec in records])
    _, first_record, inverse = np.unique(s_db, return_index=True, return_inverse=True)
    root_w = [math.sqrt(w) for w in weights]
    scale, sigma = [], []
    for rec in records:
        if rec.sd_a is None:
            scale.append(root_w)
            sigma.append((1.0, 1.0, 1.0))
        else:
            scale.append((1.0, 1.0, 1.0))
            sigma.append((rec.sd_a, rec.sd_b, rec.se_f))
    # (D_A, D_B, E_F) blocks of m records, as the kernel's results are joined
    scale, sigma = np.array(scale).T.ravel(), np.array(sigma).T.ravel()
    measured = np.array([(rec.d_a, rec.d_b, rec.e_f) for rec in records]).T.ravel()
    m = len(records)
    stacks: dict = {}  # the level terms and base family of a stack of that many points

    def evaluate(points: list) -> list:
        if len(points) not in stacks:
            s = np.broadcast_to(s_db, (len(points), m))
            stack = model._levels(s)  # excess 0, so q = 0, where rejected
            with np.errstate(all="ignore"):
                base = model._base_family(s, stack.family, stack.level_errors, n)
            stacks[len(points)] = stack.family, base, stack.excess[0, first_record].tolist()
        family, base, excess = stacks[len(points)]
        q, gain_errors = [], []
        for k, chi in enumerate(points):
            chi1, chi2 = max(chi[0], 0.0), chi[1]
            for i, gain_excess in enumerate(excess):  # of each distinct level
                try:
                    q.append(_amplifier_q(gain_excess, chi1, chi2))
                except NumericalError as exc:
                    q.append(0.0)
                    gain_errors += [(k * m + int(j), exc) for j in np.flatnonzero(inverse == i)]
        q = np.array(q).reshape(len(points), -1)[:, inverse].copy()  # C order, like the base
        with np.errstate(all="ignore"):
            form = _amplified(base, family, q, gain_errors, coupling_beta)
        res = correlation_arrays(form)
        predicted = np.concatenate((res.d_a, res.d_b, res.e_f), axis=1)
        values = list((scale * (predicted - measured)) / sigma)
        first: dict = {}  # the first failing record of each failed point
        for cell in res.errors:
            k, idx = divmod(cell, m)
            first[k] = min(idx, first.get(k, idx))
        for k, idx in first.items():
            rec, cause = records[idx], res.errors[k * m + idx]
            values[k] = ModelFailureError(
                f"model evaluation failed for record {idx} "
                f"(S={rec.s_db} dB, n={rec.n}): {cause}",
                record_index=idx,
            )
            values[k].__cause__ = cause
        return values

    return evaluate


def _sum(terms: np.ndarray) -> float:
    """The exactly rounded sum of ``terms`` (``math.fsum``), so that neither
    a BLAS kernel nor an order of summation enters; nan where the sum is
    not a finite double."""
    try:
        return math.fsum(terms.tolist())
    except (OverflowError, ValueError):  # beyond the double range, or inf - inf
        return math.nan


@np.errstate(over="ignore", invalid="ignore")  # a cost beyond the double range raises below
def cost(
    records: list[MeasurementRecord],
    chi: tuple[float, float],
    weights: tuple[float, float, float] = DEFAULT_WEIGHTS,
    coupling_beta: float = DEFAULT_COUPLING,
) -> float:
    """Sum of squared residuals of (D_A, D_B, E_F) over records: weighted
    by ``weights``, or by ``1/sigma**2`` for a record that carries sigma.
    The sum is exactly rounded, as in :func:`fit`.  A cost that is not a
    finite double raises :class:`NumericalError`."""
    if not records:
        raise DomainError("cost needs at least one record")
    r = _residuals(records, chi, weights, coupling_beta)
    c = _sum(r * r)
    if not math.isfinite(c):
        raise NumericalError(f"the cost at chi = {tuple(map(float, chi))} is not finite")
    return c


@np.errstate(over="ignore", invalid="ignore")  # a cost beyond the double range raises below
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
    vector r and tries the damped step
    ``-(J^T J + lam tr(J^T J) I)^-1 J^T r``: a step that lowers the cost is
    taken and lam divided by 10, otherwise lam is multiplied by 10 (a step
    on which the model fails, or whose cost is not a finite double, counts
    as infinite cost).  chi1 >= 0 is a bound: the start and every step are
    projected onto it, and each projection is counted in
    ``clamp_activations``; a start where the model fails raises
    ``ModelFailureError``, and one whose cost, or the ``J^T J`` and ``J^T
    r`` of a point reached, is not finite raises :class:`NumericalError`.
    ``iterations`` counts taken steps.  The start and each trial are one
    kernel call, which also evaluates the point's two forward-difference
    points; a failure at one of those is raised only once the point is
    taken, as a ``ModelFailureError``.

    The cost ``r^T r`` and the entries of ``J^T J`` and ``J^T r`` are
    exactly rounded sums of the elementwise products (``math.fsum``, after
    Shewchuk), and every 2x2 solve is a closed form evaluated on exact
    integers, so no BLAS or LAPACK routine runs and the result does not
    depend on the machine's BLAS kernel.

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

    def projected(chi: tuple[float, float]) -> tuple[float, float]:
        nonlocal clamps
        if chi[0] < 0.0:
            clamps += 1
            chi = (0.0, chi[1])
        return chi

    evaluate = _evaluator(usable, weights, coupling_beta)

    def with_jacobian_points(chi: tuple[float, float]) -> tuple[list, list]:
        """chi and its two forward-difference points, evaluated in one call."""
        x0, x1 = chi
        points = [
            chi,
            (x0 + _FD_STEP * max(abs(x0), 1.0), x1),
            (x0, x1 + _FD_STEP * max(abs(x1), 1.0)),
        ]
        return points, evaluate(points)

    x0, x1 = initial
    x = projected((float(x0), float(x1)))
    points, values = with_jacobian_points(x)
    r = values[0]
    if isinstance(r, ModelFailureError):
        raise r
    c = _sum(r * r)
    if not math.isfinite(c):
        raise NumericalError(f"the cost at the start chi = {x} is not finite")
    lam = _INITIAL_DAMPING
    iterations = 0
    converged = False
    while True:
        J = []
        for j in range(2):
            shifted, r_shifted = points[j + 1], values[j + 1]
            if isinstance(r_shifted, ModelFailureError):
                raise r_shifted  # held since x was evaluated
            J.append((r_shifted - r) / (shifted[j] - x[j]))
        A = (_sum(J[0] * J[0]), _sum(J[0] * J[1]), _sum(J[1] * J[1]))
        g = (_sum(J[0] * r), _sum(J[1] * r))
        if not all(map(math.isfinite, A + g)):
            raise NumericalError(f"the cost's derivatives at chi = {x} overflow")
        if _stationary(x, A, g, c):
            converged = True
            break
        if iterations == _MAX_ITERATIONS:
            break
        while lam <= _MAX_DAMPING:
            step = _damped_step(A, g, lam)
            trial = projected((x[0] + step[0], x[1] + step[1]))
            points, values = with_jacobian_points(trial)
            r_trial = values[0]
            c_trial = math.inf if isinstance(r_trial, ModelFailureError) else _sum(r_trial * r_trial)
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
        chi1=x[0],
        chi2=x[1],
        final_cost=c,
        iterations=iterations,
        converged=converged,
        clamp_activations=clamps,
        chi1_se=chi1_se,
        chi2_se=chi2_se,
        reduced_chi2=reduced,
    )


# The 2x2 algebra below works on a symmetric A = J^T J, given as its entries
# (a, b, c) = (A00, A01, A11), and g = J^T r.  Inverses and determinants are
# taken on the exact integers of the float inputs over their common
# power-of-two denominator (symplectic._integers), and a quotient of two
# integers is correctly rounded, so a solve is correct to half an ulp in
# each component, and a cut on the condition number is decided exactly,
# however ill-conditioned A is.  Only the rank-one pseudo-inverse works in
# floats.


def _damped_step(A: tuple, g: tuple, lam: float) -> tuple[float, float]:
    """The Levenberg step ``-(A + lam tr(A) I)^-1 g``, by Cramer's rule with
    the damped diagonal formed exactly."""
    (a, b, c, g0, g1), _ = _integers([*A, *g])
    num, den = lam.as_integer_ratio()  # lam = num / den
    damping = num * (a + c)
    a, b, c, g0, g1 = den * a + damping, den * b, den * c + damping, den * g0, den * g1
    det = a * c - b * b
    return (b * g1 - c * g0) / det, (b * g0 - a * g1) / det


def _pinv_step(A: tuple, g: tuple) -> tuple[float, float]:
    """``-pinv(A) g`` with ``numpy.linalg.pinv``'s default cutoff: an
    eigenvalue at or below 1e-15 of the largest counts as zero, so A is
    inverted, or its rank-one part, or it is zero and the step is 0."""
    (a, b, c), _ = _integers(list(A))  # the cutoff test is homogeneous in A
    trace, det = a + c, a * c - b * b
    # lambda_min > k lambda_max, for the eigenvalues of trace and determinant
    # given and k = num / den, is det (den + num)^2 > num den trace^2.
    num, den = _PINV_CUTOFF.as_integer_ratio()
    if det * (den + num) ** 2 > num * den * trace * trace:
        return _damped_step(A, g, 0.0)  # lambda = 0: the same integers, so the same bits
    if trace == 0:
        return 0.0, 0.0
    # The unit eigenvector w of the largest eigenvalue lam: the step is -(w.g) w / lam.
    a, b, c = A
    half_gap = 0.5 * (a - c)
    h = math.hypot(half_gap, b)
    v = (half_gap + h, b) if half_gap >= 0.0 else (b, h - half_gap)
    norm, lam = math.hypot(*v), 0.5 * a + 0.5 * c + h
    w0, w1 = v[0] / norm, v[1] / norm
    k = -(w0 * g[0] + w1 * g[1]) / lam
    return k * w0, k * w1


def _stationary(x: tuple, A: tuple, g: tuple, c: float) -> bool:
    """Whether the Gauss-Newton step over the free coefficients is negligible.

    chi1 is held when it sits on the bound and the cost rises with it; the
    step over chi2 alone is ``-g1 / A11``, or 0 where ``A11 = 0``.
    """
    if x[0] > 0.0 or g[0] <= 0.0:
        step = _pinv_step(A, g)
    else:
        step = (0.0, -g[1] / A[2] if A[2] > 0.0 else 0.0)
    decrement = -(g[0] * step[0] + g[1] * step[1])
    return decrement <= _DECREMENT_TOL * c or math.hypot(*step) <= _STEP_TOL * (
        math.hypot(*x) + _STEP_TOL
    )


def _standard_errors(A: tuple, reduced_chi2: float) -> tuple[float | None, float | None]:
    """sqrt(diag(A^-1) reduced_chi2), or None twice where A is singular: a
    zero diagonal entry, or a condition number of the unit-diagonal
    ``A / sqrt(A_ii A_jj)`` above 1e8.

    That matrix is ``[[1, rho], [rho, 1]]`` with ``rho^2 = b^2 / ac``, whose
    condition number ``(1 + |rho|) / (1 - |rho|)`` is at most K exactly when
    ``b^2 (K + 1)^2 <= (K - 1)^2 ac``; ``diag(A^-1) = (c, a) / det``.
    """
    if not (A[0] > 0.0 and A[2] > 0.0):
        return None, None
    (a, b, c), scale = _integers(A)
    k = int(_MAX_CONDITION)
    if b * b * (k + 1) ** 2 > (k - 1) ** 2 * a * c:
        return None, None
    det = a * c - b * b
    return (
        math.sqrt(reduced_chi2 * ((c * scale) / det)),
        math.sqrt(reduced_chi2 * ((a * scale) / det)),
    )


def synthetic_records(
    s_values,
    n_values,
    chi: tuple[float, float] = DEFAULT_CHI,
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
    model = StateModel.realistic(chi1=max(chi[0], 0.0), chi2=chi[1], beta=coupling_beta)
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


def records_from_csv(source: str | TextIO) -> list[MeasurementRecord]:
    """Parse a record table, given as its text or as an open text stream;
    raises ValueError naming the offending line."""
    reader = csv.reader(io.StringIO(source) if isinstance(source, str) else source)
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
