"""Covariance-matrix value types and symplectic linear algebra.

Conventions used throughout the package:

* Quadrature ordering is ``(q1, p1, q2, p2, ...)``.
* Variances are dimensionless with the vacuum at 1/4 per quadrature, so a
  single-mode thermal state with ``n`` photons has variance ``(1 + 2n)/4``
  and the Heisenberg bound reads ``nu >= 1/4`` for every symplectic
  eigenvalue ``nu``.
* Entropies are returned in nats (natural logarithm).

All types are immutable values and all operations are pure functions, so
everything here is safe to call concurrently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BadIndexError,
    DimensionMismatchError,
    DomainError,
    NonFiniteError,
    NumericalError,
    SingularMeasurementError,
    UnphysicalStateError,
)

VACUUM_VARIANCE = 0.25

# Least slack on the Heisenberg bound nu >= 1/4 in validate() (see _spectrum).
PHYSICALITY_TOL = 1e-9

# Relative tolerance for the symmetry check.
SYMMETRY_TOL = 1e-12


def symplectic_form(n_modes: int) -> np.ndarray:
    """Symplectic form Omega for `n_modes` modes in (q1, p1, ...) ordering."""
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


@dataclass(frozen=True)
class CovarianceMatrix:
    """Real 2n x 2n covariance matrix of an n-mode Gaussian state.

    The constructor only enforces the shape; use :func:`validate` to check
    symmetry, positive definiteness and the Heisenberg bound.  The stored
    array is copied and frozen, so instances are immutable values.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2 != 0:
            raise DimensionMismatchError(
                f"covariance matrix must be square with even size, got {arr.shape}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def n_modes(self) -> int:
        return self.entries.shape[0] // 2


#: Type alias used in signatures where exactly two modes are required.
TwoModeCovariance = CovarianceMatrix


@dataclass(frozen=True)
class SymplecticSummary:
    """Symplectic invariants and eigenvalues of a two-mode state.

    ``i1``/``i2``/``i3`` are the determinants of the A-block, B-block and
    cross block, ``i4`` the determinant of the full matrix and
    ``delta = i1 + i2 + 2*i3``.  ``nu_pt_min`` is the smaller symplectic
    eigenvalue after partially transposing the second mode; values below
    1/4 certify entanglement.
    """

    i1: float
    i2: float
    i3: float
    i4: float
    delta: float
    nu_plus: float
    nu_minus: float
    nu_pt_min: float


@dataclass(frozen=True)
class ValidationVerdict:
    """Outcome of :func:`validate`: clean, or the list of violations."""

    ok: bool
    violations: tuple[str, ...] = ()
    min_symplectic_eigenvalue: float | None = None


@dataclass(frozen=True)
class SymplecticOperation:
    """A symplectic matrix S (satisfying S Omega S^T = Omega)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.matrix, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2 != 0:
            raise DimensionMismatchError(
                f"symplectic matrix must be square with even size, got {arr.shape}"
            )
        omega = symplectic_form(arr.shape[0] // 2)
        defect = np.abs(arr @ omega @ arr.T - omega).max()
        if not np.isfinite(defect) or defect > 1e-12:
            raise ValueError(
                f"matrix does not preserve the symplectic form (defect {defect:.3e})"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2


def beam_splitter(coupling: float, mode_a: int, mode_b: int, n_modes: int) -> SymplecticOperation:
    """Beam splitter with power coupling ``coupling`` between two modes.

    Acts as  a' = sqrt(1-coupling) a + sqrt(coupling) b,
             b' = -sqrt(coupling) a + sqrt(1-coupling) b
    on the quadratures of the two modes; coupling = 1/2 is the symmetric
    (50:50) splitter.
    """
    if not 0.0 <= coupling <= 1.0:
        raise DomainError(f"beam-splitter coupling must lie in [0, 1], got {coupling}")
    t = math.sqrt(1.0 - coupling)
    s = math.sqrt(coupling)
    m = np.eye(2 * n_modes)
    for i in range(2):
        ia, ib = 2 * mode_a + i, 2 * mode_b + i
        m[ia, ia] = t
        m[ia, ib] = s
        m[ib, ia] = -s
        m[ib, ib] = t
    return SymplecticOperation(m)


def single_mode_squeezer(r: float, mode: int, n_modes: int) -> SymplecticOperation:
    """Squeezer scaling q by exp(-r) and p by exp(r) on one mode."""
    m = np.eye(2 * n_modes)
    m[2 * mode, 2 * mode] = math.exp(-r)
    m[2 * mode + 1, 2 * mode + 1] = math.exp(r)
    return SymplecticOperation(m)


def validate(V: CovarianceMatrix) -> ValidationVerdict:
    """Check a covariance matrix against the physicality invariants.

    Reported violations: asymmetry beyond tolerance, failure of positive
    definiteness, and symplectic eigenvalues below the Heisenberg bound
    1/4 beyond the noise band of :func:`_spectrum` (at least
    ``PHYSICALITY_TOL``), which decides one and two modes on exact integers.
    Raises :class:`NonFiniteError` if any entry is NaN or infinite, and
    :class:`NumericalError` where, from three modes on, the Cholesky
    factorisation of the Williamson form fails on a matrix whose
    ``eigvalsh`` spectrum is positive.
    """
    return _validate(V)[0]


def _validate(V: CovarianceMatrix) -> tuple[ValidationVerdict, tuple | None]:
    """:func:`validate` plus its only spectral pass, :func:`_spectrum` of
    the symmetrised matrix."""
    m = V.entries
    if not np.all(np.isfinite(m)):
        raise NonFiniteError("covariance matrix has NaN or infinite entries")
    if V.n_modes == 0:
        return ValidationVerdict(ok=True), (np.empty(0), 0.0, None)

    violations: list[str] = []
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.T).max() > SYMMETRY_TOL * scale:
        violations.append("asymmetric beyond 1e-12 relative tolerance")

    spectrum = _spectrum(_symmetrised(m))
    min_nu = None if spectrum is None else float(spectrum[0].min())
    if spectrum is None:
        violations.append("not positive definite")
    elif min_nu < VACUUM_VARIANCE - max(PHYSICALITY_TOL, spectrum[1]):
        violations.append(f"symplectic eigenvalue {min_nu:.6g} below the Heisenberg bound 1/4")
    return ValidationVerdict(
        ok=not violations,
        violations=tuple(violations),
        min_symplectic_eigenvalue=min_nu,
    ), spectrum


# Error of each entry, in eps of itself, that the one- and two-mode noise band
# allows; 1, 8 and 64 give the same verdicts on model and random states.
_ENTRY_ULPS = 8


def _spectrum(sym: np.ndarray) -> tuple | None:
    """Symplectic eigenvalues, their noise band and, for two modes, the exact
    invariants; None unless ``sym`` is positive definite.  One and two modes
    run no LAPACK: exact integers decide (Sylvester) and give nu, and the band
    is nu times ``_ENTRY_ULPS eps sum |V_ij C_ij| / det`` (cofactors C), the
    first-order change of det as each entry moves by that much of itself.
    From three modes on, ``eigvalsh`` and :func:`_williamson`, with the band
    ``1000 eps norm sqrt(cond)`` in Python floats (inf beyond the double range)."""
    eps = math.ulp(1.0)
    if len(sym) > 4:
        eigs = np.linalg.eigvalsh(sym)
        hi, lo = float(eigs.max()), float(eigs.min())
        if lo <= 0.0:
            return None
        return _williamson(sym)[0], 1000.0 * eps * hi * math.sqrt(hi / lo), None
    if len(sym) == 2:
        (a, b, d), q = _integers([sym[0, 0], sym[0, 1], sym[1, 1]])
        det, spread, invariants = a * d - b * b, 2 * abs(a * d) + 2 * b * b, None
        if a <= 0 or det <= 0:
            return None
        nus = [_sqrt_ratio(det, q * q)]
    else:
        invariants = _exact_invariants(sym)
        if invariants is None:
            return None
        det, spread, nus = invariants[3], invariants.spread, _two_mode_nu(invariants)
    return np.array(nus), min(nus) * _ENTRY_ULPS * eps * _ratio(spread, det), invariants


def require_valid(V: CovarianceMatrix) -> tuple:
    """Raise :class:`UnphysicalStateError` unless ``V`` validates; return
    the spectral pass ``(nus, noise, invariants)`` (:func:`_spectrum`)."""
    verdict, spectrum = _validate(V)
    if not verdict.ok:
        raise UnphysicalStateError(
            "unphysical covariance matrix: " + "; ".join(verdict.violations),
            violations=verdict.violations,
        )
    return spectrum


def _symmetrised(m: np.ndarray) -> np.ndarray:
    """``(m + m.T) / 2``, a symmetric ``m`` bit for bit; halved first beyond 2**1022."""
    half = np.where(np.maximum(np.abs(m), np.abs(m.T)) < 2.0**1022, 1.0, 0.5)
    return (half * m + half * m.T) * (0.5 / half)


def _williamson(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Williamson normal form of a symmetric PD matrix: V = S D S^T.

    Returns (nus, S) with the symplectic eigenvalues in descending order,
    D = diag(nu_1, nu_1, ..., nu_n, nu_n) and S symplectic up to roundoff.
    For the Cholesky factor ``V = L L^T`` the Hermitian ``i L^T Omega L``
    has eigenpairs ``(+-nu, x + iy)``; the real pairs ``sqrt(2) (y, x)`` of
    the positive ones bring ``L^T Omega L`` to blocks ``nu J`` with an
    orthogonal Q, and ``S = L Q D^(-1/2)``.  That Hermitian eigensolve
    keeps degenerate pairs and strongly squeezed states at full accuracy
    where a direct non-symmetric eigensolve of ``i Omega V`` loses half the
    digits.  Entries beyond the double range, and a matrix whose Cholesky
    factorisation fails, raise :class:`NumericalError`.
    """
    n = sym.shape[0] // 2
    if not np.isfinite(sym).all():
        raise NumericalError("Williamson form requested for a matrix beyond the double range")
    try:
        chol = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        raise NumericalError("Williamson form requested for a non-PD matrix") from None
    w, z = np.linalg.eigh(1j * (chol.T @ symplectic_form(n) @ chol))
    nus, pairs = w[n:][::-1], math.sqrt(2.0) * z[:, n:][:, ::-1]
    q = np.empty((2 * n, 2 * n))
    q[:, 0::2], q[:, 1::2] = pairs.imag, pairs.real
    return nus, chol @ q / np.repeat(np.sqrt(nus), 2)


# Binary digits the integer square roots below carry past the units place.
_GUARD = 64


def _integers(values: list) -> tuple[list[int], int]:
    """Floats as exact integers over their common power-of-two denominator."""
    ratios = [x.as_integer_ratio() for x in values]
    scale = max(den for _, den in ratios)
    return [num * (scale // den) for num, den in ratios], scale


class _Invariants(tuple):
    """``(i1, i2, i3, i4, e)`` with ``spread``, ``sum |V_ij C_ij|`` in the units of ``i4``."""


def _exact_invariants(sym: np.ndarray) -> _Invariants | None:
    """Exact invariants ``(i1, i2, i3, i4, e)`` of a symmetric 4x4 matrix.

    Integer determinants of the A, B and cross blocks and of the whole
    matrix (Laplace expansion in 2x2 minors), with the entries scaled to
    integers by their common power-of-two denominator ``2**e``.  None
    unless the matrix is exactly positive definite (Sylvester's criterion).
    """
    rows = sym.tolist()
    (a00, a01, a02, a03, a11, a12, a13, a22, a23, a33), scale = _integers(
        [rows[i][j] for i in range(4) for j in range(i, 4)]
    )
    # Minors of rows (0, 1) and of rows (2, 3), by column pair.
    t01 = a00 * a11 - a01 * a01
    t02 = a00 * a12 - a02 * a01
    t03 = a00 * a13 - a03 * a01
    t12 = a01 * a12 - a02 * a11
    t13 = a01 * a13 - a03 * a11
    t23 = a02 * a13 - a03 * a12
    b02 = a02 * a23 - a22 * a03
    b03 = a02 * a33 - a23 * a03
    b12 = a12 * a23 - a22 * a13
    b13 = a12 * a33 - a23 * a13
    b23 = a22 * a33 - a23 * a23
    det = t01 * b23 - t02 * b13 + t03 * b12 + t12 * b03 - t13 * b02 + t23 * t23
    c33 = a02 * t12 - a12 * t02 + a22 * t01
    if a00 <= 0 or t01 <= 0 or c33 <= 0 or det <= 0:
        return None
    invariants = _Invariants((t01, b23, t23, det, scale.bit_length() - 1))
    # The upper triangle's cofactors up to sign, each off-diagonal pair twice.
    invariants.spread = sum(abs(v * c) for v, c in zip(
        (a00, a11, a22, a33, 2 * a01, 2 * a02, 2 * a03, 2 * a12, 2 * a13, 2 * a23), (
            a11 * b23 - a12 * b13 + a13 * b12, a00 * b23 - a02 * b03 + a03 * b02,
            a33 * t01 - a13 * t03 + a03 * t13, c33, a01 * b23 - a12 * b03 + a13 * b02,
            a01 * b13 - a11 * b03 + a13 * t23, a01 * b12 - a11 * b02 + a12 * t23,
            a00 * b13 - a01 * b03 + a03 * t23, a00 * b12 - a01 * b02 + a02 * t23,
            a23 * t01 - a13 * t02 + a03 * t12)))
    return invariants


def _ratio(num: int, den: int) -> float:
    """``num / den`` correctly rounded; :class:`NumericalError` beyond the
    double range."""
    try:
        return num / den
    except OverflowError:
        raise NumericalError("exact invariant beyond the double range") from None


def _sqrt_ratio(num: int, den: int) -> float:
    """``sqrt(num / den)`` for integers ``num >= 0``, ``den > 0``;
    :class:`NumericalError` beyond the double range, as :func:`_ratio`."""
    shift = max(0, 2 * _GUARD + den.bit_length() - num.bit_length()) // 2
    return _ratio(math.isqrt((num << 2 * shift) // den), 1 << shift)


def _two_mode_nu(invariants: tuple, partial_transpose: bool = False) -> tuple[float, float]:
    """Two-mode symplectic eigenvalues from the invariant closed form.

    Evaluated on the exact invariants of :func:`_exact_invariants`, so
    ``delta**2 - 4 i4 = (nu+**2 - nu-**2)**2`` is exact and never negative,
    and only the square roots round (the entropy kernel's log-divergent
    slope at the Heisenberg bound amplifies any eigenvalue noise).  The
    partial transpose of the second mode only flips the sign of ``i3``;
    the smaller root uses the cancellation-free quotient form.
    """
    i1, i2, i3, i4, e = invariants
    delta = i1 + i2 + (-2 if partial_transpose else 2) * i3
    # (delta + sqrt(discriminant)) * 2**_GUARD, the root rounded down.
    x = (delta << _GUARD) + math.isqrt((delta * delta - 4 * i4) << 2 * _GUARD)
    return (
        _sqrt_ratio(x, 1 << (_GUARD + 1 + 2 * e)),
        _sqrt_ratio(i4 << (_GUARD + 1), x << 2 * e),
    )


class StandardForm(NamedTuple):
    """Two-mode states as the cancellation-free inputs of the correlation
    kernel: float arrays of one broadcast shape, in vacuum-1 units.

    Every two-mode state has the standard form ``[[a 1, diag(c1, c2)],
    [diag(c1, c2), b 1]]`` with ``c1 >= |c2|``.  The quantities that would
    cancel if formed from ``(a, b, c1, c2)`` are supplied directly, by the
    noise models in factored form (:meth:`tmsflow.states.StateModel.
    standard_form`, where ``c1 = -c2 = c`` and ``g1 = g2 = g``) and by the
    exact integer pass for arbitrary states.  ``errors`` maps the flat
    (C-order) index of every cell that has already failed to its error;
    the values of those cells are meaningless.
    """

    a: np.ndarray  # sqrt(I1)
    b: np.ndarray  # sqrt(I2)
    c_minus: np.ndarray  # c1 - c2 >= 0
    c_plus: np.ndarray  # c1 + c2 >= 0
    g1: np.ndarray  # ab - c1^2 > 0
    g2: np.ndarray  # ab - c2^2 >= g1; g1 g2 = I4
    nu_plus: np.ndarray
    nu_minus: np.ndarray
    n_prod: np.ndarray  # N = (nu+^2 - 1)(nu-^2 - 1) >= 0
    a2m1: np.ndarray  # a^2 - 1
    b2m1: np.ndarray  # b^2 - 1
    # Square roots of the first-branch discord radicands, measuring B (for
    # D_A) and measuring A (for D_B), and whether that branch's exact
    # condition holds (see tmsflow.correlations.correlation_arrays).
    root_a: np.ndarray
    root_b: np.ndarray
    branch_a: np.ndarray
    branch_b: np.ndarray
    errors: dict


def symplectic_summary(V: TwoModeCovariance) -> SymplecticSummary:
    """Invariants, symplectic eigenvalues and the partial-transpose minimum
    eigenvalue of a two-mode state, all from the exact invariant pass of
    validation (the invariants and ``delta`` correctly rounded, or
    :class:`NumericalError` beyond the double range)."""
    if V.n_modes != 2:
        raise DimensionMismatchError("symplectic_summary requires a two-mode state")
    nus, _, invariants = require_valid(V)
    i1, i2, i3, i4, e = invariants
    q = 1 << 2 * e
    return SymplecticSummary(
        i1=_ratio(i1, q),
        i2=_ratio(i2, q),
        i3=_ratio(i3, q),
        i4=_ratio(i4, q * q),
        delta=_ratio(i1 + i2 + 2 * i3, q),
        nu_plus=float(nus[0]),
        nu_minus=float(nus[1]),
        nu_pt_min=_two_mode_nu(invariants, partial_transpose=True)[1],
    )


def entropy_f(x: float) -> float:
    """Entropy kernel f(x) = (2x + 1/2) ln(2x + 1/2) - (2x - 1/2) ln(2x - 1/2).

    Defined for x >= 1/4 with f(1/4) = 0 and strictly increasing above it;
    evaluated as ``log1p(m) + m log1p(1/m)``, ``m = 2x - 1/2``, which never cancels.
    """
    if not math.isfinite(x):
        raise DomainError(f"entropy argument must be finite, got {x}")
    if x < VACUUM_VARIANCE - 1e-12:
        raise DomainError(f"entropy argument {x} below the vacuum variance 1/4")
    m = 2.0 * x - 0.5
    return math.log1p(m) + m * math.log1p(1.0 / m) if m > 0.0 else 0.0


# 1/m overflows for m at or below 2**-1024 (about 5.6e-309).
_INVERSE_OVERFLOW = 2.0**-1024


def _entropy(m: np.ndarray) -> np.ndarray:
    """:func:`entropy_f` over arrays of ``m = 2x - 1/2 >= 0``; NaN passes
    through, so a failed input stays visible.  Where ``1/m`` overflows,
    ``m log1p(1/m)`` is taken as ``m (log1p(m) - log m)``.  Call it, as the
    correlation kernel does, under ``np.errstate(all="ignore")``."""
    positive = m > 0.0
    safe = np.where(positive, m, 1.0)
    tail = safe * np.log1p(1.0 / safe)
    tiny = safe <= _INVERSE_OVERFLOW
    if tiny.any():
        tail = np.where(tiny, safe * (np.log1p(safe) - np.log(safe)), tail)
    return np.where(positive, np.log1p(safe) + tail, m)


def von_neumann_entropy(V: CovarianceMatrix) -> float:
    """Von Neumann entropy in nats: f summed over the validation pass.

    For one and two modes the symplectic eigenvalues come from
    the exact integer determinant and invariants, accurate to a few ulps
    however ill-conditioned the matrix, so each enters as ``f(max(nu,
    1/4))``.  From three modes on they come from the Williamson form, whose
    error grows with the conditioning: there eigenvalues within that
    storage-noise band of the Heisenberg bound are treated as exactly pure,
    since the entropy kernel has a log-divergent slope at 1/4 and structure
    below the noise scale would otherwise surface as jitter much larger
    than its actual (negligible) entropy contribution.  Once that noise
    reaches 1/4 itself purity cannot be decided and
    :class:`NumericalError` is raised.
    """
    nus, noise, _ = require_valid(V)
    total = 0.0
    for nu in nus:
        if V.n_modes <= 2 or nu > VACUUM_VARIANCE + noise:
            total += entropy_f(max(nu, VACUUM_VARIANCE))
        elif noise >= VACUUM_VARIANCE:
            raise NumericalError(f"eigenvalue {nu:.6g} lies within the spectrum noise {noise:.3e}")
    return total


def apply_symplectic(V: CovarianceMatrix, S: SymplecticOperation) -> CovarianceMatrix:
    """Conjugate a covariance matrix by a symplectic operation: S V S^T."""
    if S.n_modes != V.n_modes:
        raise DimensionMismatchError(
            f"operation acts on {S.n_modes} modes but state has {V.n_modes}"
        )
    return CovarianceMatrix(S.matrix @ V.entries @ S.matrix.T)


def tensor(V1: CovarianceMatrix, V2: CovarianceMatrix) -> CovarianceMatrix:
    """Block-diagonal composition; the first argument's modes come first."""
    n1, n2 = 2 * V1.n_modes, 2 * V2.n_modes
    out = np.zeros((n1 + n2, n1 + n2))
    out[:n1, :n1] = V1.entries
    out[n1:, n1:] = V2.entries
    return CovarianceMatrix(out)


def partial_trace(V: CovarianceMatrix, keep) -> CovarianceMatrix:
    """Reduce to the principal submatrix on the kept modes (0-based indices)."""
    modes = sorted(set(int(k) for k in keep))
    if not modes:
        raise BadIndexError("partial_trace needs a non-empty set of modes to keep")
    if modes[0] < 0 or modes[-1] >= V.n_modes:
        raise BadIndexError(f"mode indices {modes} out of range for {V.n_modes} modes")
    idx = np.array([2 * m + o for m in modes for o in (0, 1)])
    return CovarianceMatrix(V.entries[np.ix_(idx, idx)])


def homodyne_condition(
    V: CovarianceMatrix, measured_mode: int, quadrature: str = "q"
) -> CovarianceMatrix:
    """Covariance of the remaining modes after a homodyne detection.

    Implements the general Schur-complement rule
    ``A' = A - C (Pi B Pi)^+ C^T``, where ``Pi`` projects onto the measured
    quadrature x of that mode, so no isotropy of its block B is assumed.
    The pseudoinverse of the projected block is rank one, so ``A' = A - c
    c^T / B_xx`` with c the column of C for x.
    """
    n = V.n_modes
    if not 0 <= measured_mode < n:
        raise BadIndexError(f"measured mode {measured_mode} out of range for {n} modes")
    if n < 2:
        raise BadIndexError("conditioning needs at least one unmeasured mode")
    if quadrature not in ("q", "p"):
        raise DomainError(f"quadrature must be 'q' or 'p', got {quadrature!r}")
    m = V.entries
    x = 2 * measured_mode + "qp".index(quadrature)
    if m[x, x] <= 0.0:
        raise SingularMeasurementError(
            f"measured {quadrature} variance is not positive"
        )
    require_valid(V)

    rest = [i for i in range(2 * n) if i // 2 != measured_mode]
    c = m[rest, x]
    return CovarianceMatrix(m[np.ix_(rest, rest)] - np.outer(c, c) / m[x, x])


# ---------------------------------------------------------------------------
# Serialization.  JSON round-trips are exact (repr-based floats); CSV holds
# one matrix row per line.
# ---------------------------------------------------------------------------


def _covariance_doc(V: CovarianceMatrix) -> dict:
    return {"n_modes": V.n_modes, "entries": [float(x) for x in V.entries.ravel()]}


def covariance_from_json(text: str) -> CovarianceMatrix:
    """The matrix of a JSON object ``{"n_modes": n, "entries": [...]}``;
    raises ValueError naming a field of the wrong type."""
    data = json.loads(text)
    n, flat = data["n_modes"], data["entries"]
    if type(n) is not int or n < 0:  # a bool is not a mode count
        raise ValueError(f"n_modes must be an integer >= 0, got {json.dumps(n)}")
    if type(flat) is not list or not all(type(x) in (int, float) for x in flat):
        raise ValueError("entries must be an array of numbers")
    flat = np.array(flat, dtype=float)
    if flat.size != (2 * n) ** 2:
        raise DimensionMismatchError(
            f"expected {(2 * n) ** 2} entries for {n} modes, got {flat.size}"
        )
    if not np.all(np.isfinite(flat)):
        raise ValueError("entries must be finite numbers")
    return CovarianceMatrix(flat.reshape(2 * n, 2 * n))


def covariance_from_csv(text: str) -> CovarianceMatrix:
    rows = [
        [float(tok) for tok in line.split(",")]
        for line in text.strip().splitlines()
        if line.strip()
    ]
    for row_no, row in enumerate(rows, start=1):
        if not all(map(math.isfinite, row)):
            raise ValueError(f"matrix row {row_no}: non-finite entry")
    return CovarianceMatrix(np.array(rows, dtype=float))
