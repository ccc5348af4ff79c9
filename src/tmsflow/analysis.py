"""Sweep engine and feature extraction over (squeezing, noise) grids.

Produces grids of correlation reports and the two noise thresholds of
interest: the entanglement sudden-death point ``n_sd`` (in closed form)
and the discord/EoF crossover point ``n_c`` per discord flavor.

Every correlation value comes from one call of the batched kernel
(:func:`~tmsflow.correlations.correlation_arrays`) on the model's
factored standard form (:meth:`~tmsflow.states.StateModel.standard_form`):
one call per sweep grid, and one per batch of bisection midpoints.  No
covariance matrix is built and no state is validated.

Flavors: "A" and "B" locate the root of the corresponding
information-flow difference ``delta_A`` / ``delta_B`` by bisection on the
bracket ``[1e-3, n_sd]``: at the sudden-death point the EoF bound is zero
while the discord is not, so ``delta(n_sd) = D > 0``.  "AB" is the
arithmetic mean of the A and B crossover points, which is the quantity
whose minimum over the squeezing level sits near (5.7 dB, 0.23); the root
of ``delta_AB`` itself lies lower and elsewhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .correlations import (
    REPORT_CSV_HEADER,
    CorrelationReport,
    correlation_arrays,
    report_to_csv_row,
)
from .errors import DomainError, NoSignChangeError
from .states import StateModel, _squeezing_factor


@dataclass(frozen=True)
class SweepCell:
    s_db: float
    n: float
    report: CorrelationReport | None
    error: str | None = None


@dataclass(frozen=True)
class SweepGrid:
    """Correlation reports on the outer product of two strictly
    increasing axes; failed cells carry the failure reason instead."""

    s_values: tuple[float, ...]
    n_values: tuple[float, ...]
    cells: tuple[SweepCell, ...]  # row-major: s outer, n inner

    def cell(self, i_s: int, i_n: int) -> SweepCell:
        return self.cells[i_s * len(self.n_values) + i_n]


def _check_axis(values, name: str) -> tuple[float, ...]:
    vals = tuple(float(v) for v in values)
    if not vals:
        raise DomainError(f"{name} axis is empty")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise DomainError(f"{name} axis must be strictly increasing")
    return vals


def sweep(model: StateModel, s_values, n_values) -> SweepGrid:
    """Evaluate correlation reports on an (S, n) grid.

    The whole grid is one call of the correlation kernel on the model's
    standard form, so a cell's values do not depend on the grid around it;
    a cell whose evaluation fails carries the failure reason instead of a
    report.
    """
    s_vals = _check_axis(s_values, "squeezing")
    n_vals = _check_axis(n_values, "noise")
    res = correlation_arrays(model.standard_form(np.array(s_vals)[:, None], np.array(n_vals)))
    rows = zip(*(field.ravel().tolist() for field in res[:-1]))
    cells = []
    for i, values in enumerate(rows):
        s_db, n = s_vals[i // len(n_vals)], n_vals[i % len(n_vals)]
        exc = res.errors.get(i)
        if exc is None:
            cells.append(SweepCell(s_db=s_db, n=n, report=CorrelationReport(*values)))
        else:
            cells.append(SweepCell(s_db=s_db, n=n, report=None, error=str(exc)))
    return SweepGrid(s_values=s_vals, n_values=n_vals, cells=tuple(cells))


@dataclass(frozen=True)
class CrossoverResult:
    flavor: str
    s_db: float
    n_c: float
    # (1e-3, n_sd): delta < 0 at the lower end, delta(n_sd) = D > 0 at the upper.
    bracket: tuple[float, float]


def _bisect_root(f, lo: float, hi: float, f_lo: float) -> float:
    """Plain bisection down to relative width 1e-12; sign taken from f_lo.

    ``f(lo, hi)`` returns ``(values, errors)``: the values at the midpoints
    that the next d steps from ``[lo, hi]`` can reach, for a d >= 1 it
    chooses, in heap order (node k's midpoint splits its interval into node
    2k + 1 below and node 2k + 2 above), and the error of every node that
    failed.  The steps and the root are those of one-at-a-time bisection;
    a node's error is raised only if a step reads that node.
    """
    positive = f_lo > 0.0
    steps = 0
    while True:
        values, errors = f(lo, hi)
        node = 0
        while node < len(values):
            if steps == 100 or hi - lo <= 1e-12 * max(1.0, hi):
                return 0.5 * (lo + hi)
            if node in errors:
                raise errors[node]
            steps += 1
            mid = 0.5 * (lo + hi)
            if (values[node] > 0.0) == positive:
                lo, node = mid, 2 * node + 2
            else:
                hi, node = mid, 2 * node + 1


# Bisection steps whose midpoints one kernel call evaluates: 2**4 - 1 points.
_BISECT_DEPTH = 4


def _midpoint_tree(lo: float, hi: float) -> np.ndarray:
    """Every midpoint the next ``_BISECT_DEPTH`` bisection steps from
    ``[lo, hi]`` can reach, in the heap order of :func:`_bisect_root`."""
    points, intervals = [], [(lo, hi)]
    for _ in range(_BISECT_DEPTH):
        halves = []
        for left, right in intervals:
            mid = 0.5 * (left + right)
            points.append(mid)
            halves += [(left, mid), (mid, right)]
        intervals = halves
    return np.array(points)


def sudden_death_point(model: StateModel, s_db: float) -> float:
    """Noise photon number where the EoF bound crosses zero.

    Closed form, since the separability boundary ``(a - 1)(b - 1) = c^2``
    of every model is linear in n: with ``delta = 2 sinh^2 r``, the
    model's amplifier prefactor ``p = 1 + 2 n_jpa(e^{2r})``
    (:meth:`StateModel.amplifier_prefactor`, 1 without amplifier) and
    ``beta = 0`` for the ideal model, ``n_sd = [delta p (2 - beta (1 + p))
    - (p - 1)^2] / [2p (p delta + (p - 1))]``; exactly 1 for the ideal
    channel and ``1 - beta`` for the coupler at every squeezing level.  No
    state is built.  The squeezing level is checked as in
    :meth:`StateModel.state`, with the same errors; raises
    :class:`NoSignChangeError` when the state is separable even at n = 0.
    """
    r = _squeezing_factor(s_db)
    delta = 2.0 * math.sinh(r) ** 2
    beta = model.coupling_beta or 0.0
    p = model.amplifier_prefactor(r)
    # (p - 1) * (p - 1) rounds to inf where (p - 1) ** 2 would raise OverflowError.
    num = delta * p * (2.0 - beta * (1.0 + p)) - (p - 1.0) * (p - 1.0)
    if not num > 0.0:
        raise NoSignChangeError(f"not entangled at {s_db} dB even without injected noise")
    return num / (2.0 * p * (p * delta + (p - 1.0)))


def crossover_point(model: StateModel, s_db: float, flavor: str) -> CrossoverResult:
    """Crossover noise photon number n_c for one discord flavor.

    For flavors A and B, n_c is the root of the corresponding
    information-flow difference ``delta = D - E_F``, negative below n_c and
    positive above.  The bracket is ``[1e-3, n_sd]`` with the closed-form
    sudden-death point: there ``E_F = 0`` while the state is still
    correlated, so ``delta(n_sd) = D > 0``, and beyond it the signed
    ``E_F`` is negative, so no root with that orientation lies above.  The
    curve must be negative at 1e-3 and positive at ``n_sd``, otherwise
    :class:`NoSignChangeError` is raised; plain bisection keeps that
    orientation at every step.  Each kernel call evaluates the midpoints of
    the next four steps.  Flavor AB returns the arithmetic mean of
    the A and B crossover points, which share the bracket.
    """
    if flavor == "AB":
        res_a = crossover_point(model, s_db, "A")
        res_b = crossover_point(model, s_db, "B")
        return CrossoverResult(
            flavor="AB", s_db=s_db, n_c=0.5 * (res_a.n_c + res_b.n_c), bracket=res_a.bracket
        )
    if flavor not in ("A", "B"):
        raise DomainError(f"flavor must be 'A', 'B' or 'AB', got {flavor!r}")

    def delta(n: np.ndarray) -> tuple[list[float], dict]:
        res = correlation_arrays(model.standard_form(s_db, n))
        return (res.delta_a if flavor == "A" else res.delta_b).tolist(), res.errors

    lo, hi = 1e-3, sudden_death_point(model, s_db)
    (d_lo, d_hi), errors = delta(np.array([lo, hi]))
    if errors:
        raise errors[min(errors)]
    if not d_lo < 0.0 < d_hi:
        raise NoSignChangeError(
            f"delta_{flavor} does not go from negative to positive on [{lo:.4g}, {hi:.4g}] "
            f"(delta({lo:.4g}) = {d_lo:.3e}, delta(n_sd) = {d_hi:.3e})"
        )
    return CrossoverResult(
        flavor=flavor,
        s_db=s_db,
        n_c=_bisect_root(lambda lo, hi: delta(_midpoint_tree(lo, hi)), lo, hi, d_lo),
        bracket=(lo, hi),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

SWEEP_CSV_HEADER = REPORT_CSV_HEADER + ",status"


def sweep_to_csv(grid: SweepGrid) -> str:
    lines = [SWEEP_CSV_HEADER]
    for cell in grid.cells:
        if cell.report is not None:
            lines.append(report_to_csv_row(cell.report, cell.s_db, cell.n) + ",ok")
        else:
            nans = ",".join(["nan"] * 7)
            reason = (cell.error or "failed").replace(",", ";").replace("\n", " ")
            lines.append(f"{cell.s_db!r},{cell.n!r},{nans},{reason}")
    return "\n".join(lines) + "\n"


def sweep_to_json(grid: SweepGrid) -> str:
    return json.dumps(_sweep_doc(grid))


def _sweep_doc(grid: SweepGrid) -> dict:
    cells = []
    for cell in grid.cells:
        doc: dict = {"s_db": cell.s_db, "n": cell.n}
        if cell.report is not None:
            r = cell.report
            doc.update(
                d_a=r.d_a,
                d_b=r.d_b,
                e_f=r.e_f,
                i_ab=r.i_ab,
                delta_a=r.delta_a,
                delta_b=r.delta_b,
                delta_ab=r.delta_ab,
                gamma=r.gamma,
            )
        else:
            doc["error"] = cell.error
        cells.append(doc)
    return {"s_values": list(grid.s_values), "n_values": list(grid.n_values), "reports": cells}
