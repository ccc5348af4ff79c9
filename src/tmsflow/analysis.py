"""Sweep engine and feature extraction over (squeezing, noise) grids.

Produces grids of correlation reports and the two noise thresholds of
interest: the entanglement sudden-death point ``n_sd`` (in closed form)
and the discord/EoF crossover point ``n_c`` per discord flavor.

Flavors: "A" and "B" locate the root of the corresponding
information-flow difference ``delta_A`` / ``delta_B`` on the unit noise
interval.  "AB" is the arithmetic mean of the A and B crossover points,
which is the quantity whose minimum over the squeezing level sits near
(5.7 dB, 0.23); the root of ``delta_AB`` itself lies lower and elsewhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .correlations import (
    REPORT_CSV_HEADER,
    CorrelationReport,
    correlation_report,
    report_to_csv_row,
)
from .errors import DomainError, NoSignChangeError, TmsflowError
from .states import SqueezingSpec, StateModel, jpa_noise

# Log-spaced default scan grid; the crossover scans its points below n = 1.
FEATURE_GRID = np.logspace(-3.0, np.log10(4.0), 41)


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

    Cells are independent and evaluated in axis order; a cell whose
    evaluation fails carries the failure reason instead of a report.
    """
    s_vals = _check_axis(s_values, "squeezing")
    n_vals = _check_axis(n_values, "noise")
    cells = []
    for s_db in s_vals:
        for n in n_vals:
            try:
                cell = SweepCell(s_db=s_db, n=n, report=correlation_report(model.state(s_db, n)))
            except TmsflowError as exc:
                cell = SweepCell(s_db=s_db, n=n, report=None, error=str(exc))
            cells.append(cell)
    return SweepGrid(s_values=s_vals, n_values=n_vals, cells=tuple(cells))


@dataclass(frozen=True)
class CrossoverResult:
    flavor: str
    s_db: float
    n_c: float
    bracket: tuple[float, float]


def _bisect_root(f, lo: float, hi: float, f_lo: float) -> float:
    """Plain bisection down to relative width 1e-12; sign taken from f_lo."""
    for _ in range(100):
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0.0) == (f_lo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _curve_root(curve, grid: np.ndarray) -> tuple[float, tuple[float, float]]:
    """Root of ``curve`` located from a grid scan plus exact-model bisection.

    The first grid interval whose exact end values change sign brackets
    the root (a grid point where the curve is exactly zero is returned
    as is when the curve changes sign across it); one bisection pass on
    the exact curve then polishes it.
    """
    values = np.array([curve(n) for n in grid])
    for i in range(len(grid) - 1):
        a, b = values[i], values[i + 1]
        if a == 0.0 and i > 0 and values[i - 1] * b < 0.0:
            return float(grid[i]), (float(grid[i]), float(grid[i]))
        if a * b < 0.0:
            root = _bisect_root(curve, float(grid[i]), float(grid[i + 1]), float(a))
            return root, (float(grid[i]), float(grid[i + 1]))
    raise NoSignChangeError(
        f"no sign change found on [{grid[0]:.4g}, {grid[-1]:.4g}]"
    )


def sudden_death_point(model: StateModel, s_db: float) -> float:
    """Noise photon number where the EoF bound crosses zero.

    Closed form, since the separability boundary ``(a - 1)(b - 1) = c^2``
    of every model is linear in n: with ``delta = 2 sinh^2 r``,
    ``p = 1 + 2 n_jpa(e^{2r})`` (1 without amplifier) and ``beta = 0`` for
    the ideal model, ``n_sd = [delta p (2 - beta (1 + p)) - (p - 1)^2] /
    [2p (p delta + (p - 1))]``; exactly 1 for the ideal channel and
    ``1 - beta`` for the coupler at every squeezing level.  Raises
    :class:`NoSignChangeError` when the state is separable even at n = 0.
    """
    r = SqueezingSpec.from_db(s_db).factor
    delta = 2.0 * math.sinh(r) ** 2
    beta = model.coupling_beta or 0.0
    p = 1.0 if model.jpa is None else 1.0 + 2.0 * jpa_noise(math.exp(2.0 * r), model.jpa)
    # (p - 1) * (p - 1) rounds to inf where (p - 1) ** 2 would raise OverflowError.
    num = delta * p * (2.0 - beta * (1.0 + p)) - (p - 1.0) * (p - 1.0)
    if not num > 0.0:
        raise NoSignChangeError(f"not entangled at {s_db} dB even without injected noise")
    return num / (2.0 * p * (p * delta + (p - 1.0)))


def crossover_point(model: StateModel, s_db: float, flavor: str) -> CrossoverResult:
    """Crossover noise photon number n_c for one discord flavor.

    For flavors A and B, n_c is the root of the corresponding
    information-flow difference on the open unit interval (the curves are
    negative below the crossover and positive above).  Flavor AB returns
    the arithmetic mean of the A and B crossover points, bracketed by the
    hull of the two component brackets.
    """
    if flavor == "AB":
        res_a = crossover_point(model, s_db, "A")
        res_b = crossover_point(model, s_db, "B")
        bracket = (
            min(res_a.bracket[0], res_b.bracket[0]),
            max(res_a.bracket[1], res_b.bracket[1]),
        )
        return CrossoverResult(
            flavor="AB",
            s_db=s_db,
            n_c=0.5 * (res_a.n_c + res_b.n_c),
            bracket=bracket,
        )
    if flavor not in ("A", "B"):
        raise DomainError(f"flavor must be 'A', 'B' or 'AB', got {flavor!r}")

    def delta(n: float) -> float:
        rep = correlation_report(model.state(s_db, n))
        return rep.delta_a if flavor == "A" else rep.delta_b

    grid = FEATURE_GRID[FEATURE_GRID < 1.0]
    root, bracket = _curve_root(delta, grid)
    return CrossoverResult(flavor=flavor, s_db=s_db, n_c=root, bracket=bracket)


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
    return json.dumps(
        {
            "s_values": list(grid.s_values),
            "n_values": list(grid.n_values),
            "reports": cells,
        }
    )
