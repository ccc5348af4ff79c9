"""Sweep engine and feature extraction over (squeezing, noise) grids.

Produces grids of correlation reports and the two noise thresholds of
interest: the entanglement sudden-death point ``n_sd`` (in closed form)
and the discord/EoF crossover point ``n_c`` per discord flavor.

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

from .correlations import (
    REPORT_CSV_HEADER,
    CorrelationReport,
    correlation_report,
    report_to_csv_row,
)
from .errors import DomainError, NoSignChangeError, TmsflowError
from .states import SqueezingSpec, StateModel, jpa_noise


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
    # (1e-3, n_sd): delta < 0 at the lower end, delta(n_sd) = D > 0 at the upper.
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
    information-flow difference ``delta = D - E_F``, negative below n_c and
    positive above.  The bracket is ``[1e-3, n_sd]`` with the closed-form
    sudden-death point: there ``E_F = 0`` while the state is still
    correlated, so ``delta(n_sd) = D > 0``, and beyond it the signed
    ``E_F`` is negative, so no root with that orientation lies above.  The
    curve must be negative at 1e-3 and positive at ``n_sd``, otherwise
    :class:`NoSignChangeError` is raised; plain bisection keeps that
    orientation at every step.  Flavor AB returns the arithmetic mean of
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

    def delta(n: float) -> float:
        rep = correlation_report(model.state(s_db, n))
        return rep.delta_a if flavor == "A" else rep.delta_b

    lo, hi = 1e-3, sudden_death_point(model, s_db)
    d_lo, d_hi = delta(lo), delta(hi)
    if not d_lo < 0.0 < d_hi:
        raise NoSignChangeError(
            f"delta_{flavor} does not go from negative to positive on [{lo:.4g}, {hi:.4g}] "
            f"(delta({lo:.4g}) = {d_lo:.3e}, delta(n_sd) = {d_hi:.3e})"
        )
    return CrossoverResult(
        flavor=flavor, s_db=s_db, n_c=_bisect_root(delta, lo, hi, d_lo), bracket=(lo, hi)
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
