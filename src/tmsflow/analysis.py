"""Sweep engine and feature extraction over (squeezing, noise) grids.

Produces grids of correlation measures and the two noise thresholds of
interest: the entanglement sudden-death point ``n_sd`` (in closed form)
and the discord/EoF crossover point ``n_c`` per discord flavor.

Every correlation value comes from one call of the batched kernel
(:func:`~tmsflow.correlations.correlation_arrays`) on the model's
factored standard form (:meth:`~tmsflow.states.StateModel.standard_form`):
one call per sweep grid, and one per refinement step of a whole table of
crossovers.  No covariance matrix is built and no state is validated.

Flavors: "A" and "B" locate the root of the corresponding
information-flow difference ``delta_A`` / ``delta_B`` with Chandrupatla's
method (:func:`_refine`) on the bracket ``[1e-3, n_sd]``: at the
sudden-death point the EoF bound is zero while the discord is not, so
``delta(n_sd) = D > 0``.  "AB" is the arithmetic mean of the A and B
crossover points, which is the quantity whose minimum over the squeezing
level sits near (5.7 dB, 0.23); the root of ``delta_AB`` itself lies
lower and elsewhere.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .correlations import CorrelationArrays, CorrelationReport, correlation_arrays
from .errors import DomainError, NoSignChangeError, NumericalError, TmsflowError
from .states import StateModel, _squeezing_factor


@dataclass(frozen=True)
class SweepGrid:
    """Correlation measures on the outer product of two strictly
    increasing axes, as the kernel computed them: every field of
    ``arrays`` has shape ``(len(s_values), len(n_values))``, and
    ``arrays.errors`` holds the error of every failed cell by its
    row-major (s outer, n inner) index."""

    s_values: tuple[float, ...]
    n_values: tuple[float, ...]
    arrays: CorrelationArrays

    def report(self, i_s: int, i_n: int) -> CorrelationReport:
        """The measures of one cell; raises the cell's error where it failed."""
        exc = self.arrays.errors.get(i_s * len(self.n_values) + i_n)
        if exc is not None:
            raise exc
        return CorrelationReport(*(float(field[i_s, i_n]) for field in self.arrays[:-1]))


def _check_axis(values, name: str) -> tuple[float, ...]:
    vals = tuple(float(v) for v in values)
    if not vals:
        raise DomainError(f"{name} axis is empty")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise DomainError(f"{name} axis must be strictly increasing")
    return vals


def sweep(model: StateModel, s_values, n_values) -> SweepGrid:
    """Evaluate the correlation measures on an (S, n) grid.

    The whole grid is one call of the correlation kernel on the model's
    standard form, so a cell's values do not depend on the grid around it;
    a cell whose evaluation fails carries its error in ``arrays.errors``.
    So does a cell with a value that is not finite, as a
    :class:`NumericalError`: every other cell's values are finite floats.
    """
    s_vals = _check_axis(s_values, "squeezing")
    n_vals = _check_axis(n_values, "noise")
    arrays = correlation_arrays(model.standard_form(np.array(s_vals)[:, None], np.array(n_vals)))
    finite = np.logical_and.reduce([np.isfinite(field) for field in arrays[:-1]])
    for cell in np.flatnonzero(~finite).tolist():
        arrays.errors.setdefault(cell, NumericalError("a correlation measure is not finite"))
    return SweepGrid(s_values=s_vals, n_values=n_vals, arrays=arrays)


@dataclass(frozen=True)
class CrossoverResult:
    flavor: str
    s_db: float
    n_c: float
    # (1e-3, n_sd): delta < 0 at the lower end, delta(n_sd) = D > 0 at the upper.
    bracket: tuple[float, float]


def _refine(f, lo, hi, failed: dict) -> tuple[np.ndarray, dict]:
    """Chandrupatla's bracketing root finder (*Adv. Eng. Softw.* 28, 145
    (1997)) on every entry's bracket ``[lo, hi]`` (1-D arrays).

    ``f(points)`` returns ``(values, errors)``: ``f`` at every point and the
    error of each point that failed, by flat index.  The first call reads
    the ``(2, entries)`` array of every entry's ends, the lower ends first.
    An entry fails with the error of an end that failed, its lower end's
    first, or with :class:`NoSignChangeError` where ``f`` does not change
    sign strictly between its ends, in either direction.  The entries in
    ``failed`` (errors by index) are carried through unsearched with their
    errors.  Each step is then one call of ``f`` on all entries.  An
    entry's next point is the inverse quadratic interpolant through its
    last three points where Chandrupatla's xi/phi test says that it is
    monotone on the bracket, and the midpoint otherwise; it is kept at
    least half the stop width from either end of the bracket, so every
    point lies strictly inside ``[lo, hi]``.  An entry stops once its
    bracket is no wider than ``1e-12 max(1, hi)``, or at a point where
    ``f`` is exactly 0, or after 100 steps; it fails with the error of the
    first point it reads that failed.  A stopped or failed entry reads the
    newest point it kept (a failed one its lower end) again, and every
    operation is elementwise, so every entry takes the steps, and ends at
    the root, of a batch of one.  Returns the midpoint of each final
    bracket (the zero itself where ``f`` hit one) and the errors of the
    failed entries by index.
    """
    (f1, f2), end_errors = f(np.stack((lo, hi)))
    errors = dict(failed)
    for j, exc in sorted(end_errors.items()):  # the lower ends come first
        errors.setdefault(j % len(lo), exc)
    for j in np.flatnonzero(np.sign(f1) * np.sign(f2) != -1.0).tolist():  # NaN counts too
        ends = f"f({lo[j]:.4g}) = {f1[j]:.3e}, f({hi[j]:.4g}) = {f2[j]:.3e}"
        bracket = f"[{lo[j]:.4g}, {hi[j]:.4g}]"
        errors.setdefault(j, NoSignChangeError(f"no sign change on {bracket} ({ends})"))
    x1, x2 = lo, hi  # the bracket: x1 the newest point, x2 the far end
    x3, f3 = x2, f2  # the point that left the bracket last
    t = np.full(lo.shape, 0.5)
    active = np.ones(lo.shape, dtype=bool)
    active[list(errors)] = False
    for _ in range(100):
        width, stop = np.abs(x2 - x1), 1e-12 * np.maximum(1.0, np.maximum(x1, x2))
        active &= (width > stop) & (f1 != 0.0)
        if not active.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            tl = 0.5 * stop / width
            x = np.where(active, x1 + np.clip(t, tl, 1.0 - tl) * (x2 - x1), x1)
        values, step_errors = f(x)
        for i, exc in step_errors.items():
            if active[i]:
                errors[i] = exc
                active[i] = False
        same = (values > 0.0) == (f1 > 0.0)  # a NaN counts as negative
        moved = (x, values, np.where(same, x2, x1), np.where(same, f2, f1))
        moved += (np.where(same, x1, x2), np.where(same, f1, f2))
        state = (x1, f1, x2, f2, x3, f3)
        x1, f1, x2, f2, x3, f3 = (np.where(active, a, b) for a, b in zip(moved, state))
        with np.errstate(divide="ignore", invalid="ignore"):
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            iqi = (phi * phi < xi) & ((1.0 - phi) * (1.0 - phi) < 1.0 - xi)
            alpha = (x3 - x1) / (x2 - x1)
            t = f1 / (f1 - f2) * f3 / (f3 - f2) - alpha * f1 / (f3 - f1) * f2 / (f2 - f3)
        t = np.where(iqi, t, 0.5)
    return np.where(f1 == 0.0, x1, 0.5 * (x1 + x2)), errors


def sudden_death_point(model: StateModel, s_db: float) -> float:
    """Noise photon number where the EoF bound crosses zero.

    Closed form, since the separability boundary ``(a - 1)(b - 1) = c^2``
    of every model is linear in n: with ``delta = 2 sinh^2 r``, the
    model's amplifier excess ``q = p - 1 = 2 n_jpa(e^{2r})`` (0 without
    amplifier; ``p`` is :meth:`StateModel.amplifier_prefactor`) and ``beta
    = 0`` for the ideal model, ``n_sd = [delta p (2 - beta (1 + p)) - q^2]
    / [2p (p delta + q)]``.  Without amplifier that is ``1 - beta`` at
    every squeezing level above 0 dB, 1 for the ideal channel, and it is
    returned as such: the quotient would round, and ``delta`` underflows
    below about 1e-160 dB.  No state is built.  The squeezing level is
    checked as in :meth:`StateModel.state`, with the same errors; raises
    :class:`NoSignChangeError` when the state is separable even at n = 0,
    as at 0 dB and, with amplifier noise, below about 0.03 dB.
    """
    r = _squeezing_factor(s_db)
    beta = model.coupling_beta or 0.0
    q = model._amplifier_excess(math.expm1(2.0 * r))  # 1 + q rounds to 1 at weak squeezing
    if q == 0.0 and r > 0.0:
        return 1.0 - beta
    p, delta = 1.0 + q, 2.0 * math.sinh(r) ** 2
    # q * q rounds to inf where q ** 2 would raise OverflowError.
    num = delta * p * (2.0 - beta * (1.0 + p)) - q * q
    if not num > 0.0:
        raise NoSignChangeError(f"not entangled at {s_db} dB even without injected noise")
    return num / (2.0 * p * (p * delta + q))


# Lower end of every crossover bracket.
_N_LOW = 1e-3


def _sudden_deaths(model: StateModel, s_values) -> list[dict]:
    """A row ``{"n_sd": n_sd}`` per squeezing level, with the error that
    :func:`sudden_death_point` raises in place of ``n_sd``; no kernel call."""
    table: list[dict] = []
    for s_db in s_values:
        try:
            table.append({"n_sd": sudden_death_point(model, s_db)})
        except TmsflowError as exc:
            table.append({"n_sd": exc})
    return table


def _crossovers(model: StateModel, s_values) -> list[dict]:
    """The rows of :func:`_sudden_deaths` with the crossover points of
    flavors A, B and AB added, as ``{"n_sd": n_sd, flavor: n_c}`` per
    level, with the error that ends a search in place of a value.

    All levels' A and B roots are one :func:`_refine` batch over a
    ``(levels, 2)`` grid of entries, one column per flavor, each on its
    level's ``[1e-3, n_sd]``; a level without ``n_sd`` fails both entries
    with its error.  One kernel call evaluates every bracket end, and each
    refinement step is one more on the grid of new points, about 10 to 20
    calls in all.  AB is the mean of A and B and carries A's error first,
    then B's.
    """
    s_col = np.array(s_values, dtype=float)[:, None]
    rows = len(s_col)
    table = _sudden_deaths(model, s_col[:, 0].tolist())
    n_sd = [row["n_sd"] for row in table for _ in "AB"]  # by flat entry 2 * level + flavor
    failed = {j: exc for j, exc in enumerate(n_sd) if isinstance(exc, TmsflowError)}
    hi = np.array([_N_LOW if j in failed else x for j, x in enumerate(n_sd)])  # failed: never searched
    levels = model._levels(s_col)

    def delta(n: np.ndarray) -> tuple[np.ndarray, dict]:
        grid = n.reshape(n.shape[:-1] + (rows, 2))  # the ends, or a step, by level and flavor
        res = correlation_arrays(model._standard_form(s_col, levels, grid))
        return np.where([True, False], res.delta_a, res.delta_b).reshape(n.shape), res.errors

    roots, errors = _refine(delta, np.full(2 * rows, _N_LOW), hi, failed)
    n_c = [errors.get(j, root) for j, root in enumerate(roots.tolist())]
    for row, n_a, n_b in zip(table, n_c[0::2], n_c[1::2]):
        n_ab = next((x for x in (n_a, n_b) if isinstance(x, TmsflowError)), None)
        row.update(A=n_a, B=n_b, AB=0.5 * (n_a + n_b) if n_ab is None else n_ab)
    return table


def crossover_point(model: StateModel, s_db: float, flavor: str) -> CrossoverResult:
    """Crossover noise photon number n_c for one discord flavor.

    For flavors A and B, n_c is the root of the corresponding
    information-flow difference ``delta = D - E_F``, negative below n_c and
    positive above.  The bracket is ``[1e-3, n_sd]`` with the closed-form
    sudden-death point: there ``E_F = 0`` while the state is still
    correlated, so ``delta(n_sd) = D > 0``, and beyond it the signed
    ``E_F`` is negative, so no root with that orientation lies above.  The
    curve must change sign strictly between the ends, so be negative at
    1e-3, otherwise :class:`NoSignChangeError` is raised; a kernel error at
    an end or at a refinement point is raised as it is.  The root is
    refined with Chandrupatla's method (:func:`_refine`), which keeps a
    sign change inside the bracket at every step, down to width
    ``1e-12 max(1, n_sd)``.
    Flavor AB returns the arithmetic mean of the A and B crossover points,
    which share the bracket.  One level of the batch that ``features``
    solves, with the same steps whatever the batch.
    """
    if flavor not in ("A", "B", "AB"):
        raise DomainError(f"flavor must be 'A', 'B' or 'AB', got {flavor!r}")
    row = _crossovers(model, [s_db])[0]
    if isinstance(row[flavor], TmsflowError):
        raise row[flavor]
    return CrossoverResult(flavor=flavor, s_db=s_db, n_c=row[flavor], bracket=(_N_LOW, row["n_sd"]))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

SWEEP_CSV_HEADER = "S_db,n,D_A,D_B,E_F,I_AB,delta_A,delta_B,delta_AB,status"

_CSV_FAILED = "%s,%s," + ",".join(["nan"] * 7) + ",%s\n"
_JSON_FAILED = ', {"s_db": %s, "n": %s, "error": %s}'


def _row_blocks(grid: SweepGrid, fields: int, s_form, n_form, keys, sep, tail, failed):
    """The rows of every cell in row-major order, one block of text per
    batch of ``max(1, BATCH // fields)`` cells, whose at most
    :data:`~tmsflow._floatrepr.BATCH` values are one call of
    :func:`~tmsflow._floatrepr.repr_words`.  A row is ``s_form % s + n_form
    % n`` with the axes' ``repr`` strings, then ``key + repr(value) + sep``
    for each of the first ``fields`` kernel fields and its key, then
    ``tail``; a failed cell's row is ``failed(s, n, exc)``.  A batch's rows
    are laid out as ``uint64`` words in one reused buffer (prefixes, keys,
    tail and values, zero bytes as padding) and compacted to text with one
    nonzero mask; a failed cell's row is masked out and its text spliced in
    at its offset.  The formatter's tables are built when the first sweep
    is written."""
    from . import _floatrepr

    s_reprs = list(map(repr, grid.s_values))
    n_reprs = list(map(repr, grid.n_values))
    s_words, n_words, key_words, tail_words = map(
        _floatrepr.text_words,
        ([s_form % s for s in s_reprs], [n_form % n for n in n_reprs], keys, [tail]),
    )
    ws, wn, wk, wt = s_words.shape[1], n_words.shape[1], key_words.shape[1], tail_words.shape[1]
    width = ws + wn + fields * (wk + _floatrepr.WORDS) + wt
    batch = max(1, _floatrepr.BATCH // fields)
    rows = np.empty((batch, width), dtype="<u8")
    slots = rows[:, ws + wn : width - wt].reshape(batch, fields, -1)
    slots[:, :, :wk] = key_words
    rows[:, width - wt :] = tail_words
    kept = np.empty((batch, 8 * width), dtype=bool)
    sep_word = np.uint64(ord(sep) << 56 if sep else 0)
    columns = [field.ravel() for field in grid.arrays[:fields]]
    failures = sorted(grid.arrays.errors.items())  # by cell index
    cells = len(columns[0])
    for lo in range(0, cells, batch):
        hi = min(lo + batch, cells)
        values = np.stack([column[lo:hi] for column in columns], axis=1)
        words = _floatrepr.repr_words(values).reshape(hi - lo, fields, -1)
        words[:, :, -1] |= sep_word
        slots[: hi - lo, :, wk:] = words
        i_s, i_n = np.divmod(np.arange(lo, hi), len(n_reprs))
        rows[: hi - lo, :ws] = s_words[i_s]
        rows[: hi - lo, ws : ws + wn] = n_words[i_n]
        raw = rows[: hi - lo].view("u1")
        mask = np.not_equal(raw, 0, out=kept[: hi - lo])
        failed_here = failures[bisect_left(failures, (lo,)) : bisect_left(failures, (hi,))]
        here = [(i - lo, exc) for i, exc in failed_here]
        mask[[i for i, _ in here]] = False
        text = raw[mask].tobytes().decode("ascii")
        if here:
            ends = np.cumsum(np.count_nonzero(mask, axis=1)).tolist()
            pieces, done = [], 0
            for i, exc in here:
                pieces += [text[done : ends[i]], failed(s_reprs[i_s[i]], n_reprs[i_n[i]], exc)]
                done = ends[i]
            text = "".join(pieces) + text[done:]
        yield text


def csv_status(message: str) -> str:
    """A failure message as the status field of a CSV row: ``failed`` for
    an empty message, commas as semicolons and newlines as spaces."""
    return (message or "failed").replace(",", ";").replace("\n", " ")


def _csv_failed(s: str, n: str, exc: Exception) -> str:
    return _CSV_FAILED % (s, n, csv_status(str(exc)))


def _json_failed(s: str, n: str, exc: Exception) -> str:
    return _JSON_FAILED % (s, n, json.dumps(str(exc)))


def sweep_blocks_to_csv(grid: SweepGrid):
    """The sweep CSV (header line, then one row per cell with the status
    ``ok`` or the cell's error) in blocks of text."""
    yield SWEEP_CSV_HEADER + "\n"
    yield from _row_blocks(grid, 7, "%s,", "%s,", [""] * 7, ",", "ok\n", _csv_failed)


def sweep_blocks_to_json(grid: SweepGrid, meta: dict):
    """The sweep JSON document ``{"s_values", "n_values", "reports",
    "meta"}`` and a newline, in blocks of text: one report per cell with
    every kernel field, or its ``error``, as ``json.dumps(...,
    allow_nan=False)`` writes it."""
    names = CorrelationArrays._fields[:-1]
    keys = [f', "{name}": ' for name in names]
    s_form = ', {"s_db": %s, "n": '
    blocks = _row_blocks(grid, len(names), s_form, "%s", keys, "", "}", _json_failed)
    # Every report starts with ", ", which the first one drops.
    yield '{"s_values": [%s], "n_values": [%s], "reports": [%s' % (
        ", ".join(map(repr, grid.s_values)),
        ", ".join(map(repr, grid.n_values)),
        next(blocks)[2:],
    )
    yield from blocks
    yield '], "meta": ' + json.dumps(meta, allow_nan=False) + "}\n"
