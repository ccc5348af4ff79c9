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
from dataclasses import dataclass

import numpy as np

from .correlations import CorrelationArrays, CorrelationReport, correlation_arrays
from .errors import DomainError, NoSignChangeError, TmsflowError
from .states import StateModel


@dataclass(frozen=True)
class SweepGrid:
    """Correlation measures on the outer product of two strictly
    increasing axes, as the kernel computed them: every array of
    ``arrays`` has shape ``(len(s_values), len(n_values))``.  A cell with
    ``arrays.status`` 0 is ok, with finite values; one with status ``k``
    failed with the error ``arrays.causes[k - 1]``."""

    s_values: tuple[float, ...]
    n_values: tuple[float, ...]
    arrays: CorrelationArrays

    def report(self, i_s: int, i_n: int) -> CorrelationReport:
        """The measures of one cell; raises the cell's error where it failed."""
        code = self.arrays.status[i_s, i_n]
        if code:
            raise self.arrays.causes[code - 1]
        return CorrelationReport(*(float(field[i_s, i_n]) for field in self.arrays[:-2]))


def _check_axis(values, name: str) -> tuple[float, ...]:
    vals = tuple(float(v) for v in values)
    if not vals:
        raise DomainError(f"{name} axis is empty")
    if not all(b > a for a, b in zip(vals, vals[1:])):  # NaN fails too
        raise DomainError(f"{name} axis must be strictly increasing")
    return vals


def sweep(model: StateModel, s_values, n_values) -> SweepGrid:
    """Evaluate the correlation measures on an (S, n) grid.

    The whole grid is one call of the correlation kernel on the model's
    standard form, so a cell's values do not depend on the grid around it;
    a cell whose evaluation fails, a value that is not finite among them,
    carries its error in ``arrays.status`` and ``arrays.causes``.
    """
    s_vals = _check_axis(s_values, "squeezing")
    n_vals = _check_axis(n_values, "noise")
    arrays = correlation_arrays(model.standard_form(np.array(s_vals)[:, None], np.array(n_vals)))
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
    the root, of a batch of one.  ``f`` must give a point the same value
    whatever the other points: a stopped entry keeps the value it reads
    again, so a step is its interpolation arithmetic under one
    ``np.errstate``, one call of ``f`` and four ``np.where`` updates of
    the bracket.  What ``f`` needs of an entry that does not change from
    step to step (the level terms of a squeezing level) its caller forms
    once per batch.  Returns the midpoint of each final bracket (the zero
    itself where ``f`` hit one) and the errors of the failed entries by
    index.  Where every entry is in ``failed``, ``f`` is not called.
    """
    if len(failed) == len(lo):  # nothing to search
        return 0.5 * (lo + hi), dict(failed)
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
    active = np.ones(lo.shape, dtype=bool)
    active[list(errors)] = False
    for _ in range(100):
        dx = x2 - x1
        width, stop = np.abs(dx), 1e-12 * np.maximum(1.0, np.maximum(x1, x2))
        active &= (width > stop) & (f1 != 0.0)
        if not active.any():
            break
        with np.errstate(all="ignore"):  # x3 = x2 before the first step: phi is inf, t 0.5
            df, df3 = f1 - f2, f3 - f2
            xi, phi = (x1 - x2) / (x3 - x2), df / df3
            iqi = (phi * phi < xi) & ((1.0 - phi) * (1.0 - phi) < 1.0 - xi)
            alpha = (x3 - x1) / dx
            t = f1 / df * f3 / df3 - alpha * f1 / (f3 - f1) * f2 / (f2 - f3)
            tl = 0.5 * stop / width
            t = np.minimum(np.maximum(np.where(iqi, t, 0.5), tl), 1.0 - tl)
            x = np.where(active, x1 + t * dx, x1)
        values, step_errors = f(x)
        lost = [i for i in step_errors if active[i]]
        for i in lost:
            errors[i] = step_errors[i]
        if lost:  # an entry that failed keeps its newest point
            active[lost] = False
            x, values = np.where(active, x, x1), np.where(active, values, f1)
        # Where an entry is not active, x and values are its x1 and f1 (f
        # reads each point alike), and its x3 and f3 are never read again.
        keep = (values > 0.0) == (f1 > 0.0)  # a NaN counts as negative
        keep |= ~active
        x2, x3 = np.where(keep, x2, x1), np.where(keep, x1, x2)
        f2, f3 = np.where(keep, f2, f1), np.where(keep, f1, f2)
        x1, f1 = x, values
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
    below about 1e-160 dB.  No state is built: r, q and the level's error
    come from the model's level pass (:meth:`StateModel._n_sd`).  Raises
    :class:`NoSignChangeError` when the state is separable even at n = 0,
    as at 0 dB and, with amplifier noise, below about 0.03 dB.
    """
    n_sd = _sudden_deaths(model, [s_db])[0]["n_sd"]
    if isinstance(n_sd, TmsflowError):
        raise n_sd
    return n_sd


# Lower end of every crossover bracket.
_N_LOW = 1e-3


def _sudden_deaths(model: StateModel, s_values) -> list[dict]:
    """A row ``{"n_sd": n_sd}`` per squeezing level, with the error that
    :func:`sudden_death_point` raises in place of ``n_sd``; no kernel call."""
    s = np.array(s_values, dtype=float)
    return [{"n_sd": n_sd} for n_sd in model._n_sd(s, model._levels(s))]


def _crossovers(model: StateModel, s_values) -> list[dict]:
    """The rows of :func:`_sudden_deaths` with the crossover points of
    flavors A, B and AB added, as ``{"n_sd": n_sd, flavor: n_c}`` per
    level, with the error that ends a search in place of a value.

    All levels' A and B roots are one :func:`_refine` batch over a
    ``(levels, 2)`` grid of entries, one column per flavor, each on its
    level's ``[1e-3, n_sd]``; a level without ``n_sd`` fails both entries
    with its error, and one whose ``n_sd`` is not above 1e-3 with
    :class:`NoSignChangeError` naming the empty bracket, unsearched.  What
    the levels alone determine, ``n_sd`` too, is formed once for the batch
    (:meth:`StateModel._levels`).  One kernel call evaluates every bracket
    end, and each refinement step is one more on the grid of new points,
    about 10 to 20 calls in all.  AB is the mean of A and B and carries A's
    error first, then B's.
    """
    s_grid = np.repeat(np.array(s_values, dtype=float), 2).reshape(-1, 2)  # by level and flavor
    levels = model._levels(s_grid)
    n_sd = model._n_sd(s_grid, levels)  # by flat entry 2 * level + flavor
    table = [{"n_sd": x} for x in n_sd[0::2]]
    failed = {j: exc for j, exc in enumerate(n_sd) if isinstance(exc, TmsflowError)}
    for j, x in enumerate(n_sd):
        if j not in failed and x <= _N_LOW:  # no point lies between the ends
            failed[j] = NoSignChangeError(f"empty bracket [{_N_LOW:g}, n_sd] with n_sd = {x:.4g}")
    hi = np.array([_N_LOW if j in failed else x for j, x in enumerate(n_sd)])  # failed: never searched

    def delta(n: np.ndarray) -> tuple[np.ndarray, dict]:
        grid = n.reshape(n.shape[:-1] + s_grid.shape)  # the ends, or a step, by level and flavor
        res = correlation_arrays(model._standard_form(s_grid, levels, grid))
        errors = {j: res.causes[res.status.flat[j] - 1] for j in np.flatnonzero(res.status).tolist()}
        return np.where([True, False], res.delta_a, res.delta_b).reshape(n.shape), errors

    roots, errors = _refine(delta, np.full(s_grid.size, _N_LOW), hi, failed)
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
    bracket must not be empty (``n_sd > 1e-3``) and the curve must change
    sign strictly between its ends, so be negative at 1e-3, otherwise
    :class:`NoSignChangeError` is raised; a kernel error at
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


def _row_blocks(grid: SweepGrid, fields: int, s_form, n_form, keys, sep, tails):
    """The rows of every cell in row-major order, one block of text per
    batch of ``max(1, BATCH // fields)`` cells, whose at most
    :data:`~tmsflow._floatrepr.BATCH` values are one call of
    :func:`~tmsflow._floatrepr.repr_words`.  A row is ``s_form % s + n_form
    % n`` with the axes' ``repr`` strings, then, for a cell that is ok,
    ``key + repr(value) + sep`` for each of the first ``fields`` kernel
    fields and its key, then ``tails[code]`` by the cell's status code
    (``tails[0]`` where it is ok).  A batch's rows are laid out as
    ``uint64`` words in one reused buffer (prefixes, keys, tail and values,
    zero bytes as padding) and compacted to text with one nonzero mask,
    which drops the keys and values of a failed cell.  The formatter's
    tables are built when the first sweep is written."""
    from . import _floatrepr

    s_texts = [s_form % repr(s) for s in grid.s_values]
    n_texts = [n_form % repr(n) for n in grid.n_values]
    s_words, n_words, key_words, tail_words = map(_floatrepr.text_words, (s_texts, n_texts, keys, tails))
    ws, wn, wk, wt = s_words.shape[1], n_words.shape[1], key_words.shape[1], tail_words.shape[1]
    width = ws + wn + fields * (wk + _floatrepr.WORDS) + wt
    batch = max(1, _floatrepr.BATCH // fields)
    rows = np.empty((batch, width), dtype="<u8")
    slots = rows[:, ws + wn : width - wt].reshape(batch, fields, -1)
    slots[:, :, :wk] = key_words
    rows[:, width - wt :] = tail_words[0]
    kept = np.empty((batch, 8 * width), dtype=bool)
    sep_word = np.uint64(ord(sep) << 56 if sep else 0)
    columns = [field.ravel() for field in grid.arrays[:fields]]
    status = grid.arrays.status.ravel()
    failures = status.any()
    cells = len(columns[0])
    for lo in range(0, cells, batch):
        hi = min(lo + batch, cells)
        values = np.stack([column[lo:hi] for column in columns], axis=1)
        if failures:
            failed = status[lo:hi] != 0
            values[failed] = 0.0  # meaningless: formatted without repr's fallback, then dropped
            rows[: hi - lo, width - wt :] = tail_words[status[lo:hi]]
        words = _floatrepr.repr_words(values).reshape(hi - lo, fields, -1)
        words[:, :, -1] |= sep_word
        slots[: hi - lo, :, wk:] = words
        i_s, i_n = np.divmod(np.arange(lo, hi), len(grid.n_values))
        rows[: hi - lo, :ws] = s_words[i_s]
        rows[: hi - lo, ws : ws + wn] = n_words[i_n]
        raw = rows[: hi - lo].view("u1")
        mask = np.not_equal(raw, 0, out=kept[: hi - lo])
        if failures:
            mask[failed, 8 * (ws + wn) : 8 * (width - wt)] = False
        yield raw[mask].tobytes().decode()


def csv_status(message: str) -> str:
    """A failure message as the status field of a CSV row: ``failed`` for
    an empty message, commas as semicolons and newlines as spaces."""
    return (message or "failed").replace(",", ";").replace("\n", " ")


def sweep_blocks_to_csv(grid: SweepGrid):
    """The sweep CSV (header line, then one row per cell with the status
    ``ok``, or ``nan`` values and the cell's error) in blocks of text."""
    tails = ["ok\n", *("nan," * 7 + csv_status(str(exc)) + "\n" for exc in grid.arrays.causes)]
    yield SWEEP_CSV_HEADER + "\n"
    yield from _row_blocks(grid, 7, "%s,", "%s,", [""] * 7, ",", tails)


def sweep_blocks_to_json(grid: SweepGrid, meta: dict):
    """The sweep JSON document ``{"s_values", "n_values", "reports",
    "meta"}`` and a newline, in blocks of text: one report per cell with
    every kernel field, or its ``error``, as ``json.dumps(...,
    allow_nan=False)`` writes it."""
    names = CorrelationArrays._fields[:-2]
    keys = [f', "{name}": ' for name in names]
    tails = ["}", *(', "error": %s}' % json.dumps(str(exc)) for exc in grid.arrays.causes)]
    s_form = ', {"s_db": %s, "n": '
    blocks = _row_blocks(grid, len(names), s_form, "%s", keys, "", tails)
    # Every report starts with ", ", which the first one drops.
    yield '{"s_values": [%s], "n_values": [%s], "reports": [%s' % (
        ", ".join(map(repr, grid.s_values)),
        ", ".join(map(repr, grid.n_values)),
        next(blocks)[2:],
    )
    yield from blocks
    yield '], "meta": ' + json.dumps(meta, allow_nan=False) + "}\n"
