"""Correctness checks of the outputs of one benchmark run.

Every timed job's output is parsed and checked outside the timed region.
Two kinds of finding come out:

* a *failed item*: a cell, threshold value or job that the CLI marks as
  anything but ``ok``, or an ideal-model value listed in
  ``known_deviations.json`` that misses its reference.  Failed items are
  expected at the seed commit and are counted in ``fail_ratio``;
* a *check failure*: anything else that is wrong (a nonzero exit, a
  malformed output, a value off its reference and not listed, a rerun with
  different bytes).  Any check failure makes the run incorrect.
"""

from __future__ import annotations

import json
import math
import os
import random

import numpy as np

from reference import ideal_report
from workloads import Job, grid_values

REFERENCE_TOL = 1e-8  # absolute, against the 50-digit reference
NSD_TOL = 1e-6  # ideal sudden death sits at n = 1
PURE_TOL = 1e-8  # D_A = D_B = E_F on pure states
K0_AT_30 = (0.26, 0.01)  # key threshold at 30 dB
FIT_TOL = 1e-4  # clean-record fit recovers (chi1, chi2)
FIT_TRUTH = (0.05, 0.56)
CUMULANT_HARD_SE = 8.0  # a Gaussian sample beyond this many standard errors is a bug
MPMATH_PER_JOB = 5  # seeded cells per seeded ideal sweep job

QUANTITIES = ("d_a", "d_b", "e_f", "i_ab", "delta_a", "delta_b", "delta_ab")

_HERE = os.path.dirname(os.path.abspath(__file__))


def _known() -> tuple[set, set]:
    with open(os.path.join(_HERE, "known_deviations.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    cells = {(d["model"], d["s_db"], d["n"]) for d in doc["sweep"]}
    rows = {(d["model"], d["s_db"]) for d in doc["features"]}
    return cells, rows


def _csv_rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


class Checker:
    """Accumulates items, failures and deviations over one run."""

    def __init__(self, seed: int, samples: dict[str, np.ndarray]):
        self.rng = random.Random(f"checks/{seed}")
        self.samples = samples
        self.known_cells, self.known_rows = _known()
        self.attempted = 0
        self.failed_items = 0
        self.failures: list[str] = []
        self.known_seen: list[str] = []
        self.max_dev = 0.0
        self.max_dev_at = ""
        self.fit_iterations: list[int] = []
        self.bytes_in = 0
        self.bytes_out = 0
        self._repeat: dict[str, tuple[bytes, int, int]] = {}

    # -- bookkeeping ---------------------------------------------------------

    def fail(self, where: str, message: str) -> None:
        self.failures.append(f"{where}: {message}")

    def item(self, ok: bool) -> None:
        self.attempted += 1
        self.failed_items += 0 if ok else 1

    def deviation(self, value: float, where: str) -> None:
        if value > self.max_dev:
            self.max_dev, self.max_dev_at = value, where

    # -- dispatch ------------------------------------------------------------

    def job(self, job: Job, cycle: int, code: str) -> None:
        where = f"cycle {cycle} {job.kind}"
        texts = []
        for path in job.outputs:
            try:
                with open(path, "rb") as fh:
                    texts.append(fh.read())
            except OSError:
                texts.append(None)
        self.bytes_in += sum(os.path.getsize(p) for p in job.inputs if os.path.exists(p))
        self.bytes_out += sum(len(t) for t in texts if t is not None)
        if code != "0" or any(t is None for t in texts):
            self.fail(where, f"exit {code}, outputs present: {[t is not None for t in texts]}")
            self.item(False)
            return
        if not job.meta.get("seeded", True):
            # Fixed inputs: later cycles must repeat cycle 0 byte for byte.
            first = self._repeat.get(job.kind)
            if first is not None:
                if first[0] != texts[0]:
                    self.fail(where, "fixed-input job changed output between cycles")
                self.attempted += first[1]
                self.failed_items += first[2]
                return
            before = (self.attempted, self.failed_items)
        check = {
            "sweep": self._sweep,
            "qkd": self._qkd,
            "features": self._features,
            "gen": self._records,
            "fit": self._fit,
            "tomo": self._tomo,
            "validate": self._validate,
        }[job.kind.split("-")[0]]
        try:
            check(job, [t.decode() for t in texts], where)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            self.fail(where, f"malformed output ({type(exc).__name__}: {exc})")
        if not job.meta.get("seeded", True):
            self._repeat[job.kind] = (
                texts[0], self.attempted - before[0], self.failed_items - before[1]
            )

    # -- grid ----------------------------------------------------------------

    def _sweep(self, job: Job, texts: list[str], where: str) -> None:
        meta = job.meta
        s_axis, n_axis = grid_values(meta["s"]), grid_values(meta["n"])
        cells = []
        if meta["format"] == "csv":
            for row in _csv_rows(texts[0]):
                if len(row) != 10:
                    raise ValueError(f"row with {len(row)} fields")
                values = dict(zip(QUANTITIES, map(float, row[2:9])))
                cells.append((float(row[0]), float(row[1]), values, row[9]))
        else:
            for doc in json.loads(texts[0])["reports"]:
                if "error" in doc:
                    cells.append((doc["s_db"], doc["n"], None, doc["error"]))
                else:
                    values = {q: doc[q] for q in QUANTITIES + ("gamma",)}
                    cells.append((doc["s_db"], doc["n"], values, "ok"))
        expected = [(s, n) for s in s_axis for n in n_axis]
        if len(cells) != len(expected):
            self.fail(where, f"{len(cells)} cells, expected {len(expected)}")
            return
        for (s, n, _, _), (es, en) in zip(cells, expected):
            if not (math.isclose(s, es, rel_tol=1e-12, abs_tol=1e-12)
                    and math.isclose(n, en, rel_tol=1e-12, abs_tol=1e-15)):
                self.fail(where, f"cell ({s}, {n}) where ({es}, {en}) was expected")
                return
        ok_cells = [c for c in cells if c[3] == "ok"]
        for s, n, values, _ in ok_cells:
            if not _finite(values.values()):
                self.fail(where, f"non-finite value in ok cell ({s}, {n})")
                return
        known_bad = set()
        if meta["model"] == "ideal":
            known_bad = self._ideal_references(ok_cells, not meta["seeded"], where)
        for s, n, _, status in cells:
            self.item(status == "ok" and (s, n) not in known_bad)

    def _ideal_references(self, ok_cells: list, check_all: bool, where: str) -> set:
        """Check ideal cells against the pure-state identity and the 50-digit
        reference; return the listed cells that miss it."""
        for s, n, v, _ in ok_cells:
            if n == 0.0:
                gap = max(abs(v["d_a"] - v["e_f"]), abs(v["d_b"] - v["e_f"]))
                self.deviation(gap, f"{where} D = E_F at ({s}, 0)")
                if gap > PURE_TOL:
                    self.fail(where, f"D_A, D_B, E_F differ by {gap:.3e} at S = {s}, n = 0")
        sample = ok_cells if check_all else self.rng.sample(
            ok_cells, min(MPMATH_PER_JOB, len(ok_cells))
        )
        known_bad = set()
        for s, n, values, _ in sample:
            ref = ideal_report(s, n)
            dev, qty = max((abs(values[q] - ref[q]), q) for q in values)
            if dev <= REFERENCE_TOL:
                self.deviation(dev, f"{where} {qty} at ({s}, {n})")
            elif ("ideal", s, n) in self.known_cells:
                self.known_seen.append(f"{where}: {qty} off by {dev:.3e} at ({s}, {n})")
                known_bad.add((s, n))
            else:
                self.fail(where, f"{qty} off the reference by {dev:.3e} at S = {s}, n = {n}")
        return known_bad

    def _qkd(self, job: Job, texts: list[str], where: str) -> None:
        s_axis, nq_axis = grid_values(job.meta["s"]), grid_values(job.meta["nq"])
        rows = [list(map(float, r)) for r in _csv_rows(texts[0])]
        if len(rows) != len(s_axis) * len(nq_axis) or any(len(r) != 5 for r in rows):
            self.fail(where, f"{len(rows)} key rows, expected {len(s_axis) * len(nq_axis)}")
            return
        for _, _, i_s, chi, key in rows:
            good = _finite((i_s, chi, key)) and i_s >= 0.0 and chi >= 0.0
            if not good or abs(key - (i_s - chi)) > 1e-12 * max(1.0, abs(i_s)):
                self.fail(where, f"inconsistent key row I_s={i_s} chi={chi} K={key}")
                return
        if len(texts) == 1:
            for _ in rows:
                self.item(True)
            return
        thresholds = _csv_rows(texts[1])
        if len(thresholds) != len(s_axis):
            self.fail(where, f"{len(thresholds)} threshold rows, expected {len(s_axis)}")
            return
        for s, value, status in thresholds:
            s, value = float(s), float(value)
            if status != "ok":
                self.item(False)
                continue
            if not 1e-4 < value < 2.0:
                self.fail(where, f"threshold {value} at {s} dB outside its bracket")
                continue
            self.item(True)
            if s == 30.0:
                target, tol = K0_AT_30
                if abs(value - target) > tol:
                    self.fail(where, f"K = 0 at 30 dB is {value}, expected {target} +- {tol}")

    # -- thresholds ----------------------------------------------------------

    def _features(self, job: Job, texts: list[str], where: str) -> None:
        model = job.meta["model"]
        s_axis = grid_values(job.meta["s"])
        rows = _csv_rows(texts[0])
        if len(rows) != len(s_axis) or any(len(r) != 6 for r in rows):
            self.fail(where, f"{len(rows)} feature rows, expected {len(s_axis)}")
            return
        for row in rows:
            s = float(row[0])
            n_sd, n_a, n_b, n_ab = map(float, row[1:5])
            status = row[5]
            for name, value in (("n_sd", n_sd), ("n_c_A", n_a), ("n_c_B", n_b), ("n_c_AB", n_ab)):
                if math.isnan(value):
                    if f"{name}:" not in status:
                        self.fail(where, f"{name} is nan at {s} dB without a reason")
                    self.item(False)
                    continue
                if name != "n_sd" and not 0.0 < value < 1.0:
                    self.fail(where, f"{name} = {value} at {s} dB outside (0, 1)")
                    continue
                if name == "n_sd" and model == "ideal":
                    dev = abs(value - 1.0)
                    if dev > NSD_TOL:
                        if (model, s) in self.known_rows:
                            self.known_seen.append(f"{where}: n_sd off by {dev:.3e} at {s} dB")
                            self.item(False)
                        else:
                            self.fail(where, f"n_sd = {value} at {s} dB, expected 1 +- {NSD_TOL}")
                        continue
                    self.deviation(dev, f"{where} n_sd at {s} dB")
                self.item(True)
            if not (math.isnan(n_a) or math.isnan(n_b)) and n_ab != 0.5 * (n_a + n_b):
                self.fail(where, f"n_c_AB {n_ab} is not the mean of A and B at {s} dB")

    # -- records -------------------------------------------------------------

    def _records(self, job: Job, texts: list[str], where: str) -> None:
        rows = [list(map(float, r)) for r in _csv_rows(texts[0])]
        if not rows or any(len(r) != 5 or not _finite(r) for r in rows):
            self.fail(where, "malformed synthetic records")
            return
        self.item(True)

    def _fit(self, job: Job, texts: list[str], where: str) -> None:
        doc = json.loads(texts[0])
        if not _finite((doc["chi1"], doc["chi2"], doc["final_cost"])) or doc["final_cost"] < 0:
            self.fail(where, f"non-finite fit result {doc}")
            return
        self.fit_iterations.append(doc["iterations"])
        self.item(bool(doc["converged"]))
        if job.kind == "fit-clean":
            dev = max(abs(doc["chi1"] - FIT_TRUTH[0]), abs(doc["chi2"] - FIT_TRUTH[1]))
            self.deviation(dev, f"{where} recovery")
            if dev > FIT_TOL:
                self.fail(where, f"clean fit gave ({doc['chi1']}, {doc['chi2']}), off by {dev:.3e}")

    def _tomo(self, job: Job, texts: list[str], where: str) -> None:
        cov_doc, cum_doc = json.loads(texts[0]), json.loads(texts[1])
        cov = np.array(cov_doc["entries"], dtype=float).reshape(4, 4)
        data = self.samples[job.meta["samples"]]
        centred = data - data.mean(axis=0)
        sample_cov = centred.T @ centred / (len(data) - 1)
        if not np.all(np.isfinite(cov)) or np.abs(cov - cov.T).max() > 0.0:
            self.fail(where, "covariance not finite and symmetric")
            return
        gap = float(np.abs(cov - sample_cov).max())
        if job.meta["samples"].startswith("mixed"):
            # --project leaves a clearly mixed state alone.
            self.deviation(gap, f"{where} covariance")
            if gap > 1e-12 * float(np.abs(sample_cov).max()):
                self.fail(where, f"covariance differs from the sample covariance by {gap:.3e}")
        elif gap > 0.05 * float(np.abs(sample_cov).max()):
            self.fail(where, f"projection moved the covariance by {gap:.3e}")
        flagged = False
        for entry in cum_doc["cumulants"]:
            value, se = entry["value"], entry["standard_error"]
            if se > 0 and abs(value) >= CUMULANT_HARD_SE * se:
                self.fail(where, f"cumulant {entry['order']} is {abs(value) / se:.1f} SE from 0")
            flagged |= (abs(value) >= cum_doc["threshold"] * se) if se > 0 else value != 0
        if cum_doc["gaussian"] == flagged:
            self.fail(where, "Gaussian verdict disagrees with the reported cumulants")
        self.item(bool(cum_doc["gaussian"]))

    def _validate(self, job: Job, texts: list[str], where: str) -> None:
        doc = json.loads(texts[0])
        if not doc["ok"]:
            self.fail(where, f"projected covariance not physical: {doc['violations']}")
        self.item(bool(doc["ok"]))
