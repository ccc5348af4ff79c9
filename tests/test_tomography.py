import io
import math
import os
import tempfile
import tracemalloc
import warnings
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmsflow import tomography
from tmsflow.correlations import discord
from tmsflow.errors import DomainError, NonFiniteError, NumericalError, TmsflowError, TooFewSamplesError
from tmsflow.states import ideal_tms, vacuum
from tmsflow.symplectic import CovarianceMatrix, require_valid, validate
from tmsflow.tomography import (
    QuadratureSamples,
    covariance_from_samples,
    cumulants,
    project_to_physical,
    samples_from_csv,
    samples_to_csv,
    _k_statistics,
    _scan_samples,
)

from conftest import sample_gaussian


class TestCovarianceFromSamples:
    def test_vacuum_reconstruction_within_three_sigma(self, rng):
        n = 10**6
        samples = QuadratureSamples(sample_gaussian(vacuum(2), n, rng))
        est = covariance_from_samples(samples)
        # standard errors: sqrt(2/N) sigma^2 on the diagonal, sigma^2/sqrt(N) off it
        diag_se = 0.25 * math.sqrt(2.0 / n)
        off_se = 0.25 / math.sqrt(n)
        err = est.entries - vacuum(2).entries
        assert np.abs(np.diag(err)).max() < 3 * diag_se
        assert np.abs(err - np.diag(np.diag(err))).max() < 3 * off_se * 3

    def test_constant_samples_flagged_unphysical(self):
        samples = QuadratureSamples(np.ones((100, 4)))
        est = covariance_from_samples(samples)
        verdict = validate(est)
        assert not verdict.ok

    @pytest.mark.parametrize("scale", [1.0, 1e-30, 2.0**230])
    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_entries_are_the_second_order_report(self, scale, offset, rng):
        # bit for bit, with column means far from zero too
        data = sample_gaussian(ideal_tms(0.7), 3000, rng)
        samples = QuadratureSamples(scale * (data + offset * np.array([1.0, -2.0, 3.0, 0.5])))
        est = covariance_from_samples(samples).entries
        second = cumulants(samples).second_order
        names = tomography.COLUMN_NAMES
        for i in range(4):
            for j in range(i, 4):
                assert est[i, j] == est[j, i] == second[names[i] + names[j]]

    def test_entries_near_the_double_range(self, rng):
        # variances near 1e306 are doubles, though the squares of unscaled
        # samples at 1e153 overflow; at 1e160 they are not
        data = sample_gaussian(vacuum(2), 200, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            large = covariance_from_samples(QuadratureSamples(1e153 * data)).entries
            unit = covariance_from_samples(QuadratureSamples(data)).entries
            assert np.isfinite(large).all()
            assert np.allclose(large, 1e306 * unit, rtol=1e-14, atol=0.0)
            with pytest.raises(NumericalError, match="leaves the double range"):
                covariance_from_samples(QuadratureSamples(1e160 * data))

    def test_permutation_invariance(self, rng):
        data = sample_gaussian(ideal_tms(0.5), 5000, rng)
        est1 = covariance_from_samples(QuadratureSamples(data))
        est2 = covariance_from_samples(QuadratureSamples(data[rng.permutation(5000)]))
        assert np.allclose(est1.entries, est2.entries, atol=1e-12)

    def test_convergence_rate(self):
        errs = {}
        for n in (10**4, 10**6):
            r = np.random.default_rng(5)
            samples = QuadratureSamples(sample_gaussian(ideal_tms(1.0), n, r))
            est = covariance_from_samples(samples)
            errs[n] = np.abs(est.entries - ideal_tms(1.0).entries).max()
        ratio = errs[10**4] / errs[10**6]
        assert 5.0 <= ratio <= 20.0

    def test_end_to_end_discord(self, rng):
        samples = QuadratureSamples(sample_gaussian(ideal_tms(1.0), 10**6, rng))
        est = project_to_physical(covariance_from_samples(samples))
        d_b = discord(est, "A")
        assert abs(d_b - 1.6198) / 1.6198 < 0.05

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            QuadratureSamples(np.ones((1, 4)))
        with pytest.raises(TooFewSamplesError):
            QuadratureSamples(np.ones((10, 3)))

    def test_non_finite_rejected(self):
        data = np.ones((10, 4))
        data[3, 2] = np.inf
        with pytest.raises(NonFiniteError):
            QuadratureSamples(data)


class TestProjection:
    def test_restores_physicality(self, rng):
        samples = QuadratureSamples(sample_gaussian(ideal_tms(1.0), 10**5, rng))
        est = covariance_from_samples(samples)
        projected = project_to_physical(est)
        assert validate(projected).ok
        assert require_valid(projected)[0].min() >= 0.25 - 1e-12

    def test_perturbation_is_statistical_scale(self, rng):
        samples = QuadratureSamples(sample_gaussian(ideal_tms(1.0), 10**5, rng))
        est = covariance_from_samples(samples)
        projected = project_to_physical(est)
        assert np.abs(projected.entries - est.entries).max() < 0.05

    def test_physical_input_unchanged(self):
        V = ideal_tms(0.4)
        out = project_to_physical(V)
        assert np.abs(out.entries - V.entries).max() < 1e-14

    @pytest.mark.parametrize("nu_b", [0.25, 0.2])
    def test_projects_entries_near_the_double_range(self, nu_b):
        # V + V.T overflows; the halves do not, so this is no error and no warning
        V = CovarianceMatrix(np.diag([1.2e308, 1.2e308, nu_b, nu_b]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = project_to_physical(V).entries
        # mode B is physical, or lifted to 1/4, to within 2 ulp of the Williamson pass
        expected = np.diag([1.2e308, 1.2e308, 0.25, 0.25])
        np.testing.assert_allclose(out, expected, rtol=2 * np.finfo(float).eps, atol=0.0)

    def test_physical_input_is_returned_bit_for_bit(self):
        # validation's exact pass finds every nu >= 1/4: nothing is clamped or rounded
        corner = 0.25 * np.eye(4)
        corner[0, 3] = corner[3, 0] = 1.5e-323  # an odd subnormal, kept whole
        for m in (np.diag([1.2e308, 1.2e308, 0.25, 0.25]), corner, np.zeros((0, 0))):
            assert project_to_physical(CovarianceMatrix(m)).entries.tobytes() == m.tobytes()

    def test_indefinite_estimate_is_refused(self):
        with pytest.raises(NumericalError):
            project_to_physical(CovarianceMatrix(np.diag([0.3, 0.3, 0.3, -0.01])))


def _kendall_stuart(x, y, p, q):
    """Bivariate k-statistic k_pq (p, q >= 1, p + q in {3, 4}) of one pair."""
    n = x.size
    dx, dy = x - x.mean(), y - y.mean()

    def m(a, b):
        return np.mean(dx**a * dy**b)

    if p + q == 3:
        return n * n / ((n - 1) * (n - 2)) * m(p, q)
    products = {
        (3, 1): 3 * m(2, 0) * m(1, 1),
        (2, 2): m(2, 0) * m(0, 2) + 2 * m(1, 1) ** 2,
        (1, 3): 3 * m(0, 2) * m(1, 1),
    }
    c4 = n * n / ((n - 1) * (n - 2) * (n - 3))
    return c4 * ((n + 1) * m(p, q) - (n - 1) * products[(p, q)])


def _exact_deviations(column):
    """A column as integers ``n x - sum(x)``: n times its deviations from
    the mean, times ``den``, the largest denominator of its values (a power
    of two); returns the integers and ``den``."""
    values = [Fraction(v) for v in column.tolist()]
    den = max(v.denominator for v in values)
    ints = [int(v * den) for v in values]
    total = sum(ints)
    return [len(ints) * v - total for v in ints], den


def _exact_k_statistics(data):
    """{(i, j, (p, q)): k_pq of columns i < j} in exact rational arithmetic,
    for every order that cumulants reports, second order included."""
    n = len(data)
    cols = [_exact_deviations(data[:, c]) for c in range(4)]
    out = {}
    for i, j in combinations(range(4), 2):
        (a, da), (b, db) = cols[i], cols[j]

        def m(p, q):
            total = sum(u**p * v**q for u, v in zip(a, b))
            return Fraction(total, n ** (p + q + 1) * da**p * db**q)

        m20, m11, m02 = m(2, 0), m(1, 1), m(0, 2)
        products = {
            (4, 0): 3 * m20 * m20,
            (3, 1): 3 * m20 * m11,
            (2, 2): m20 * m02 + 2 * m11 * m11,
            (1, 3): 3 * m02 * m11,
            (0, 4): 3 * m02 * m02,
        }
        for p, q in [(2, 0), (1, 1), (0, 2), *tomography._HIGHER_ORDERS]:
            if p + q == 2:
                k = Fraction(n, n - 1) * m(p, q)
            elif p + q == 3:
                k = Fraction(n * n, (n - 1) * (n - 2)) * m(p, q)
            else:
                c4 = Fraction(n * n, (n - 1) * (n - 2) * (n - 3))
                k = c4 * ((n + 1) * m(p, q) - (n - 1) * products[p, q])
            out[i, j, (p, q)] = k
    return out


class TestCumulants:
    def test_gaussian_data_passes(self, rng):
        samples = QuadratureSamples(sample_gaussian(ideal_tms(1.0), 30000, rng))
        report = cumulants(samples)
        assert report.gaussian
        assert report.threshold == 5.0

    def test_uniform_data_fails_with_negative_kurtosis(self):
        rng = np.random.default_rng(7)
        samples = QuadratureSamples(rng.uniform(-1.0, 1.0, size=(100000, 4)))
        report = cumulants(samples)
        assert not report.gaussian
        k40 = [e for e in report.entries if e.order == (4, 0) and e.pair[0] == 0][0]
        # excess kurtosis of the uniform distribution is exactly -6/5
        assert k40.normalized == pytest.approx(-1.2, abs=0.05)

    def test_second_order_matches_covariance(self, rng):
        data = sample_gaussian(ideal_tms(0.5), 5000, rng)
        ks = _k_statistics(data)
        cov = np.cov(data[:, 0], data[:, 2], ddof=1)
        assert ks[(1, 1)][0, 2] == pytest.approx(cov[0, 1], rel=1e-12)
        assert ks[(2, 0)][0, 2] == pytest.approx(cov[0, 0], rel=1e-12)

    def test_joint_k_statistics_unbiased_on_correlated_gaussians(self):
        sums = {(3, 1): 0.0, (2, 2): 0.0, (1, 3): 0.0, (3, 0): 0.0, (4, 0): 0.0}
        trials = 3000
        for t in range(trials):
            r = np.random.default_rng(t)
            z = r.multivariate_normal([0, 0], [[1, 0.7], [0.7, 1]], size=50)
            ks = _k_statistics(z)
            for o in sums:
                sums[o] += ks[o][0, 1]
        for o, total in sums.items():
            assert abs(total / trials) < 0.05, f"k{o} biased: {total / trials}"

    def test_entries_match_direct_k_statistics(self):
        from scipy.stats import kstat

        rng = np.random.default_rng(21)
        mix = np.eye(4) + np.diag([0.4, 0.5, 0.6], k=1) + np.diag([0.3, 0.2], k=-2)
        data = rng.gamma(2.0, size=(4000, 4)) @ mix  # skewed, correlated columns
        report = cumulants(QuadratureSamples(data))
        assert len(report.entries) == 38
        # each univariate cumulant once: (column, total order) is unique
        univariate = [
            (e.pair[0] if e.order[1] == 0 else e.pair[1], sum(e.order))
            for e in report.entries
            if 0 in e.order
        ]
        assert len(univariate) == len(set(univariate)) == 8
        for e in report.entries:
            x, y = data[:, e.pair[0]], data[:, e.pair[1]]
            if e.order[1] == 0:
                expected = kstat(x, e.order[0])
            elif e.order[0] == 0:
                expected = kstat(y, e.order[1])
            else:
                expected = _kendall_stuart(x, y, *e.order)
            assert e.value == pytest.approx(expected, rel=1e-9), (e.pair, e.order)

    @pytest.mark.parametrize("kind", ["gaussian", "shifted", "sorted", "gamma", "t3"])
    def test_merged_k_statistics_match_exact_arithmetic(self, kind):
        """The reported k-statistics, merged from 20 batches of 40 rows,
        against exact rational k-statistics of the same 800 rows.  Each
        error, normalised by sigma_i^p sigma_j^q, stays within 1e-13 (1e-9
        with column means at 1e6 standard deviations) and within 4x the
        worst error of one whole-sample _k_statistics pass.  Neither bound
        asks for less than four units in the last place of the largest
        normalised value, which is the rounding of the value itself."""
        rng = np.random.default_rng(22)
        gaussian = sample_gaussian(ideal_tms(0.7), 800, rng)
        data = {
            "gaussian": gaussian,
            "shifted": gaussian + 1e6 * gaussian.std(axis=0),
            "sorted": gaussian[np.argsort(gaussian[:, 0])],
            "gamma": rng.gamma(2.0, size=(800, 4)),
            "t3": rng.standard_t(3, size=(800, 4)),
        }[kind]
        exact = _exact_k_statistics(data)
        variances = [exact[0, 1, (2, 0)], *(exact[0, j, (0, 2)] for j in (1, 2, 3))]
        sigmas = [math.sqrt(v) for v in variances]
        report = cumulants(QuadratureSamples(data))
        names = tomography.COLUMN_NAMES
        merged = {(*e.pair, e.order): e.value for e in report.entries}
        for i, j in combinations(range(4), 2):
            merged[i, j, (2, 0)] = report.second_order[names[i] * 2]
            merged[i, j, (1, 1)] = report.second_order[names[i] + names[j]]
            merged[i, j, (0, 2)] = report.second_order[names[j] * 2]
        whole = _k_statistics(data)

        def scale(i, j, order):
            return sigmas[i] ** order[0] * sigmas[j] ** order[1]

        def worst(values):
            return max(abs(float(Fraction(v) - exact[key])) / scale(*key) for key, v in values.items())

        ulp = max(np.spacing(abs(float(exact[key]))) / scale(*key) for key in merged)
        worst_merged = worst(merged)
        worst_whole = worst({(i, j, o): float(whole[o][i, j]) for i, j, o in merged})
        assert worst_merged <= max(1e-9 if kind == "shifted" else 1e-13, 4 * ulp)
        assert worst_merged <= 4 * max(worst_whole, ulp), (worst_merged, worst_whole)

    def test_false_alarm_rate(self):
        alarms = 0
        for seed in range(60):
            r = np.random.default_rng(9000 + seed)
            samples = QuadratureSamples(sample_gaussian(ideal_tms(1.0), 15000, r))
            if not cumulants(samples).gaussian:
                alarms += 1
        assert alarms <= 3  # 5% of 60

    @pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan])
    def test_threshold_must_be_positive(self, threshold, rng):
        samples = QuadratureSamples(sample_gaussian(vacuum(2), 200, rng))
        with pytest.raises(DomainError, match="threshold must be > 0"):
            cumulants(samples, threshold=threshold)

    def test_minimum_sample_count(self, rng):
        with pytest.raises(TooFewSamplesError):
            cumulants(QuadratureSamples(rng.standard_normal((30, 4))))

    def test_large_samples_scale_exactly(self, rng):
        # 2**230 ~ 1.7e69: fourth-order k-statistics near 1e280 are doubles, the
        # squares of their batch spreads are not
        data = sample_gaussian(ideal_tms(0.5), 2000, rng)
        small = cumulants(QuadratureSamples(data))
        large = cumulants(QuadratureSamples(2.0**230 * data))
        assert large.gaussian == small.gaussian
        for a, b in zip(small.entries, large.entries):
            scale = 2.0 ** (230 * sum(a.order))
            assert b.normalized == a.normalized
            assert (b.value, b.standard_error) == (a.value * scale, a.standard_error * scale)

    @pytest.mark.parametrize("scale", [1e80, 1e-100])
    def test_samples_beyond_the_double_range_raise(self, scale, rng):
        data = scale * sample_gaussian(ideal_tms(0.5), 200, rng)
        with pytest.raises(NumericalError, match="leaves the double range"):
            cumulants(QuadratureSamples(data))

    def test_a_cumulant_with_no_batch_spread_decides_the_verdict(self):
        """A skewed 40-row block of small integers, each column's mean 0,
        tiled 25 times: every batch is the same block, and many cumulants
        get a standard error of exactly 0.  With a threshold so large that
        no other entry counts, those nonzero cumulants alone make the
        verdict non-Gaussian."""
        r = np.arange(40)
        block = np.stack([np.where(r == k, 39.0, -1.0) for k in range(4)], axis=1)
        report = cumulants(QuadratureSamples(np.tile(block, (25, 1))), threshold=1e300)
        assert any(e.standard_error == 0.0 and e.value != 0.0 for e in report.entries)
        assert not report.gaussian

    def test_report_json(self, rng):
        import json

        samples = QuadratureSamples(sample_gaussian(vacuum(2), 2000, rng))
        doc = json.loads(json.dumps(tomography._cumulant_report_doc(cumulants(samples))))
        assert "gaussian" in doc and "cumulants" in doc
        assert all("standard_error" in e for e in doc["cumulants"])


class TestSamplesCsv:
    def test_roundtrip(self, rng):
        samples = QuadratureSamples(sample_gaussian(vacuum(2), 50, rng))
        back = samples_from_csv(samples_to_csv(samples))
        assert np.all(back.data == samples.data)

    def test_bad_line_is_reported(self):
        text = "I1,Q1,I2,Q2\n0.1,0.2,0.3,0.4\n0.1,0.2,0.3\n"
        with pytest.raises(ValueError, match="line 3"):
            samples_from_csv(text)

    def test_non_numeric_reported(self):
        text = "I1,Q1,I2,Q2\n0.1,x,0.3,0.4\n"
        with pytest.raises(ValueError, match="line 2"):
            samples_from_csv(text)

    def test_one_row_is_too_few(self):
        with pytest.raises(TooFewSamplesError, match="at least two samples"):
            samples_from_csv("I1,Q1,I2,Q2\n0.1,0.2,0.3,0.4\n")

    def test_two_rows(self):
        samples = samples_from_csv("0.1,0.2,0.3,0.4\n-1e-3, 2E5 ,+3.,.5\n")
        assert samples.data.tolist() == [[0.1, 0.2, 0.3, 0.4], [-1e-3, 2e5, 3.0, 0.5]]

    def test_stream_is_read_from_where_it_stands(self):
        stream = io.StringIO("skipped\nI1,Q1,I2,Q2\n1,2,3,4\n5_0,6,7,8\n")
        stream.readline()  # the scanner, which reads 5_0, starts from here too
        assert samples_from_csv(stream).data.tolist() == [[1, 2, 3, 4], [50, 6, 7, 8]]

    def test_a_lone_surrogate_is_a_non_numeric_entry(self):
        with pytest.raises(ValueError, match="^line 1: non-numeric entry$"):
            samples_from_csv("1,2,3,\ud800\n5,6,7,8\n")

    def test_parse_and_cumulants_memory_scales_with_the_array(self, tmp_path):
        """Parsing an open 50k-row file and running cumulants on it peaks
        below 58 bytes per row (the float array takes 32): no copy of the
        text or list of its lines, and no temporary as long as the sample."""
        rows = 50_000
        path = tmp_path / "samples.csv"
        rng = np.random.default_rng(11)
        path.write_text(samples_to_csv(QuadratureSamples(rng.standard_normal((rows, 4)))))
        tracemalloc.start()
        try:
            with open(path, encoding="utf-8") as fh:
                cumulants(samples_from_csv(fh))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 58 * rows, f"{peak / rows:.0f} bytes per row"

    def test_cumulants_and_covariance_allocate_no_sample_length_temporary(self):
        """On an existing 200k-row array (6.4 MB), cumulants and
        covariance_from_samples peak below 16 bytes per row: each moment
        pass holds one batch's columns at a time."""
        rows = 200_000
        samples = QuadratureSamples(np.random.default_rng(12).standard_normal((rows, 4)))
        tracemalloc.start()
        try:
            cumulants(samples)
            covariance_from_samples(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * rows, f"{peak / rows:.1f} bytes per row"

    def test_well_formed_text_skips_the_line_scanner(self, monkeypatch):
        def scan(lines):
            raise AssertionError("the line scanner ran")

        monkeypatch.setattr("tmsflow.tomography._float_rows", scan)
        text = "I1,Q1,I2,Q2\r\n\n# comment\n 1, 2 ,3,4\n  \n-5e-1,6,7,8.5\n"
        assert samples_from_csv(text).data.tolist() == [[1, 2, 3, 4], [-0.5, 6, 7, 8.5]]


def test_lone_carriage_returns_end_blocks_and_lines(monkeypatch):
    """Lines that end in a lone ``\\r`` are cut into blocks of about
    ``_CHUNK`` bytes at their ends, and the block reader takes them."""

    def scan(lines):
        raise AssertionError("the line scanner ran")

    monkeypatch.setattr(tomography, "_float_rows", scan)
    monkeypatch.setattr(tomography, "_CHUNK", 64)
    data = b"I1,Q1,I2,Q2\r" + b"1,2,3,4\r" * 100
    blocks = list(tomography._text_blocks(io.BytesIO(data)))
    assert b"".join(blocks) == data and max(map(len, blocks)) <= 2 * 64
    assert all(block.endswith(b"\r") for block in blocks)
    assert samples_from_csv(io.BytesIO(data)).data.tolist() == [[1, 2, 3, 4]] * 100


class _Pipe(io.StringIO):
    """A text stream that reads front to back only, as a pipe does."""

    def seekable(self):
        return False

    def tell(self):
        raise io.UnsupportedOperation("underlying stream is not seekable")

    def seek(self, *args):
        raise io.UnsupportedOperation("underlying stream is not seekable")


class _BinaryPipe(io.BytesIO):
    """A binary stream that reads front to back only, as a pipe does."""

    seekable, tell, seek = _Pipe.seekable, _Pipe.tell, _Pipe.seek


def _outcome(parse, text):
    """The parsed array's bytes and shape, or the exception's class and text."""
    try:
        data = parse(text)
    except (ValueError, TmsflowError) as exc:
        return type(exc), str(exc)
    return data.shape, data.tobytes()


# Tokens: numbers in several spellings, the spellings only Python's float
# reads (digit underscores, non-ASCII digits), non-finite values and junk.
_NUMBER = st.floats(allow_nan=False, allow_infinity=False).flatmap(
    lambda x: st.sampled_from([repr(x), f"{x:.17g}", f"{x:+.3e}", f"{x:E}", str(abs(x))])
)
_VALID = st.one_of(
    _NUMBER, _NUMBER, _NUMBER, st.sampled_from(["1_0", "\u0661", "-0", "+.5", "5.", "1e-320"])
)
_TOKEN = _VALID | st.sampled_from(
    ["1__0", "nan", "-nan", "inf", "-Infinity", "1e999", "", " ", "x", "1e", "0x1", "1 2"]
)
_PAD = st.sampled_from(["", " ", "\t", "  ", "\u3000"])
_GOOD_LINE = st.lists(st.tuples(_PAD, _VALID, _PAD).map("".join), min_size=4, max_size=4).map(
    ",".join
)
_ANY_LINE = st.lists(st.tuples(_PAD, _TOKEN, _PAD).map("".join), min_size=3, max_size=5).map(
    ",".join
)
_SKIPPED = st.sampled_from(["", "   ", "\t", "#", "# I1,Q1,I2,Q2", "  # indented"])
_BAD_LINE = st.one_of(
    _ANY_LINE,
    _GOOD_LINE.map(lambda line: line + " # note"),
    _GOOD_LINE.map(lambda line: line + ","),
    st.sampled_from(["I1,Q1,I2,Q2", " i1 , q1,I2,Q2 ", "I1,Q1,I2", "x,y,z,w"]),
)


# Every line boundary of str.splitlines, "\n" and "\r\n" most often.
_BREAK = st.sampled_from(["\n", "\r\n"]) | st.sampled_from(
    ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)


@st.composite
def _sample_texts(draw):
    """Texts that should parse (good and skipped lines) and texts with
    lines of any kind, with the header on line 1, elsewhere or absent."""
    good = st.one_of(_GOOD_LINE, _GOOD_LINE, _SKIPPED)
    lines = draw(st.lists(draw(st.sampled_from([good, good | _BAD_LINE])), max_size=8))
    where = draw(st.sampled_from(["first", "none", "inside"]))
    header = draw(st.sampled_from(["I1,Q1,I2,Q2", "I1, Q1, I2, Q2", "q2,x,y,z"]))
    if where == "first":
        lines.insert(0, header)
    elif where == "inside":
        lines.insert(draw(st.integers(0, len(lines))), header)
    breaks = draw(st.lists(_BREAK, min_size=len(lines), max_size=len(lines)))
    if breaks and draw(st.booleans()):
        breaks[-1] = ""  # no break after the last line
    return "".join(line + brk for line, brk in zip(lines, breaks))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_sample_texts(), st.integers(1, 48))
@example("I1,Q1,I2,Q2\n1_0,2,3,4\n5,6,7,8\n", 8)
@example("\n# comment\nI1,Q1,I2,Q2\n1,2,3,4\n", 8)
@example("1,2,3,4 # inline\n5,6,7,8\n", 8)
@example("1,2,3,4,\n5,6,7,8,\n", 8)
@example("1,2,3\n4,5,6\n", 8)
@example("1,2,3,4,5\n6,7,8,9,0\n", 8)
@example("1,2,3,4\r\n  5 ,\t6,7,8  \r\n\r\n", 8)
@example("nan,1,2,3\n1,2,3,4\n", 8)
@example("1,2,3,Infinity\n1,2,3,4\n", 8)
@example("1,,3,4\n1,2,3,4\n", 8)
@example("-1.5e-3,+2E+2,-0,0\n1,2,3,4\n", 8)
@example("1,2,3,4\n", 8)
@example("I1,Q1,I2,Q2\n", 8)
@example("", 8)
@example("1,2,3\x0c,4\n5,6,7,8\n", 8)
@example("1,2,3,4\r\n5,6,7,8\r\n", 8)
@example("1,2,3,4\r5,6,7,8\r", 8)
@example("I1,Q1,I2,Q2\u2028" + "1,2,3,4\x85" * 3, 5)
@example("I1,Q1,I2,Q2\r" + "1,2,3,4\r" * 40 + "5,6,7\r", 8)  # blocks end at lone "\r"s
@example("1,2,3,\ud800\n5,6,7,8\n", 8)  # a lone surrogate, which no encoding takes
def test_bulk_parse_matches_the_line_scanner(text, chunk):
    """Every text gives the scanner's array bit for bit, or its error: as a
    string, an open text stream or a text stream that cannot seek, and as
    its UTF-8 bytes in an open binary stream, a binary stream that cannot
    seek and a file opened ``rb``; read in blocks of the default size or of
    ``chunk`` characters or bytes, so that lines straddle the block
    boundaries.  The scanner reads the text in one block: the lines of
    ``text.splitlines()``."""
    expected = _outcome(lambda t: QuadratureSamples(_scan_samples(io.StringIO(t))).data, text)
    sources = [lambda: text, lambda: io.StringIO(text), lambda: _Pipe(text)]
    with tempfile.TemporaryDirectory() as tmp:
        if "\ud800" not in text:  # a lone surrogate has no UTF-8 bytes
            data, path = text.encode("utf-8"), os.path.join(tmp, "samples.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            sources += [lambda: io.BytesIO(data), lambda: _BinaryPipe(data), lambda: open(path, "rb")]
        for size in (tomography._CHUNK, chunk):
            with mock.patch.object(tomography, "_CHUNK", size):
                for source in sources:
                    stream = source()
                    got = _outcome(lambda t: samples_from_csv(t).data, stream)
                    if not isinstance(stream, str):
                        stream.close()
                    assert got == expected, (size, stream)


@pytest.mark.parametrize("last", ["1,2,3", "1_0,2,3,4"])
def test_a_refused_block_is_read_line_by_line_alone(last, monkeypatch):
    """A last line the block reader refuses sends only the lines of its own
    block to the ``float`` reader, which names it or reads it as the
    scanner does."""
    rows = [f"{i},{i + 0.5},-{i},{i}e-3" for i in range(200)]
    text = "\n".join(["I1,Q1,I2,Q2", *rows, last]) + "\n"
    expected = _outcome(lambda t: QuadratureSamples(_scan_samples(io.StringIO(t))).data, text)
    read = []
    float_rows = tomography._float_rows

    def counted(lines):
        lines = list(lines)
        read.extend(line_no for line_no, _ in lines)
        return float_rows(lines)

    monkeypatch.setattr(tomography, "_CHUNK", 80)  # a last block of 4 lines
    monkeypatch.setattr(tomography, "_float_rows", counted)
    assert _outcome(lambda t: samples_from_csv(t).data, _Pipe(text)) == expected
    block = list(tomography._text_blocks(io.StringIO(text)))[-1].splitlines()
    assert 1 < len(block) < 10
    assert read == list(range(203 - len(block), 203))
