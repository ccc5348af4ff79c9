"""The vectorised float formatter writes exactly ``float.__repr__``."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tmsflow import _floatrepr

# NumPy's X86_V3 (AVX2) code paths on an AVX-512 machine; other machines
# ignore the names.
WITHOUT_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def batched_words(values) -> np.ndarray:
    """:func:`~tmsflow._floatrepr.repr_words` of ``values`` (flattened),
    :data:`~tmsflow._floatrepr.BATCH` values at a time as the sweep writer
    calls it: one pass over a million values would hold about 300 MB of
    temporaries."""
    values = np.asarray(values, dtype=float).ravel()
    batch = _floatrepr.BATCH
    return np.concatenate(
        [_floatrepr.repr_words(values[i : i + batch]) for i in range(0, len(values), batch)]
    )


def formatted(values) -> str:
    """The formatter's text of every value, each followed by a newline."""
    words = batched_words(values)
    assert not (words[:, -1] >> np.uint64(56)).any()  # the free byte
    words[:, -1] |= np.uint64(ord("\n")) << np.uint64(56)
    raw = words.view("u1")
    return raw[raw != 0].tobytes().decode("ascii")


def assert_reprs(values):
    got = formatted(values)
    expected = "".join(f"{v!r}\n" for v in np.asarray(values, dtype=float).tolist())
    if got != expected:
        bad = next((g, e) for g, e in zip(got.split("\n"), expected.split("\n")) if g != e)
        pytest.fail(f"formatted {bad[0]!r}, repr writes {bad[1]!r}")


def neighbours(values, steps: int = 6):
    """``values`` and their ``steps`` nearest doubles on each side, both signs."""
    values = np.asarray(values, dtype=float)
    out, up, down = [values], values, values
    with np.errstate(over="ignore"):
        for _ in range(steps):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            out += [up, down]
    both = np.concatenate(out)
    both = both[np.isfinite(both)]
    return np.concatenate([both, -both])


def test_random_bit_patterns():
    bits = np.random.default_rng(20201).integers(0, 2**64, 10**6, dtype=np.uint64)
    assert len(np.unique(bits >> np.uint64(52))) == 4096  # every exponent, both signs
    assert_reprs(bits.view(np.float64))


def test_special_values_and_subnormals():
    tiny = np.nextafter(2.2250738585072014e-308, 0.0)  # the largest subnormal
    values = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, 1e-323, 1e-322, tiny]
    assert_reprs(values + [-v for v in values])
    assert formatted([5e-324, tiny]) == "5e-324\n2.225073858507201e-308\n"


def test_normal_range_ends_and_layout_switches():
    values = [2.2250738585072014e-308, 1.7976931348623157e308, 9.999999999999999e-05, 1e-4]
    values += [9999999999999998.0, 1e16, 0.1, 1.0, 123456789012345.6, 0.5e-4]
    assert formatted(values) == (
        "2.2250738585072014e-308\n1.7976931348623157e+308\n9.999999999999999e-05\n"
        "0.0001\n9999999999999998.0\n1e+16\n0.1\n1.0\n123456789012345.6\n5e-05\n"
    )
    assert_reprs(neighbours(values))


def test_powers_of_two_and_ten_with_neighbours():
    powers = [2.0**e for e in range(-1074, 1024)] + [float(f"1e{e}") for e in range(-323, 309)]
    assert_reprs(neighbours(powers))


def test_seventeen_digits_and_three_digit_exponents():
    rng = np.random.default_rng(7)
    values = rng.uniform(1.0, 10.0, 20000) * 10.0 ** rng.integers(-307, 308, 20000)
    texts = [repr(v) for v in values.tolist()]
    mantissas = [t.split("e")[0].replace(".", "").lstrip("0") for t in texts]
    assert sum(len(m) == 17 for m in mantissas) > 5000
    assert sum(len(t.split("e")[-1]) == 4 for t in texts if "e" in t) > 5000
    assert_reprs(values)


def test_powers_of_ten_table():
    """Each entry is Giulietti's ``g = floor(10^e 2^-r) + 1``, in
    ``[2^125, 2^126)``, split into limbs and their halves."""
    g1, g0, g1_hi, g1_lo, g0_hi, g0_lo = (row.tolist() for row in _floatrepr._G)
    for i, e in enumerate(range(-292, 325)):
        g = g1[i] << 63 | g0[i]
        r = _floatrepr._flog2pow10(e) - 125
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        num, den = (num << -r, den) if r < 0 else (num, den << r)
        assert (g - 1) * den <= num < g * den and 2**125 <= g < 2**126 and g0[i] < 2**63
        assert (g1_hi[i] << 32 | g1_lo[i], g0_hi[i] << 32 | g0_lo[i]) == (g1[i], g0[i])


def test_same_bytes_without_avx512():
    """The formatter is integer arithmetic only, so NumPy's SIMD dispatch
    does not change a byte: a subprocess on the AVX2 paths writes for the
    same input bits what this process writes."""
    bits = np.random.default_rng(5).integers(0, 2**64, 200000, dtype=np.uint64)
    x = np.concatenate([bits.view(np.float64), neighbours([1e-300, 1e-5, 0.1, 1e16, 1e300])])
    code = (
        "import sys, numpy as np\n"
        "from tmsflow import _floatrepr\n"
        "x = np.frombuffer(sys.stdin.buffer.read(), dtype='<f8')\n"
        "for i in range(0, len(x), _floatrepr.BATCH):\n"
        "    sys.stdout.buffer.write(_floatrepr.repr_words(x[i : i + _floatrepr.BATCH]).tobytes())\n"
    )
    src = str(Path(_floatrepr.__file__).resolve().parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=WITHOUT_AVX512)
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code], input=x.astype("<f8").tobytes(), env=env,
        capture_output=True, check=True,
    )
    assert proc.stdout == batched_words(x).tobytes()
