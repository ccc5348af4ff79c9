import math

import numpy as np
import pytest

from tmsflow.symplectic import CovarianceMatrix, SymplecticOperation, symplectic_form


def failed_cells(res) -> dict:
    """The error of every failed cell of a standard form or kernel result,
    by flat (C-order) index, read from its ``status`` and ``causes``."""
    status = np.ravel(res.status)
    return {cell: res.causes[status[cell] - 1] for cell in np.flatnonzero(status).tolist()}


def rotation_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def random_local_symplectic(rng) -> np.ndarray:
    """Random single-mode symplectic: rotation * squeezer * rotation."""
    th1, th2 = rng.uniform(0, 2 * np.pi, size=2)
    r = rng.uniform(-0.8, 0.8)
    return rotation_matrix(th1) @ np.diag([math.exp(-r), math.exp(r)]) @ rotation_matrix(th2)


def random_local_op(rng, n_modes: int = 2) -> SymplecticOperation:
    blocks = [random_local_symplectic(rng) for _ in range(n_modes)]
    m = np.zeros((2 * n_modes, 2 * n_modes))
    for k, b in enumerate(blocks):
        m[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = b
    return SymplecticOperation(m)


def random_physical_state(rng, n_modes: int = 2) -> CovarianceMatrix:
    """Williamson-reverse construction: S diag(nu) S^T with nu >= 1/4."""
    nus = 0.25 * (1.0 + rng.exponential(0.8, size=n_modes))
    diag = np.repeat(nus, 2)
    m = np.diag(diag)
    # Dress with a few random two-mode-squeezing + local layers.
    for _ in range(2):
        loc = random_local_op(rng, n_modes).matrix
        m = loc @ m @ loc.T
        if n_modes >= 2:
            i, j = rng.choice(n_modes, size=2, replace=False)
            r = rng.uniform(0.0, 0.9)
            c, s = math.cosh(r), math.sinh(r)
            tm = np.eye(2 * n_modes)
            tm[2 * i, 2 * i] = c
            tm[2 * i + 1, 2 * i + 1] = c
            tm[2 * j, 2 * j] = c
            tm[2 * j + 1, 2 * j + 1] = c
            tm[2 * i, 2 * j] = s
            tm[2 * j, 2 * i] = s
            tm[2 * i + 1, 2 * j + 1] = -s
            tm[2 * j + 1, 2 * i + 1] = -s
            m = tm @ m @ tm.T
    return CovarianceMatrix(0.5 * (m + m.T))


def nu_oracle(entries: np.ndarray) -> np.ndarray:
    """Independent symplectic spectrum: |eig(i Omega V)|, one per pair."""
    n = entries.shape[0] // 2
    ev = np.abs(np.linalg.eigvals(1j * symplectic_form(n) @ entries))
    return np.sort(ev)[::2]


def nu_pt_min_oracle(entries: np.ndarray) -> float:
    """Partial transpose (p-flip on the last mode) + eigensolve."""
    n = entries.shape[0] // 2
    t = np.eye(2 * n)
    t[2 * n - 1, 2 * n - 1] = -1.0
    return float(nu_oracle(t @ entries @ t).min())


def sample_gaussian(V: CovarianceMatrix, n_samples: int, rng) -> np.ndarray:
    chol = np.linalg.cholesky(V.entries)
    return (chol @ rng.standard_normal((V.entries.shape[0], n_samples))).T


def cloner_blocks_oracle(r: float, w: float, beta: float) -> np.ndarray:
    """Nine-block closed form of the entangling-cloner output state."""
    ch, sh = math.cosh(2 * r), math.sinh(2 * r)
    sz = np.diag([1.0, -1.0])
    eye = np.eye(2)
    woff = math.sqrt(w * w - 1.0)
    t, s = math.sqrt(1 - beta), math.sqrt(beta)
    rows = [
        np.hstack([ch * eye, t * sh * sz, -s * sh * sz, np.zeros((2, 2))]),
        np.hstack([t * sh * sz, ((1 - beta) * ch + beta * w) * eye,
                   s * t * (w - ch) * eye, s * woff * sz]),
        np.hstack([-s * sh * sz, s * t * (w - ch) * eye,
                   (beta * ch + (1 - beta) * w) * eye, t * woff * sz]),
        np.hstack([np.zeros((2, 2)), s * woff * sz, t * woff * sz, w * eye]),
    ]
    return 0.25 * np.vstack(rows)


@pytest.fixture
def rng():
    return np.random.default_rng(20230817)
