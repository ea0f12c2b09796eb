"""Shared corpus builders and dense oracles for the test suite.

Oracles deliberately avoid the library's own factorization paths: scores
come from numpy.linalg.pinv on explicitly formed Gram matrices, witnesses
from lstsq, spectra from eigvalsh on whitened pencils.
"""

import numpy as np
import pytest

from rowsketch import SparseRowMatrix


def gaussian_matrix(n, d, seed):
    rng = np.random.default_rng(seed)
    return SparseRowMatrix.from_dense(rng.standard_normal((n, d)))


def power_law_matrix(n, d, seed, decay=0.8):
    """Rows scaled by (i+1)^-decay: wide leverage spread, high coherence."""
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, d)) * ((np.arange(n) + 1.0) ** -decay)[:, None]
    return SparseRowMatrix.from_dense(dense)


def stacked_identity(copies, d):
    return SparseRowMatrix.from_dense(np.tile(np.eye(d), (copies, 1)))


def isolated_direction_matrix(n, d, seed):
    """n-1 random rows confined to a (d-1)-subspace plus one row carrying
    the remaining direction alone; that row has leverage exactly 1."""
    rng = np.random.default_rng(seed)
    body = rng.standard_normal((n - 1, d))
    body[:, -1] = 0.0
    iso = np.zeros(d)
    iso[-1] = 1.0
    dense = np.vstack([body, iso])
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return SparseRowMatrix.from_dense(dense @ q)


def conditioned_matrix(cond, n=4096, d=16, seed=21):
    """Criterion 11's construction: random orthonormal factors around
    singular values spread evenly in log scale from 1 to ``cond``."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, d)))
    v, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return SparseRowMatrix.from_dense(u @ np.diag(np.logspace(0, np.log10(cond), d)) @ v.T)


def corpus(count=100, sizes=((256, 8), (256, 16), (1024, 8), (1024, 16))):
    """Mixed dense-Gaussian / power-law matrices, `count` in total."""
    out = []
    seed = 0
    while len(out) < count:
        for maker in (gaussian_matrix, power_law_matrix):
            for n, d in sizes:
                if len(out) >= count:
                    break
                out.append(maker(n, d, seed * 7919 + n + d))
        seed += 1
    return out


# ---------------------------------------------------------------------------
# Dense oracles
# ---------------------------------------------------------------------------

def oracle_pinv_gram(A):
    dense = A.to_dense()
    return np.linalg.pinv(dense.T @ dense)


def oracle_leverage(A):
    """diag(A (A'A)^+ A') via the full dense pseudoinverse."""
    dense = A.to_dense()
    return np.einsum("ij,jk,ik->i", dense, oracle_pinv_gram(A), dense)


def oracle_cross(A, i, j):
    dense = A.to_dense()
    return float(dense[i] @ oracle_pinv_gram(A) @ dense[j])


def oracle_generalized(A, B, ktol=1e-8):
    """(values, infinite) of a_i'(B'B)^+ a_i with SVD-based kernel detection."""
    dense_a, dense_b = A.to_dense(), B.to_dense()
    u, s, vh = np.linalg.svd(dense_b, full_matrices=False)
    rank = int(np.sum(s > 1e-10 * s[0])) if s.size and s[0] > 0 else 0
    v = vh[:rank].T
    norms = np.linalg.norm(dense_a, axis=1)
    resid = dense_a - (dense_a @ v) @ v.T
    infinite = (np.linalg.norm(resid, axis=1) > ktol * norms) & (norms > 0)
    pinv = (v / s[:rank] ** 2) @ v.T if rank else np.zeros((B.n_cols, B.n_cols))
    vals = np.einsum("ij,jk,ik->i", dense_a, pinv, dense_a)
    return np.where(infinite, 0.0, vals), infinite


def oracle_min_norm(A, i):
    """Minimum-norm solution of A'x = a_i via lstsq."""
    dense = A.to_dense()
    x, *_ = np.linalg.lstsq(dense.T, dense[i], rcond=None)
    return x


def oracle_spectral_bounds(A, Atilde):
    """Extreme generalized Rayleigh quotients over A's row space, from
    explicitly whitened dense Grams."""
    dense = A.to_dense()
    ga = dense.T @ dense
    w, v = np.linalg.eigh(ga)
    keep = w > 1e-10 * w[-1]
    white = v[:, keep] / np.sqrt(w[keep])
    dt = Atilde.to_dense()
    pencil = white.T @ (dt.T @ dt) @ white
    eigs = np.linalg.eigvalsh((pencil + pencil.T) / 2)
    return float(eigs[0]), float(eigs[-1])


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
