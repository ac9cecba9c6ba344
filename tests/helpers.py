"""Shared random generators for the test suite.

Everything is driven by explicit numpy Generators so failures reproduce.
"""

import numpy as np


def random_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d.conj() / np.abs(d))


def random_unitaries(rng, n, count):
    """``count`` draws of :func:`random_unitary`, from one batched QR.

    Draws the same Ginibre matrices from ``rng`` in the same order, so the
    result equals ``count`` successive ``random_unitary`` calls.
    """
    z = rng.standard_normal((count, 2, n, n))
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d.conj() / np.abs(d))[:, None, :]


def random_hermitian(rng, n, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (g + g.conj().T)


def random_psd(rng, n, rank=None, lam_range=(1e-3, 10.0)):
    """PSD matrix with controlled spectrum (avoids ill-conditioned fixtures)."""
    if rank is None:
        rank = n
    lam = np.zeros(n)
    lam[:rank] = rng.uniform(*lam_range, size=rank)
    u = random_unitary(rng, n)
    return (u * lam) @ u.conj().T


def random_contraction(rng, n, spectrum_range=(-1.0, 1.0)):
    """Hermitian matrix with spectrum inside [-1, 1]."""
    u = random_unitary(rng, n)
    lam = rng.uniform(*spectrum_range, size=n)
    return (u * lam) @ u.conj().T


def random_contraction_column(rng, p, q):
    """Block column [P; Q] of a Hermitian contraction, P Hermitian p x p."""
    t = random_contraction(rng, p + q)
    return t[:p, :p], t[p:, :p]
