"""Dense Hermitian linear algebra with explicit tolerance rules.

Every rank, positivity and clustering decision in this package runs through
the rules here, so that they are consistent across modules.  Matrices are
validated once, where they enter: ``require_hermitian`` is the validating
entry point for matrices from outside the chain.  A matrix the chain builds
from validated moments (a block Hankel matrix, a Hermitian part) is
Hermitian by construction and is factored by ``numpy.linalg`` directly
(``eigh``, ``eigvalsh``, or ``cholesky`` for a moment matrix of full rank),
without a second scan.

* ``rank_keep`` is the one rank cutoff: an eigenvalue (or singular value)
  counts as nonzero iff it exceeds ``RANK_TOL`` times the largest one
  (clipped at zero).  Every rank, kernel and support decision uses it.
  ``keeps_every_eigenvalue`` proves, from one Cholesky factorization and
  no eigensolve, that the cutoff keeps every eigenvalue of a Hermitian
  matrix and that the matrix passes ``psd_ok``, with a margin for the
  rounding of a computed spectrum.  This certificate decides the
  contraction rule's I +- P and, through ``certified``, the checks' PSD
  conditions on the moment matrices of order 16 and more and the rank of
  a Gram space: a passing one leaves the spectrum to be computed only if
  something reads it.
* ``psd_ok`` is the one positive-semidefiniteness rule on eigenvalues: the
  smallest may sit at most ``tol * max(1, max |eigenvalue|)`` below zero.
  ``check_psd_stack`` applies it at ``PSD_TOL`` to a ``(k, n, n)`` stack
  with one batched ``eigvalsh``, matrix by matrix, and ``require_psd``
  at ``NORM_SLACK`` to the spectra of the contraction rule.
  ``psd_ends_ok`` applies it at ``PSD_TOL`` to an ascending spectrum from
  its two ends, with no pass over the spectrum.
* ``require_hermitian`` is the one Hermitian-input rule, applied to a stack
  in one pass by ``require_hermitian_stack``.
* ``cluster_starts`` is the one clustering rule for sorted values (atom
  positions, eigenvalues): a cluster ends where a gap exceeds the tolerance.
* ``sqrt_from_eig`` builds the square root from an eigendecomposition the
  caller already has, so that one factorization serves several derived
  matrices.

A rule takes its tolerance as a parameter only where its callers use two
values: ``psd_ok`` (``PSD_TOL``, ``NORM_SLACK``), ``require_hermitian`` and
``require_hermitian_stack`` (``HERM_TOL``, ``io.FILE_HERM_TOL``), and
``cluster_starts`` (``solutions.CLUSTER_TOL``, and
``moments.ATOM_MERGE_REL`` times the interval length).  Everything else
reads the constants below: ``rank_keep``, ``sqrt_from_eig``,
``keeps_every_eigenvalue`` and ``certified`` read ``RANK_TOL``,
``check_psd_stack`` and ``psd_ends_ok`` read ``PSD_TOL``, and
``require_psd`` reads ``NORM_SLACK``.

All matrices are small (dimension at most about a hundred) and dense complex
double precision; 0x0 matrices are legal values throughout.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ValidationError

# Default tolerances.  PSD_TOL is the slack allowed below zero for "is PSD"
# decisions, RANK_TOL the relative eigenvalue cutoff for rank decisions,
# HERM_TOL the allowed relative asymmetry of Hermitian inputs, NORM_SLACK the
# rounding slack of the one contraction rule (extensions.extremal_completions
# and extremal_extensions): below zero for I +- P and for the defect, and
# above 1 for the column norm where the rank cutoff drops 1 +- w.
PSD_TOL = 1e-10
RANK_TOL = 1e-10
HERM_TOL = 1e-12
NORM_SLACK = 1e-8

# Below this order numpy's per-call overhead sets the cost of a Cholesky
# factorization and of an eigvalsh alike (about 10 us each at order 8 on a
# 2-vCPU x86-64 VM with one BLAS thread), so a certificate saves nothing
# there and costs a second call when it fails; at order 16 a passing one
# saves about half of an eigvalsh with its rank rule, and a failing one
# costs about as much again.  ``certified`` tries one only from this order
# up.  It chooses a computation, never a verdict.
_CERTIFY_ORDER = 16

# No sum of two entries of at most this magnitude overflows, so only a matrix
# with a larger entry can fail to symmetrize.
_HALF_MAX = np.finfo(float).max / 2


class EigDecomposition(NamedTuple):
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending, ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex matrix, rejecting non-finite entries."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def require_hermitian(a, tol: float = HERM_TOL, name: str = "matrix") -> np.ndarray:
    """Validate Hermitian symmetry and return the symmetrized matrix.

    This is the entry point for a matrix from outside the chain.  The
    asymmetry bound is relative to the largest absolute entry.  A matrix
    whose symmetrization (A + A*)/2 would overflow is rejected too.
    """
    arr = as_square_matrix(a, name)
    if arr.size:
        scale = np.abs(arr).max()
        skew = np.abs(arr - arr.conj().T).max()
        if skew > tol * max(1.0, scale):
            raise ValidationError(
                f"{name} is not Hermitian: asymmetry {skew:.3e} exceeds "
                f"{tol:.1e} * max(1, {scale:.3e})"
            )
        if scale > _HALF_MAX:
            with np.errstate(over="ignore", invalid="ignore"):
                finite = np.isfinite(arr + arr.conj().T).all()
            if not finite:
                raise ValidationError(
                    f"{name} has entries too large to symmetrize (largest {scale:.3e})"
                )
    return 0.5 * (arr + arr.conj().T)


def herm_part(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A*)/2 without validation."""
    return 0.5 * (a + a.conj().T)


def opnorm(a: np.ndarray) -> float:
    """Spectral norm; 0 for empty matrices."""
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def rank_keep(w: np.ndarray) -> np.ndarray:
    """Mask of the values counted as nonzero by the shared rank cutoff.

    ``w`` holds eigenvalues or singular values; a value is kept iff it
    exceeds ``RANK_TOL`` times the largest one, clipped at zero, so an
    all-nonpositive (or empty) ``w`` keeps nothing.
    """
    return w > RANK_TOL * w.max(initial=0.0)


def keeps_every_eigenvalue(a: np.ndarray) -> bool:
    """Whether a Cholesky factorization proves, with no eigensolve, that
    the Hermitian matrix ``a``, or each Hermitian matrix A of a ``(k, n,
    n)`` stack ``a``, has every eigenvalue kept by :func:`rank_keep` and
    passes :func:`psd_ok`.

    Each A is shifted down by tau = (2 RANK_TOL + 8 n^2 u) ||A||_1, with u
    = 2^-53 the unit roundoff, and factored; the answer is True iff every
    factorization runs to completion.  Then lambda_min(A) > 2 RANK_TOL
    ||A||_1 >= 2 RANK_TOL lambda_max(A), because ||A||_2 <= ||A||_1 for a
    Hermitian A.  So every exact eigenvalue clears the cutoff by a factor 2.
    The second RANK_TOL ||A||_1 absorbs the rounding of a computed spectrum,
    which for ``eigh`` and ``eigvalsh`` is of order n u ||A||_2: the
    spectrum that either computes of A itself keeps every eigenvalue and
    passes :func:`psd_ok`.  (Against the exact spectrum of the matrices A
    was rounded from, the margin holds unless A is far smaller in norm than
    they are.)  A False answer proves nothing, and so does an ||A||_1 that
    overflows, which makes the shifted diagonal -inf.

    The 8 n^2 u term is the backward error of the factorization
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    Thm 10.3).  Cholesky of a Hermitian B that runs to completion gives a
    nonsingular R with R* R = B + dB, |dB| <= gamma_{n+1} |R*| |R|, where
    gamma_k = k u / (1 - k u).  Since || |R| ||_2^2 <= n ||R||_2^2 = n ||B +
    dB||_2, this gives ||dB||_2 <= n gamma_{n+1} ||B||_2 / (1 - n
    gamma_{n+1}), about n (n + 1) u ||B||_2; complex arithmetic scales
    gamma by at most 2 sqrt(2) (Higham, Sec. 3.6).  Forming B = A - tau I
    rounds each diagonal entry once, by at most u ||A||_1.  With ||B||_2 <=
    ||A||_1 + tau, both together stay below 8 n^2 u ||A||_1 for every n >= 1
    while n^2 u << 1.  The computed B plus dB is R* R, positive definite, so
    by Weyl lambda_min(A) - tau > -8 n^2 u ||A||_1, which is the claim.
    """
    n = a.shape[-1]
    with np.errstate(over="ignore"):
        tau = (2.0 * RANK_TOL + 8.0 * n * n * 2.0**-53) * np.abs(a).sum(axis=-2).max(axis=-1)
    # a copy, since callers go on to use the matrices; only the diagonal
    # moves, through a strided view of it
    shifted = a.copy()
    shifted.reshape(*a.shape[:-2], n * n)[..., :: n + 1] -= tau[..., None]
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def certified(a: np.ndarray) -> bool:
    """:func:`keeps_every_eigenvalue` of ``a``, one matrix or a stack, from
    order ``_CERTIFY_ORDER`` up, and False, which proves nothing, below it:
    whether a check may leave the spectrum of ``a`` until something reads it.
    """
    return a.shape[-1] >= _CERTIFY_ORDER and keeps_every_eigenvalue(a)


def psd_ok(w: np.ndarray, tol: float = PSD_TOL):
    """The PSD rule on eigenvalues along the last axis.

    True iff the smallest eigenvalue is at least ``-tol * max(1, max |w|)``;
    an empty spectrum is PSD.  ``w`` may be one spectrum or a stack of them.
    """
    scale = np.abs(w).max(axis=-1, initial=1.0)
    return w.min(axis=-1, initial=np.inf) >= -tol * scale


def psd_ends_ok(lo: float, hi: float) -> bool:
    """:func:`psd_ok` at ``PSD_TOL`` of an ascending spectrum with smallest
    eigenvalue ``lo`` and largest ``hi``.  Its largest |eigenvalue| is then
    max(-lo, hi), so the two ends decide, bit for bit as :func:`psd_ok`
    does, without a pass over the spectrum."""
    return lo >= -PSD_TOL * max(1.0, -lo, hi)


def require_hermitian_stack(stack, tol: float = HERM_TOL,
                            name: str = "matrix {}") -> np.ndarray:
    """:func:`require_hermitian` of every matrix of a ``(k, n, n)`` stack at once.

    Applies the same per-matrix rule in one vectorized pass and returns the
    symmetrized stack.  The first matrix that fails, by a non-finite entry,
    by its asymmetry or by entries too large to symmetrize, raises
    ``require_hermitian``'s own error, with the matrix at index i named
    ``name.format(i)``.
    """
    arr = np.asarray(stack, dtype=complex)
    adj = arr.conj().transpose(0, 2, 1)
    # non-finite entries, and finite ones whose symmetrization overflows,
    # leave a non-finite entry in ``sym`` and fail below
    with np.errstate(invalid="ignore", over="ignore"):
        scale = np.abs(arr).max(axis=(1, 2), initial=0.0)
        skew = np.abs(arr - adj).max(axis=(1, 2), initial=0.0)
        sym = 0.5 * (arr + adj)
        bad = ~np.isfinite(sym).all(axis=(1, 2)) | (skew > tol * np.maximum(1.0, scale))
    if bad.any():
        i = int(np.argmax(bad))
        require_hermitian(arr[i], tol, name=name.format(i))
    return sym


def check_psd_stack(stack) -> np.ndarray:
    """The PSD verdict on every matrix of a ``(k, n, n)`` stack at once.

    Each matrix is validated by :func:`require_hermitian_stack` (the first
    failing one raises ``ValidationError``) and passes iff the spectrum of
    its symmetrized form passes :func:`psd_ok` at ``PSD_TOL``.  Returns a
    bool array of length k.
    """
    return psd_ok(np.linalg.eigvalsh(require_hermitian_stack(stack)))


def cluster_starts(sorted_values: np.ndarray, tol: float) -> np.ndarray:
    """Start index of each run of ``sorted_values`` whose consecutive gaps
    are at most ``tol``.

    A run chains: it continues as long as each value lies within ``tol`` of
    the one before it.  ``sorted_values`` must be ascending and nonempty.
    """
    gaps = sorted_values[1:] - sorted_values[:-1]
    return np.concatenate(([0], np.flatnonzero(gaps > tol) + 1))


def require_psd(w: np.ndarray, name: str = "matrix") -> None:
    """Raise ``ValidationError`` unless the eigenvalues ``w`` pass
    :func:`psd_ok` at ``NORM_SLACK``, the slack of the contraction rule."""
    if not psd_ok(w, NORM_SLACK):
        raise ValidationError(f"{name} has negative eigenvalue {w.min():.3e} beyond tolerance")


def sqrt_from_eig(dec: EigDecomposition) -> np.ndarray:
    """PSD square root from an eigendecomposition, cut by :func:`rank_keep`."""
    w, v = dec
    keep = rank_keep(w)
    vk = v[:, keep]
    return herm_part((vk * np.sqrt(w[keep])) @ vk.conj().T)
