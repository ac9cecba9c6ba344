"""Gram-space realization of the moment matrix and the shift contraction.

The order-d moment matrix, being PSD, is the Gram matrix of vectors
x_0..x_{(d+1)N-1} in an r-dimensional inner-product space (r its numerical
rank).  On the span of the first dN vectors, the shift x_k -> x_{k+N} is a
well-defined linear operator exactly when the solvability kernel condition
holds, and rescaling it affinely to the reference interval [-1, 1] yields a
Hermitian contraction.  This module builds concrete matrices for all of it:
orthonormal bases of the domain and its orthogonal complement, the
compression P of the contraction to the domain, and its component Q into the
complement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalInconsistency, OperatorIllDefined, ValidationError
from .linalg import (
    NORM_SLACK,
    RANK_TOL,
    herm_part,
    hermitian_eig,
    opnorm,
    psd_ok,
    rank_keep,
)
from .moments import MomentSequence, build_gamma

# Residual bound for the well-definedness of the shift operator and ceiling
# on the Hermitian asymmetry of the computed domain compression.  Genuine
# kernel-condition violations produce relative residuals of order one, while
# rank-truncation noise on admissible data stays below ~1e-7, so 1e-6
# separates the two regimes cleanly.
WELLDEF_TOL = 1e-6
SKEW_TOL = 1e-6

# Inner products follow the convention <u, v> = sum_i u_i * conj(v_i), so all
# operator matrices below are plain numpy matrices in orthonormal bases.


@dataclass(frozen=True, eq=False)
class GramSpace:
    """Vectors realizing the moment matrix as a Gram matrix.

    ``vectors`` has shape (rank, (d+1)N); column n is x_n and
    <x_n, x_m> reproduces entry (n, m) of ``gram``.
    """

    a: float
    b: float
    N: int
    d: int
    rank: int
    vectors: np.ndarray
    gram: np.ndarray


@dataclass(frozen=True, eq=False)
class ContractionModel:
    """The shift contraction in block form over domain and defect subspaces.

    ``dom_basis`` (r x p) and ``def_basis`` (r x q) are orthonormal bases of
    the domain H_a = span{x_0..x_{dN-1}} and of its orthogonal complement.
    ``P`` is the Hermitian compression of the contraction to the domain and
    ``Q`` its component into the complement; the block column [P; Q] has
    operator norm at most 1 up to rounding.
    """

    space: GramSpace
    dom_basis: np.ndarray
    def_basis: np.ndarray
    P: np.ndarray
    Q: np.ndarray

    @property
    def dom_dim(self) -> int:
        return self.dom_basis.shape[1]

    @property
    def def_dim(self) -> int:
        return self.def_basis.shape[1]

    @property
    def no_defect(self) -> bool:
        """True when the domain is the whole space, forcing a unique extension."""
        return self.def_dim == 0

    def column(self) -> np.ndarray:
        """The block column [P; Q] in the orthonormal (domain, defect) basis."""
        return np.vstack([self.P, self.Q])


def _column_phases(u: np.ndarray) -> np.ndarray:
    """Unit factors that rotate each column's largest-magnitude entry to be
    real positive.

    Multiplying the columns by them pins the otherwise arbitrary phases of
    computed orthonormal bases, which keeps downstream block matrices
    reproducible.
    """
    if u.size == 0:
        return np.ones(u.shape[1], dtype=complex)
    piv = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    mag = np.abs(piv)
    phase = np.ones_like(piv)
    np.divide(piv.conj(), mag, out=phase, where=mag > 0)
    return phase


def build_gram_space(seq: MomentSequence, rank_tol: float = RANK_TOL) -> GramSpace:
    """Rank-revealing factorization of the order-d moment matrix.

    Requires l = 2d with d >= 1 and a PSD moment matrix.  The factor is the
    transposed (not conjugated) scaled eigenvector matrix, which makes the
    Gram identity hold in the fixed inner-product convention.
    """
    if seq.l % 2 != 0 or seq.l < 2:
        raise ValidationError(f"Gram-space construction requires l = 2d, d >= 1, got l={seq.l}")
    d = seq.l // 2
    gamma = build_gamma(seq, d)
    dec = hermitian_eig(gamma)
    if not psd_ok(dec.eigenvalues):
        raise ValidationError("moment matrix is not PSD; refusing Gram-space construction")
    keep = rank_keep(dec.eigenvalues, rank_tol)
    w = dec.eigenvalues[keep]
    # x_n[i] = sqrt(w_i) * V[n, i] so that sum_i x_n[i] conj(x_m[i]) = Gamma[n, m]
    vectors = np.sqrt(w)[:, None] * dec.eigenvectors[:, keep].T
    return GramSpace(a=seq.a, b=seq.b, N=seq.N, d=d, rank=int(keep.sum()),
                     vectors=vectors, gram=gamma)


def build_operators(space: GramSpace, rank_tol: float = RANK_TOL,
                    welldef_tol: float = WELLDEF_TOL) -> ContractionModel:
    """Construct the shift contraction in block form.

    Verifies that the shift is well defined on the domain (any kernel
    direction of the domain vectors must be annihilated by the shifted
    vectors) and that the block column is a contraction up to rounding.

    One full SVD ``g_dom = U diag(s) Vh`` of the domain vectors serves every
    step.  The singular values kept by the rank cutoff (``s > rank_tol *
    s_max``, the rule of ``numpy.linalg.pinv``) give the domain basis
    ``U[:, :p]``, the defect basis ``U[:, p:]`` and the pseudo-inverse
    ``Vh[:p]* diag(1/s[:p]) U[:, :p]*``; ``I - pinv(g_dom) g_dom`` is the
    projector ``Vh[p:]* Vh[p:]`` onto the kernel, so the well-definedness
    residual is the norm of ``g_shift Vh[p:]*``.
    """
    n, d, r = space.N, space.d, space.rank
    dn = d * n
    g_dom = space.vectors[:, :dn]
    g_shift = space.vectors[:, n : n + dn]

    if r:
        u_full, sing, vh = np.linalg.svd(g_dom)
    else:
        u_full, sing, vh = (np.zeros((0, 0), dtype=complex), np.zeros(0),
                            np.eye(dn, dtype=complex))
    p_dim = int(rank_keep(sing, rank_tol).sum())

    residual = opnorm(g_shift @ vh[p_dim:].conj().T)
    # max(1, norm) >= 1, so the norm is needed only past the bare bound
    if residual > welldef_tol and residual > welldef_tol * opnorm(g_shift):
        raise OperatorIllDefined(
            f"shift operator is ill-defined: residual {residual:.3e} "
            "(kernel-inclusion condition fails)"
        )

    u_dom, u_def = u_full[:, :p_dim], u_full[:, p_dim:]
    dom_phase = _column_phases(u_dom)
    dom_basis = u_dom * dom_phase
    def_basis = u_def * _column_phases(u_def)

    scale = 2.0 / (space.b - space.a)
    shift = (space.a + space.b) / (space.b - space.a)
    # pinv(g_dom) @ dom_basis, with U* U = I
    coeff = vh[:p_dim].conj().T * (dom_phase / sing[:p_dim])

    # The domain compression is contracted against the shift block of the
    # Gram matrix, whose Hermitian symmetry is a property of the moment data;
    # symmetrizing that block first keeps rank-truncation noise from being
    # amplified through the pseudo-inverse into an asymmetric P.
    shift_block = herm_part(g_dom.conj().T @ g_shift)
    p_raw = scale * (coeff.conj().T @ shift_block @ coeff) - shift * np.eye(
        p_dim, dtype=complex
    )
    # the -shift * dom_basis term of the shifted vectors is orthogonal to the
    # defect space
    q_mat = scale * (def_basis.conj().T @ (g_shift @ coeff))
    if p_raw.size:
        skew = np.abs(p_raw - p_raw.conj().T).max()
        if skew > SKEW_TOL * max(1.0, np.abs(p_raw).max()):
            raise NumericalInconsistency(
                f"domain compression is not Hermitian (skew {skew:.3e})"
            )
    col_norm = opnorm(np.vstack([p_raw, q_mat]))
    if col_norm > 1.0 + NORM_SLACK:
        raise NumericalInconsistency(f"contraction column has norm {col_norm:.12f} > 1")
    return ContractionModel(space=space, dom_basis=dom_basis, def_basis=def_basis,
                            P=herm_part(p_raw), Q=q_mat)
