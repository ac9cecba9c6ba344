"""Gram-space realization of the moment matrix and the shift contraction.

The order-d moment matrix, being PSD, is the Gram matrix of vectors
x_0..x_{(d+1)N-1} in an r-dimensional inner-product space (r its numerical
rank).  On the span of the first dN vectors, the shift x_k -> x_{k+N} is a
well-defined linear operator exactly when kernel inclusion holds, which the
solvability verdict implies, and rescaling it affinely to the reference
interval [-1, 1] yields a Hermitian contraction.  This module builds
concrete matrices for all of it, in orthonormal coordinates of the space,
domain first and its orthogonal complement (the defect space) after: the
compression P of the contraction to the domain, its component Q into the
complement, and the coordinates of the first N vectors.  A Cholesky
certificate (:func:`~matmom.linalg.certified`) proves full rank with no
eigensolve; only when it fails does the spectrum of the moment matrix
decide its rank.  A space of full rank takes the upper Cholesky factor R of
conj(Gamma) as its vectors, which are already its Gram-Schmidt
coordinates.  There P is the truncated block Jacobi matrix, block
tridiagonal, and Q reaches only its last block, so both are formed from the
N x N blocks of R, with no factorization of R and no dN x dN inverse.  A
rank-deficient space takes eigen-scaled vectors, and the domain SVD gives
its coordinates and its P and Q.  One rule (:func:`_gram_vectors`) factors
the moment matrix and the corner block that extends an even problem's space
by one order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NumericalInconsistency, ValidationError
from .linalg import RANK_TOL, certified, herm_part, opnorm, psd_ok, rank_keep
from .moments import MomentSequence, build_gamma

# Inner products follow the convention <u, v> = sum_i u_i * conj(v_i), so all
# operator matrices below are plain numpy matrices in orthonormal bases.


@dataclass(frozen=True, eq=False)
class GramSpace:
    """Vectors realizing the moment matrix as a Gram matrix.

    ``vectors`` has shape (rank, (d+1)N); column n is x_n and
    <x_n, x_m> reproduces entry (n, m) of the moment matrix ``gram``.  The
    vectors are square exactly when the rank decision keeps every
    eigenvalue, and then they are the upper Cholesky factor R of
    conj(``gram``), the Gram-Schmidt factor that :func:`build_operators`
    reads; a rank-deficient space has the eigen-scaled rows sqrt(w_i) v_i^T
    (see :func:`gram_space_from_eig`).  ``spectrum`` holds the ascending
    eigenvalues of ``gram``.  When an eigensolve decided the rank, they are
    the spectrum it was decided on, given as ``decided_spectrum``.  When a
    Cholesky certificate decided it, with no eigensolve, the space is
    built without them (``decided_spectrum`` None), and ``spectrum`` is
    ``eigvalsh(gram)``, taken on first read: the spectrum the eigensolve
    route would have decided on, bit for bit.  A space may be shared
    through the solvability report that carries it, so its arrays, those
    of ``domain_svd`` included, are read-only.  The space takes ownership
    of the arrays it is given: it makes them read-only in place, and a
    caller that goes on writing to one, or to the array it views, passes a
    copy, since the spectrum read later must be that of the ``gram`` the
    rank was decided on.  What is derived from the vectors (the spectrum,
    the norm, the domain SVD and the domain rank) is computed once per
    space, on first use.
    """

    a: float
    b: float
    N: int
    d: int
    vectors: np.ndarray
    gram: np.ndarray
    decided_spectrum: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.vectors.setflags(write=False)
        self.gram.setflags(write=False)
        if self.decided_spectrum is not None:
            self.decided_spectrum.setflags(write=False)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """The ascending eigenvalues of ``gram``, as the class explains."""
        if self.decided_spectrum is not None:
            return self.decided_spectrum
        w = np.linalg.eigvalsh(self.gram)
        w.setflags(write=False)
        return w

    @property
    def rank(self) -> int:
        return self.vectors.shape[0]

    @cached_property
    def norm(self) -> float:
        """||X||_2 of the vector matrix X = ``vectors``, sqrt(lambda_max) of
        the moment matrix, read from ``spectrum``: X^H X reproduces the
        moment matrix, exactly at full rank and up to the eigenvalues the
        rank cutoff drops otherwise, which never include a positive
        lambda_max (a space with none has no vectors and norm 0)."""
        return float(np.sqrt(max(self.spectrum[-1], 0.0)))

    @cached_property
    def domain_svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full SVD ``(U, s, Vh)`` of the domain vectors x_0..x_{dN-1}, taken
        once per space.  Only a rank-deficient space takes it: it decides the
        domain rank there and gives the operators' bases.
        A space of full rank (d+1)N needs neither, and its operators come
        from the blocks of its vectors (see :func:`build_operators`)."""
        dn = self.d * self.N
        if self.rank == 0:
            factors = (np.zeros((0, 0), dtype=complex), np.zeros(0),
                       np.eye(dn, dtype=complex))
        else:
            factors = np.linalg.svd(self.vectors[:, :dn])
        for arr in factors:
            arr.setflags(write=False)
        return factors

    @cached_property
    def _domain_rank(self) -> int:
        """The domain rank p: the number of singular values of the domain
        vectors that :func:`rank_keep` keeps.  A space of full rank (d+1)N
        has p = dN without an SVD, as :func:`kernel_inclusion` explains."""
        dn = self.d * self.N
        if self.rank == dn + self.N:
            return dn
        return int(rank_keep(self.domain_svd[1]).sum())


@dataclass(frozen=True, eq=False)
class ContractionModel:
    """The shift contraction in block form over domain and defect subspaces.

    Every matrix is in the model's orthonormal coordinates of the Gram
    space, the p of the domain H_a = span{x_0..x_{dN-1}} first and the q of
    its orthogonal complement (the defect space) after.  ``first_vectors``
    (r x N) holds x_0..x_{N-1}.  ``P`` is the Hermitian compression of the
    contraction to the domain and ``Q`` its component into the complement.
    The block column [P; Q] is a contraction up to rounding when the
    moments are solvable; that is decided by
    :func:`~matmom.extensions.extremal_extensions`, not here.
    """

    space: GramSpace
    first_vectors: np.ndarray
    P: np.ndarray
    Q: np.ndarray

    @property
    def dom_dim(self) -> int:
        return self.P.shape[0]

    @property
    def def_dim(self) -> int:
        return self.Q.shape[0]


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


def _gram_vectors(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Vectors whose Gram matrix is the PSD ``gram``, with the ascending
    spectrum that decided their number, or None when no spectrum did.

    A Cholesky certificate decides first: when
    :func:`~matmom.linalg.certified` passes, ``eigvalsh`` would keep every
    eigenvalue, so the vectors are the Cholesky factor below and no
    eigensolve is taken.  Otherwise ``eigvalsh`` decides, and if
    :func:`rank_keep` drops an eigenvalue, ``eigh`` factors ``gram`` and its
    own spectrum decides.  When the deciding spectrum keeps every
    eigenvalue, cond(gram) < 1/RANK_TOL and the Cholesky factor gram = L L^H
    exists.  The vectors are then R = L^T (transposed, not conjugated), the
    upper Cholesky factor of conj(gram): R^H R = conj(gram) gives sum_i
    R[i, n] conj(R[i, m]) = gram[n, m].  Otherwise they are the eigenvectors
    kept by :func:`rank_keep`, scaled and transposed (not conjugated), which
    makes the Gram identity hold in the fixed inner-product convention.
    ``gram`` is exactly Hermitian and finite, and not scanned.  Entries of
    subnormal scale carry too few digits for that bound, and a factorization
    that breaks down on them raises ``NumericalInconsistency``.
    """
    if certified(gram):
        return np.linalg.cholesky(gram).T, None
    w = np.linalg.eigvalsh(gram)
    keep = rank_keep(w)
    if not keep.all():
        w, v = np.linalg.eigh(gram)
        keep = rank_keep(w)
    if keep.all():
        try:
            return np.linalg.cholesky(gram).T, w
        except np.linalg.LinAlgError as exc:
            raise NumericalInconsistency(
                "a Gram matrix of full numerical rank has no Cholesky factor "
                f"(largest entry {np.abs(gram).max():.3e})") from exc
    # x_n[i] = sqrt(w_i) * V[n, i] so that sum_i x_n[i] conj(x_m[i]) = gram[n, m]
    return np.sqrt(w[keep])[:, None] * v[:, keep].T, w


def gram_space_from_eig(seq: MomentSequence, gamma: np.ndarray) -> GramSpace:
    """The Gram space of the order-d moment matrix ``gamma`` of ``seq``,
    its rank decided by :func:`_gram_vectors`, with the spectrum it was
    decided on when an eigensolve decided it.  ``gamma`` is gathered from
    validated moments, and the space keeps it as its ``gram``, read-only
    (see :class:`GramSpace`)."""
    vectors, w = _gram_vectors(gamma)
    return GramSpace(a=seq.a, b=seq.b, N=seq.N, d=seq.l // 2, vectors=vectors, gram=gamma,
                     decided_spectrum=w)


def _extended_space(space: GramSpace, next_coords: np.ndarray,
                    corner: np.ndarray) -> GramSpace:
    """``space`` extended by one block to order d+1: the vectors [[X, Z],
    [0, L]], with Z = ``next_coords`` and L the :func:`_gram_vectors` of the
    PSD ``corner``, so the new block's Gram matrix is Z^T conj(Z) + corner.
    If X and L are Cholesky factors, so is the extension.  Its ``gram`` is
    the Gram matrix the vectors realize.  No step of the solve reads its
    spectrum, so the extension takes no eigensolve; its domain rank, if it
    is rank-deficient, is decided on its domain SVD."""
    low, _ = _gram_vectors(corner)
    rank, n = space.rank, space.N
    vectors = np.zeros((rank + low.shape[0], space.vectors.shape[1] + n), dtype=complex)
    vectors[:rank, :-n] = space.vectors
    vectors[:rank, -n:] = next_coords
    vectors[rank:, -n:] = low
    return GramSpace(a=space.a, b=space.b, N=n, d=space.d + 1, vectors=vectors,
                     gram=vectors.T @ vectors.conj())


def build_gram_space(seq: MomentSequence) -> GramSpace:
    """Rank-revealing factorization of the order-d moment matrix, by
    :func:`gram_space_from_eig`, for callers outside the solve chain: the
    solves take the space their check decided.

    Requires l = 2d with d >= 1 and a PSD moment matrix.
    """
    if seq.l % 2 != 0 or seq.l < 2:
        raise ValidationError(f"Gram-space construction requires l = 2d, d >= 1, got l={seq.l}")
    space = gram_space_from_eig(seq, build_gamma(seq, seq.l // 2))
    # a certificate proves the spectrum PSD without computing it
    if space.decided_spectrum is not None and not psd_ok(space.decided_spectrum):
        raise ValidationError("moment matrix is not PSD; refusing Gram-space construction")
    return space


def kernel_inclusion(space: GramSpace) -> tuple[bool, float]:
    """Whether the shift x_k -> x_{k+N} is well defined on the domain
    vectors, and the residual that decides it.

    In exact arithmetic this follows from the solvability verdict, so
    :func:`~matmom.solvability.check_odd` reports it as a diagnostic that
    decides nothing, and :func:`build_operators` does not ask it.

    The residual is ||g_shift Vh[p:]*||_2: the shifted vectors applied to the
    kernel of the domain vectors g_dom = U diag(s) Vh, where p is the domain
    rank, the number of singular values kept by :func:`rank_keep`.  The
    vectors reproduce the moment matrix only up to the eigenvalues the rank
    cutoff drops, each at most ``RANK_TOL * lambda_max``, so they are known
    only up to a perturbation of norm sqrt(RANK_TOL) * ||X||_2; the residual
    passes iff it is within that bound.

    With p = dN the domain vectors have no kernel and the residual is 0,
    which passes without the norm, so without the spectrum.  A space of
    full rank (d+1)N needs no SVD to know that: X is square with every
    singular value above sqrt(RANK_TOL) * ||X||_2, and the singular values
    of its column block g_dom lie between those of X.
    """
    n, dn = space.N, space.d * space.N
    p_dim = space._domain_rank
    if p_dim == dn:
        return True, 0.0
    vh = space.domain_svd[2]
    residual = opnorm(space.vectors[:, n : n + dn] @ vh[p_dim:].conj().T)
    return residual == 0.0 or bool(residual <= np.sqrt(RANK_TOL) * space.norm), residual


def build_operators(space: GramSpace) -> ContractionModel:
    """Construct the shift contraction in block form: on any space, the
    shift compressed to the numerical range of the domain vectors.

    Where kernel inclusion holds (see :func:`kernel_inclusion`), which a
    passed solvability verdict implies, that is the shift itself.  Whether
    the block column is a contraction is not judged here:
    :func:`~matmom.extensions.extremal_extensions` decides it once.

    The shift maps the domain basis to T = scale * shifted @ right_inv,
    where ``shifted`` holds the coordinates of x_N..x_{N+dN-1} and
    ``right_inv`` maps the domain vectors onto the p domain coordinates; then
    P = herm(T[:p] - shift I) and Q = T[p:].  The two routes differ in the
    coordinates and in how much of T they form.  The vectors of a space of
    full rank (d+1)N are its Gram-Schmidt factor R, so the space is already
    in Gram-Schmidt coordinates, where P is block tridiagonal and Q is zero
    outside its last block column; :func:`_block_jacobi_operators` forms
    only those blocks, from R's, with no factorization of R, no SVD and no
    inverse of the dN x dN factor.  A rank-deficient space takes its domain
    SVD (:func:`_domain_svd_operators`).  P is exactly Hermitian on both.
    P and Q must be finite (an interval so short that 2/(b - a) overflows
    makes them not): :func:`~matmom.extensions.extremal_extensions` takes
    them as they are.
    """
    scale = 2.0 / (space.b - space.a)
    shift = (space.a + space.b) / (space.b - space.a)
    if space.rank == space.vectors.shape[1]:
        first, p_mat, q_mat = _block_jacobi_operators(space, scale, shift)
    else:
        first, p_mat, q_mat = _domain_svd_operators(space, scale, shift)
    for name, block in (("P", p_mat), ("Q", q_mat)):
        if not np.isfinite(block).all():
            raise NumericalInconsistency(f"{name} contains non-finite entries")
    return ContractionModel(space=space, first_vectors=first, P=p_mat, Q=q_mat)


def _block_jacobi_operators(space: GramSpace, scale: float, shift: float):
    """First vectors, P and Q of a full-rank space, from the N x N blocks
    R_ij of its vectors R.

    R is the upper Cholesky factor of conj(Gamma), with a real positive
    diagonal (see :class:`GramSpace`).  So X = I R is already a QR
    factorization: Gram-Schmidt of x_0, x_1, ... in order gives the standard
    basis of the coordinates, and those are the model's.  The domain is
    spanned by the first dN and the defect space by the Gram-Schmidt vectors
    of the top block x_{dN}..x_{(d+1)N-1}.  In them x_n is column n of R,
    and T = scale * R[:, N:N+dN] R_dd^-1 with R_dd = R[:dN, :dN] block upper
    triangular.  Multiplied out block by block, T is block tridiagonal up to
    its last block row (it is the truncated block Jacobi matrix of the
    orthonormal polynomials), with

        A_i = scale R_{i+1,i+1} R_ii^-1                      (block (i+1, i))
        B_i = scale (R_{i,i+1} - R_ii R_{i-1,i-1}^-1 R_{i-1,i}) R_ii^-1
                                                            (block (i, i))

    for i < d (no R_{-1,-1} term at i = 0).  P has the diagonal blocks
    herm(B_i) - shift I and the off-diagonal blocks A_i and A_i*, and every
    other entry exactly 0; Q = [0 ... 0 A_{d-1}].  One batched inverse of
    the d blocks R_ii serves them all.
    """
    n, d = space.N, space.d
    r = space.vectors
    # R's diagonal blocks R_ii (i <= d) and those above them, R_{i,i+1} (i < d)
    blocks = r.reshape(d + 1, n, d + 1, n)
    r_diag = blocks.diagonal(0, 0, 2).transpose(2, 0, 1)
    r_up = blocks.diagonal(1, 0, 2).transpose(2, 0, 1)
    inv = np.linalg.inv(r_diag[:-1])
    # ratio[i] = R_{i+1,i+1} R_ii^-1, so A_i = scale * ratio[i]
    ratio = r_diag[1:] @ inv
    inner = r_up.copy()
    inner[1:] -= ratio[:-1] @ r_up[:-1]
    diag = scale * (inner @ inv)
    diag += diag.conj().transpose(0, 2, 1)
    diag *= 0.5
    diag -= shift * np.eye(n)
    sub = scale * ratio
    # T's block column i holds B_i at row i, A_i at row i + 1 and, above the
    # diagonal, A_{i-1}*; P is its first d block rows and Q its last
    i = np.arange(d)
    t_mat = np.zeros(((d + 1) * n, d * n), dtype=complex)
    t_blocks = t_mat.reshape(d + 1, n, d, n)
    t_blocks[i, :, i, :] = diag
    t_blocks[i + 1, :, i, :] = sub
    t_blocks[i[:-1], :, i[1:], :] = sub[:-1].conj().transpose(0, 2, 1)
    return r[:, :n], t_mat[: d * n], t_mat[d * n :]


def _domain_svd_operators(space: GramSpace, scale: float, shift: float):
    """First vectors, P and Q of a rank-deficient space, from its domain SVD.

    The space's one SVD ``g_dom = U diag(s) Vh`` of the domain vectors
    serves every step.  The p singular values kept by the rank cutoff (``s >
    RANK_TOL * s_max``, the rule of ``numpy.linalg.pinv``), counted once per
    space, split the columns of U, with pinned phases, into the domain basis
    ``B[:, :p]`` and the defect basis ``B[:, p:]``: the model's coordinates.  The right inverse
    ``Vh[:p]* diag(phase / s[:p])`` maps g_dom onto the domain basis.
    """
    n, dn = space.N, space.d * space.N
    u_full, sing, vh = space.domain_svd
    p_dim = space._domain_rank
    phase = _column_phases(u_full)
    coords = (u_full * phase).conj().T @ space.vectors[:, : n + dn]
    right_inv = vh[:p_dim].conj().T * (phase[:p_dim] / sing[:p_dim])
    t_mat = scale * (coords[:, n:] @ right_inv)
    # the -shift term maps the domain into itself, so it enters P only
    p_raw = t_mat[:p_dim] - shift * np.eye(p_dim, dtype=complex)
    return coords[:, :n], herm_part(p_raw), t_mat[p_dim:]
