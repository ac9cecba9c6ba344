"""Self-adjoint contraction extensions of the shift contraction.

Given the block column [P; Q] of a Hermitian contraction with non-dense
domain, the self-adjoint contraction completions

    [[P, Q*], [Q, X]]

form a Loewner-order operator interval whose endpoints have the closed
Schur-complement form

    X_min = Q (I + P)^+ Q* - I,      X_max = I - Q (I - P)^+ Q*.

Whether [P; Q] is a contraction at all is decided here, once.  If I + P
and I - P are PSD and Q* lies in the range of both, then by Schur
complements and (I + P)^+ + (I - P)^+ = 2 (I - P^2)^+ on that range the
column is a contraction exactly when X_max - X_min is PSD (Krein, Mat. Sb.
20, 1947; Davis, Kahan and Weinberger, SIAM J. Numer. Anal. 19, 1982).
Range inclusion matters only on the eigenvectors of P where the rank cutoff
drops 1 + w or 1 - w, including the attainable case norm(P) = 1; there the
column itself is required to have norm at most 1.  Usually one Cholesky
factorization of the pair I +- P proves that the cutoff drops nothing, and
the pseudo-inverses are inverses, applied by one batched solve; only
otherwise is P factored by ``eigh`` (see :func:`extremal_completions`).

The defect C is the gap between the extreme extensions; when it vanishes
the extension, and hence the solution measure, is unique.  The interval is
swept by B_min + C^(1/2) K C^(1/2) with a Hermitian parameter
0 <= K <= I on the defect space, and each such extension has resolvent

    R_K(z) = R_min(z) - R_min(z) C^(1/2) K (I + (Q_mu(z) - I) K)^(-1)
             C^(1/2) R_min(z),

where Q_mu(z) = (C^(1/2) R_min(z) C^(1/2) + I) restricted to the defect
space; the identity is plain Woodbury algebra.  It is evaluated in one
place, batched over z: :func:`generalized_resolvent`, :func:`qmu` and the
Stieltjes-Perron density of :mod:`matmom.solutions` all read it, so the
``COND_LIMIT`` bound on the middle factor I + (Q_mu(z) - I) K guards each
of them at every z.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalInconsistency, ValidationError
from .linalg import (
    NORM_SLACK,
    PSD_TOL,
    EigDecomposition,
    herm_part,
    keeps_every_eigenvalue,
    rank_keep,
    require_hermitian,
    require_psd,
    sqrt_from_eig,
)
from .operator_model import ContractionModel

# Defect norm below which the extension problem counts as determinate, the
# margin kept between resolvent arguments and the spectrum, and the condition
# bound beyond which the middle inverse of the resolvent formula is rejected.
DETERMINATE_TOL = 1e-10
Z_MARGIN = 1e-8
COND_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class ExtensionInterval:
    """Endpoints of the operator interval of self-adjoint contraction extensions.

    Every matrix is in the coordinates of ``model``, domain first and
    defect after.  ``B_mu = [[P, Q*], [Q, X_mu]]`` is the minimal extension
    on the whole Gram space and ``mu_eig`` its eigendecomposition, taken on
    first use (only the resolvent functions read it); ``X_mu``/``X_M`` are
    the defect-space blocks of the minimal and maximal extension, ``C_R =
    X_M - X_mu`` the defect on the defect space with PSD square root
    ``C_R_half``, and ``R0_dim`` the dimension of the defect directions on
    which both endpoints agree.  The maximal extension ``B_M`` and the
    full-space defect ``C = B_M - B_mu`` are derived on demand.
    """

    model: ContractionModel
    B_mu: np.ndarray
    X_mu: np.ndarray
    X_M: np.ndarray
    determinate: bool
    R0_dim: int
    C_R: np.ndarray
    C_R_half: np.ndarray

    @cached_property
    def mu_eig(self) -> EigDecomposition:
        return EigDecomposition(*np.linalg.eigh(self.B_mu))

    @property
    def def_dim(self) -> int:
        return self.model.def_dim

    @property
    def B_M(self) -> np.ndarray:
        """The maximal extension on the whole Gram space."""
        return _assemble(self.model.P, self.model.Q, self.X_M)

    @property
    def C(self) -> np.ndarray:
        """The defect B_M - B_mu on the whole Gram space: ``C_R`` in its defect block."""
        return self.B_M - self.B_mu


def extremal_completions(p_block, q_block) -> tuple[np.ndarray, np.ndarray]:
    """Extreme defect blocks X_min, X_max completing the contraction column.

    The rule is stated on the eigendecomposition of P.  I + P and I - P
    share the eigenvectors V of P, so one eigendecomposition of P serves
    both, and each must be PSD within ``NORM_SLACK``.  With
    ``qv = Q V`` and lambda the eigenvalues of I + P (for X_min) or of I - P
    (for X_max) that the rank cutoff keeps, the Schur complements are

        X_min = sum_k qv_k qv_k* / lambda_k - I,
        X_max = I - sum_k qv_k qv_k* / lambda_k.

    They are the completions only if Q* lies in the range of I + P and of
    I - P.  So on each eigenvector v of P, eigenvalue w, whose 1 + w or
    1 - w the cutoff drops, the column must be a contraction by itself:
    sqrt(w^2 + ||Q v||^2) <= 1 + ``NORM_SLACK``.  Given both tests, [P; Q]
    is a contraction exactly when X_max - X_min is PSD, which
    :func:`extremal_extensions` judges.  A failed test raises
    ``ValidationError``.  P and Q may come from outside the chain, so they
    are validated first: P Hermitian, Q finite with one column per row of P.

    Most columns do not need the eigendecomposition.  When one Cholesky
    factorization of the pair I +- P, each shifted down as
    :func:`~matmom.linalg.keeps_every_eigenvalue` states, proves both PSD
    with every 1 +- w kept, the rule passes with nothing dropped, and

        X_min = Q (I + P)^-1 Q* - I,      X_max = I - Q (I - P)^-1 Q*

    come from one batched solve.  Only a failed proof, or an empty P, takes
    the eigendecomposition, with its messages and numbers.
    """
    p = require_hermitian(p_block, name="P")
    q = np.asarray(q_block, dtype=complex)
    if q.ndim != 2 or q.shape[1] != p.shape[0]:
        raise ValidationError(f"Q must have {p.shape[0]} columns, got shape {q.shape}")
    if not np.isfinite(q).all():
        raise ValidationError("Q contains non-finite entries")
    return _extremal_completions(p, q)


def _extremal_completions(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`extremal_completions` of an exactly Hermitian P and a finite Q
    of matching shape, taken as they are: the P and Q of a
    :func:`~matmom.operator_model.build_operators` model are.

    When :func:`~matmom.linalg.keeps_every_eigenvalue` proves that I + P and
    I - P are PSD and that the rank cutoff keeps every 1 +- w, the rule of
    :func:`_eig_completions` passes with nothing dropped, and the completions
    are the plain Schur complements Q (I +- P)^-1 Q*, from one batched
    solve.  Otherwise, and for an empty P, the eigendecomposition of P
    decides, with its own messages.
    """
    if p.size:
        m = p.shape[0]
        pair = np.zeros((2, m, m), dtype=complex)
        pair.reshape(2, m * m)[:, :: m + 1] = 1.0  # I + P and I - P in one buffer
        pair[0] += p
        pair[1] -= p
        if keeps_every_eigenvalue(pair):
            # Q* as a stack of one matrix: a bare (m, r) right-hand side is
            # read as a stack of vectors by numpy before 2.0
            schur = q @ np.linalg.solve(pair, q.conj().T[None])
            eye_q = np.eye(q.shape[0], dtype=complex)
            return herm_part(schur[0] - eye_q), herm_part(eye_q - schur[1])
    return _eig_completions(p, q)


def _eig_completions(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_extremal_completions` on the eigendecomposition of P, the
    rule that :func:`extremal_completions` states."""
    w, v = np.linalg.eigh(p)
    plus, minus = 1.0 + w, 1.0 - w
    require_psd(plus, "I + P")
    require_psd(minus, "I - P")
    keep_plus, keep_minus = rank_keep(plus), rank_keep(minus)
    qv = q @ v
    dropped = ~(keep_plus & keep_minus)
    if dropped.any():
        norm = np.hypot(w[dropped], np.linalg.norm(qv[:, dropped], axis=0)).max()
        if norm > 1.0 + NORM_SLACK:
            raise ValidationError(
                f"contraction column has norm {norm:.12f} > 1 on the kernel of I + P or I - P"
            )
    eye_q = np.eye(q.shape[0], dtype=complex)
    qp, qm = qv[:, keep_plus], qv[:, keep_minus]
    x_mu = herm_part((qp / plus[keep_plus]) @ qp.conj().T - eye_q)
    x_m = herm_part(eye_q - (qm / minus[keep_minus]) @ qm.conj().T)
    return x_mu, x_m


def _assemble(p, q, x) -> np.ndarray:
    """The block matrix [[P, Q*], [Q, X]], written into one array."""
    m = p.shape[0]
    out = np.empty((m + x.shape[0],) * 2, dtype=np.result_type(p, q, x))
    out[:m, :m] = p
    out[:m, m:] = q.conj().T
    out[m:, :m] = q
    out[m:, m:] = x
    return out


def extremal_extensions(model: ContractionModel) -> ExtensionInterval:
    """Extreme self-adjoint contraction extensions and the defect between them.

    This is where the shift column [P; Q] is judged a contraction, once: by
    the tests of :func:`extremal_completions` (a Cholesky proof for I +- P,
    or the eigendecomposition of P) and by the defect X_max - X_min being
    PSD.  Each PSD test on a spectrum, of I + P, I - P or the defect, is
    :func:`~matmom.linalg.require_psd` at ``NORM_SLACK``.  The model is
    built from moment data, so a column that fails is a numerical
    inconsistency, not bad input, and raises ``NumericalInconsistency``.
    """
    try:
        x_mu, x_m = _extremal_completions(model.P, model.Q)
        c_r = x_m - x_mu  # exactly Hermitian: both are Hermitian parts
        c_dec = EigDecomposition(*np.linalg.eigh(c_r))
        require_psd(c_dec.eigenvalues, "defect")
    except ValidationError as exc:
        raise NumericalInconsistency(str(exc)) from exc
    b_mu = _assemble(model.P, model.Q, x_mu)
    lam_max = float(c_dec.eigenvalues.max(initial=0.0))
    return ExtensionInterval(
        model=model,
        B_mu=b_mu,
        X_mu=x_mu,
        X_M=x_m,
        determinate=lam_max <= DETERMINATE_TOL,
        R0_dim=c_r.shape[0] - int(rank_keep(c_dec.eigenvalues).sum()),
        C_R=c_r,
        C_R_half=sqrt_from_eig(c_dec),
    )


def as_unit_interval_param(value, dim: int, name: str = "parameter") -> np.ndarray:
    """Validate a Hermitian parameter with 0 <= K <= I on a ``dim``-space.

    Accepts a scalar t in [0, 1] (meaning t times the identity) or a
    Hermitian ``dim x dim`` matrix with spectrum in [0, 1], each up to
    ``PSD_TOL``.
    """
    if np.isscalar(value):
        t = complex(value)
        if abs(t.imag) > PSD_TOL or not -PSD_TOL <= t.real <= 1.0 + PSD_TOL:
            raise ValidationError(f"scalar {name} must lie in [0, 1], got {value}")
        return float(min(max(t.real, 0.0), 1.0)) * np.eye(dim, dtype=complex)
    mat = require_hermitian(value, name=name)
    if mat.shape[0] != dim:
        raise ValidationError(f"{name} must be {dim}x{dim}, got {mat.shape}")
    if mat.size:
        w = np.linalg.eigvalsh(mat)
        if w.min() < -PSD_TOL or w.max() > 1.0 + PSD_TOL:
            raise ValidationError(
                f"{name} eigenvalues [{w.min():.3e}, {w.max():.3e}] "
                "must lie in [0, 1]"
            )
    return mat


def canonical_extension(interval: ExtensionInterval, k) -> np.ndarray:
    """The extension B_min + C^(1/2) K C^(1/2) for a parameter 0 <= K <= I.

    K acts on the defect space in the model's coordinates, so the extension
    is B_min with C_R^(1/2) K C_R^(1/2) added to its trailing defect block.
    K = 0 gives the minimal extension, K = I the maximal one; directions off
    the defect support are fixed automatically by the sandwich.
    """
    kk = as_unit_interval_param(k, interval.def_dim, name="extension parameter")
    bump = interval.C_R_half @ kk @ interval.C_R_half
    ext = interval.B_mu.copy()
    p = interval.model.dom_dim
    ext[p:, p:] = herm_part(interval.X_mu + bump)
    return ext


def _require_admissible(interval: ExtensionInterval, z: complex) -> complex:
    z = complex(z)
    if z.imag == 0.0 and -1.0 <= z.real <= 1.0:
        raise ValidationError(f"resolvent argument {z} lies inside [-1, 1]")
    w = interval.mu_eig.eigenvalues
    if w.size and np.abs(w - z).min() < Z_MARGIN:
        raise ValidationError(
            f"resolvent argument {z} is within {Z_MARGIN:.1e} of the spectrum"
        )
    return z


def _resolvent_forms(interval: ExtensionInterval, kk: np.ndarray, zs: np.ndarray,
                     vecs: np.ndarray) -> np.ndarray:
    """vecs* R_K(z) vecs for every z of ``zs``, stacked as (len(zs), m, m).

    The one evaluation of the resolvent formula, batched over ``zs`` on the
    eigendecomposition of the minimal extension.  The m columns of ``vecs``
    are in the model's coordinates.  A middle factor I + (Q_mu(z) - I) K
    whose condition number exceeds ``COND_LIMIT`` at any z raises
    ``NumericalInconsistency``.
    """
    w, v = interval.mu_eig
    m = vecs.shape[1]
    # R_min's forms between vecs and the defect coordinates, in one block
    y = np.hstack((v.conj().T @ vecs, v[interval.model.dom_dim :].conj().T))
    blocks = np.einsum("ri,tr,rj->tij", y.conj(), 1.0 / (w - zs[:, None]), y)
    if interval.def_dim == 0:
        return blocks
    ch = interval.C_R_half
    # the trailing block sandwiched by C^(1/2) is Q_mu(z) - I
    mid_base = np.eye(interval.def_dim) + ch @ blocks[:, m:, m:] @ ch @ kk
    singular = np.linalg.cond(mid_base) > COND_LIMIT
    if singular.any():
        raise NumericalInconsistency("resolvent middle factor is numerically singular "
                                     f"at z={complex(zs[singular.argmax()])}")
    left, right = blocks[:, :m, m:] @ ch, ch @ blocks[:, m:, :m]
    return blocks[:, :m, :m] - left @ (kk @ np.linalg.inv(mid_base)) @ right


def qmu(interval: ExtensionInterval, z: complex) -> np.ndarray:
    """The defect-space function C^(1/2) (B_min - z)^(-1) C^(1/2) + I."""
    z = _require_admissible(interval, z)
    q = interval.def_dim
    defect = np.eye(interval.B_mu.shape[0], dtype=complex)[:, interval.model.dom_dim :]
    middle = _resolvent_forms(interval, np.zeros((q, q)), np.array([z]), defect)[0]
    return interval.C_R_half @ middle @ interval.C_R_half + np.eye(q, dtype=complex)


def generalized_resolvent(interval: ExtensionInterval, k, z: complex) -> np.ndarray:
    """Resolvent of the canonical extension with parameter K, evaluated at z.

    Equals (B_min - z)^(-1) corrected by a defect-space term; for K = 0, or
    when the defect vanishes, the correction is zero.  It is in the model's
    coordinates, like the extensions.
    """
    kk = as_unit_interval_param(k, interval.def_dim, name="extension parameter")
    z = _require_admissible(interval, z)
    eye = np.eye(interval.B_mu.shape[0], dtype=complex)
    return _resolvent_forms(interval, kk, np.array([z]), eye)[0]
