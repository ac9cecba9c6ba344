"""Solvability of truncated matrix moment problems on [a, b].

One verdict, the theorem's: by Choque Rivero, Dyukarev, Fritzsche and
Kirstein, a block Hankel pair PSD is necessary and sufficient.

* ``l = 0``: S_0 PSD.
* ``l = 2d`` (d >= 1): the moment matrix Gamma_d and its interval-weighted
  companion Gamma-tilde_d.
* ``l = 2d+1``: the endpoint-weighted pair H_d and H-tilde_d.

Each PSD condition is decided once: by a Cholesky certificate
(:func:`~matmom.linalg.certified`) or by
:func:`~matmom.linalg.psd_ends_ok` on its spectrum.  The conditions the
construction needs follow from the pair in exact arithmetic, and each is
reported beside it as a diagnostic that decides nothing: kernel inclusion
when l = 2d (decided by :func:`matmom.operator_model.kernel_inclusion`);
Gamma-tilde_d PSD, the consistency of two block linear systems and a
nonempty interval for the next moment when l = 2d+1.  A diagnostic that
fails on a solvable problem is a rounding error, not a verdict: the solve
does not ask it again, and if the construction is off, the solve's own
checks raise ``NumericalInconsistency``, its verification of the solved
measure last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .linalg import (
    PSD_TOL,
    RANK_TOL,
    EigDecomposition,
    certified,
    herm_part,
    psd_ends_ok,
    rank_keep,
    require_hermitian,
    sqrt_from_eig,
)
from .moments import (
    MomentSequence,
    _finite_blocks,
    _h_pair,
    _hankel,
    _interval_blocks,
    _per_sequence,
    build_gamma,
    build_gamma_tilde,
)
from .operator_model import GramSpace, _gram_vectors, gram_space_from_eig, kernel_inclusion

# Relative residual bound for the block linear systems of the even case.
CONSISTENCY_TOL = 1e-8


@dataclass(frozen=True)
class Condition:
    """One named solvability condition.

    ``quantity`` is the normalized decisive number: the relative minimum
    eigenvalue for PSD conditions (pass iff >= -threshold), the relative
    residual for residual conditions (pass iff <= threshold).  ``value`` is
    the raw unnormalized diagnostic for reporting.

    A PSD condition that a Cholesky certificate passed
    (:func:`~matmom.linalg.certified`) is built without its spectrum: it
    keeps its matrix in the private ``_matrix``, and ``quantity`` and
    ``value`` are filled from one ``eigvalsh`` of it on first read, with the
    bits an eagerly judged condition has.  The matrix takes no part in
    ``==``, the hash or ``repr``, which read the two numbers like every
    other field, and a report pickles with its matrices unread.
    """

    name: str
    passed: bool
    kind: str  # "psd" | "residual"
    quantity: float
    threshold: float
    value: float
    _matrix: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __getattr__(self, attr):
        # reached only for what the instance lacks: the two numbers of a
        # certified condition before their first read
        if attr not in ("quantity", "value") or self._matrix is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {attr!r}")
        judged = _psd_condition_eig(self.name, np.linalg.eigvalsh(self._matrix))
        self.__dict__.update(quantity=judged.quantity, value=judged.value)
        return self.__dict__[attr]


@dataclass(frozen=True)
class EvenCaseData:
    """The admissible interval [S_min, S_max] for the next moment.

    ``width`` is the eigendecomposition of the interval width S_max - S_min
    that the "S interval nonempty" condition judged.  ``next_coords`` (rank
    x N) holds the coordinates Z of the next block x_{(d+1)N}.. on the Gram
    vectors of the report's ``space``, from the X system, and S_min =
    herm(Z^T conj(Z)).  A report may be shared by every caller that checks
    the same sequence, so all arrays are read-only.
    """

    S_min: np.ndarray
    S_max: np.ndarray
    width: EigDecomposition
    next_coords: np.ndarray

    def __post_init__(self):
        for arr in (self.S_min, self.S_max, *self.width, self.next_coords):
            arr.setflags(write=False)

    @cached_property
    def width_half(self) -> np.ndarray:
        """Square root of the width from the spectrum the check judged, not
        a new one; :func:`sqrt_from_eig` takes only the eigenvalues that
        :func:`rank_keep` keeps, and those are positive."""
        half = sqrt_from_eig(self.width)
        half.setflags(write=False)
        return half


@dataclass(frozen=True)
class SolvabilityReport:
    """The verdict on a moment sequence with every condition behind it.

    ``conditions`` are the PSD conditions of the theorem's pair, and
    ``solvable`` holds iff none of them is named in ``failed_conditions``.
    ``diagnostics`` are the conditions of the construction, which decide
    nothing (see the module docstring).  :func:`check_odd` and
    :func:`check_even` return the same report again for the same sequence
    object, so a report is immutable throughout.
    """

    solvable: bool
    case: str
    conditions: tuple[Condition, ...]
    failed_conditions: tuple[str, ...]
    diagnostics: tuple[Condition, ...] = ()
    even_case: EvenCaseData | None = None
    space: GramSpace | None = None

    @property
    def details(self) -> dict:
        """The raw value of each condition and diagnostic by name, in a new
        dict per call."""
        return {c.name: c.value for c in self.conditions + self.diagnostics}


def _report(case: str, conditions: tuple[Condition, ...], **kwargs) -> SolvabilityReport:
    """The report whose verdict ``conditions`` decide."""
    failed = tuple(c.name for c in conditions if not c.passed)
    return SolvabilityReport(not failed, case, conditions, failed, **kwargs)


def _psd_conditions(names: tuple[str, ...], stack: np.ndarray) -> tuple[Condition, ...]:
    """The PSD conditions ``names`` on the matrices of a ``(k, n, n)``
    ``stack``: all passed on one Cholesky certificate of the stack, with
    their numbers deferred (:func:`_certified_condition`), and otherwise
    each judged on its eigenvalues alone, from one stacked ``eigvalsh``.

    Each matrix is finite and exactly Hermitian: S_0 as :func:`check_l0`
    validated it, or a block Hankel matrix built from validated moments, so
    it is not scanned again.
    """
    if certified(stack):
        return tuple(map(_certified_condition, names, stack))
    return tuple(map(_psd_condition_eig, names, np.linalg.eigvalsh(stack)))


def _certified_condition(name: str, matrix: np.ndarray) -> Condition:
    """The passed PSD condition on ``matrix``, which
    :func:`~matmom.linalg.certified` has certified: its computed spectrum
    would pass :func:`~matmom.linalg.psd_ok`, so the verdict needs no
    eigensolve, and ``quantity`` and ``value`` come from ``eigvalsh`` on
    first read (see :class:`Condition`)."""
    matrix.setflags(write=False)
    cond = object.__new__(Condition)
    cond.__dict__.update(name=name, passed=True, kind="psd", threshold=PSD_TOL,
                         _matrix=matrix)
    return cond


def _gamma_condition(name: str, matrix: np.ndarray,
                     spectrum: np.ndarray | None) -> Condition:
    """The PSD condition ``name`` on a Gram matrix that
    :func:`~matmom.operator_model._gram_vectors` factored, by the rule that
    decided its rank: certified when a Cholesky certificate decided it
    (``spectrum`` None), and judged on the deciding ``spectrum`` otherwise."""
    if spectrum is None:
        return _certified_condition(name, matrix)
    return _psd_condition_eig(name, spectrum)


def _psd_condition_eig(name: str, w: np.ndarray) -> Condition:
    """The PSD condition on a matrix with ascending eigenvalues ``w``, as
    ``eigh`` returns them, decided by :func:`~matmom.linalg.psd_ends_ok`;
    the minimum and the scale max(1, max |w|) are read off the ends of
    ``w``.  An empty matrix passes."""
    if w.size == 0:
        return Condition(name, True, "psd", np.inf, PSD_TOL, 0.0)
    lo, hi = float(w[0]), float(w[-1])
    return Condition(name, psd_ends_ok(lo, hi), "psd", lo / max(1.0, -lo, hi), PSD_TOL, lo)


def _residual_condition(name: str, residual: float, rhs: np.ndarray,
                        tol: float) -> Condition:
    """The residual relative to ||rhs||_F, which a zero residual does not need."""
    if residual == 0.0:
        rel = 0.0
    else:
        scale = _frobenius(rhs)
        rel = residual / scale if scale > 0.0 else np.inf
    return Condition(name, rel <= tol, "residual", rel, tol, residual)


def _frobenius(a: np.ndarray) -> float:
    """Frobenius norm of ``a``.  The squares of entries beyond 1e154
    overflow, so an infinite norm is taken again on ``a`` scaled by the
    power of two that brings its largest entry into [1/2, 1), which is exact."""
    norm = float(np.linalg.norm(a))
    if norm == math.inf:
        exponent = math.frexp(float(np.abs(a).max()))[1]
        norm = math.ldexp(float(np.linalg.norm(a * math.ldexp(1.0, -exponent))), exponent)
    return norm


def _coordinates(vectors: np.ndarray, spectrum: np.ndarray | None,
                 rhs: np.ndarray) -> tuple[float, np.ndarray]:
    """Residual and coordinates Z of the minimal-norm solution C = conj(Z)
    of X^T C = ``rhs``, X the ``vectors`` that
    :func:`~matmom.operator_model._gram_vectors` gives for a Gram matrix G =
    X^T conj(X), with the ``spectrum`` that decided their number, so that
    Z^T conj(Z) = rhs^H pinv(G) rhs.  A square X, a Cholesky factor, takes
    one ``solve`` and residual 0, and reads no spectrum.  Otherwise X^T = V
    diag(sqrt(w)) on the kept eigenpairs, and the residual is ||rhs - V V^H
    rhs||_F; V^H rhs is formed before dividing by sqrt(w), since conj(X) rhs
    may overflow.  No eigenvalue is divided by, so G may be of subnormal
    scale.  An empty system has residual 0 and an empty Z."""
    if vectors.shape[0] == vectors.shape[1]:
        return 0.0, np.linalg.solve(vectors.T, rhs).conj()
    root = np.sqrt(spectrum[rank_keep(spectrum)])
    v = vectors.T / root
    coeff = v.conj().T @ rhs
    return _frobenius(rhs - v @ coeff), (coeff / root[:, None]).conj()


def _kernel_condition(space: GramSpace) -> Condition:
    passed, residual = kernel_inclusion(space)
    rel = residual / space.norm if residual else 0.0
    return Condition("kernel inclusion", passed, "residual", rel,
                     float(np.sqrt(RANK_TOL)), residual)


@_per_sequence
def check_odd(seq: MomentSequence) -> SolvabilityReport:
    """Solvability for an odd number of prescribed moments (l = 2d, d >= 1):
    Gamma_d and Gamma-tilde_d PSD, with kernel inclusion as the diagnostic.

    The report carries the Gram space of the moment matrix, its rank
    decided, for :func:`build_operators`, which decides nothing about it
    again.  A repeated call on the same sequence object returns the stored
    report; :func:`solve_odd` relies on this.
    """
    if seq.l % 2 != 0 or seq.l < 2:
        raise ValidationError(
            f"odd-case check requires l = 2d with d >= 1, got l={seq.l}"
        )
    d = seq.l // 2
    # one rule gives Gamma's PSD verdict and the route to the Gram vectors
    # that the solve builds on: a Cholesky factor when a
    # certificate or the spectrum keeps every eigenvalue, eigen-scaled
    # eigenvectors from eigh otherwise
    space = gram_space_from_eig(seq, build_gamma(seq, d))
    conditions = (
        _gamma_condition("Gamma PSD", space.gram, space.decided_spectrum),
        *_psd_conditions(("GammaTilde PSD",), build_gamma_tilde(seq, d)[None]),
    )
    return _report("odd", conditions, diagnostics=(_kernel_condition(space),), space=space)


@_per_sequence
def check_even(seq: MomentSequence) -> SolvabilityReport:
    """Solvability for an even number of prescribed moments (l = 2d+1, d >= 0):
    H_d and H-tilde_d PSD.

    When the pair passes, the report carries the admissible interval
    [S_min, S_max] for the next moment, with the consistency of the two
    block systems behind its ends and its nonemptiness as diagnostics, next
    to Gamma-tilde's PSD.  At d = 0 the second system is empty and passes.
    Gamma_d has no condition of its own, since H + H-tilde = (b - a) Gamma_d
    holds exactly.  Gamma-tilde's blocks, the Y system's right side and the
    -ab S_2d + (a+b) S_2d+1 part of S_max are slices of one
    :func:`_interval_blocks` array.  Both block systems are solved by one
    rule, :func:`_coordinates` on the Gram vectors of their matrix, each
    factored once by :func:`~matmom.operator_model._gram_vectors`: the X
    system on the moment matrix, factored as :func:`check_odd` factors it
    (the report carries its space, for :func:`solve_even` to extend by one
    block), and the Y system on Gamma-tilde, whose PSD diagnostic reads
    that factorization as "Gamma PSD" does in :func:`check_odd`.  Both ends
    are then quadratic forms Z^T conj(Z) of coordinates, and neither
    divides by an eigenvalue.  Overflow is scanned once in those blocks,
    once in the H pair and once in the width, which is non-finite wherever
    S_min, the Y quadratic form or S_max is; only a failed scan names the
    first matrix that overflowed.  A repeated call on the same sequence
    object returns the stored report; :func:`solve_even` relies on this.
    """
    if seq.l % 2 != 1:
        raise ValidationError(f"even-case check requires l = 2d+1, got l={seq.l}")
    d = (seq.l - 1) // 2
    s, n = seq._stack, seq.N

    # both are built from the validated moments, so they are exactly
    # Hermitian and not scanned; for d = 0 Gamma-tilde is 0 x 0 and passes
    space = gram_space_from_eig(seq, build_gamma(seq, d))
    blocks = _interval_blocks(seq, seq.l)
    blocks_finite = np.isfinite(blocks).all()
    gtilde = _hankel(blocks, d)
    if not blocks_finite:
        _finite_blocks(gtilde, "GammaTilde")
    conditions = _psd_conditions(("H PSD", "HTilde PSD"), _h_pair(seq, d))
    y_vectors, y_spectrum = _gram_vectors(gtilde)
    diagnostics = [_gamma_condition("GammaTilde PSD", gtilde, y_spectrum)]
    even_case = None
    if all(c.passed for c in conditions):
        # the quadratic forms and the interval ends combine finite moments
        # with overflow warnings off; one that overflows is reported by name
        with np.errstate(over="ignore", invalid="ignore"):
            rhs_x = s[d + 1:].reshape(-1, n)
            rhs_y = blocks[d:2 * d].reshape(-1, n)
            res_x, coords = _coordinates(space.vectors, space.decided_spectrum, rhs_x)
            s_min = herm_part(coords.T @ coords.conj())
            res_y, y_coords = _coordinates(y_vectors, y_spectrum, rhs_y)
            y_quad = herm_part(y_coords.T @ y_coords.conj())
            s_max = herm_part(blocks[2 * d] - y_quad)
            # both ends are Hermitian parts, so their difference is exactly
            # Hermitian, and non-finite wherever either end is
            width = s_max - s_min
            if not (blocks_finite and np.isfinite(width).all()):
                for name, part in (("S_min", s_min), ("Y right side", rhs_y),
                                   ("Y quadratic form", y_quad), ("S_max", s_max),
                                   ("S_max - S_min", width)):
                    _finite_blocks(part, name)
            diagnostics += [
                _residual_condition("X system consistent", res_x, rhs_x, CONSISTENCY_TOL),
                _residual_condition("Y system consistent", res_y, rhs_y, CONSISTENCY_TOL),
            ]
        width = EigDecomposition(*np.linalg.eigh(width))
        even_case = EvenCaseData(S_min=s_min, S_max=s_max, width=width,
                                 next_coords=coords)
        # the interval may collapse to a point, so normalize its PSD test by
        # the endpoint scale rather than by the (possibly zero) width: the
        # larger spectral norm of the two Hermitian ends, from one eigvalsh
        ends = np.linalg.eigvalsh(np.array((s_min, s_max)))
        scale = max(1.0, float(np.abs(ends).max()))
        w_min = float(width.eigenvalues[0])
        rel_min = w_min / scale
        diagnostics.append(Condition("S interval nonempty", rel_min >= -PSD_TOL,
                                     "psd", rel_min, PSD_TOL, w_min))
    return _report("even", conditions, diagnostics=tuple(diagnostics),
                   even_case=even_case, space=space)


def check_l0(s0) -> SolvabilityReport:
    """Solvability with only S_0 prescribed: S_0 PSD."""
    return _report("l0", _psd_conditions(("S0 PSD",), require_hermitian(s0, name="S_0")[None]))


def check(seq: MomentSequence) -> SolvabilityReport:
    """Dispatch on the number of prescribed moments."""
    l = seq.l
    if l == 0:
        return check_l0(seq.moments[0])
    return check_odd(seq) if l % 2 == 0 else check_even(seq)


def check_cdfk(seq: MomentSequence) -> bool:
    """The block Hankel pair's verdict, ``check(seq).solvable``, for l >= 1."""
    if seq.l < 1:
        raise ValidationError("the pair criterion requires at least two moments (l >= 1)")
    return check(seq).solvable
