"""Moment sequences, block Hankel builders, and discrete matrix measures.

A moment sequence holds Hermitian N x N matrices S_0..S_l together with the
interval [a, b].  The block Hankel builders return, as plain complex arrays,
the structured matrices whose positivity governs solvability, each gathered
from the moment stack in one indexing step; a discrete matrix measure is a
finite list of atoms (x_i, W_i) with PSD matrix weights, the package's
concrete representation of a solution.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property, wraps

import numpy as np

from .errors import ValidationError
from .linalg import (
    _HALF_MAX,
    HERM_TOL,
    check_psd_stack,
    cluster_starts,
    require_hermitian,
    require_hermitian_stack,
)

# Runs of atoms with consecutive gaps of at most ATOM_MERGE_REL * (b - a) are
# merged; weights whose norm is not above WEIGHT_PRUNE_REL times the
# total-mass norm are dropped.
ATOM_MERGE_REL = 1e-12
WEIGHT_PRUNE_REL = 1e-12


def _check_interval(a: float, b: float) -> tuple[float, float]:
    a = float(a)
    b = float(b)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValidationError("interval endpoints must be finite")
    if not a < b:
        raise ValidationError(f"interval requires a < b, got a={a}, b={b}")
    return a, b


@dataclass(frozen=True, eq=False)
class MomentSequence:
    """Prescribed moments S_0..S_l on the interval [a, b]."""

    a: float
    b: float
    moments: tuple[np.ndarray, ...]
    # S_0..S_l as one read-only (l+1, N, N) array; ``moments`` are its views
    _stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a, b = _check_interval(self.a, self.b)
        if len(self.moments) == 0:
            raise ValidationError("moment sequence must contain at least S_0")
        arrs = [np.asarray(s, dtype=complex) for s in self.moments]
        if arrs[0].shape == (0, 0):
            raise ValidationError("block size N must be positive")
        n = arrs[0].shape[-1] if arrs[0].ndim else 0
        # The moments before the first one that is not n x n are checked in
        # one pass; that one then fails as it would on its own.
        good = next((i for i, arr in enumerate(arrs) if arr.shape != (n, n)), len(arrs))
        stack = require_hermitian_stack(np.array(arrs[:good]).reshape(good, n, n),
                                        HERM_TOL, name="S_{}")
        if good < len(arrs):
            _require_moment(arrs[good], good, n)
        self._freeze(a, b, stack)

    @classmethod
    def _trusted(cls, a: float, b: float, stack: np.ndarray) -> "MomentSequence":
        """The sequence of the (l+1, N, N) ``stack`` on the checked interval
        [a, b], for internal producers whose moments are finite and Hermitian
        by construction.  The stack is symmetrized as the validating
        constructor does, so the result is bitwise the one it would build,
        but not scanned."""
        # scaled in place: with one more temporary per sequence, building
        # many sequences that are kept alive fragmented the heap and raised
        # peak memory measurably
        sym = stack + stack.conj().transpose(0, 2, 1)
        sym *= 0.5
        seq = object.__new__(cls)
        seq._freeze(a, b, sym)
        return seq

    def _freeze(self, a: float, b: float, stack: np.ndarray) -> None:
        stack.setflags(write=False)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "moments", tuple(stack))

    @property
    def N(self) -> int:
        return self.moments[0].shape[0]

    @property
    def l(self) -> int:
        return len(self.moments) - 1

    @cached_property
    def moment_scales(self) -> np.ndarray:
        """max(1, ||S_n||_2) for n = 0..l, the scales :func:`verify` judges
        the moment residuals against; read-only.  The moments are Hermitian,
        so ||S_n||_2 is the largest |eigenvalue|, from one batched
        ``eigvalsh``."""
        w = np.linalg.eigvalsh(self._stack)
        scales = np.maximum(1.0, np.abs(w).max(axis=-1))
        scales.setflags(write=False)
        return scales

    def truncated(self, l: int) -> "MomentSequence":
        """The sub-sequence S_0..S_l on the same interval."""
        if not 0 <= l <= self.l:
            raise ValidationError(f"cannot truncate to l={l}, have l={self.l}")
        return MomentSequence._trusted(self.a, self.b, self._stack[: l + 1])

    def extended(self, s_next) -> "MomentSequence":
        """Append one more moment matrix; only ``s_next`` is validated."""
        s = _require_moment(np.asarray(s_next, dtype=complex), self.l + 1, self.N)
        return MomentSequence._trusted(self.a, self.b,
                                       np.concatenate((self._stack, s[None])))


def _require_moment(arr: np.ndarray, i: int, n: int) -> np.ndarray:
    """``arr`` as the moment S_i of a sequence of block size n, symmetrized:
    it fails if not square, not finite, not Hermitian, or else of the wrong
    dimension."""
    s = require_hermitian(arr, HERM_TOL, name=f"S_{i}")
    if s.shape != (n, n):
        raise ValidationError(f"S_{i} has dimension {s.shape[0]}, expected {n}")
    return s


def _per_sequence(fn):
    """Remember ``fn(seq)`` for the last sequence object it was called on.

    A MomentSequence is immutable and ``fn`` reads nothing else, so the same
    object has the same result: a call on it returns the stored one.  A call
    on any other object empties the slot, the local reference too, before
    computing, so two results never coexist; an exception propagates and
    stores nothing.  The slot, attribute ``slot`` of the returned function,
    holds ``(weak reference to seq, result)`` and is emptied when its
    sequence is collected.  Threads share it: it is read once per call and
    replaced whole, so a race costs a recomputation, never a wrong result.
    """

    def forget(ref: weakref.ref) -> None:
        held = remembered.slot
        if held is not None and held[0] is ref:
            remembered.slot = None

    @wraps(fn)
    def remembered(seq):
        held = remembered.slot
        if held is not None and held[0]() is seq:
            return held[1]
        held = remembered.slot = None
        result = fn(seq)
        remembered.slot = (weakref.ref(seq, forget), result)
        return result

    remembered.slot = None
    return remembered


def _hankel(blocks: np.ndarray, k: int) -> np.ndarray:
    """The k x k block Hankel matrix with (i, j) block ``blocks[..., i + j, :, :]``,
    one per index of the leading axes, all in one gather."""
    n = blocks.shape[-1]
    idx = np.arange(k)
    gathered = blocks[..., np.add.outer(idx, idx), :, :].swapaxes(-3, -2)
    return gathered.reshape(*blocks.shape[:-3], k * n, k * n)


def build_gamma(seq: MomentSequence, k: int) -> np.ndarray:
    """Block Hankel matrix with (i, j) block S_{i+j}, 0 <= i, j <= k."""
    if k < 0 or 2 * k > seq.l:
        raise ValidationError(f"insufficient moments for order k={k} (l={seq.l})")
    return _hankel(seq._stack, k + 1)


def _finite_blocks(blocks: np.ndarray, name: str) -> np.ndarray:
    """``blocks``, combinations of finite moments, if no entry overflowed.

    The callers form the combinations with overflow warnings off: an
    overflow is reported here, once, as a ``ValidationError``.
    """
    if not np.isfinite(blocks).all():
        raise ValidationError(
            f"{name} contains non-finite entries: a combination of the moments overflows")
    return blocks


def _interval_blocks(seq: MomentSequence, m: int) -> np.ndarray:
    """W_j = -ab S_j + (a+b) S_{j+1} - S_{j+2} for j < m-1, Gamma-tilde's
    blocks, and W_{m-1} = -ab S_{m-1} + (a+b) S_m, from S_0..S_m as one
    array.  Formed with overflow warnings off; the caller names an overflow."""
    a, b, s = seq.a, seq.b, seq._stack[: m + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = -a * b * s[:-1] + (a + b) * s[1:]
        blocks[:-1] -= s[2:]
    return blocks


def build_gamma_tilde(seq: MomentSequence, k: int) -> np.ndarray:
    """Interval-weighted block Hankel: blocks -ab S_{i+j} + (a+b) S_{i+j+1} - S_{i+j+2}.

    Indices run 0 <= i, j <= k-1, so k = 0 yields the empty 0x0 matrix.  The
    blocks, the first 2k-1 of :func:`_interval_blocks`, are real combinations
    of the moments, so the matrix is exactly Hermitian; a block that
    overflows is a ``ValidationError``.
    """
    if k < 0 or 2 * k > seq.l:
        raise ValidationError(f"insufficient moments for order k={k} (l={seq.l})")
    blocks = _interval_blocks(seq, 2 * k)
    return _hankel(_finite_blocks(blocks[: 2 * k - 1], "GammaTilde"), k)


def _h_pair(seq: MomentSequence, k: int) -> np.ndarray:
    """H and HTilde of order k stacked in one array, from one gather.  Their
    blocks are scanned for overflow once; only a failed scan looks for the
    first that overflowed, H before HTilde."""
    a, b, s = seq.a, seq.b, seq._stack[: 2 * k + 2]
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = np.array((-a * s[:-1] + s[1:], b * s[:-1] - s[1:]))
    if not np.isfinite(blocks).all():
        _finite_blocks(blocks[0], "H")
        _finite_blocks(blocks[1], "HTilde")
    return _hankel(blocks, k + 1)


def build_h_pair(seq: MomentSequence, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint-weighted pair: blocks -a S_{i+j} + S_{i+j+1} and b S_{i+j} - S_{i+j+1}.

    Both are exactly Hermitian, as in :func:`build_gamma_tilde`, and a block
    that overflows is a ``ValidationError`` naming H or HTilde, H first.
    """
    if k < 0 or 2 * k + 1 > seq.l:
        raise ValidationError(f"insufficient moments for order k={k} (l={seq.l})")
    return tuple(_h_pair(seq, k))


def build_gamma_hat(seq: MomentSequence, d: int) -> np.ndarray:
    """Shifted block Hankel with (i, j) block S_{i+j+2}, 0 <= i, j <= d-1."""
    if d < 1 or 2 * d > seq.l:
        raise ValidationError(f"insufficient moments for order d={d} (l={seq.l})")
    return _hankel(seq._stack[2:], d)


@dataclass(frozen=True, eq=False)
class DiscreteMatrixMeasure:
    """Finite atomic matrix measure: atoms (x_i, W_i) with x_i in [a, b].

    Positions are strictly increasing inside [a, b] and every weight is PSD
    within ``PSD_TOL``; the constructor rejects anything else.  Build one
    with :func:`measure_from_atoms`, which also canonicalizes (sorts, merges
    near-coincident atoms, prunes negligible weights) so that measure
    equality is testable.  Positions and weights are read-only.
    """

    a: float
    b: float
    N: int
    positions: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        a, b = _check_interval(self.a, self.b)
        _empty_weights(self.N)
        pos = np.asarray(self.positions, dtype=float)
        w = np.asarray(self.weights, dtype=complex)
        if pos.ndim != 1 or w.ndim != 3 or w.shape[0] != pos.shape[0]:
            raise ValidationError("atom arrays have inconsistent shapes")
        if w.shape[1] != self.N or w.shape[2] != self.N:
            raise ValidationError(f"weights must be {self.N}x{self.N}")
        if pos.size:
            if pos.min() < a or pos.max() > b:
                raise ValidationError("atom positions must lie inside [a, b]")
            if np.any(np.diff(pos) <= 0):
                raise ValidationError("atom positions must be strictly increasing")
        psd = check_psd_stack(w)
        if not psd.all():
            raise ValidationError(f"weight {np.argmin(psd)} is not PSD within tolerance")
        self._freeze(a, b, pos, w)

    @classmethod
    def _trusted(cls, a: float, b: float, positions: np.ndarray,
                 weights: np.ndarray) -> "DiscreteMatrixMeasure":
        """The measure of canonical atom arrays, as :func:`_canonical` returns
        them, on the checked interval [a, b], for internal producers whose
        positions lie in [a, b] and whose weights are PSD by construction:
        nothing is checked again."""
        measure = object.__new__(cls)
        object.__setattr__(measure, "N", weights.shape[-1])
        measure._freeze(a, b, positions, weights)
        return measure

    def _freeze(self, a: float, b: float, positions: np.ndarray,
                weights: np.ndarray) -> None:
        positions.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "weights", weights)

    @property
    def num_atoms(self) -> int:
        return int(self.positions.size)

    def total_mass(self) -> np.ndarray:
        """Sum of all weights; equals the zeroth moment."""
        return self.weights.sum(axis=0)

    def isclose(self, other: "DiscreteMatrixMeasure", pos_tol: float = 1e-9,
                weight_tol: float = 1e-9) -> bool:
        """Atom-wise comparison of two canonical measures."""
        if self.N != other.N or self.num_atoms != other.num_atoms:
            return False
        if self.num_atoms == 0:
            return True
        if np.abs(self.positions - other.positions).max() > pos_tol:
            return False
        return bool(np.abs(self.weights - other.weights).max() <= weight_tol)


def _empty_weights(n) -> np.ndarray:
    """The (0, n, n) weight stack of an empty measure of block size ``n``.

    This is the rule for a measure's block size: a positive integer for
    which that stack can be allocated (numpy refuses it once n*n*16 bytes
    exceed the largest array size, from n = 759,250,125 on 64-bit platforms).
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError(f"block size N must be a positive integer, got {n!r}")
    try:
        return np.zeros((0, n, n), dtype=complex)
    except (ValueError, OverflowError):
        raise ValidationError(f"block size N={n} is too large for a weight array") from None


def measure_from_atoms(a: float, b: float, positions, weights,
                       N: int | None = None) -> DiscreteMatrixMeasure:
    """Build a canonical measure from raw atom data.

    Rejects non-finite positions and weights, sorts by position, merges each
    run of atoms whose consecutive gaps are at most ``ATOM_MERGE_REL * (b -
    a)`` into one atom at the run's first position with the summed weight,
    and prunes atoms whose weight norm is not above ``WEIGHT_PRUNE_REL``
    times the norm of the total mass.  The result passes every check of the
    :class:`DiscreteMatrixMeasure` constructor.
    """
    a, b = _check_interval(a, b)
    pos = np.atleast_1d(np.asarray(positions, dtype=float))
    w = np.ascontiguousarray(weights, dtype=complex)
    if w.ndim == 2:
        w = w[None, :, :]
    if pos.size == 0:
        if N is None:
            raise ValidationError("empty measure needs an explicit block size N")
        return DiscreteMatrixMeasure(a, b, N, np.zeros(0), _empty_weights(N))
    if pos.ndim != 1 or w.ndim != 3 or w.shape[0] != pos.size:
        raise ValidationError("atom arrays have inconsistent shapes")
    N = w.shape[-1] if N is None else N
    # the block size and the weights' shape are checked before the weights
    # are reduced, which an empty weight matrix cannot be
    _empty_weights(N)
    if w.shape[1:] != (N, N):
        raise ValidationError(f"weights must be {N}x{N}")
    # a non-finite weight would turn the prune floor non-finite and drop every atom
    if not np.isfinite(pos).all():
        raise ValidationError(f"atom {np.argmin(np.isfinite(pos))} has a non-finite position")
    if not np.isfinite(w).all():
        bad = np.argmin(np.isfinite(w).all(axis=(1, 2)))
        raise ValidationError(f"atom {bad} has a non-finite weight")
    return DiscreteMatrixMeasure(a, b, N, *_canonical(a, b, pos, w))


def _canonical(a: float, b: float, pos: np.ndarray,
               w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical atoms of nonempty, finite, consistently shaped atom arrays,
    the weights C-contiguous: sorted, merged at ``ATOM_MERGE_REL`` and pruned
    at ``WEIGHT_PRUNE_REL`` as :func:`measure_from_atoms` describes; new
    arrays.  Positions that already increase by more than the merge gap, as
    a spectrum's do, are their own sort and merge, so neither is run."""
    gap = ATOM_MERGE_REL * (b - a)
    merged = w
    if not (pos[1:] - pos[:-1] > gap).all():
        order = np.argsort(pos, kind="stable")
        pos = pos[order]
        starts = cluster_starts(pos, gap)
        merged = np.add.reduceat(w[order], starts, axis=0)
        pos = pos[starts]
    # The prune norms square the entries, which overflow or underflow far
    # from scale 1; scaling by a power of two is exact, so the norms are
    # taken on the weights scaled to a largest entry in [1/2, 1).  They are
    # the Frobenius norms as np.linalg.norm forms them.
    exponent = math.frexp(float(np.abs(merged.view(float)).max()))[1]
    normed = merged * math.ldexp(1.0, -max(exponent, -1021))
    total = normed.sum(axis=0).ravel(order="K")
    total = np.sqrt(total.real.dot(total.real) + total.imag.dot(total.imag))
    norms = np.sqrt(np.add.reduce((normed.conj() * normed).real, axis=(1, 2)))
    keep = norms > WEIGHT_PRUNE_REL * total
    return pos[keep], merged[keep]


def _moment_stack(measure: DiscreteMatrixMeasure, l: int) -> np.ndarray:
    """S_0..S_l of ``measure`` as one (l+1, N, N) array, not symmetrized.

    The (atoms, l+1) powers of the positions, by repeated multiplication,
    times the weights as real (atoms, 2 N^2) rows, in one real matrix product.
    """
    n = measure.N
    m = measure.num_atoms
    if m == 0:
        return np.zeros((l + 1, n, n), dtype=complex)
    powers = np.vander(measure.positions, l + 1, increasing=True)
    w = np.ascontiguousarray(measure.weights).reshape(m, n * n).view(float)
    return (powers.T @ w).view(complex).reshape(l + 1, n, n)


def moments_of(measure: DiscreteMatrixMeasure, l: int) -> MomentSequence:
    """Power moments S_n = sum_i x_i^n W_i for n = 0..l (with 0^0 = 1)."""
    if l < 0:
        raise ValidationError("l must be non-negative")
    stack = _moment_stack(measure, l)
    if not np.abs(stack).max() <= _HALF_MAX:
        # high powers of positions far from 0 overflow, and so does the
        # symmetrization of a moment beyond half the largest double: the
        # validating constructor names the first moment that did
        return MomentSequence(measure.a, measure.b, tuple(stack))
    # the weights are PSD, hence Hermitian, so their moments are too
    return MomentSequence._trusted(measure.a, measure.b, stack)


def gen_random_measure(seed: int, N: int, num_atoms: int, a: float,
                       b: float) -> DiscreteMatrixMeasure:
    """Seeded random measure with full-rank PSD weights.

    Atom positions are uniform in (a, b) and sorted; each weight is G* G for
    a random complex N x N factor G, hence PSD of full rank almost surely.
    The result is a deterministic function of the seed.
    """
    for name, value, low in (("num_atoms", num_atoms, 1), ("N", N, 1), ("seed", seed, 0)):
        if not (isinstance(value, (int, np.integer)) and value >= low):
            kind = "a positive" if low else "a non-negative"
            raise ValidationError(f"{name} must be {kind} integer, got {value!r}")
    a, b = _check_interval(a, b)
    rng = np.random.default_rng(seed)
    pos = rng.uniform(a, b, size=num_atoms)
    g = rng.standard_normal((num_atoms, N, N)) + 1j * rng.standard_normal(
        (num_atoms, N, N)
    )
    w = np.einsum("iba,ibc->iac", g.conj(), g)
    # positions in [a, b) and weights G* G: valid by construction
    return DiscreteMatrixMeasure._trusted(a, b, *_canonical(a, b, pos, w))
