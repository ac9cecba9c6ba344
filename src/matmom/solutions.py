"""Solution measures of truncated matrix moment problems.

The odd-case pipeline runs Gram space -> shift contraction -> extension
interval -> canonical extension, then reads a discrete matrix measure off
the extension's spectral decomposition: eigenvalue lambda maps to the atom
position (b-a)/2 * lambda + (a+b)/2 and the weight entries are the inner
products of the eigenprojection applied to the first N Gram vectors.  The
even case picks the next moment inside its admissible interval and defers to
the odd case, on the Gram space of its check extended by one block; l = 0
returns a one-atom representative.  A slower, fully
independent recovery through Stieltjes-Perron inversion of the generalized
resolvent is provided as a numerical cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalInconsistency, Unsolvable, ValidationError
from .extensions import (
    ExtensionInterval,
    _resolvent_forms,
    as_unit_interval_param,
    canonical_extension,
    extremal_extensions,
)
from .linalg import cluster_starts, herm_part, require_hermitian
from .moments import (
    DiscreteMatrixMeasure,
    MomentSequence,
    _canonical,
    _moment_stack,
    _per_sequence,
    measure_from_atoms,
)
from .operator_model import GramSpace, _extended_space, build_operators
from .solvability import SolvabilityReport, check_even, check_l0, check_odd

# Eigenvalues closer than CLUSTER_TOL are merged into one atom; positions
# within CLAMP_REL * (b - a) outside the interval (rounding of eigenvalues at
# +-1) are clamped to the endpoint; solved measures are re-verified at
# SOLVE_VERIFY_TOL before being returned.  The Stieltjes-Perron cross-check
# integrates over [-1 - STIELTJES_PAD, 1 + STIELTJES_PAD] and keeps the cells
# whose density trace exceeds STIELTJES_FLOOR times the largest one.
CLUSTER_TOL = 1e-9
CLAMP_REL = 1e-9
SOLVE_VERIFY_TOL = 1e-8
STIELTJES_PAD = 0.1
STIELTJES_FLOOR = 1e-3


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Clustered spectrum of an extension with matrix projection weights.

    ``eigenvalues`` ascend and lie in [-1, 1] up to rounding; ``weights[i]``
    is the N x N matrix of eigenprojection inner products between the first
    N Gram vectors, so the weights sum to the zeroth moment.
    """

    eigenvalues: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of re-computing moments from a measure.

    ``moment_residuals[n]`` is the largest entrywise deviation of the
    measure's n-th moment from S_n of ``sequence``, the sequence the measure
    was verified against; a report may cover only its first moments.
    """

    tol: float
    moment_residuals: np.ndarray
    sequence: MomentSequence
    support_ok: bool

    @property
    def moment_scales(self) -> np.ndarray:
        """max(1, ||S_n||_2) for the moments the residuals cover, read-only:
        the scales ``sequence`` caches, formed by its first reader."""
        return self.sequence.moment_scales[: self.moment_residuals.size]

    @property
    def passed(self) -> bool:
        """The verdict at the tolerance the report was made with."""
        return self.passed_at(self.tol)

    def passed_at(self, tol: float) -> bool:
        """The verdict of :func:`verify` at tolerance ``tol``: every moment
        within ``tol`` times its scale and support inside [a, b].

        Every scale is at least 1, so at a ``tol`` of at least 0 residuals
        that are all at most ``tol`` pass without the scales; otherwise, and
        for a negative or NaN ``tol``, the scales decide.
        """
        return bool(self.support_ok
                    and (self.moment_residuals.max(initial=0.0) <= tol
                         or np.all(self.moment_residuals <= tol * self.moment_scales)))

    @property
    def max_relative_residual(self) -> float:
        return float((self.moment_residuals / self.moment_scales).max(initial=0.0))


def spectral_data(extension: np.ndarray, first_vectors: np.ndarray) -> SpectralData:
    """Cluster the spectrum of an extension and form matrix atom weights.

    ``first_vectors`` are x_0..x_{N-1} in the extension's coordinates,
    ``interval.model.first_vectors`` for an extension of ``interval``.  The
    extension may come from outside the chain, so it is validated as
    Hermitian and symmetrized first.
    """
    return _spectral_data(require_hermitian(extension), first_vectors)


def _spectral_data(extension: np.ndarray, first_vectors: np.ndarray) -> SpectralData:
    """:func:`spectral_data` of an exactly Hermitian extension, factored
    without a scan: :func:`canonical_extension` returns a Hermitian part.

    ``eigh`` returns the eigenvalues ascending, so they are clustered in one
    pass; the cluster means and summed weights are formed only where a
    cluster holds more than one eigenvalue, since for singletons both are the
    eigenvalue and its weight as they are.
    """
    w, v = np.linalg.eigh(extension)
    n_vec = first_vectors.shape[1]
    if w.size == 0:
        return SpectralData(np.zeros(0), np.zeros((0, n_vec, n_vec), dtype=complex))
    # With y = V* X, the weight of a cluster c is sum_{i in c} y_i y_i*: entry
    # (j, n) is <proj x_j, x_n> = x_n^H proj x_j for the cluster projector.
    y = v.conj().T @ first_vectors
    weights = y[:, :, None] * y.conj()[:, None, :]
    starts = cluster_starts(w, CLUSTER_TOL)
    if starts.size < w.size:
        counts = np.diff(np.append(starts, w.size))
        weights = np.add.reduceat(weights, starts, axis=0)
        w = np.add.reduceat(w, starts) / counts
    weights = 0.5 * (weights + weights.conj().transpose(0, 2, 1))
    return SpectralData(w, weights)


def _measure_from_spectrum(sd: SpectralData, a: float, b: float) -> DiscreteMatrixMeasure:
    """The measure of a clustered spectrum on [a, b].

    Eigenvalue lambda maps to the position (b-a)/2 * lambda + (a+b)/2.  The
    eigenvalues ascend and the map is monotone, so the positions ascend too,
    and only the first and last can stray outside [a, b]: a stray beyond
    ``CLAMP_REL * (b - a)`` raises ``NumericalInconsistency``, a smaller one
    is clamped to the endpoint.  The atoms are then canonicalized.
    """
    positions = 0.5 * (b - a) * sd.eigenvalues + 0.5 * (a + b)
    if positions.size == 0:
        return measure_from_atoms(a, b, positions, sd.weights, N=sd.weights.shape[-1])
    band = CLAMP_REL * (b - a)
    if a - positions[0] > band or positions[-1] - b > band:
        raise NumericalInconsistency("spectral atom positions stray outside [a, b]")
    if positions[0] < a or positions[-1] > b:
        positions = np.clip(positions, a, b)
    # Each weight is a sum of y y* over one cluster, made exactly Hermitian,
    # hence PSD; clamping keeps the positions in [a, b].  Clusters clamped to
    # the same endpoint still merge into one atom.
    return DiscreteMatrixMeasure._trusted(a, b, *_canonical(a, b, positions, sd.weights))


def solve_odd(seq: MomentSequence, k=0.5) -> DiscreteMatrixMeasure:
    """Solve the odd case (l = 2d) with a constant extension parameter.

    Parameters
    ----------
    seq : MomentSequence
        Moments S_0..S_2d on [a, b]; must pass the odd-case solvability check.
    k : scalar in [0, 1] or Hermitian matrix on the defect space
        Selects the canonical extension; 0 and 1 give the extreme solutions.
        Ignored when the problem is determinate.

    Returns a canonical discrete matrix measure whose moments reproduce the
    input sequence within ``SOLVE_VERIFY_TOL``, checked by :func:`verify`
    on every call.  Only the check's verdict raises ``Unsolvable``; its
    kernel-inclusion diagnostic is not asked again.  After a passed
    verdict, a block column [P; Q] that is no contraction, or a measure
    that fails verification, raises ``NumericalInconsistency``.  A
    :func:`check_odd` just run on the same ``seq`` object is reused, and
    solving that object again, at any ``k``, reuses its check, Gram space,
    operators and extreme extensions; ``k`` is validated and the result
    verified on every call.
    """
    return _solve(seq, k)[0]


def solve_even(seq: MomentSequence, t=0.5, k=0.5) -> DiscreteMatrixMeasure:
    """Solve the even case (l = 2d+1) by choosing the next moment.

    ``t`` (scalar in [0, 1] or Hermitian N x N matrix with 0 <= T <= I)
    selects S_{2d+2} = S_min + D^(1/2) T D^(1/2) inside the admissible
    interval, D its width; the extended problem is then solved as an odd
    case with parameter ``k``.  To supply a raw next moment instead, append
    it with ``seq.extended(s_next)`` and call :func:`solve_odd`, which
    validates admissibility through the odd-case solvability check.  A
    :func:`check_even` just run on the same ``seq`` object is reused.
    """
    return _solve(seq, k, t)[0]


def _solve(seq: MomentSequence, k,
           t=None) -> tuple[DiscreteMatrixMeasure, VerificationReport]:
    """:func:`solve_odd`, or with ``t`` given :func:`solve_even`.

    Also returns the report of the internal verification restricted to
    S_0..S_l of ``seq``, so a caller can judge it at its own tolerance
    without verifying again.
    """
    if t is None:
        odd, interval = seq, _odd_interval(seq)
    else:
        odd, space = _with_next_moment(seq, _require_solvable(check_even(seq)), t)
        interval = _extension_interval(space)
    # everything above depends on the moments only; K enters here
    extension = canonical_extension(interval, k)
    sd = _spectral_data(extension, interval.model.first_vectors)
    measure = _measure_from_spectrum(sd, seq.a, seq.b)
    outcome = verify(measure, odd, tol=SOLVE_VERIFY_TOL)
    if not outcome.passed:
        raise NumericalInconsistency(
            f"solved measure fails verification at tol {SOLVE_VERIFY_TOL:.1e} "
            f"(max relative residual {outcome.max_relative_residual:.3e})"
        )
    if t is None:
        # the verified problem is seq itself
        return measure, outcome
    # the moments of S_0..S_l do not depend on how many are computed, and
    # their scales are the first l + 1 of the extended sequence's
    n = seq.l + 1
    return measure, VerificationReport(outcome.tol, outcome.moment_residuals[:n],
                                       odd, outcome.support_ok)


@_per_sequence
def _odd_interval(seq: MomentSequence) -> ExtensionInterval:
    """The extension interval of an odd problem.

    It depends on the moments only, so the last one built is kept for its
    sequence object: solving that object at many parameters K checks,
    factors and extends it once.  An unsolvable or inconsistent problem
    raises and stores nothing.
    """
    # an odd problem reuses the Gram space its check decided the rank of
    return _extension_interval(_require_solvable(check_odd(seq)).space)


def _require_solvable(report: SolvabilityReport) -> SolvabilityReport:
    if not report.solvable:
        raise Unsolvable(
            "moment problem is unsolvable; failed: "
            + ", ".join(report.failed_conditions)
        )
    return report


def _extension_interval(space: GramSpace) -> ExtensionInterval:
    """Operators and extreme extensions on the Gram space ``space`` of an
    odd problem, which a passed solvability check decided."""
    return extremal_extensions(build_operators(space))


def _with_next_moment(seq: MomentSequence, report: SolvabilityReport,
                      t) -> tuple[MomentSequence, GramSpace]:
    """The even-case problem extended by S_{2d+2} = S_min + M, M =
    herm(D^(1/2) T D^(1/2)) for ``t`` in the passed ``report``'s interval of
    width D, and its Gram space: the report's, extended by one block, so
    that nothing about the extended moment matrix is decided again."""
    data = report.even_case
    t_mat = as_unit_interval_param(t, seq.N, name="moment-interval parameter")
    corner = herm_part(data.width_half @ t_mat @ data.width_half)
    # finite by the interval's checks, so appended without a scan, as
    # ``truncated`` slices without one; the sum of two Hermitian parts is
    # exactly Hermitian, which ``_trusted`` keeps
    odd = MomentSequence._trusted(seq.a, seq.b,
                                  np.concatenate((seq._stack, (data.S_min + corner)[None])))
    return odd, _extended_space(report.space, data.next_coords, corner)


def solve_l0(s0, a: float, b: float) -> DiscreteMatrixMeasure:
    """One-atom representative for the l = 0 problem.

    Any non-decreasing matrix function with total mass S_0 solves the
    problem; the canonical atomic representative puts all of S_0 at the
    midpoint of [a, b].
    """
    _require_solvable(check_l0(s0))
    s0 = np.asarray(s0, dtype=complex)
    return measure_from_atoms(a, b, [0.5 * (a + b)], [s0], N=s0.shape[0])


def verify(measure: DiscreteMatrixMeasure, seq: MomentSequence,
           tol: float = SOLVE_VERIFY_TOL) -> VerificationReport:
    """Re-compute the measure's moments and compare with the prescription.

    Passes iff every moment matches entrywise within ``tol * max(1, |S_n|)``
    and the support lies inside [a, b]; the weights of every measure are PSD
    by construction.  The report keeps ``seq``, so the scales max(1, |S_n|)
    are formed only when something reads them, and a verdict whose residuals
    are all within ``tol`` needs none.
    """
    if measure.N != seq.N:
        raise ValidationError(
            f"block size mismatch: measure has N={measure.N}, sequence N={seq.N}"
        )
    residuals = np.abs(_moment_stack(measure, seq.l) - seq._stack).max(axis=(1, 2))
    return VerificationReport(
        tol=tol,
        moment_residuals=residuals,
        sequence=seq,
        support_ok=_supported(measure, seq),
    )


def _supported(measure: DiscreteMatrixMeasure, seq: MomentSequence) -> bool:
    """Whether the support lies inside [a, b]: a measure's positions strictly
    increase, so its first and last position decide."""
    if measure.num_atoms == 0:
        return True
    return bool(measure.positions[0] >= seq.a and measure.positions[-1] <= seq.b)


def _resolvent_density(interval: ExtensionInterval, kk: np.ndarray,
                       ts: np.ndarray, eps: float) -> np.ndarray:
    """Matrix spectral density (1/pi Im of the resolvent inner products).

    Evaluates the generalized resolvent's forms between the first N Gram
    vectors at every t + i*eps of ``ts`` in one batch and forms their
    Hermitian density.
    """
    raw = _resolvent_forms(interval, kk, ts + 1j * eps, interval.model.first_vectors)
    # entry (j, n) of the density comes from <R x_j, x_n> = raw[n, j]
    g_mat = np.transpose(raw, (0, 2, 1))
    return (g_mat - g_mat.conj().transpose(0, 2, 1)) / (2j * np.pi)


def stieltjes_perron_recover(interval: ExtensionInterval, k=0.5, *,
                             eps: float = 1e-4,
                             step: float = 1e-4) -> DiscreteMatrixMeasure:
    """Approximate the spectral measure by Stieltjes-Perron inversion.

    Integrates the matrix density (G(t) - G(t)*)/(2 pi i), where G(t) holds
    the generalized-resolvent inner products between the first N Gram
    vectors at t + i*eps, over a uniform grid on [-1 - STIELTJES_PAD,
    1 + STIELTJES_PAD], then groups the cells above ``STIELTJES_FLOOR``
    times the largest density into clusters separated at density minima.
    Each cell is integrated by two midpoint subsamples: a uniform comb at
    spacing step/2 keeps the aliasing error of the width-``eps`` Poisson
    kernel negligible even when ``step`` equals ``eps``.  The result approximates
    the solution in the reference coordinates on [-1, 1]; atom locations
    and total mass converge as ``eps`` and ``step`` shrink together.  A
    middle factor of the resolvent formula whose condition number exceeds
    ``extensions.COND_LIMIT`` at any grid point raises
    ``NumericalInconsistency``, as in
    :func:`~matmom.extensions.generalized_resolvent`.
    """
    if not (0 < eps < np.inf and 0 < step < np.inf):
        raise ValidationError("eps and step must be positive and finite")
    n = interval.model.space.N
    kk = as_unit_interval_param(k, interval.def_dim, name="extension parameter")
    empty = measure_from_atoms(-1.0, 1.0, [], np.zeros((0, n, n)), N=n)
    if interval.mu_eig.eigenvalues.size == 0:
        return empty

    lo, hi = -1.0 - STIELTJES_PAD, 1.0 + STIELTJES_PAD
    n_cells = max(int(np.ceil((hi - lo) / step)), 1)
    mids = lo + step * (np.arange(n_cells) + 0.5)
    density = _resolvent_density(
        interval, kk, np.concatenate((mids - 0.25 * step, mids + 0.25 * step)), eps)
    cell = (density[:n_cells] + density[n_cells:]) * (0.5 * step)

    trace = np.einsum("tii->t", cell).real
    if trace.max(initial=0.0) <= 0.0:
        return empty

    # cores above the relative floor, split between cores at the density minimum
    above = trace > STIELTJES_FLOOR * trace.max()
    # the runs of ``above`` are [starts[i], ends[i])
    edges = np.flatnonzero(np.diff(above, prepend=False, append=False))
    starts, ends = edges[0::2], edges[1::2]
    cuts = [0]
    for e0, s1 in zip(ends[:-1], starts[1:]):
        cuts.append(e0 + int(np.argmin(trace[e0:s1])))
    cuts.append(above.size)

    positions = []
    weights = []
    for s0, s1 in zip(cuts[:-1], cuts[1:]):
        seg_trace = trace[s0:s1]
        mass = seg_trace.sum()
        if mass <= 0.0:
            continue
        positions.append(float((mids[s0:s1] * seg_trace).sum() / mass))
        weights.append(herm_part(cell[s0:s1].sum(axis=0)))
    if not positions:
        return empty
    positions = np.clip(np.array(positions), -1.0, 1.0)
    return measure_from_atoms(-1.0, 1.0, positions, np.stack(weights), N=n)
