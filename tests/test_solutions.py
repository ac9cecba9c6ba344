import gc
import json
import re
import sys
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import matmom.linalg
import matmom.solutions
import matmom.solvability
from matmom import (
    DiscreteMatrixMeasure,
    MatmomError,
    MomentSequence,
    NumericalInconsistency,
    OperatorIllDefined,
    Unsolvable,
    ValidationError,
    build_gamma,
    build_gamma_hat,
    build_gram_space,
    build_operators,
    canonical_extension,
    check,
    check_even,
    check_odd,
    extremal_extensions,
    gen_random_measure,
    measure_from_atoms,
    moments_of,
    solve_even,
    solve_l0,
    solve_odd,
    stieltjes_perron_recover,
    verify,
)
from matmom.io import read_measure
from matmom.linalg import PSD_TOL, check_psd_stack
from matmom.solutions import (
    SOLVE_VERIFY_TOL,
    SpectralData,
    VerificationReport,
    _measure_from_spectrum,
    _solve,
    spectral_data,
)

from helpers import random_contraction, random_unitary


def scalar_seq(a, b, values):
    return MomentSequence(a, b, tuple(np.array([[v]], dtype=complex) for v in values))


def interval_for(seq):
    return extremal_extensions(build_operators(build_gram_space(seq)))


class TestSolveOdd:
    @pytest.mark.parametrize("k", [0.0, 0.5, 1.0])
    def test_symmetric_two_atoms(self, k):
        measure = solve_odd(scalar_seq(-1, 1, [1, 0, 1]), k)
        assert np.allclose(measure.positions, [-1.0, 1.0], atol=1e-9)
        assert np.allclose(measure.weights[:, 0, 0], [0.5, 0.5], atol=1e-9)

    def test_point_mass(self):
        measure = solve_odd(scalar_seq(-1, 1, [1, 1, 1]))
        assert measure.num_atoms == 1
        assert np.allclose(measure.positions, [1.0], atol=1e-9)
        assert np.allclose(measure.weights[0], [[1.0]], atol=1e-9)

    def test_lebesgue_multiplicity(self):
        seq = scalar_seq(0, 1, [1, 0.5, 1 / 3])
        m0 = solve_odd(seq, 0.0)
        m1 = solve_odd(seq, 1.0)
        assert verify(m0, seq, tol=1e-9).passed
        assert verify(m1, seq, tol=1e-9).passed
        assert not m0.isclose(m1, pos_tol=1e-6, weight_tol=1e-6)

    def test_determinate_ignores_parameter(self):
        seq = scalar_seq(-1, 1, [1, 0, 1])
        measures = [solve_odd(seq, k) for k in (0.0, 0.5, 1.0)]
        for m in measures[1:]:
            assert measures[0].isclose(m, pos_tol=1e-9, weight_tol=1e-9)

    def test_ill_defined_operator_after_check_is_numerical(self, monkeypatch):
        def ill_defined(space):
            raise OperatorIllDefined("shift operator is ill-defined: residual 1.000e-05")

        monkeypatch.setattr(matmom.solutions, "build_operators", ill_defined)
        with pytest.raises(NumericalInconsistency, match="residual 1.000e-05") as err:
            solve_odd(scalar_seq(-1, 1, [1, 0, 1]))
        assert isinstance(err.value.__cause__, OperatorIllDefined)

    @pytest.mark.parametrize("shift, name", [(2.0, "I - P"), (-2.0, "I + P")])
    def test_compression_off_the_unit_ball_is_numerical(self, monkeypatch, shift, name):
        # an I +- P failure on the solve path is a numerical inconsistency,
        # not bad input
        build = matmom.solutions.build_operators
        shifted = lambda space: replace(build(space), P=build(space).P + shift * np.eye(1))
        monkeypatch.setattr(matmom.solutions, "build_operators", shifted)
        with pytest.raises(NumericalInconsistency, match=re.escape(name)) as err:
            solve_odd(scalar_seq(0, 1, [1, 0.5, 1 / 3]))
        assert not isinstance(err.value, ValidationError)

    def test_unsolvable_raises(self):
        with pytest.raises(Unsolvable):
            solve_odd(scalar_seq(-1, 1, [1, 0, 3]))

    def test_invalid_parameter(self):
        with pytest.raises(ValidationError):
            solve_odd(scalar_seq(0, 1, [1, 0.5, 1 / 3]), 2.0)

    def test_zero_moments(self):
        measure = solve_odd(scalar_seq(-1, 1, [0, 0, 0]))
        assert measure.num_atoms == 0
        assert measure.N == 1 and measure.weights.shape == (0, 1, 1)

    @pytest.mark.parametrize("seed", range(25))
    def test_round_trip_random_measures(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        atoms = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        a, b = (0.0, 1.0) if seed % 2 else (-2.0, 3.0)
        mu = gen_random_measure(seed, n, atoms, a, b)
        seq = moments_of(mu, 2 * d)
        measure = solve_odd(seq, 0.5)
        assert verify(measure, seq, tol=1e-8).passed

    @pytest.mark.parametrize("scale", [1e160, 1e-200, 1e300, 1e-300])
    def test_solution_scales_with_the_moments(self, scale):
        # the measure of c S is c times the measure of S; its weights once
        # overflowed or underflowed the prune norms and every atom was dropped
        seq = moments_of(gen_random_measure(3, 2, 3, 0.0, 1.0), 4)
        want = solve_odd(seq)
        got = solve_odd(MomentSequence(seq.a, seq.b, tuple(scale * s for s in seq.moments)))
        assert got.num_atoms == want.num_atoms == 6
        assert np.abs(got.positions - want.positions).max() <= 1e-13
        assert np.abs(got.weights / scale - want.weights).max() <= 3e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_total_mass_is_zeroth_moment(self, seed):
        mu = gen_random_measure(100 + seed, 2, 3, -1.0, 2.0)
        seq = moments_of(mu, 4)
        measure = solve_odd(seq, 0.3)
        scale = max(1.0, np.linalg.norm(seq.moments[0], 2))
        assert np.abs(measure.total_mass() - seq.moments[0]).max() <= 1e-9 * scale


class TestValidByConstruction:
    """A solved measure is built from its spectral data without checking
    again what the construction guarantees: weights that are sums of y y*
    and positions clamped into [a, b]."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 5),
           st.integers(1, 3), st.sampled_from([(0.0, 1.0), (-2.0, 3.0), (-1.0, 1.0)]))
    def test_spectral_weights_are_psd(self, seed, n, atoms, d, interval):
        a, b = interval
        seq = moments_of(gen_random_measure(seed, n, atoms, a, b), 2 * d)
        ext = extremal_extensions(build_operators(check_odd(seq).space))
        rng = np.random.default_rng(seed)
        ks = [0.0, 0.5, 1.0]
        if ext.def_dim:
            ks.append(random_contraction(rng, ext.def_dim, (0.0, 1.0)))
        for k in ks:
            sd = spectral_data(canonical_extension(ext, k), ext.model.first_vectors)
            assert check_psd_stack(sd.weights).all()
            measure = _measure_from_spectrum(sd, a, b)
            assert check_psd_stack(measure.weights).all()
            assert np.all((measure.positions >= a) & (measure.positions <= b))
            assert np.all(np.diff(measure.positions) > 0)

    @pytest.mark.parametrize("seed, n, atoms, l, a, b", [
        (0, 1, 2, 2, 0.0, 1.0), (1, 2, 3, 4, -2.0, 3.0), (2, 3, 4, 6, -1.0, 1.0),
        (0, 4, 30, 16, -1.0, 2.0), (1, 8, 40, 20, -1.0, 1.0),
    ])
    def test_solved_measure_equals_the_validating_route(self, seed, n, atoms, l, a, b):
        seq = moments_of(gen_random_measure(seed, n, atoms, a, b), l)
        ext = matmom.solutions._odd_interval(seq)
        for k in (0.0, 0.5, 1.0):
            sd = spectral_data(canonical_extension(ext, k), ext.model.first_vectors)
            positions = np.clip(0.5 * (b - a) * sd.eigenvalues + 0.5 * (a + b), a, b)
            want = measure_from_atoms(a, b, positions, sd.weights, N=n)
            got = solve_odd(seq, k)
            assert got.positions.tobytes() == want.positions.tobytes()
            assert got.weights.tobytes() == want.weights.tobytes()
            assert not got.positions.flags.writeable and not got.weights.flags.writeable

    def test_clusters_clamped_to_one_endpoint_merge(self):
        # two clusters of eigenvalues just above 1 both clamp to b
        weights = np.stack([np.eye(2), 2 * np.eye(2), 3 * np.eye(2)]).astype(complex)
        sd = SpectralData(np.array([-0.5, 1 + 2e-10, 1 + 1.6e-9]), weights)
        measure = _measure_from_spectrum(sd, -1.0, 1.0)
        assert measure.positions.tolist() == [-0.5, 1.0]
        assert np.array_equal(measure.weights, [np.eye(2), 5 * np.eye(2)])

    @pytest.mark.parametrize("seed, n, atoms, l, a, b, t, k", [
        (3, 2, 3, 5, -2.0, 3.0, 0.5, 0.5), (4, 3, 6, 7, 0.0, 1.0, 0.3, 0.8),
    ])
    def test_solved_even_measure_equals_the_validating_route(self, seed, n, atoms, l,
                                                             a, b, t, k):
        # at the scalar parameters and at a matrix pair drawn from the seed,
        # the even solve on the extended check factor gives the measure that
        # solve_odd gives on the extended sequence, which it checks and
        # factors anew
        seq = moments_of(gen_random_measure(seed, n, atoms, a, b), l)
        assert check_even(seq).space.rank == (l + 1) // 2 * n
        rng = np.random.default_rng(seed)
        t_mat = random_contraction(rng, n, (0.0, 1.0))
        k_mat = random_contraction(rng, n, (0.0, 1.0))
        for tt, kk in ((t, k), (t_mat, k_mat)):
            _assert_even_solve_matches_the_extended_odd_solve(seq, tt, kk)

    def test_sampled_even_measures_equal_the_validating_route(self):
        # N 1-3, atoms 1-6, l 3, 5 or 7 on three intervals, at a matrix T
        # and K.  Only a Gram factor of full rank is a Cholesky factor, so
        # the two routes agree to rounding there, when they keep the same
        # rank: the even route decides the rank of the new block on its own
        # spectrum, the validating route on that of the whole moment matrix,
        # and a block far smaller than the matrix can be kept by one and
        # cut by the other; the even solve must then verify on its own
        compared = kept_more = 0
        for g in range(60):
            rng = np.random.default_rng(50_000 + g)
            n, atoms, l = int(rng.integers(1, 4)), int(rng.integers(1, 7)), int(rng.choice([3, 5, 7]))
            a, b = ((0.0, 1.0), (-1.0, 1.0), (-2.0, 3.0))[int(rng.integers(3))]
            seq = moments_of(gen_random_measure(g, n, atoms, a, b), l)
            report = check_even(seq)
            if report.space.rank < report.space.vectors.shape[1]:
                continue
            t_mat = random_contraction(rng, n, (0.0, 1.0))
            defect = matmom.solutions._odd_interval(_extended_odd(seq, t_mat)).def_dim
            k_mat = random_contraction(rng, defect, (0.0, 1.0))
            _, space = matmom.solutions._with_next_moment(seq, report, t_mat)
            if matmom.solutions._extension_interval(space).def_dim == defect:
                _assert_even_solve_matches_the_extended_odd_solve(seq, t_mat, k_mat)
                compared += 1
            else:
                assert verify(solve_even(seq, t_mat, 0.5), seq, tol=1e-8).passed
                kept_more += 1
        assert compared >= 30 and kept_more >= 1

    def test_positions_rounded_together_merge(self):
        # far from 0 the map to [a, b] rounds two clusters 2e-9 apart to one
        # double, so the positions do not increase and the atoms merge
        a, b = 1e7, 1e7 + 1
        weights = np.stack([np.eye(2), 2 * np.eye(2)]).astype(complex)
        sd = SpectralData(np.array([0.1, 0.1 + 2e-9]), weights)
        positions = 0.5 * (b - a) * sd.eigenvalues + 0.5 * (a + b)
        assert positions[0] == positions[1]
        measure = _measure_from_spectrum(sd, a, b)
        want = measure_from_atoms(a, b, np.clip(positions, a, b), weights)
        assert measure.num_atoms == 1
        assert measure.positions.tobytes() == want.positions.tobytes()
        assert measure.weights.tobytes() == want.weights.tobytes()
        assert np.array_equal(measure.weights, [3 * np.eye(2)])

    def test_warm_solve_checks_nothing_again(self, monkeypatch):
        seq = _indeterminate_seq()
        solve_odd(seq, 0.2)
        calls = Counter()
        for name, module in list(sys.modules.items()):
            if name != "matmom" and not name.startswith("matmom."):
                continue
            for attr in ("check_psd_stack", "require_hermitian_stack"):
                if hasattr(module, attr):
                    def counted(*args, _attr=attr, _original=getattr(module, attr), **kwargs):
                        calls[_attr] += 1
                        return _original(*args, **kwargs)
                    monkeypatch.setattr(module, attr, counted)
        k_mat = random_contraction(np.random.default_rng(0), 2, (0.0, 1.0))
        for k in (0.0, 0.7, 1.0, k_mat):
            assert verify(solve_odd(seq, k), seq).passed
        assert calls == Counter()


def _extended_odd(seq, t):
    """seq extended by S_min + D^(1/2) T D^(1/2), D the interval's width."""
    data = check_even(seq).even_case
    t_mat = t * np.eye(seq.N) if np.isscalar(t) else t
    return seq.extended(data.S_min + data.width_half @ t_mat @ data.width_half)


def _assert_even_solve_matches_the_extended_odd_solve(seq, t, k):
    """solve_even(seq, t, k) equals solve_odd of :func:`_extended_odd` at
    the same k, within 1e-10 of the interval length in the positions and of
    max(1, ||S_0||_2) in the weights, while the extended moment matrix has
    condition number at most 1e8.  Beyond it the two routes' rounding moves
    the atoms further, and both only have to reproduce the moments, as
    every solve verifies."""
    odd = _extended_odd(seq, t)
    want = solve_odd(odd, k)
    got = solve_even(seq, t, k)
    assert got.num_atoms == want.num_atoms
    spectrum = check_odd(odd).space.spectrum
    if spectrum[-1] > 1e8 * spectrum[0]:
        return
    scale = max(1.0, np.linalg.norm(seq.moments[0], 2))
    assert np.abs(got.positions - want.positions).max() <= 1e-10 * (seq.b - seq.a)
    assert np.abs(got.weights - want.weights).max() <= 1e-10 * scale


class TestPartiallyDeterminedProblem:
    def test_rigid_marginal_is_parameter_independent(self):
        # block-diagonal direct sum: a uniquely solvable coordinate plus an
        # indeterminate one; the parameter can only move the flexible part
        rigid = [1.0, 0.0, 1.0]
        flexible = [1.0, 0.0, 1.0 / 3.0]
        moments = tuple(np.diag([r, f]).astype(complex)
                        for r, f in zip(rigid, flexible))
        seq = MomentSequence(-1.0, 1.0, moments)
        measures = [solve_odd(seq, k) for k in (0.0, 0.5, 1.0)]
        marginals = []
        for m in measures:
            assert verify(m, seq, tol=1e-9).passed
            marginal = {}
            for x, w in zip(m.positions, m.weights):
                if abs(w[0, 0]) > 1e-9:
                    marginal[round(float(x), 8)] = w[0, 0].real
            marginals.append(marginal)
        for marginal in marginals:
            assert sorted(marginal) == [-1.0, 1.0]
            assert all(abs(v - 0.5) <= 1e-9 for v in marginal.values())
        # while the flexible coordinate genuinely moves
        assert not measures[0].isclose(measures[-1], pos_tol=1e-6,
                                       weight_tol=1e-6)


class TestSpectralData:
    def test_weights_resolve_zeroth_moment(self):
        seq = scalar_seq(0, 1, [1, 0.5, 1 / 3])
        iv = interval_for(seq)
        sd = spectral_data(canonical_extension(iv, 0.25), iv.model.first_vectors)
        assert np.abs(sd.weights.sum(axis=0) - seq.moments[0]).max() <= 1e-9
        assert np.all(sd.eigenvalues >= -1.0 - 1e-12)
        assert np.all(sd.eigenvalues <= 1.0 + 1e-12)

    def test_clusters_degenerate_spectrum(self):
        vectors = np.eye(2, dtype=complex)
        sd = spectral_data(np.eye(2), vectors)
        assert sd.eigenvalues.shape == (1,)
        assert np.allclose(sd.weights[0], np.eye(2))


def _projector_spectral_data(extension, first_vectors, cluster_tol=1e-9):
    """Per-cluster projector formula: weight (j, n) = <proj x_j, x_n>."""
    w, v = np.linalg.eigh(0.5 * (extension + extension.conj().T))
    bounds = [0] + [i for i in range(1, w.size) if w[i] - w[i - 1] > cluster_tol]
    bounds.append(w.size)
    lams, weights = [], []
    for s, e in zip(bounds[:-1], bounds[1:]):
        proj = v[:, s:e] @ v[:, s:e].conj().T
        wmat = (first_vectors.conj().T @ proj @ first_vectors).T
        lams.append(w[s:e].mean())
        weights.append(0.5 * (wmat + wmat.conj().T))
    return np.array(lams), np.stack(weights)


class TestSpectralDataVectorized:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_projector_formula(self, seed):
        rng = np.random.default_rng(seed)
        r, n = 12, int(rng.integers(1, 4))
        # exact repeats, gaps just inside and just outside the cluster
        # tolerance, and singletons
        lam = np.sort(rng.uniform(-1.0, 1.0, r))
        lam[3:6] = lam[3]
        lam[7] = lam[6] + 4e-10
        lam[8] = lam[7] + 4e-10
        lam[10] = lam[9] + 5e-9
        u = random_unitary(rng, r)
        ext = (u * lam) @ u.conj().T
        vectors = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
        sd = spectral_data(ext, vectors)
        ref_lams, ref_weights = _projector_spectral_data(ext, vectors)
        assert sd.eigenvalues.shape == ref_lams.shape
        assert ref_lams.size < r - 3
        assert np.abs(sd.eigenvalues - ref_lams).max() <= 1e-14
        assert np.abs(sd.weights - ref_weights).max() <= 1e-12

    def test_solved_extension(self):
        seq = moments_of(gen_random_measure(3, 2, 5, -1.0, 2.0), 4)
        iv = interval_for(seq)
        ext = canonical_extension(iv, 0.5)
        sd = spectral_data(ext, iv.model.first_vectors)
        ref_lams, ref_weights = _projector_spectral_data(ext, iv.model.first_vectors)
        assert np.abs(sd.eigenvalues - ref_lams).max() <= 1e-14
        assert np.abs(sd.weights - ref_weights).max() <= 1e-12


class TestFactorizationBudget:
    """One solve_odd factors a fixed number of matrices, however many atoms
    its solution has: no pseudo-inverse, at most one SVD, and no per-atom
    eigenvalue problems."""

    @staticmethod
    def _count_solve(monkeypatch, atoms):
        counts = Counter()
        for name in ("eigh", "eigvalsh", "svd", "pinv"):
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        seq = moments_of(gen_random_measure(21, 2, atoms, -1.0, 1.0), 6)
        measure = solve_odd(seq, 0.5)
        monkeypatch.undo()
        return counts, measure.num_atoms

    def test_budget_independent_of_atom_count(self, monkeypatch):
        few, few_atoms = self._count_solve(monkeypatch, 2)
        many, many_atoms = self._count_solve(monkeypatch, 8)
        assert (few_atoms, many_atoms) == (2, 8)
        for counts in (few, many):
            assert counts["pinv"] == 0
            assert counts["svd"] <= 1
        assert few["eigvalsh"] == many["eigvalsh"]

    def test_large_shape_takes_no_norm_and_no_eigvalsh(self, monkeypatch):
        # a solve after its check decides contractivity on a Cholesky pair and
        # the defect's eigh alone: no spectral norm of a matrix and no
        # eigenvalue-only solve; every residual is within the tolerance, so
        # verify's verdict needs no scales of the moment stack; its Gram space
        # has full rank, so its operators take no SVD
        seq = moments_of(gen_random_measure(0, 8, 40, -1.0, 1.0), 20)
        assert check(seq).solvable
        counts = Counter()
        stacks = []
        for name in ("eigvalsh", "norm", "svd"):
            original = getattr(np.linalg, name)

            def counted(a, *args, _name=name, _original=original, **kwargs):
                order = args[0] if args else kwargs.get("ord")
                if _name != "norm" or (order == 2 and np.ndim(a) == 2):
                    counts[_name] += 1
                    stacks.append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        measure = solve_odd(seq, 0.5)
        monkeypatch.undo()
        assert measure.num_atoms == 88
        assert counts == Counter()
        assert stacks == []

    def test_large_shape_factors_no_p(self, monkeypatch):
        # the solve takes one eigh of the 88 x 88 extension and one of the
        # 8 x 8 defect, one Cholesky pair and one solve pair of I +- P, and
        # one batched inverse of the 10 diagonal 8 x 8 blocks of the Gram
        # factor: no factorization of P or of the Gram factor, and no
        # 80 x 80 inverse
        seq = moments_of(gen_random_measure(0, 8, 40, -1.0, 1.0), 20)
        assert check(seq).solvable
        shapes = {name: [] for name in ("eigh", "cholesky", "solve", "inv", "qr")}
        for name, seen in shapes.items():
            original = getattr(np.linalg, name)

            def recorded(a, *args, _seen=seen, _original=original, **kwargs):
                _seen.append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        solve_odd(seq, 0.5)
        monkeypatch.undo()
        assert shapes == {"eigh": [(8, 8), (88, 88)], "cholesky": [(2, 80, 80)],
                          "solve": [(2, 80, 80)], "inv": [(10, 8, 8)], "qr": []}

    def test_moment_matrix_factored_once(self, monkeypatch):
        # rank 6 of 8: check_odd's eigvalsh of Gamma drops an eigenvalue, so
        # one eigh of Gamma gives the PSD verdict, the eigen-scaled Gram
        # vectors and kernel inclusion, and neither Gamma_{d-1} nor the
        # shifted Hankel Gamma-hat is factored at all
        seq = moments_of(gen_random_measure(22, 2, 3, -1.0, 1.0), 6)
        gamma, gamma_prev, gamma_hat = (build_gamma(seq, 3), build_gamma(seq, 2),
                                        build_gamma_hat(seq, 3))
        factored = _record_factorizations(monkeypatch, lambda: solve_odd(seq, 0.5))
        assert build_gram_space(seq).rank == 6
        assert Counter(name for name, x in factored if _same(x, gamma)) == Counter(
            eigvalsh=1, eigh=1)
        assert not any(_same(x, gamma_prev) or _same(x, gamma_hat) for _, x in factored)

    def test_full_rank_moment_matrix_takes_no_eigenvectors(self, monkeypatch):
        # rank 8 of 8: eigvalsh of Gamma keeps every eigenvalue, so the Gram
        # vectors are the Cholesky factor of conj(Gamma), and across check
        # and solve Gamma takes no eigh and no SVD
        seq = moments_of(gen_random_measure(21, 2, 8, -1.0, 1.0), 6)
        gamma = build_gamma(seq, 3)
        factored = _record_factorizations(monkeypatch, lambda: _check_then_solve(seq))
        assert check_odd(seq).space.rank == 8
        assert Counter(name for name, x in factored
                       if _same(x, gamma) or _same(x, gamma.conj())) == Counter(
            eigvalsh=1, cholesky=1)


    def test_certified_moment_matrix_takes_no_eigensolve(self, monkeypatch):
        # order 16: a Cholesky certificate of Gamma shifted down by about
        # 2e-10 ||Gamma||_1 decides its rank and its PSD condition, and
        # Gamma's own factor is the Gram vectors, so across check and solve
        # Gamma takes two Cholesky factorizations and no eigensolve
        seq = moments_of(gen_random_measure(3, 4, 6, -1.0, 1.5), 6)
        gamma = build_gamma(seq, 3)
        factored = _record_factorizations(monkeypatch, lambda: _check_then_solve(seq))
        assert check_odd(seq).space.rank == 16
        near = 1e-9 * np.abs(gamma).sum(axis=0).max()
        assert Counter(name for name, x in factored if x.shape == gamma.shape
                       and np.allclose(x, gamma, rtol=0, atol=near)) == Counter(cholesky=2)


def _check_then_solve(seq):
    assert check(seq).solvable
    solve_odd(seq, 0.5)


def _same(x, y):
    return x.shape == y.shape and np.allclose(x, y, rtol=0, atol=1e-13)


def _record_factorizations(monkeypatch, run):
    """``(name, matrix)`` of every eigh, eigvalsh, svd, cholesky and matrix
    2-norm that ``run()`` takes."""
    factored = []
    for name in ("eigh", "eigvalsh", "svd", "cholesky", "norm"):
        original = getattr(np.linalg, name)

        def recorded(a, *args, _name=name, _original=original, **kwargs):
            order = args[0] if args else kwargs.get("ord")
            if _name != "norm" or order == 2:
                factored.append((_name, np.asarray(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    run()
    monkeypatch.undo()
    return factored


class TestScanAtTheBoundary:
    """The chain factors the Hermitian matrices it builds without scanning
    them again: after the moments are validated, neither a check nor a
    solve scans anything.  The exported ``extremal_completions`` and
    ``spectral_data`` still scan P and the extension they are handed."""

    @staticmethod
    def _count_scans(monkeypatch):
        calls = []
        original = matmom.linalg.require_hermitian

        def counted(*args, **kwargs):
            calls.append(kwargs.get("name"))
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name == "matmom" or name.startswith("matmom.")) and hasattr(
                    module, "require_hermitian"):
                monkeypatch.setattr(module, "require_hermitian", counted)
        return calls

    @pytest.mark.parametrize("l, solve", [(4, solve_odd), (5, solve_even)])
    def test_scans_per_call(self, monkeypatch, l, solve):
        seq = moments_of(gen_random_measure(3, 2, 3, 0.0, 1.0), l)
        calls = self._count_scans(monkeypatch)
        assert check(seq).solvable
        assert calls == []
        solve(seq)
        assert calls == []


def _indeterminate_seq():
    # defect dimension 2
    return moments_of(gen_random_measure(0, 2, 6, -1.0, 2.0), 4)


def _copy(seq):
    """An equal-content sequence that is a different object."""
    return MomentSequence(seq.a, seq.b, seq.moments)


def _count_calls(monkeypatch, name, module=matmom.solutions):
    """Count the calls made to ``<module>.<name>``, by default the ones
    ``solve_odd`` makes to ``matmom.solutions.<name>``."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestIntervalReuse:
    """solve_odd keeps the extension interval of the last odd sequence it
    solved, keyed by a weak reference: the same object at another K skips
    check, Gram space, operators and extreme extensions, and nothing else
    changes."""

    @staticmethod
    def _same(m1, m2):
        return (m1.N == m2.N and np.array_equal(m1.positions, m2.positions)
                and np.array_equal(m1.weights, m2.weights))

    def test_warm_solve_factors_nothing_of_the_moment_matrix(self, monkeypatch):
        seq = _indeterminate_seq()
        solve_odd(seq, 0.5)
        gamma = build_gamma(seq, 2)
        factored = Counter()
        gamma_factored = []
        for name in ("eigh", "eigvalsh", "svd", "norm"):
            original = getattr(np.linalg, name)

            def recorded(a, *args, _name=name, _original=original, **kwargs):
                order = args[0] if args else kwargs.get("ord")
                if _name != "norm" or order == 2:
                    factored[_name] += 1
                    arr = np.asarray(a)
                    gamma_factored.append(arr.shape == gamma.shape
                                          and np.allclose(arr, gamma, rtol=0, atol=1e-13))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        built = [_count_calls(monkeypatch, name)
                 for name in ("check_odd", "build_operators", "extremal_extensions")]
        solve_odd(seq, 0.25)
        monkeypatch.undo()
        assert not any(gamma_factored)
        assert built == [[], [], []]
        # the moment scales are cached on the sequence too: no SVD is left
        assert factored["svd"] == 0 and factored["norm"] == 0

    @pytest.mark.parametrize("case", ["0", "0.5", "1", "matrix", "determinate"])
    def test_warm_equals_cold_bitwise(self, monkeypatch, case):
        if case == "determinate":
            seq, k = moments_of(gen_random_measure(3, 2, 1, -1.0, 2.0), 4), 0.5
        elif case == "matrix":
            u = random_unitary(np.random.default_rng(4), 2)
            seq, k = _indeterminate_seq(), (u * [0.2, 0.9]) @ u.conj().T
        else:
            seq, k = _indeterminate_seq(), float(case)
        cold = solve_odd(_copy(seq), k)
        solve_odd(seq, 0.3)
        extended = _count_calls(monkeypatch, "extremal_extensions")
        warm = solve_odd(seq, k)
        assert extended == []
        assert self._same(warm, cold)

    def test_interleaved_sequences(self, monkeypatch):
        seq_a = _indeterminate_seq()
        seq_b = moments_of(gen_random_measure(1, 2, 6, -1.0, 2.0), 4)
        first = solve_odd(seq_a, 0.7)
        old = weakref.ref(matmom.solutions._odd_interval.slot[-1])
        # the old interval is dropped before the next one is built
        extremal = matmom.solutions.extremal_extensions

        def after_release(model):
            assert old() is None
            return extremal(model)

        monkeypatch.setattr(matmom.solutions, "extremal_extensions", after_release)
        solve_odd(seq_b, 0.7)
        monkeypatch.undo()
        assert matmom.solutions._odd_interval.slot[0]() is seq_b
        assert self._same(solve_odd(seq_a, 0.7), first)
        assert matmom.solutions._odd_interval.slot[0]() is seq_a

    def test_slot_holds_the_sequence_weakly(self):
        seq = _indeterminate_seq()
        solve_odd(seq, 0.5)
        ref = matmom.solutions._odd_interval.slot[0]
        assert ref() is seq
        del seq
        gc.collect()
        assert ref() is None
        assert matmom.solutions._odd_interval.slot is None

    def test_failures_are_not_stored(self, monkeypatch):
        unsolvable = scalar_seq(-1, 1, [1, 0, 3])
        checks = _count_calls(monkeypatch, "check_odd")
        for _ in range(3):
            with pytest.raises(Unsolvable):
                solve_odd(unsolvable)
            assert matmom.solutions._odd_interval.slot is None
        assert len(checks) == 3

        def ill_defined(space):
            raise OperatorIllDefined("shift operator is ill-defined")

        seq = _indeterminate_seq()
        monkeypatch.setattr(matmom.solutions, "build_operators", ill_defined)
        for _ in range(2):
            with pytest.raises(NumericalInconsistency):
                solve_odd(seq)
            assert matmom.solutions._odd_interval.slot is None
        monkeypatch.undo()
        assert verify(solve_odd(seq), seq, tol=1e-8).passed

    def test_every_call_validates_and_verifies(self, monkeypatch):
        seq = _indeterminate_seq()
        solve_odd(seq, 0.5)
        verified = _count_calls(monkeypatch, "verify")
        for k in (0.0, 0.5, 1.0):
            solve_odd(seq, k)
        assert len(verified) == 3
        for bad in (2.0, -0.5, np.diag([0.5, 1.5]), np.eye(3)):
            with pytest.raises(ValidationError):
                solve_odd(seq, bad)
        monkeypatch.setattr(matmom.solutions, "SOLVE_VERIFY_TOL", 0.0)
        with pytest.raises(NumericalInconsistency, match="fails verification"):
            solve_odd(seq, 0.5)
        assert matmom.solutions._odd_interval.slot[0]() is seq

    def test_threads_sharing_the_slot(self):
        # threads alternate two sequences through the one slot, and run the
        # interleaving check(A), check(B), solve(A), solve(B) of an odd A and
        # an even B through the check slots; a torn or lost update would hand
        # one sequence the interval or report of another
        from concurrent.futures import ThreadPoolExecutor

        seqs = [_indeterminate_seq(), moments_of(gen_random_measure(1, 2, 6, -1.0, 2.0), 4)]
        odd, even = seqs[0], moments_of(gen_random_measure(5, 2, 6, -1.0, 2.0), 5)
        ks = np.linspace(0.0, 1.0, 5)
        expected = [[solve_odd(_copy(seq), float(k)) for k in ks] for seq in seqs]
        expected_even = [solve_even(_copy(even), 0.4, float(k)) for k in ks]

        def interleaved(k):
            check(odd)
            check(even)
            return solve_odd(odd, k), solve_even(even, 0.4, k)

        jobs = [(i % 3, j) for i in range(12) for j in range(len(ks))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(interleaved, float(ks[j])) if s == 2
                           else pool.submit(solve_odd, seqs[s], float(ks[j]))
                           for s, j in jobs]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for (s, j), result in zip(jobs, results):
            if s == 2:
                assert self._same(result[0], expected[0][j])
                assert self._same(result[1], expected_even[j])
            else:
                assert self._same(result, expected[s][j])


def _slots():
    return (check_odd.slot, check_even.slot, matmom.solutions._odd_interval.slot)


class TestCheckReuse:
    """check_odd and check_even keep the report of the last sequence object
    they checked, so a solve that follows a check of the same object decides
    solvability once; the sequence object alone keys the report, and nothing
    else changes.

    A check's body is counted by a step only the body runs
    (``gram_space_from_eig`` for check_odd, ``_cdfk_conditions`` for
    check_even), not by the check itself, which a slot may answer."""

    def test_check_then_solve_odd_factors_gamma_once(self, monkeypatch):
        # rank 6 of 8: Gamma takes one eigvalsh and one eigh, in one check body
        seq = moments_of(gen_random_measure(22, 2, 3, -1.0, 1.0), 6)
        gamma = build_gamma(seq, 3)
        bodies = _count_calls(monkeypatch, "gram_space_from_eig", matmom.solvability)
        factored = _record_factorizations(monkeypatch, lambda: _check_then_solve(seq))
        assert len(bodies) == 1
        assert Counter(name for name, x in factored if _same(x, gamma)) == Counter(
            eigvalsh=1, eigh=1)

    def test_check_then_solve_odd_computes_the_kernel_residual_once(self, monkeypatch):
        # rank 2 of 6 with N = 2, d = 2: the domain vectors have a kernel, so
        # the residual is a matrix 2-norm; check_odd computes it and
        # build_operators reads it from the same space
        seq = moments_of(gen_random_measure(5, 2, 1, 0.0, 1.0), 4)
        norms = []
        original = np.linalg.norm

        def counted(a, *args, **kwargs):
            order = args[0] if args else kwargs.get("ord")
            if order == 2 and np.ndim(a) == 2:
                norms.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        report = check_odd(seq)
        measure = solve_odd(seq, 0.5)
        monkeypatch.undo()
        assert report.solvable and report.space.rank == 2
        assert report.details["kernel inclusion"] > 0.0
        assert norms == [(2, 2)]
        assert verify(measure, seq, tol=1e-8).passed

    def test_check_then_solve_even_checks_once(self, monkeypatch):
        seq = moments_of(gen_random_measure(3, 2, 3, -1.0, 1.5), 5)
        bodies = _count_calls(monkeypatch, "_cdfk_conditions", matmom.solvability)
        report = check(seq)
        solve_even(seq, t=0.3, k=0.5)
        assert len(bodies) == 1
        assert check_even(seq) is report

    @pytest.mark.parametrize("case", ["odd", "even", "determinate"])
    def test_check_then_solve_equals_cold_bitwise(self, case):
        if case == "odd":
            seq, solve = _indeterminate_seq(), lambda s: solve_odd(s, 0.3)
        elif case == "even":
            seq = moments_of(gen_random_measure(5, 2, 6, -1.0, 2.0), 5)
            solve = lambda s: solve_even(s, 0.4, 0.6)
        else:
            seq = moments_of(gen_random_measure(3, 2, 1, -1.0, 2.0), 4)
            solve = lambda s: solve_odd(s, 0.5)
        cold = solve(_copy(seq))
        assert check(seq).solvable
        assert TestIntervalReuse._same(solve(seq), cold)

    def test_the_sequence_alone_keys_the_report(self):
        # Gamma-tilde is -1e-7: unsolvable at PSD_TOL
        seq = scalar_seq(-1, 1, [1, 0, 1 + 1e-7])
        default = check_odd(seq)
        assert not default.solvable
        assert default.failed_conditions == ("GammaTilde PSD",)
        assert default.conditions[1].threshold == PSD_TOL
        assert check(seq) is default
        assert check_odd(seq) is default
        assert check_odd.slot[-1] is default
        even = moments_of(gen_random_measure(3, 2, 3, -1.0, 1.5), 5)
        default = check_even(even)
        assert check(even) is default and check_even(even) is default

    def test_unsolvable_report_is_reused(self, monkeypatch):
        unsolvable = scalar_seq(-1, 1, [1, 0, 3])
        bodies = _count_calls(monkeypatch, "gram_space_from_eig", matmom.solvability)
        report = check(unsolvable)
        assert not report.solvable
        for _ in range(3):
            with pytest.raises(Unsolvable, match="GammaTilde PSD"):
                solve_odd(unsolvable)
            assert matmom.solutions._odd_interval.slot is None
        assert len(bodies) == 1
        even = scalar_seq(0, 1, [1, 2])
        bodies = _count_calls(monkeypatch, "_cdfk_conditions", matmom.solvability)
        for _ in range(3):
            with pytest.raises(Unsolvable):
                solve_even(even)
        assert len(bodies) == 1

    def test_validation_error_is_not_stored(self):
        odd, even = _indeterminate_seq(), scalar_seq(0, 1, [1, 0.5])
        check(odd)
        check(even)
        with pytest.raises(ValidationError):
            check_odd(even)
        with pytest.raises(ValidationError):
            check_even(odd)
        assert check_odd.slot is None and check_even.slot is None

    def test_slots_hold_their_sequences_weakly(self):
        odd = _indeterminate_seq()
        even = moments_of(gen_random_measure(5, 2, 6, -1.0, 2.0), 5)
        check(odd)
        check(even)
        solve_odd(odd, 0.5)
        solve_even(even, 0.5, 0.5)
        refs = [slot[0] for slot in _slots()]
        assert [ref() for ref in refs] == [odd, even, odd]
        del odd, even
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert _slots() == (None, None, None)


# [0, 1] and [-1, 1] cells past the degree where the kernel-inclusion test
# once rejected rank-truncation noise: (a, b, N, atoms, l)
FRONTIER_CELLS = [
    (0.0, 1.0, 1, 36, 24),
    (0.0, 1.0, 1, 75, 50),
    (0.0, 1.0, 3, 36, 24),
    (-1.0, 1.0, 1, 60, 40),
    (-1.0, 1.0, 6, 12, 20),
]


@pytest.mark.parametrize("cell", FRONTIER_CELLS)
def test_frontier_cells_check_and_solve(cell):
    a, b, n, atoms, l = cell
    for seed in range(10):
        seq = moments_of(gen_random_measure(seed, n, atoms, a, b), l)
        assert check(seq).solvable, seed
        assert verify(solve_odd(seq, 0.5), seq, tol=1e-8).passed, seed


class TestSolveEven:
    @pytest.mark.parametrize("seed", [179, 183, 249, 330])
    def test_interval_width_judged_once(self, seed):
        # the width of the next-moment interval has an eigenvalue just below
        # zero within the check's PSD slack; the solve must use the check's
        # verdict, not judge the width again at a different scale
        seq = moments_of(gen_random_measure(seed, 2, 3, -2.0, 3.0), 7)
        assert check_even(seq).solvable
        assert verify(solve_even(seq), seq, tol=1e-8).passed

    def test_lower_endpoint_point_mass(self):
        measure = solve_even(scalar_seq(0, 1, [1, 0.5]), t=0.0)
        assert measure.num_atoms == 1
        assert np.allclose(measure.positions, [0.5], atol=1e-9)
        assert np.allclose(measure.weights[0], [[1.0]], atol=1e-9)

    def test_upper_endpoint_boundary_atoms(self):
        measure = solve_even(scalar_seq(0, 1, [1, 0.5]), t=1.0)
        assert measure.num_atoms == 2
        assert np.allclose(measure.positions, [0.0, 1.0], atol=1e-9)
        assert np.allclose(measure.weights[:, 0, 0], [0.5, 0.5], atol=1e-9)

    def test_distinct_parameters_make_distinct_top_moments(self):
        seq = scalar_seq(0, 1, [1, 0.5])
        m_low = solve_even(seq, t=0.0)
        m_high = solve_even(seq, t=1.0)
        s_low = moments_of(m_low, 2).moments[2]
        s_high = moments_of(m_high, 2).moments[2]
        assert np.allclose(s_low, [[0.25]], atol=1e-8)
        assert np.allclose(s_high, [[0.5]], atol=1e-8)

    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3))
        mu = gen_random_measure(200 + seed, n, 3, -1.0, 1.5)
        seq = moments_of(mu, 2 * int(rng.integers(0, 3)) + 1)
        t = rng.uniform(0.0, 1.0)
        measure = solve_even(seq, t=t, k=0.5)
        assert verify(measure, seq, tol=1e-8).passed

    def test_matrix_parameter(self):
        mu = gen_random_measure(33, 2, 2, 0.0, 1.0)
        seq = moments_of(mu, 3)
        t = np.diag([0.2, 0.9]).astype(complex)
        measure = solve_even(seq, t=t)
        assert verify(measure, seq, tol=1e-8).passed

    def test_unsolvable(self):
        with pytest.raises(Unsolvable):
            solve_even(scalar_seq(0, 1, [1, 2]))

    def test_invalid_parameter(self):
        with pytest.raises(ValidationError):
            solve_even(scalar_seq(0, 1, [1, 0.5]), t=-0.5)

    def test_one_solvability_check(self, monkeypatch):
        calls = Counter()

        def counted(name):
            original = getattr(matmom.solutions, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in ("check_even", "check_odd"):
            monkeypatch.setattr(matmom.solutions, name, counted(name))
        seq = moments_of(gen_random_measure(3, 2, 3, -1.0, 1.5), 5)
        measure = solve_even(seq, t=0.3, k=0.5)
        assert calls == Counter(check_even=1)
        assert verify(measure, seq, tol=1e-8).passed

    def test_passing_check_is_not_contradicted(self):
        # at t = 0 the extended moment matrix is singular in exact
        # arithmetic; refactored anew, rounding made it not PSD, but the
        # check's factor extended by the empty factor of the zero corner
        # block realizes it exactly
        seq = moments_of(gen_random_measure(9339, 2, 5, 0.0, 1.0), 9)
        assert check_even(seq).solvable
        measure = solve_even(seq, t=0.0)
        assert verify(measure, seq, tol=1e-8).passed

    @pytest.mark.parametrize("seed, n, atoms, l", [(10162, 3, 3, 5), (10558, 2, 4, 7)])
    @pytest.mark.parametrize("k", [0.0, 1.0])
    def test_lower_endpoint_is_determinate_by_construction(self, seed, n, atoms, l, k):
        # the census endpoint seeds whose t = 0 solves failed with "I + P has
        # negative eigenvalue" or "moment matrix is not PSD" when the
        # extended moment matrix was factored anew
        seq = moments_of(gen_random_measure(seed, n, atoms, 0.0, 1.0), l)
        measure = solve_even(seq, t=0.0, k=k)
        assert verify(measure, seq, tol=1e-8).passed

    @pytest.mark.parametrize("atoms, rank", [(6, 8), (3, 6)])
    def test_solve_decides_nothing_again(self, monkeypatch, atoms, rank):
        # after check_even, the solve extends the check's Gram factor of
        # Gamma_d by one block: it gathers no moment matrix, builds no Gram
        # space anew and takes no Cholesky factor of Gamma_{d+1}
        seq = moments_of(gen_random_measure(3, 2, atoms, -1.0, 1.5), 7)
        assert build_gram_space(seq.truncated(6)).rank == rank
        assert check_even(seq).solvable
        calls = Counter()
        for name, module in list(sys.modules.items()):
            if name != "matmom" and not name.startswith("matmom."):
                continue
            for attr in ("build_gram_space", "build_gamma"):
                if hasattr(module, attr):
                    def counted(*args, _attr=attr, _original=getattr(module, attr), **kwargs):
                        calls[_attr] += 1
                        return _original(*args, **kwargs)
                    monkeypatch.setattr(module, attr, counted)
        shapes = []
        original = np.linalg.cholesky

        def recorded(a, *args, **kwargs):
            shapes.append(np.shape(a)[-2:])
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", recorded)
        for t in (0.0, 0.5, 1.0):
            assert verify(solve_even(seq, t), seq, tol=1e-8).passed
        monkeypatch.undo()
        assert calls == Counter()
        assert shapes and (10, 10) not in shapes

    def test_full_rank_extension_forms_no_spectrum(self):
        # a full-rank extension passes kernel inclusion with a zero residual,
        # so the spectrum of Gamma_{d+1} is not formed; read, it is eigvalsh
        # of the Gram matrix its vectors realize
        seq = moments_of(gen_random_measure(3, 2, 6, -1.0, 1.5), 7)
        _, space = matmom.solutions._with_next_moment(seq, check_even(seq), 0.5)
        matmom.solutions._extension_interval(space)
        assert space.rank == 10 and "spectrum" not in vars(space)
        gram = space.vectors.T @ space.vectors.conj()
        assert space.gram.tobytes() == gram.tobytes()
        assert space.spectrum.tobytes() == np.linalg.eigvalsh(gram).tobytes()

    def test_upper_endpoint_survives_rounding_of_the_defect(self):
        # the defect of the extended problem has an eigenvalue of -1.35e-10,
        # rounding well inside the slack of the completions it is taken from
        seq = moments_of(gen_random_measure(7, 6, 20, -1.0, 1.0), 15)
        measure = solve_even(seq, t=1.0, k=0.0)
        assert verify(measure, seq, tol=1e-8).passed

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
    def test_pair_decides_where_the_x_system_fails(self, t):
        # genuine moments whose X system misses its consistency bound: the
        # pair's verdict stands, and the solve verifies
        seq = moments_of(gen_random_measure(787322719, 1, 4, 0.0, 1.0), 7)
        report = check_even(seq)
        assert report.solvable
        assert not next(c for c in report.diagnostics if c.name == "X system consistent").passed
        assert verify(solve_even(seq, t=t), seq, tol=1e-8).passed


# The eps = 1e-10 draws of :func:`_perturbed_draw` below whose H pair passes
# while Gamma-tilde's PSD test fails, so that a verdict that required the
# latter formed no next-moment interval for a problem it called solvable
PAIR_WITHOUT_INTERVAL = (64, 92, 224, 564, 605, 656, 711, 723, 735, 882, 1551, 1572,
                         1686, 1918)


def _perturbed_draw(g, eps):
    """Genuine moments perturbed near the rounding level: from rng =
    default_rng(g), N = rng.integers(1, 4), atoms = rng.integers(1, 4) and
    l = rng.integers(2, 8) on the (g mod 3)-th of [0, 1], [-1, 1] and
    [-2, 3]; then each S_k gets eps herm(E) max(1, ||S_k||_2), E complex
    Gaussian from the same rng."""
    rng = np.random.default_rng(g)
    n, atoms, l = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(2, 8))
    a, b = ((0.0, 1.0), (-1.0, 1.0), (-2.0, 3.0))[g % 3]
    moments = []
    for s in moments_of(gen_random_measure(g, n, atoms, a, b), l).moments:
        e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        moments.append(s + eps * (0.5 * (e + e.conj().T)) * max(1.0, np.linalg.norm(s, 2)))
    return MomentSequence(a, b, tuple(moments))


class TestPerturbedDraw:
    """Near the rounding level the pair's verdict may go either way, and the
    construction's diagnostics may fail where it passes: a solve returns a
    verified measure or raises a MatmomError, never anything else."""

    @pytest.mark.parametrize("i, eps", enumerate([1e-12, 1e-10, 1e-9]))
    def test_only_matmom_errors(self, i, eps):
        seeds = set(range(i, 2000, 4)) | set(PAIR_WITHOUT_INTERVAL if eps == 1e-10 else ())
        outcomes = Counter()
        for g in sorted(seeds):
            seq = _perturbed_draw(g, eps)
            try:
                measure = solve_odd(seq, 0.5) if seq.l % 2 == 0 else solve_even(seq, 0.5, 0.5)
            except MatmomError as exc:
                outcomes[type(exc).__name__] += 1
                if g in PAIR_WITHOUT_INTERVAL and eps == 1e-10:
                    assert check(seq).solvable and not isinstance(exc, Unsolvable), g
            else:
                outcomes["solved"] += 1
                assert verify(measure, seq, tol=1e-8).passed, g
        # the draws reach both verdicts once eps is past the rounding level
        assert outcomes["solved"] > 150 and (eps == 1e-12 or outcomes["Unsolvable"] > 100)


class TestSolveL0:
    def test_identity_mass(self):
        measure = solve_l0(np.eye(2), 0.0, 1.0)
        assert measure.num_atoms == 1
        assert measure.positions[0] == 0.5
        assert np.array_equal(measure.total_mass(), np.eye(2).astype(complex))

    def test_zero_mass(self):
        measure = solve_l0(np.zeros((2, 2)), 0.0, 1.0)
        assert measure.num_atoms == 0

    def test_moment_round_trip(self):
        s0 = np.array([[2.0, 1j], [-1j, 3.0]])
        measure = solve_l0(s0, -1.0, 1.0)
        assert np.array_equal(moments_of(measure, 0).moments[0], s0)

    def test_not_psd(self):
        with pytest.raises(Unsolvable):
            solve_l0(np.diag([1.0, -1.0]), 0.0, 1.0)


class TestVerify:
    def test_empty_report_has_zero_residual(self):
        report = VerificationReport(tol=1e-8, moment_residuals=np.zeros(0),
                                    sequence=scalar_seq(0, 1, [1]), support_ok=True)
        assert report.max_relative_residual == 0.0

    def test_exact_round_trip_passes(self):
        mu = gen_random_measure(5, 2, 3, 0.0, 1.0)
        assert verify(mu, moments_of(mu, 4), tol=1e-12).passed

    def test_perturbed_weight_fails(self):
        mu = gen_random_measure(6, 1, 2, 0.0, 1.0)
        seq = moments_of(mu, 2)
        bad = measure_from_atoms(mu.a, mu.b, mu.positions,
                                 mu.weights * (1.0 + 1e-3))
        report = verify(bad, seq, tol=1e-8)
        assert not report.passed
        assert report.max_relative_residual > 1e-4

    def test_support_violation(self):
        seq = scalar_seq(0.0, 1.0, [1, 0.5, 1 / 3])
        outside = measure_from_atoms(-1.0, 2.0, [-0.5, 0.75],
                                     [0.5 * np.eye(1), 0.5 * np.eye(1)])
        report = verify(outside, seq, tol=1e-1)
        assert not report.support_ok
        assert not report.passed

    def test_block_size_mismatch(self):
        mu = gen_random_measure(7, 2, 2, 0.0, 1.0)
        with pytest.raises(ValidationError):
            verify(mu, scalar_seq(0, 1, [1, 0.5]), tol=1e-8)

    @pytest.mark.parametrize("l", [3, 4, 5, 6])
    def test_solver_report_equals_fresh_verify(self, l):
        # the even case verifies the extended problem; its report restricted
        # to S_0..S_l must be the one a fresh verify of the input gives
        for seed in range(5):
            seq = moments_of(gen_random_measure(seed, 2, 4, -1.0, 2.0), l)
            measure, report = _solve(seq, 0.3, 0.7 if l % 2 else None)
            fresh = verify(measure, seq, tol=1e-8)
            assert np.array_equal(report.moment_residuals, fresh.moment_residuals)
            assert np.array_equal(report.moment_scales, fresh.moment_scales)
            assert report.max_relative_residual == fresh.max_relative_residual
            for tol in (1e-8, 1e-15, 1e-30):
                assert report.passed_at(tol) == verify(measure, seq, tol=tol).passed
            solve = solve_odd if l % 2 == 0 else (lambda s, k: solve_even(s, 0.7, k))
            assert np.array_equal(solve(seq, 0.3).weights, measure.weights)

    @pytest.mark.parametrize("route", ["constructor", "measure_from_atoms", "read_measure"])
    def test_weights_psd_by_construction(self, tmp_path, route):
        # verify does not judge the weights, because no route into a
        # measure admits a non-PSD weight
        weights = np.array([np.eye(2), np.diag([1.0, -1e-3])], dtype=complex)
        with pytest.raises(ValidationError, match="weight 1 is not PSD"):
            if route == "constructor":
                DiscreteMatrixMeasure(0.0, 1.0, 2, np.array([0.25, 0.5]), weights)
            elif route == "measure_from_atoms":
                measure_from_atoms(0.0, 1.0, [0.25, 0.5], weights)
            else:
                path = tmp_path / "m.json"
                path.write_text(json.dumps({"a": 0.0, "b": 1.0, "N": 2, "atoms": [
                    {"x": x, "W": [[[w.real, w.imag] for w in row] for row in mat]}
                    for x, mat in zip((0.25, 0.5), weights)]}))
                read_measure(path)
        measure = gen_random_measure(6, 2, 2, 0.0, 1.0)
        with pytest.raises(ValueError, match="read-only"):
            measure.weights[0, 0, 0] = -1.0

    def test_passed_at_reads_each_part_of_the_verdict(self):
        mu = gen_random_measure(6, 1, 2, 0.0, 1.0)
        seq = moments_of(mu, 2)
        near = measure_from_atoms(mu.a, mu.b, mu.positions, mu.weights * (1.0 + 1e-10))
        report = verify(near, seq, tol=1e-8)
        worst = report.max_relative_residual
        assert report.passed and report.passed_at(1e-8) and worst > 0
        assert not report.passed_at(0.5 * worst)
        assert report.passed_at(worst * (1 + 1e-12))
        assert not replace(report, support_ok=False).passed_at(1.0)


def _eager_verdict(report, scales, tol):
    """The verdict with every scale formed up front."""
    return bool(np.all(report.moment_residuals <= tol * scales)) and report.support_ok


def _eager_worst(report, scales):
    """The largest relative residual with every scale formed up front."""
    return float((report.moment_residuals / scales).max(initial=0.0))


def _unverified_measure(seq, k):
    """The measure ``solve_odd(seq, k)`` builds, before it is verified."""
    interval = matmom.solutions._odd_interval(seq)
    sd = matmom.solutions._spectral_data(canonical_extension(interval, k),
                                         interval.model.first_vectors)
    return _measure_from_spectrum(sd, seq.a, seq.b)


class TestLazyScales:
    """A report keeps the sequence it verified and forms the moment scales
    max(1, ||S_n||_2) only when they are read.  Every scale is at least 1, so
    residuals within a tolerance of at least 0 pass without them; the verdict,
    the worst relative residual, the scales and the failure message stay
    those of scales formed up front, bit for bit."""

    TOLS = (0.0, -0.0, -1e-8, 1e-300, 1e-12, 1e-8, 1.0, np.inf, np.nan)

    @pytest.mark.parametrize("seed, n, atoms, l, a, b", [
        (1, 1, 1, 2, 0.0, 1.0), (2, 3, 4, 2, -2.0, 3.0), (3, 2, 3, 3, 0.0, 1.0),
        (4, 3, 2, 3, -2.0, 3.0), (0, 8, 40, 20, -1.0, 1.0), (0, 8, 40, 21, -1.0, 1.0)])
    def test_solve_forms_no_scales(self, monkeypatch, seed, n, atoms, l, a, b):
        seq = moments_of(gen_random_measure(seed, n, atoms, a, b), l)
        extended = []
        original = matmom.solutions._with_next_moment

        def recorded(*args):
            result = original(*args)
            extended.append(result[0])
            return result

        monkeypatch.setattr(matmom.solutions, "_with_next_moment", recorded)
        (solve_odd if l % 2 == 0 else solve_even)(seq)
        assert len(extended) == l % 2
        for judged in (seq, *extended):
            assert "moment_scales" not in vars(judged)

    @staticmethod
    def _solved():
        """(measure, sequence) pairs: small problems of both parities, the
        large shape, the indeterminate l = 16 problem whose top residual
        exceeds 1e-8, a perturbed measure that fails and one outside [a, b]."""
        pairs = []
        for seed in range(12):
            seq = moments_of(gen_random_measure(seed, 1 + seed % 3, 1 + seed % 4,
                                                *((0.0, 1.0), (-2.0, 3.0))[seed % 2]),
                             2 + seed // 6)
            pairs.append((_solve(seq, 0.5, 0.5 if seq.l % 2 else None)[0], seq))
        large = moments_of(gen_random_measure(0, 8, 40, -1.0, 1.0), 20)
        pairs.append((solve_odd(large, 0.5), large))
        family = moments_of(gen_random_measure(0, 4, 30, -1.0, 2.0), 16)
        pairs += [(solve_odd(family, k), family) for k in (0.0, 0.5, 1.0)]
        mu = gen_random_measure(6, 2, 3, 0.0, 1.0)
        seq = moments_of(mu, 4)
        pairs.append((measure_from_atoms(mu.a, mu.b, mu.positions,
                                         mu.weights * (1.0 + 1e-3)), seq))
        outside = measure_from_atoms(-1.0, 2.0, [-0.5, 0.75],
                                     [0.5 * np.eye(1), 0.5 * np.eye(1)])
        pairs.append((outside, scalar_seq(0.0, 1.0, [1, 0.5, 1 / 3])))
        return pairs

    def test_report_matches_scales_formed_up_front(self):
        reports = []
        for measure, seq in self._solved():
            report = verify(measure, seq, tol=SOLVE_VERIFY_TOL)
            # read through the report first, then with the scales formed
            verdicts = [report.passed_at(tol) for tol in self.TOLS]
            worst, lazy_scales = report.max_relative_residual, report.moment_scales
            scales = seq.moment_scales
            assert verdicts == [_eager_verdict(report, scales, tol) for tol in self.TOLS]
            assert np.float64(worst).tobytes() == np.float64(
                _eager_worst(report, scales)).tobytes()
            assert lazy_scales.shape == scales.shape
            assert lazy_scales.tobytes() == scales.tobytes()
            reports.append(report)
        # the sweep reaches every branch: a verdict that needs no scales, one
        # that the scales pass (the l = 16 problem), and failures
        residual_ok = [r.moment_residuals.max() <= SOLVE_VERIFY_TOL for r in reports]
        assert any(residual_ok)
        assert any(r.passed and not ok for r, ok in zip(reports, residual_ok))
        assert sum(not r.passed for r in reports) == 2

    def test_verdict_at_the_boundary(self):
        # residuals at, just above and well above the tolerance, on a unit
        # scale and on the scale 4 of S_1 = -4, and a NaN residual
        seq = scalar_seq(0.0, 1.0, [1.0, -4.0])
        tol = 1e-8
        above = np.nextafter(tol, np.inf)
        for residuals in ([tol, tol], [above, 0.0], [0.0, above], [0.0, 4 * tol],
                          [0.0, np.nextafter(4 * tol, np.inf)], [np.nan, 0.0]):
            report = VerificationReport(tol, np.array(residuals), seq, True)
            for t in (*self.TOLS, tol, above, 2 * tol, 4 * tol):
                assert report.passed_at(t) == _eager_verdict(report, seq.moment_scales, t)

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
    def test_even_report_reads_the_extended_scales(self, t):
        seq = moments_of(gen_random_measure(4, 2, 4, -1.0, 2.0), 5)
        _, report = _solve(seq, 0.5, t)
        odd, _ = matmom.solutions._with_next_moment(seq, check_even(seq), t)
        assert report.moment_residuals.size == seq.l + 1
        assert report.moment_scales.tobytes() == odd.moment_scales[: seq.l + 1].tobytes()

    @pytest.mark.parametrize("seed, n, atoms, l, a, b, tol", [
        # fails at 1e-8 where the platform rounds as x86-64 does
        (40050, 2, 5, 8, -2.0, 3.0, SOLVE_VERIFY_TOL),
        # fails on every platform
        (2, 3, 4, 2, -2.0, 3.0, 1e-30)])
    def test_failure_message(self, monkeypatch, seed, n, atoms, l, a, b, tol):
        monkeypatch.setattr(matmom.solutions, "SOLVE_VERIFY_TOL", tol)
        seq = moments_of(gen_random_measure(seed, n, atoms, a, b), l)
        report = verify(_unverified_measure(seq, 0.5), seq, tol=tol)
        scales = seq.moment_scales
        if _eager_verdict(report, scales, tol):
            assert tol == SOLVE_VERIFY_TOL
            solve_odd(seq, 0.5)
            return
        with pytest.raises(NumericalInconsistency) as info:
            solve_odd(seq, 0.5)
        assert str(info.value) == (
            f"solved measure fails verification at tol {tol:.1e} "
            f"(max relative residual {_eager_worst(report, scales):.3e})")


class TestDeterminateRecovery:
    @pytest.mark.parametrize("seed", range(20))
    def test_few_atom_measures_are_recovered_exactly(self, seed):
        # with at most d well-separated atoms the problem is determinate and
        # the unique solution is the generating measure itself
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        atoms = int(rng.integers(1, d + 1))
        a, b = (0.0, 1.0) if seed % 2 else (-2.0, 3.0)
        base = np.linspace(a + 0.1 * (b - a), b - 0.1 * (b - a), atoms)
        jitter = rng.uniform(-0.02, 0.02, atoms) * (b - a)
        g = rng.standard_normal((atoms, n, n)) + 1j * rng.standard_normal(
            (atoms, n, n))
        mu = measure_from_atoms(a, b, base + jitter,
                                np.einsum("iba,ibc->iac", g.conj(), g))
        seq = moments_of(mu, 2 * d)
        iv = interval_for(seq)
        assert iv.determinate
        recovered = solve_odd(seq, 0.5)
        assert recovered.num_atoms == mu.num_atoms
        assert np.abs(recovered.positions - mu.positions).max() <= 1e-7 * (b - a)
        assert np.abs(recovered.weights - mu.weights).max() <= 1e-7


class TestConcurrentUse:
    def test_shared_interval_across_threads(self):
        # pipeline values are immutable; concurrent parameter sweeps over one
        # shared extension interval must agree with the serial results
        from concurrent.futures import ThreadPoolExecutor

        seq = scalar_seq(0, 1, [1, 0.5, 1 / 3])
        iv = interval_for(seq)
        ks = np.linspace(0.0, 1.0, 16)
        serial = [canonical_extension(iv, float(k)) for k in ks]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda k: canonical_extension(iv, float(k)), ks))
        for s, t in zip(serial, threaded):
            assert np.array_equal(s, t)
        with ThreadPoolExecutor(max_workers=8) as pool:
            measures = list(pool.map(lambda k: solve_odd(seq, float(k)), ks))
        for k, m in zip(ks, measures):
            assert m.isclose(solve_odd(seq, float(k)))


class TestStieltjesPerron:
    def test_single_boundary_atom(self):
        iv = interval_for(scalar_seq(-1, 1, [1, 1, 1]))
        rec = stieltjes_perron_recover(iv, 0.5)
        assert rec.num_atoms == 1
        assert abs(rec.positions[0] - 1.0) <= 1e-3
        assert abs(rec.weights[0, 0, 0].real - 1.0) <= 1e-3

    def test_total_mass_matches_trace(self):
        seq = scalar_seq(0, 1, [1, 0.5, 1 / 3])
        iv = interval_for(seq)
        rec = stieltjes_perron_recover(iv, 0.5)
        assert abs(np.trace(rec.total_mass()).real - 1.0) <= 1e-3

    def test_locations_and_weights_match_exact_solution(self):
        seq = scalar_seq(0, 1, [1, 0.5, 1 / 3])
        iv = interval_for(seq)
        exact = solve_odd(seq, 0.5)
        lam = (exact.positions - 0.5) / 0.5
        rec = stieltjes_perron_recover(iv, 0.5)
        assert rec.num_atoms == lam.size
        assert np.abs(rec.positions - lam).max() <= 1e-3
        assert np.abs(rec.weights - exact.weights).max() <= 1e-3

    def test_parameter_dependence_matches_exact_solutions(self):
        # the inversion recovers different measures for different parameters
        seq = scalar_seq(0, 1, [1, 0.5, 1 / 3])
        iv = interval_for(seq)
        for k in (0.0, 1.0):
            exact = solve_odd(seq, k)
            lam = (exact.positions - 0.5) / 0.5
            rec = stieltjes_perron_recover(iv, k)
            assert rec.num_atoms == lam.size
            assert np.abs(rec.positions - lam).max() <= 1e-3
            assert np.abs(rec.weights - exact.weights).max() <= 1e-3

    def test_refinement_improves_locations(self):
        seq = scalar_seq(0, 1, [1, 0.5, 1 / 3])
        iv = interval_for(seq)
        exact = solve_odd(seq, 0.5)
        lam = (exact.positions - 0.5) / 0.5
        errs = []
        for eps in (8e-4, 4e-4, 2e-4):
            rec = stieltjes_perron_recover(iv, 0.5, eps=eps, step=eps)
            errs.append(np.abs(rec.positions - lam).max())
        assert errs[1] <= errs[0]
        assert errs[2] <= errs[1]
        assert errs[2] < errs[0]

    def test_matrix_case_total_mass(self):
        mu = gen_random_measure(7, 2, 2, 0.0, 1.0)
        seq = moments_of(mu, 2)
        iv = interval_for(seq)
        rec = stieltjes_perron_recover(iv, 0.5)
        expected = np.trace(seq.moments[0]).real
        assert abs(np.trace(rec.total_mass()).real - expected) <= 1e-3 * expected

    def test_invalid_grid(self):
        iv = interval_for(scalar_seq(-1, 1, [1, 0, 1]))
        with pytest.raises(ValidationError):
            stieltjes_perron_recover(iv, 0.5, eps=-1.0)
