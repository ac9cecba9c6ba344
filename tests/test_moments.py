import re

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import matmom.moments
from matmom import (
    DiscreteMatrixMeasure,
    MomentSequence,
    ValidationError,
    build_gamma,
    build_gamma_hat,
    build_gamma_tilde,
    build_h_pair,
    gen_random_measure,
    measure_from_atoms,
    moments_of,
)
from matmom.linalg import HERM_TOL, check_psd_stack, require_hermitian_stack
from matmom.moments import _moment_stack

from helpers import random_hermitian, reference_check_psd, reference_hankel


def scalar_seq(a, b, values):
    return MomentSequence(a, b, tuple(np.array([[v]], dtype=complex) for v in values))


def random_seq(seed, n=2, l=4, scale=1.0):
    rng = np.random.default_rng(seed)
    mats = tuple(random_hermitian(rng, n, scale) for _ in range(l + 1))
    return MomentSequence(-1.0, 1.0, mats)


class TestBuilders:
    def test_gamma_identity_pattern(self):
        seq = scalar_seq(-1, 1, [1, 0, 1])
        assert np.allclose(build_gamma(seq, 1), np.eye(2))

    def test_gamma_constant_pattern(self):
        seq = scalar_seq(-1, 1, [1, 1, 1])
        assert np.allclose(build_gamma(seq, 1), np.ones((2, 2)))

    def test_gamma_block_identity(self):
        seq = MomentSequence(-1, 1, (np.eye(2), np.zeros((2, 2)), np.eye(2)))
        assert np.allclose(build_gamma(seq, 1), np.eye(4))

    def test_gamma_tilde_symmetric_interval(self):
        seq = scalar_seq(-1, 1, [1, 0, 1])
        assert np.allclose(build_gamma_tilde(seq, 1), [[0.0]])

    def test_gamma_tilde_unit_interval(self):
        seq = scalar_seq(0, 1, [1, 0.5, 1 / 3])
        assert np.allclose(build_gamma_tilde(seq, 1), [[1 / 6]])

    def test_gamma_tilde_order_zero_is_empty(self):
        seq = scalar_seq(0, 1, [1, 0.5, 1 / 3])
        assert build_gamma_tilde(seq, 0).shape == (0, 0)

    def test_h_pair_basic(self):
        seq = scalar_seq(0, 1, [1, 0.5])
        h, ht = build_h_pair(seq, 0)
        assert np.allclose(h, [[0.5]])
        assert np.allclose(ht, [[0.5]])

    def test_h_pair_negative_side(self):
        seq = scalar_seq(0, 1, [1, 2])
        h, ht = build_h_pair(seq, 0)
        assert np.allclose(h, [[2.0]])
        assert np.allclose(ht, [[-1.0]])

    def test_h_pair_order_one(self):
        seq = scalar_seq(-1, 1, [1, 0, 1, 0])
        h, ht = build_h_pair(seq, 1)
        assert np.allclose(h, [[1.0, 1.0], [1.0, 1.0]])
        assert np.allclose(ht, [[1.0, -1.0], [-1.0, 1.0]])

    def test_gamma_hat(self):
        seq = scalar_seq(-1, 1, [1, 1, 1, 1, 1])
        assert np.allclose(build_gamma_hat(seq, 2), np.ones((2, 2)))
        seq2 = scalar_seq(-1, 1, [1, 0, 1])
        assert np.allclose(build_gamma_hat(seq2, 1), [[1.0]])

    def test_gamma_hat_block_case(self):
        s2 = np.array([[2.0, 1j], [-1j, 3.0]])
        seq = MomentSequence(-1, 1, (np.eye(2), np.zeros((2, 2)), s2))
        assert np.allclose(build_gamma_hat(seq, 1), s2)

    def test_insufficient_moments(self):
        seq = scalar_seq(-1, 1, [1, 0, 1])
        with pytest.raises(ValidationError):
            build_gamma(seq, 2)
        with pytest.raises(ValidationError):
            build_h_pair(seq, 1)
        with pytest.raises(ValidationError):
            build_gamma_hat(seq, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3))
    def test_builders_hermitian(self, seed, n, d):
        seq = random_seq(seed, n=n, l=2 * d + 1)
        mats = [
            build_gamma(seq, d),
            build_gamma_tilde(seq, d),
            *(bh for bh in build_h_pair(seq, d)),
            build_gamma_hat(seq, d),
        ]
        for m in mats:
            assert np.allclose(m, m.conj().T, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("l", range(2, 10))
    def test_gather_equals_block_loop(self, n, l):
        rng = np.random.default_rng(10 * l + n)
        seq = MomentSequence(-0.7, 2.3, tuple(random_hermitian(rng, n) for _ in range(l + 1)))
        built = []
        for k in range(l // 2 + 1):
            built += [("gamma", k, build_gamma(seq, k)),
                      ("gamma_tilde", k, build_gamma_tilde(seq, k))]
            if k >= 1:
                built.append(("gamma_hat", k, build_gamma_hat(seq, k)))
        for k in range((l - 1) // 2 + 1):
            h, ht = build_h_pair(seq, k)
            built += [("h", k, h), ("h_tilde", k, ht)]
        for kind, k, got in built:
            want = reference_hankel(seq, kind, k)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (kind, k)
        # the blocks of Gamma_d that check_odd reads for the kernel condition
        d = l // 2
        gamma = build_gamma(seq, d)
        assert gamma[:-n, :-n].tobytes() == build_gamma(seq, d - 1).tobytes()
        assert gamma[n:, n:].tobytes() == build_gamma_hat(seq, d).tobytes()

    def test_entry_layout_matches_moments(self):
        # entry (r*N + j, t*N + n) of the moment matrix is S_{r+t}[j, n]
        seq = random_seq(3, n=2, l=4)
        g = build_gamma(seq, 2)
        n = seq.N
        for r in range(3):
            for t in range(3):
                for j in range(n):
                    for m in range(n):
                        assert g[r * n + j, t * n + m] == seq.moments[r + t][j, m]


class TestWeightedMeasureIdentities:
    """The structured matrices are plain moment matrices of reweighted measures."""

    @pytest.mark.parametrize("seed", range(6))
    def test_gamma_tilde_is_interval_weighted_hankel(self, seed):
        mu = gen_random_measure(seed, 2, 3, -0.5, 2.0)
        seq = moments_of(mu, 4)
        k = 2
        w = ((mu.b - mu.positions) * (mu.positions - mu.a))[:, None, None]
        mu_w = measure_from_atoms(mu.a, mu.b, mu.positions, w * mu.weights)
        expected = build_gamma(moments_of(mu_w, 2 * (k - 1)), k - 1)
        got = build_gamma_tilde(seq, k)
        scale = max(1.0, np.abs(expected).max())
        assert np.abs(got - expected).max() <= 1e-10 * scale
        assert reference_check_psd(got)

    @pytest.mark.parametrize("seed", range(6))
    def test_h_pair_are_endpoint_weighted_hankels(self, seed):
        mu = gen_random_measure(100 + seed, 2, 3, -0.5, 2.0)
        seq = moments_of(mu, 5)
        k = 2
        h, ht = build_h_pair(seq, k)
        for hankel, weight in ((h, mu.positions - mu.a), (ht, mu.b - mu.positions)):
            mu_w = measure_from_atoms(mu.a, mu.b, mu.positions,
                                      weight[:, None, None] * mu.weights)
            expected = build_gamma(moments_of(mu_w, 2 * k), k)
            scale = max(1.0, np.abs(expected).max())
            assert np.abs(hankel - expected).max() <= 1e-10 * scale
            assert reference_check_psd(hankel)


class TestMomentsOf:
    def test_point_mass_at_one(self):
        mu = measure_from_atoms(-1, 1, [1.0], [np.eye(1)])
        seq = moments_of(mu, 3)
        for s in seq.moments:
            assert np.allclose(s, 1.0)

    def test_symmetric_pair(self):
        mu = measure_from_atoms(-1, 1, [-1.0, 1.0],
                                [0.5 * np.eye(1), 0.5 * np.eye(1)])
        seq = moments_of(mu, 2)
        assert np.allclose([s[0, 0] for s in seq.moments], [1.0, 0.0, 1.0])

    def test_zero_power_convention(self):
        w0 = np.diag([1.0, 2.0])
        w1 = np.array([[1.0, 1j], [-1j, 2.0]])
        mu = measure_from_atoms(0, 1, [0.0, 1.0], np.stack([w0, w1]))
        seq = moments_of(mu, 3)
        assert np.allclose(seq.moments[0], w0 + w1)
        for n in range(1, 4):
            assert np.allclose(seq.moments[n], w1)

    def test_empty_measure(self):
        mu = measure_from_atoms(0, 1, [], np.zeros((0, 2, 2)), N=2)
        seq = moments_of(mu, 2)
        assert all(np.allclose(s, 0) for s in seq.moments)
        mass = mu.total_mass()
        assert mass.dtype == complex and mass.shape == (2, 2) and not mass.any()

    @pytest.mark.parametrize("seed, n, atoms, l", [(0, 1, 1, 0), (1, 2, 5, 6),
                                                   (2, 3, 40, 20), (3, 8, 88, 20)])
    def test_matches_atom_loop(self, seed, n, atoms, l):
        # the matrix product sums in another order than the loop: each entry
        # may differ by a few roundings of the sum of absolute terms
        mu = gen_random_measure(seed, n, atoms, -2.0, 3.0)
        got = moments_of(mu, l)._stack
        for k in range(l + 1):
            terms = [float(x) ** k * w for x, w in zip(mu.positions, mu.weights)]
            want = sum(terms)
            want = 0.5 * (want + want.conj().T)
            bound = 8 * (atoms + l + 1) * np.finfo(float).eps * sum(np.abs(t) for t in terms)
            assert np.all(np.abs(got[k] - want) <= bound), k

    def test_overflow_named_as_before(self):
        # high powers of a wide interval overflow; the first such moment is named
        mu = measure_from_atoms(-1e200, 1e200, [1e100], [np.eye(1)])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValidationError, match=r"^S_4 contains non-finite entries$"):
                moments_of(mu, 4)

    def test_symmetrization_overflow_named(self):
        # S_4 = 1.68e308 is finite, but (S + S*)/2 overflows: rejected by the
        # validating constructor's rule, not stored as inf
        mu = gen_random_measure(5, 1, 1, 9e76, 1e77)
        with pytest.raises(ValidationError,
                           match=r"^S_4 has entries too large to symmetrize"):
            moments_of(mu, 4)
        assert np.isfinite(moments_of(mu, 3)._stack).all()


class TestValidByConstruction:
    """Internal producers build measures and sequences without checking them
    again; each check they skip would pass."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 30),
           st.integers(0, 12), st.sampled_from([(0.0, 1.0), (-2.0, 3.0), (-1e3, 1e-3)]))
    def test_generated_weights_and_moments(self, seed, n, atoms, l, interval):
        mu = gen_random_measure(seed, n, atoms, *interval)
        assert check_psd_stack(mu.weights).all()
        assert np.all((mu.positions >= interval[0]) & (mu.positions <= interval[1]))
        assert np.all(np.diff(mu.positions) > 0)
        stack = _moment_stack(mu, l)
        require_hermitian_stack(stack, HERM_TOL)
        assert np.array_equal(moments_of(mu, l)._stack, 0.5 * (stack + stack.conj().transpose(0, 2, 1)))

    def test_moments_of_nearly_hermitian_weights(self):
        # a weight the constructor admits may be Hermitian only within
        # HERM_TOL; its moments are symmetrized as the validating route does
        rng = np.random.default_rng(0)
        g = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
        w = np.einsum("iab,icb->iac", g, g.conj())
        w[:, 0, 1] += 1e-13
        mu = DiscreteMatrixMeasure(-1.0, 2.0, 3, np.array([-0.5, 1.5]), w)
        got = moments_of(mu, 4)._stack
        want = MomentSequence(-1.0, 2.0, tuple(_moment_stack(mu, 4)))._stack
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got, got.conj().transpose(0, 2, 1))

    @pytest.mark.parametrize("seed", range(6))
    def test_generated_measure_equals_the_validating_route(self, seed):
        n, atoms, a, b = 1 + seed % 3, 1 + 3 * seed, -2.0, 3.0
        rng = np.random.default_rng(seed)
        pos = rng.uniform(a, b, size=atoms)
        g = rng.standard_normal((atoms, n, n)) + 1j * rng.standard_normal((atoms, n, n))
        want = measure_from_atoms(a, b, pos, np.einsum("iba,ibc->iac", g.conj(), g), N=n)
        got = gen_random_measure(seed, n, atoms, a, b)
        assert got.positions.tobytes() == want.positions.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()
        assert not got.positions.flags.writeable and not got.weights.flags.writeable

    def test_public_routes_check_once(self, monkeypatch):
        calls = []
        original = matmom.moments.check_psd_stack

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(matmom.moments, "check_psd_stack", counted)
        weights = np.stack([np.eye(2), np.diag([1.0, 2.0])])
        measure_from_atoms(0.0, 1.0, [0.25, 0.5], weights)
        assert len(calls) == 1
        DiscreteMatrixMeasure(0.0, 1.0, 2, np.array([0.25, 0.5]), weights)
        assert len(calls) == 2
        gen_random_measure(0, 2, 5, 0.0, 1.0)
        assert len(calls) == 2

    @pytest.mark.parametrize("seed", range(4))
    def test_truncated_and_extended_equal_the_validating_route(self, seed):
        seq = random_seq(seed, n=3, l=5)
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        s_next = raw + raw.conj().T + 1e-14 * raw
        for got, want in [
            (seq.truncated(2), MomentSequence(seq.a, seq.b, seq.moments[:3])),
            (seq.extended(s_next), MomentSequence(seq.a, seq.b, seq.moments + (s_next,))),
        ]:
            assert got._stack.tobytes() == want._stack.tobytes()
            assert not got._stack.flags.writeable
            assert all(m.base is got._stack for m in got.moments)


class TestGenRandomMeasure:
    def test_deterministic(self):
        m1 = gen_random_measure(7, 2, 3, 0.0, 1.0)
        m2 = gen_random_measure(7, 2, 3, 0.0, 1.0)
        assert np.array_equal(m1.positions, m2.positions)
        assert np.array_equal(m1.weights, m2.weights)

    def test_scalar_single_atom(self):
        mu = gen_random_measure(42, 1, 1, 0.0, 1.0)
        assert mu.num_atoms == 1
        assert 0.0 < mu.positions[0] < 1.0
        assert mu.weights[0, 0, 0].real > 0

    def test_weights_are_psd_full_rank(self):
        mu = gen_random_measure(3, 3, 4, -2.0, 3.0)
        for i in range(mu.num_atoms):
            w = np.linalg.eigvalsh(mu.weights[i])
            assert w.min() > 0

    def test_invalid_args(self):
        with pytest.raises(ValidationError):
            gen_random_measure(0, 1, 0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            gen_random_measure(0, 1, 1, 1.0, 0.0)

    @pytest.mark.parametrize("seed", [-1, 1.5, None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            gen_random_measure(seed, 1, 1, 0.0, 1.0)


class TestMeasureCanonicalization:
    def test_sorting(self):
        mu = measure_from_atoms(0, 1, [0.7, 0.2], [np.eye(1), 2 * np.eye(1)])
        assert np.allclose(mu.positions, [0.2, 0.7])
        assert np.allclose(mu.weights[:, 0, 0], [2.0, 1.0])

    def test_merge_close_atoms(self):
        x = 0.5
        mu = measure_from_atoms(0, 1, [x, x + 1e-14], [np.eye(1), np.eye(1)])
        assert mu.num_atoms == 1
        assert np.allclose(mu.weights[0], 2 * np.eye(1))

    def test_merge_chains_close_atoms(self):
        # consecutive gaps of 0.8e-12 (b - a): one run, although its ends are
        # 1.6e-12 (b - a) apart
        a, b = -2.0, 3.0
        x = 0.5 + 0.8e-12 * (b - a) * np.arange(3)
        mu = measure_from_atoms(a, b, x[::-1], [np.eye(1), 2 * np.eye(1), 4 * np.eye(1)])
        assert mu.num_atoms == 1
        assert mu.positions[0] == x[0]
        assert np.array_equal(mu.weights[0], 7 * np.eye(1))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 3),
           st.sampled_from([(0.0, 1.0), (-2.0, 3.0), (1e7, 1e7 + 1)]))
    def test_sorted_atoms_match_their_sorting(self, seed, m, n, interval):
        # increasing, separated positions skip the sort and the merge; the
        # same atoms in any order take them, and must give the same bytes
        a, b = interval
        rng = np.random.default_rng(seed)
        gaps = rng.uniform(0.1, 1.0, m + 1)
        pos = a + (b - a) * np.cumsum(gaps)[:-1] / gaps.sum()
        g = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
        w = np.einsum("iba,ibc->iac", g.conj(), g)
        # some weights below the prune floor, so the prune acts on both routes
        w *= np.where(rng.uniform(size=m) < 0.3, 1e-14, 1.0)[:, None, None]
        perm = rng.permutation(m)
        sorted_in = measure_from_atoms(a, b, pos, w)
        shuffled_in = measure_from_atoms(a, b, pos[perm], w[perm])
        assert sorted_in.positions.tobytes() == shuffled_in.positions.tobytes()
        assert sorted_in.weights.tobytes() == shuffled_in.weights.tobytes()

    def test_weights_in_any_memory_layout(self):
        # the atoms' weights as Fortran-ordered or transposed views
        w = np.stack([[[2.0, 1j], [-1j, 1.0]], [[1.0, 0.0], [0.0, 3.0]]])
        want = measure_from_atoms(0, 1, [0.25, 0.75], w)
        transposed = np.ascontiguousarray(w.transpose(0, 2, 1)).transpose(0, 2, 1)
        for view in (np.asfortranarray(w), transposed):
            mu = measure_from_atoms(0, 1, [0.25, 0.75], view)
            assert mu.weights.tobytes() == want.weights.tobytes()

    def test_rejects_inconsistent_atom_arrays(self):
        with pytest.raises(ValidationError, match="inconsistent shapes"):
            measure_from_atoms(0, 1, [0.1, 0.2, 0.3], [np.eye(1), np.eye(1)])
        with pytest.raises(ValidationError, match="inconsistent shapes"):
            measure_from_atoms(0, 1, [0.1], [np.eye(1), np.eye(1)])

    @pytest.mark.parametrize("positions, scale, what", [
        ([0.1, 0.2], [np.nan, 1.0], "atom 0 has a non-finite weight"),
        ([0.1, 0.2], [1.0, np.inf], "atom 1 has a non-finite weight"),
        ([np.nan, 0.2], [1.0, 1.0], "atom 0 has a non-finite position"),
    ])
    def test_rejects_non_finite_atoms(self, positions, scale, what):
        # one NaN or inf weight once made the prune floor non-finite, and
        # every atom was pruned
        weights = np.array(scale)[:, None, None] * np.eye(1)
        with pytest.raises(ValidationError, match=what):
            measure_from_atoms(0, 1, positions, weights)

    def test_prune_negligible(self):
        mu = measure_from_atoms(0, 1, [0.3, 0.6], [np.eye(1), 1e-14 * np.eye(1)])
        assert mu.num_atoms == 1
        assert np.allclose(mu.positions, [0.3])

    @pytest.mark.parametrize("scale", [1e160, 1e300, 1e-200, 1e-300])
    def test_prune_at_any_scale(self, scale):
        # the Frobenius norms of such weights overflow or underflow, and
        # every atom used to be pruned
        mu = measure_from_atoms(0, 1, [0.25, 0.75], [[[scale]], [[scale]]])
        assert mu.positions.tolist() == [0.25, 0.75]
        assert mu.weights[:, 0, 0].tolist() == [scale, scale]
        # and a negligible weight is still pruned relative to the total mass
        mu = measure_from_atoms(0, 1, [0.25, 0.5, 0.75],
                                [[[scale]], [[1e-14 * scale]], [[scale]]])
        assert mu.positions.tolist() == [0.25, 0.75]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            measure_from_atoms(0, 1, [1.5], [np.eye(1)])

    def test_rejects_non_psd_weight(self):
        with pytest.raises(ValidationError):
            measure_from_atoms(0, 1, [0.5], [np.diag([1.0, -1.0])])

    def test_rejects_any_bad_weight_among_many(self):
        good = np.eye(2)
        weights = [good, good, np.diag([1.0, -1e-3]), good]
        with pytest.raises(ValidationError, match="weight 2 is not PSD"):
            measure_from_atoms(0, 1, [0.1, 0.2, 0.3, 0.4], weights)
        weights[2] = np.array([[1.0, 1e-3], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="not Hermitian"):
            measure_from_atoms(0, 1, [0.1, 0.2, 0.3, 0.4], weights)

    @pytest.mark.parametrize("n, message", [
        (-1, "must be a positive integer"), (0, "must be a positive integer"),
        (2.0, "must be a positive integer"), (2 ** 32, "too large"), (10 ** 23, "too large"),
    ])
    def test_block_size_rule(self, n, message):
        # one rule for N: a positive integer whose empty weight stack exists
        with pytest.raises(ValidationError, match=f"^block size N.*{message}"):
            measure_from_atoms(0, 1, [], [], N=n)

    def test_zero_block_size_with_atoms(self):
        with pytest.raises(ValidationError, match="^block size N must be a positive integer"):
            measure_from_atoms(0, 1, [0.5], np.zeros((1, 0, 0)), N=0)
        with pytest.raises(ValidationError, match="^block size N must be a positive integer"):
            measure_from_atoms(0, 1, [0.5], np.zeros((1, 0, 0)))
        with pytest.raises(ValidationError, match="^block size N must be a positive integer"):
            DiscreteMatrixMeasure(0.0, 1.0, 0, np.zeros(0), np.zeros((0, 0, 0)))

    def test_empty_needs_block_size(self):
        mu = measure_from_atoms(0, 1, [], np.zeros((0, 2, 2)), N=2)
        assert mu.num_atoms == 0
        with pytest.raises(ValidationError):
            measure_from_atoms(0, 1, [], np.zeros((0, 2, 2)).reshape(0, 2, 2)[:0],
                               N=None)

    def test_isclose(self):
        m1 = gen_random_measure(5, 2, 3, 0.0, 1.0)
        m2 = gen_random_measure(5, 2, 3, 0.0, 1.0)
        m3 = gen_random_measure(6, 2, 3, 0.0, 1.0)
        assert m1.isclose(m2)
        assert not m1.isclose(m3)


class TestMomentSequence:
    def test_truncate_and_extend(self):
        seq = scalar_seq(0, 1, [1, 0.5, 1 / 3])
        assert seq.truncated(1).l == 1
        assert seq.extended(np.array([[0.25]])).l == 3
        with pytest.raises(ValidationError):
            seq.truncated(5)

    def test_validation(self):
        with pytest.raises(ValidationError):
            MomentSequence(1.0, 0.0, (np.eye(1),))
        with pytest.raises(ValidationError):
            MomentSequence(0.0, 1.0, ())
        with pytest.raises(ValidationError):
            MomentSequence(0.0, 1.0, (np.array([[0.0, 1.0], [0.0, 0.0]]),))
        with pytest.raises(ValidationError):
            MomentSequence(0.0, 1.0, (np.eye(2), np.eye(3)))

    def test_symmetrization_overflow_is_rejected(self):
        # (S + S*)/2 of 1e308 once stored inf+nanj; entries whose
        # symmetrization is finite are kept bitwise
        with pytest.raises(ValidationError, match=r"^S_0 has entries too large to symmetrize"):
            MomentSequence(0.0, 1.0, (np.array([[1e308]]),))
        big = np.array([[8.9e307, 4e307 + 4e307j], [4e307 - 4e307j, 5e-324]])
        seq = MomentSequence(0.0, 1.0, (big,))
        assert seq.moments[0].tobytes() == (0.5 * (big + big.conj().T)).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_moment_scales_computed_once(self, seed):
        seq = random_seq(seed, n=3, l=5, scale=10.0 ** seed)
        scales = seq.moment_scales
        stack = np.stack(seq.moments)
        # the largest |eigenvalue| of each Hermitian moment is its spectral norm
        expected = np.maximum(1.0, np.abs(np.linalg.eigvalsh(stack)).max(axis=-1))
        assert np.array_equal(scales, expected)
        svd = np.maximum(1.0, np.linalg.norm(stack, 2, axis=(1, 2)))
        assert (np.abs(scales - svd) <= 1e-15 * svd).all()
        assert seq.moment_scales is scales
        assert not scales.flags.writeable

    @pytest.mark.parametrize("bad, message", [
        (np.ones((2, 3)), "S_2 must be square, got shape (2, 3)"),
        (np.eye(3), "S_2 has dimension 3, expected 2"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "S_2 contains non-finite entries"),
        (np.array([[1.0, 1e-3], [0.0, 1.0]]),
         "S_2 is not Hermitian: asymmetry 1.000e-03 exceeds 1.0e-12 * max(1, 1.000e+00)"),
        (np.array([[1e308, 0.0], [0.0, 1.0]]),
         "S_2 has entries too large to symmetrize (largest 1.000e+308)"),
    ])
    def test_names_the_failing_moment(self, bad, message):
        # the moment after it is malformed too; the first fault is reported
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            MomentSequence(0.0, 1.0, (np.eye(2), np.eye(2), bad, np.ones(3)))
        # extended validates the new moment alone, with the same messages
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            MomentSequence(0.0, 1.0, (np.eye(2), np.eye(2))).extended(bad)
