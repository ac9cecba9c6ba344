import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from matmom import EigDecomposition, ValidationError
from matmom.linalg import (
    RANK_TOL,
    certified,
    check_psd_stack,
    herm_part,
    keeps_every_eigenvalue,
    psd_ends_ok,
    psd_ok,
    rank_keep,
    require_hermitian,
    require_hermitian_stack,
    sqrt_from_eig,
)

from helpers import random_hermitian, random_psd, random_unitary, reference_check_psd


class TestCheckPsdStack:
    """The batched helper must decide exactly as reference_check_psd does
    per matrix."""

    @staticmethod
    def _stack(rng, count, n):
        # PSD, rank-deficient, and shifted just inside and outside the slack
        # of each matrix's own scale, plus plainly indefinite members
        shifts = [0.0, 0.0, -0.5e-10, -2e-10, -1e-4]
        mats = []
        for i in range(count):
            u = random_unitary(rng, n)
            top = 10.0 ** rng.uniform(0.0, 3.0)
            lam = rng.uniform(0.0, top, size=n)
            lam[-1] = top
            lam[0] = 0.0 if i % 2 else lam[0]
            lam[0] += shifts[i % len(shifts)] * top
            mats.append((u * lam) @ u.conj().T)
        return np.stack(mats)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_agrees_with_check_psd(self, n):
        rng = np.random.default_rng(1000 + n)
        for count in (1, 7, 40):
            stack = self._stack(rng, count, n)
            got = check_psd_stack(stack)
            want = [reference_check_psd(m) for m in stack]
            assert got.shape == (count,)
            assert got.tolist() == want
            assert any(want) and (count == 1 or not all(want))

    def test_non_hermitian_member_raises(self):
        rng = np.random.default_rng(7)
        stack = self._stack(rng, 4, 3)
        stack[2, 0, 1] += 1e-6
        with pytest.raises(ValidationError):
            reference_check_psd(stack[2])
        with pytest.raises(ValidationError):
            check_psd_stack(stack)

    def test_non_finite_member_raises(self):
        stack = np.stack([np.eye(2), np.eye(2)])
        stack[1, 1, 1] = np.nan
        with pytest.raises(ValidationError):
            check_psd_stack(stack)

    def test_empty_stack(self):
        assert check_psd_stack(np.zeros((0, 3, 3))).shape == (0,)
        assert check_psd_stack(np.zeros((3, 0, 0))).tolist() == [True] * 3

    def test_scalar_weights(self):
        stack = np.array([[[2.0]], [[0.0]], [[-1e-11]], [[-1e-9]]])
        assert check_psd_stack(stack).tolist() == [reference_check_psd(m) for m in stack]
        assert check_psd_stack(stack).tolist() == [True, True, True, False]


def test_rank_keep_rule():
    assert rank_keep(np.array([1e-12, 1e-9, 1.0])).tolist() == [False, True, True]
    assert rank_keep(np.array([-1.0, 0.0])).tolist() == [False, False]
    assert rank_keep(np.zeros(0)).shape == (0,)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=6),
       st.sampled_from([1.0, 1e-10, 1e-12, 1e-8]))
def test_ends_decide_as_psd_ok_does(values, scale):
    """An ascending spectrum's two ends give psd_ok's verdict, also where
    the smallest eigenvalue sits at the tolerance."""
    w = np.sort(np.array(values) * scale)
    assert psd_ends_ok(float(w[0]), float(w[-1])) == bool(psd_ok(w))
    top = max(float(w[-1]), 1.0)
    for lo in (-1e-10 * top, float(np.nextafter(-1e-10 * top, -np.inf))):
        assert psd_ends_ok(lo, top) == bool(psd_ok(np.array([lo, top])))


def _with_spectrum(rng, w):
    u = random_unitary(rng, len(w))
    return herm_part((u * np.asarray(w)) @ u.conj().T)


class TestKeepsEveryEigenvalue:
    """A Cholesky factorization of A - tau I, tau = (2 RANK_TOL + 8 n^2 u)
    ||A||_1, proves that rank_keep keeps every eigenvalue of A."""

    @pytest.mark.parametrize("seed", range(6))
    def test_clear_margins_decide(self, seed):
        # lambda_max <= ||A||_1 <= sqrt(n) lambda_max, so a smallest
        # eigenvalue of 3 sqrt(n) RANK_TOL lambda_max clears the shift, and
        # one of 1.5 RANK_TOL lambda_max does not
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        u = random_unitary(rng, n)
        w = rng.uniform(0.5, 2.0, n)
        a, above, below = (herm_part((u * v) @ u.conj().T) for v in (
            w, np.r_[3.0 * np.sqrt(n) * RANK_TOL * w.max(), w[1:]],
            np.r_[1.5 * RANK_TOL * w[1:].max(), w[1:]]))
        assert keeps_every_eigenvalue(np.stack([a, above]))
        assert not keeps_every_eigenvalue(np.stack([a, below]))
        assert not keeps_every_eigenvalue(np.stack([-a]))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 24),
           exponent=st.floats(-12.0, -8.0))
    def test_a_proof_is_never_wrong(self, seed, n, exponent):
        # eigenvalues down to 10**exponent of the largest, across the cutoff;
        # one matrix and a stack of one give the same answer
        rng = np.random.default_rng(seed)
        w = np.sort(rng.uniform(0.1, 1.0, n))
        w[0] = 10.0**exponent
        a = _with_spectrum(rng, w)
        proved = keeps_every_eigenvalue(a)
        assert keeps_every_eigenvalue(a[None]) == proved
        if proved:
            got = np.linalg.eigvalsh(a)
            assert rank_keep(got).all() and psd_ok(got)
            assert got.min() > 1.9 * RANK_TOL * got.max()

    def test_one_matrix_leaves_it_as_it_was(self):
        a = random_psd(np.random.default_rng(4), 5)
        before = a.copy()
        assert keeps_every_eigenvalue(a)
        assert a.tobytes() == before.tobytes()

    def test_overflowing_norm_proves_nothing_silently(self):
        # ||A||_1 beyond the double range makes the shifted diagonal -inf:
        # no proof, and no overflow warning for a caller to print
        a = np.full((20, 20), 1e307, dtype=complex) + 1e308 * np.eye(20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not keeps_every_eigenvalue(a)
            assert not keeps_every_eigenvalue(np.stack([a, np.eye(20)]))

    def test_stack_of_identities(self):
        assert keeps_every_eigenvalue(np.stack([np.eye(3), 2.0 * np.eye(3)]))
        assert not keeps_every_eigenvalue(np.stack([np.eye(3), np.diag([1.0, 1.0, 0.0])]))


class TestCertified:
    """The checks' certificate: keeps_every_eigenvalue from order 16 up,
    and no factorization at all below it."""

    @pytest.mark.parametrize("n", [1, 6, 15])
    def test_below_order_16_nothing_is_factored(self, n, monkeypatch):
        calls = []
        monkeypatch.setattr(np.linalg, "cholesky", lambda *a, **k: calls.append(1))
        assert not certified(np.eye(n, dtype=complex))
        assert not certified(np.stack([np.eye(n, dtype=complex)] * 2))
        assert calls == []

    @pytest.mark.parametrize("seed", range(4))
    def test_from_order_16_the_certificate_decides(self, seed):
        # ||A||_1 <= sqrt(n) lambda_max < 5.5, so the shift is below 1.2e-9:
        # a smallest eigenvalue of 1e-8 clears it, and 1e-11 is cut anyway
        rng = np.random.default_rng(seed)
        n = int(rng.integers(16, 30))
        w = np.sort(rng.uniform(0.1, 1.0, n))
        for smallest in (1e-3, 1e-8, 1e-11, -1e-3):
            w[0] = smallest
            a = _with_spectrum(rng, w)
            assert certified(a) == keeps_every_eigenvalue(a) == (smallest > 1e-9)
            assert certified(np.stack([a, np.eye(n)])) == certified(a)


class TestRequireHermitianStack:
    def test_agrees_with_require_hermitian(self):
        rng = np.random.default_rng(11)
        stack = np.stack([random_hermitian(rng, 3) for _ in range(5)])
        stack[:, 0, 1] += 1e-13      # asymmetry inside the tolerance
        got = require_hermitian_stack(stack)
        want = np.stack([require_hermitian(m) for m in stack])
        assert got.tobytes() == want.tobytes()
        assert require_hermitian_stack(np.zeros((0, 3, 3))).shape == (0, 3, 3)

    def test_finite_symmetrization_is_bitwise_and_overflow_fails(self):
        # subnormal and near-overflow entries symmetrize exactly as
        # 0.5 * (A + A*); an entry whose sum overflows names its matrix
        stack = np.array([[[5e-324, 8.9e307j], [-8.9e307j, -8.98e307]],
                          [[1.0, 3e-324 + 5e-324j], [5e-324 - 3e-324j, 2.0]]])
        want = 0.5 * (stack + stack.conj().transpose(0, 2, 1))
        assert require_hermitian_stack(stack).tobytes() == want.tobytes()
        assert require_hermitian(stack[0]).tobytes() == want[0].tobytes()
        stack[1, 0, 0] = -1.5e308
        message = r"^m\[1\] has entries too large to symmetrize \(largest 1.500e\+308\)$"
        with pytest.raises(ValidationError, match=message):
            require_hermitian_stack(stack, name="m[{}]")
        with pytest.raises(ValidationError, match=message):
            require_hermitian(stack[1], name="m[1]")

    def test_first_failing_matrix_raises_its_own_error(self):
        rng = np.random.default_rng(12)
        stack = np.stack([random_hermitian(rng, 2, scale=10.0) for _ in range(5)])
        stack[2, 0, 1] += 1e-6
        stack[3, 1, 1] = np.inf
        with pytest.raises(ValidationError) as want:
            require_hermitian(stack[2], 1e-9, name="m[2]")
        with pytest.raises(ValidationError) as got:
            require_hermitian_stack(stack, 1e-9, name="m[{}]")
        assert str(got.value) == str(want.value)
        with pytest.raises(ValidationError, match=r"^m\[2\] contains non-finite entries$"):
            require_hermitian_stack(np.delete(stack, 2, axis=0), 1e-9, name="m[{}]")


class TestSqrtPsd:
    """The PSD square root from a spectrum the caller already has."""

    @staticmethod
    def _sqrt(a):
        return sqrt_from_eig(EigDecomposition(*np.linalg.eigh(a)))

    def test_diagonal(self):
        assert np.allclose(self._sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]),
                           atol=1e-14)

    def test_zero(self):
        assert np.allclose(self._sqrt(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_full_matrix_squares_back(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        root = self._sqrt(a)
        assert np.allclose(root @ root, a, atol=1e-12)
        assert reference_check_psd(root)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10), st.integers(0, 2**32 - 1))
    def test_square_reconstructs(self, n, seed):
        rng = np.random.default_rng(seed)
        a = random_psd(rng, n, rank=rng.integers(1, n + 1))
        root = self._sqrt(a)
        scale = max(1.0, np.linalg.norm(a, 2))
        assert np.linalg.norm(root @ root - a, 2) <= 1e-9 * scale
        assert reference_check_psd(root)


def test_require_hermitian_symmetrizes():
    a = np.array([[1.0, 1.0 + 1e-14], [1.0, 2.0]])
    out = require_hermitian(a)
    assert np.allclose(out, out.conj().T)
