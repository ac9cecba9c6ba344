import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from matmom import EigDecomposition, ValidationError
from matmom.linalg import (
    RANK_TOL,
    check_psd_stack,
    herm_part,
    keeps_every_eigenvalue,
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
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
           exponent=st.floats(-12.0, -8.0))
    def test_a_proof_is_never_wrong(self, seed, n, exponent):
        # eigenvalues down to 10**exponent of the largest, across the cutoff
        rng = np.random.default_rng(seed)
        w = np.sort(rng.uniform(0.1, 1.0, n))
        w[0] = 10.0**exponent
        a = _with_spectrum(rng, w)
        if keeps_every_eigenvalue(a[None]):
            got = np.linalg.eigvalsh(a)
            assert rank_keep(got).all() and psd_ok(got)
            assert got.min() > 1.9 * RANK_TOL * got.max()

    def test_stack_of_identities(self):
        assert keeps_every_eigenvalue(np.stack([np.eye(3), 2.0 * np.eye(3)]))
        assert not keeps_every_eigenvalue(np.stack([np.eye(3), np.diag([1.0, 1.0, 0.0])]))


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
