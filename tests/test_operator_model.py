import math
import subprocess
import sys

import numpy as np
import pytest

import matmom.solvability
from matmom import (
    GramSpace,
    MomentSequence,
    OperatorIllDefined,
    ValidationError,
    build_gamma,
    build_gamma_tilde,
    build_gram_space,
    build_operators,
    canonical_extension,
    check_odd,
    extremal_extensions,
    gen_random_measure,
    kernel_inclusion,
    measure_from_atoms,
    moments_of,
    solve_odd,
)
from matmom.linalg import RANK_TOL, EigDecomposition, rank_keep, sqrt_from_eig
from matmom.solutions import spectral_data

from helpers import random_contraction, reference_gram_space


def scalar_seq(a, b, values):
    return MomentSequence(a, b, tuple(np.array([[v]], dtype=complex) for v in values))


def gram_matrix(space):
    # Gram entry (n, m) in the fixed convention sum_i u_i conj(v_i)
    x = space.vectors
    return x.T @ x.conj()


class TestGramSpace:
    def test_orthonormal_case(self):
        space = build_gram_space(scalar_seq(-1, 1, [1, 0, 1]))
        assert space.rank == 2
        g = gram_matrix(space)
        assert np.allclose(g, np.eye(2), atol=1e-12)

    def test_rank_one_case(self):
        space = build_gram_space(scalar_seq(-1, 1, [1, 1, 1]))
        assert space.rank == 1
        assert np.abs(space.vectors[:, 0] - space.vectors[:, 1]).max() <= 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_gram_identity_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        mu = gen_random_measure(seed, n, int(rng.integers(1, 5)), -2.0, 3.0)
        seq = moments_of(mu, 2 * int(rng.integers(1, 4)))
        space = build_gram_space(seq)
        gamma = build_gamma(seq, seq.l // 2)
        scale = max(1.0, np.linalg.norm(gamma, 2))
        assert np.abs(gram_matrix(space) - gamma).max() <= 1e-9 * scale
        # the vectors span the whole r-dimensional space
        assert np.linalg.matrix_rank(space.vectors, tol=1e-10) == space.rank

    def test_refuses_non_psd(self):
        with pytest.raises(ValidationError):
            build_gram_space(scalar_seq(-1, 1, [1, 0, -1]))

    def test_requires_odd_case(self):
        with pytest.raises(ValidationError):
            build_gram_space(scalar_seq(-1, 1, [1, 0]))


class TestBuildOperators:
    def test_defect_line_example(self):
        # orthonormal x_0, x_1 and the shift maps x_0 to x_1
        model = build_operators(build_gram_space(scalar_seq(-1, 1, [1, 0, 1])))
        assert model.dom_dim == 1 and model.def_dim == 1
        assert np.allclose(model.P, [[0.0]], atol=1e-14)
        assert np.allclose(model.Q, [[1.0]], atol=1e-14)

    def test_point_mass_no_defect(self):
        model = build_operators(build_gram_space(scalar_seq(-1, 1, [1, 1, 1])))
        assert model.space.rank == 1
        assert model.def_dim == 0
        assert np.allclose(model.P, [[1.0]], atol=1e-12)

    def test_ill_defined_shift(self):
        # zero mass with nonzero second moment: the domain vector vanishes
        # while the shifted vector does not
        space = build_gram_space(scalar_seq(-1, 1, [0, 0, 1]))
        with pytest.raises(OperatorIllDefined):
            build_operators(space)

    @pytest.mark.parametrize("seed", range(10))
    def test_contraction_column(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        mu = gen_random_measure(1000 + seed, n, int(rng.integers(1, 5)), 0.0, 1.0)
        seq = moments_of(mu, 4)
        model = build_operators(build_gram_space(seq))
        assert np.linalg.norm(np.vstack([model.P, model.Q]), 2) <= 1.0 + 1e-10
        assert np.allclose(model.P, model.P.conj().T, atol=1e-12)
        # the model's r coordinates split into domain and defect, and the
        # first vectors keep their Gram matrix S_0
        assert model.dom_dim + model.def_dim == model.space.rank
        f = model.first_vectors
        assert f.shape == (model.space.rank, n)
        assert np.abs(f.T @ f.conj() - build_gamma(seq, 2)[:n, :n]).max() <= 1e-9


def _reference_operators(space, rank_tol=1e-10):
    """The pinv-based construction: numpy's pinv of the domain vectors for
    the residual and the coefficients, and a second SVD for the bases."""
    n, dn = space.N, space.d * space.N
    g_dom = space.vectors[:, :dn]
    g_shift = space.vectors[:, n : n + dn]
    pinv_dom = np.linalg.pinv(g_dom, rcond=rank_tol)
    residual = np.linalg.norm(g_shift - g_shift @ (pinv_dom @ g_dom), 2)
    u_full, sing, _ = np.linalg.svd(g_dom)
    p_dim = int(np.sum(sing > rank_tol * sing[0]))
    bases = []
    for u in (u_full[:, :p_dim].copy(), u_full[:, p_dim:].copy()):
        for j in range(u.shape[1]):
            piv = u[np.argmax(np.abs(u[:, j])), j]
            u[:, j] *= piv.conj() / abs(piv)
        bases.append(u)
    dom, dfc = bases
    scale = 2.0 / (space.b - space.a)
    shift = (space.a + space.b) / (space.b - space.a)
    coeff = pinv_dom @ dom
    block = g_dom.conj().T @ g_shift
    block = 0.5 * (block + block.conj().T)
    p_raw = scale * (coeff.conj().T @ block @ coeff) - shift * np.eye(p_dim)
    q = dfc.conj().T @ (scale * (g_shift @ coeff) - shift * dom)
    return dom, dfc, 0.5 * (p_raw + p_raw.conj().T), q, residual


def _model_bases(space):
    """``(U, p)``: explicit bases of the coordinates the model documents, as
    the columns of one unitary r x r matrix U with the domain's p first.
    At full rank they are Gram-Schmidt of x_0, x_1, ... (a QR with R's
    diagonal made positive), otherwise the reference's SVD bases."""
    if space.rank == space.vectors.shape[1]:
        u, r = np.linalg.qr(space.vectors)
        return u * (np.diagonal(r) / np.abs(np.diagonal(r))), space.d * space.N
    dom, dfc = _reference_operators(space)[:2]
    return np.hstack([dom, dfc]), dom.shape[1]


def _rank_one_weight_measure(seed, n, atoms, a, b):
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((atoms, n)) + 1j * rng.standard_normal((atoms, n))
    weights = vecs[:, :, None] * vecs.conj()[:, None, :]
    return measure_from_atoms(a, b, rng.uniform(a, b, atoms), weights, N=n)


# (measure, d): rank-deficient Gram spaces (domain vectors with a kernel, or
# rank-one weights) and one full-rank space with a defect, the last
ONE_SVD_CASES = [
    (lambda: gen_random_measure(11, 2, 2, -1.0, 1.0), 3),
    (lambda: gen_random_measure(12, 1, 3, 0.0, 1.0), 4),
    (lambda: gen_random_measure(13, 3, 2, -2.0, 3.0), 3),
    (lambda: _rank_one_weight_measure(14, 2, 3, -1.0, 2.0), 3),
    (lambda: _rank_one_weight_measure(15, 3, 4, 0.0, 1.0), 2),
    (lambda: gen_random_measure(16, 2, 6, -1.0, 1.0), 2),
]


class TestOneSvdOperators:
    """A rank-deficient space takes everything from one SVD, a full-rank one
    from the blocks of its Gram-Schmidt factor; either must match the
    pinv-based formulas they replaced."""

    @pytest.mark.parametrize("case", range(len(ONE_SVD_CASES)))
    def test_matches_pinv_formulas(self, case):
        make, d = ONE_SVD_CASES[case]
        space = build_gram_space(moments_of(make(), 2 * d))
        model = build_operators(space)
        dom, dfc, p_ref, q_ref, residual = _reference_operators(space)
        assert residual <= 1e-6
        assert model.dom_dim == dom.shape[1] and model.def_dim == dfc.shape[1]
        # Both routes divide by the kept singular values, so their rounding
        # grows with the condition of the kept part; on case 2 (cond 2.3e3)
        # each is 2e-11 from a 60-digit evaluation of the same formula.
        sing = np.linalg.svd(space.vectors[:, : d * space.N], compute_uv=False)
        tol = 1e-12 * max(1.0, sing[0] / sing[model.dom_dim - 1])
        # The model is written in the coordinates of explicit bases of the
        # Gram space, which hold the first vectors as the model does.  The
        # full-rank route's bases are not the reference's, so compare what
        # no basis changes: the domain projector, the compression and the
        # defect component as operators on the Gram space.
        u, p = _model_bases(space)
        first = u.conj().T @ space.vectors[:, : space.N]
        assert np.abs(model.first_vectors - first).max() <= 1e-12 * space.norm
        dom_g, dfc_g = u[:, :p], u[:, p:]
        assert np.abs(dom_g @ dom_g.conj().T - dom @ dom.conj().T).max() <= 1e-12
        assert np.abs(dom_g @ model.P @ dom_g.conj().T
                      - dom @ p_ref @ dom.conj().T).max() <= tol
        assert np.abs(dfc_g @ model.Q @ dom_g.conj().T
                      - dfc @ q_ref @ dom.conj().T).max(initial=0.0) <= tol
        if space.rank < space.vectors.shape[1]:
            # the SVD route's coordinates are the reference's
            assert np.abs(model.P - p_ref).max(initial=0.0) <= tol
            assert np.abs(model.Q - q_ref).max(initial=0.0) <= tol

    @staticmethod
    def _bent_space(case, eps):
        # perturb the last shifted block, which the domain does not contain,
        # so the shift stops annihilating the kernel of the domain vectors
        make, d = ONE_SVD_CASES[case]
        space = build_gram_space(moments_of(make(), 2 * d))
        vectors = space.vectors.copy()
        rng = np.random.default_rng(case)
        tail = vectors[:, d * space.N :]
        vectors[:, d * space.N :] += eps * (rng.standard_normal(tail.shape)
                                            + 1j * rng.standard_normal(tail.shape))
        bent = GramSpace(a=space.a, b=space.b, N=space.N, d=space.d,
                         vectors=vectors, gram=space.gram,
                         decided_spectrum=space.spectrum)
        return space, bent

    @pytest.mark.parametrize("case", [0, 1, 2, 3])
    @pytest.mark.parametrize("eps", [1e-12, 1e-8, 1e-4, 1e-1])
    def test_welldefinedness_decision_matches(self, case, eps):
        space, bent = self._bent_space(case, eps)
        residual = _reference_operators(bent)[-1]
        # the vectors are known up to the eigenvalues the rank cutoff drops,
        # each at most RANK_TOL * lambda_max(Gamma) = RANK_TOL * ||X||^2
        ill = residual > np.sqrt(RANK_TOL) * np.linalg.norm(space.vectors, 2)
        if ill:
            with pytest.raises(OperatorIllDefined):
                build_operators(bent)
        else:
            build_operators(bent)

    @pytest.mark.parametrize("case", [0, 1, 2, 3])
    @pytest.mark.parametrize("eps", [1e-12, 1e-8, 1e-4, 1e-1])
    def test_check_odd_kernel_verdict_matches_operators(self, case, eps, monkeypatch):
        # check_odd decides kernel inclusion on the space it builds; handed
        # the perturbed space, its verdict must be build_operators' verdict
        space, bent = self._bent_space(case, eps)
        make, d = ONE_SVD_CASES[case]
        monkeypatch.setattr(matmom.solvability, "gram_space_from_eig",
                            lambda *args: bent)
        report = check_odd(moments_of(make(), 2 * d))
        assert report.space is bent
        (kernel,) = report.diagnostics
        try:
            build_operators(bent)
            raised = False
        except OperatorIllDefined:
            raised = True
        assert kernel.passed == (not raised)

    @pytest.mark.parametrize("seed", range(6))
    def test_full_rank_space_needs_no_svd(self, seed, monkeypatch):
        # at full rank (d+1)N the domain vectors keep every singular value,
        # so kernel inclusion holds with no SVD, and the operators come from
        # the blocks of the Gram-Schmidt factor
        space = build_gram_space(moments_of(gen_random_measure(seed, 2, 6, -1.0, 1.0), 4))
        assert space.rank == 3 * space.N
        sing = np.linalg.svd(space.vectors[:, : 2 * space.N], compute_uv=False)
        assert rank_keep(sing).all()
        svd_calls = []
        real_svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *a, **k: svd_calls.append(1) or real_svd(*a, **k))
        assert kernel_inclusion(space) == (True, 0.0)
        model = build_operators(space)
        assert not svd_calls
        assert (model.dom_dim, model.def_dim) == (2 * space.N, space.N)


# (measure, d) with Gram spaces of full rank (d+1)N: the family benchmark
# problem and three small ones, one of them with d = 1
FULL_RANK_CASES = [
    (lambda: gen_random_measure(0, 4, 30, -1.0, 2.0), 8),
    (lambda: gen_random_measure(16, 2, 6, -1.0, 1.0), 2),
    (lambda: gen_random_measure(3, 1, 12, 0.0, 1.0), 5),
    (lambda: gen_random_measure(5, 3, 10, -2.0, 3.0), 1),
]


class TestGramVectors:
    """The norm is ||X||_2 on both routes, and a full-rank space's vectors
    are its Cholesky factor, already in Gram-Schmidt coordinates."""

    @pytest.mark.parametrize("case", range(len(ONE_SVD_CASES) + len(FULL_RANK_CASES)))
    def test_norm_is_the_spectral_norm(self, case):
        make, d = (ONE_SVD_CASES + FULL_RANK_CASES)[case]
        space = build_gram_space(moments_of(make(), 2 * d))
        want = np.linalg.norm(space.vectors, 2)
        assert abs(space.norm - want) <= 1e-12 * want

    @pytest.mark.parametrize("case", range(1 + len(FULL_RANK_CASES)))
    def test_full_rank_vectors_are_the_gram_schmidt_factor(self, case, monkeypatch):
        # an upper-triangular factor with a positive diagonal is already its
        # own Gram-Schmidt factor, so the coordinates are the vectors
        # themselves and the operators take no QR
        make, d = (ONE_SVD_CASES[-1:] + FULL_RANK_CASES)[case]
        space = build_gram_space(moments_of(make(), 2 * d))
        x = space.vectors
        assert space.rank == x.shape[1]
        assert not np.tril(x, -1).any()
        assert not np.diagonal(x).imag.any() and np.diagonal(x).real.min() > 0
        qr_calls = []
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: qr_calls.append(1))
        first = build_operators(space).first_vectors
        assert not qr_calls
        assert first.tobytes() == x[:, : space.N].tobytes()

    @pytest.mark.parametrize("builder", [build_gram_space, lambda seq: check_odd(seq).space],
                             ids=["build_gram_space", "check_odd"])
    def test_the_deciding_spectrum_picks_the_route(self, builder, monkeypatch):
        # eigvalsh decides first; when it drops an eigenvalue, eigh decides.
        # If eigh keeps every eigenvalue, the vectors must still be the
        # Cholesky factor that the block Jacobi route reads as R
        seq = moments_of(gen_random_measure(21, 2, 8, -1.0, 1.0), 6)
        gamma = build_gamma(seq, 3)
        eigvalsh, zeroed = np.linalg.eigvalsh, []

        def smallest_zeroed(a):
            w = eigvalsh(a)
            w[0] = 0.0
            zeroed.append(1)
            return w

        monkeypatch.setattr(np.linalg, "eigvalsh", smallest_zeroed)
        space = builder(seq)
        monkeypatch.undo()
        assert zeroed
        assert rank_keep(space.spectrum).all()
        assert space.vectors.tobytes() == np.linalg.cholesky(gamma).T.tobytes()
        model = build_operators(space)
        p_ref, q_ref = _dense_operators(space)
        size = np.linalg.norm(model.P, 2)
        assert np.abs(model.P - p_ref).max() <= 1e-10 * size
        assert np.abs(model.Q - q_ref).max() <= 1e-10 * size


    @pytest.mark.parametrize("builder", [build_gram_space, lambda seq: check_odd(seq).space],
                             ids=["build_gram_space", "check_odd"])
    def test_a_certificate_decides_first(self, builder, monkeypatch):
        # from order 16 a Cholesky certificate decides full rank with no
        # eigensolve and picks the vectors the spectrum picks, bit for bit;
        # kernel inclusion passes its zero residual without the norm, so
        # the spectrum is formed only when read, as eigvalsh of gram
        make = lambda: moments_of(gen_random_measure(3, 4, 6, -1.0, 1.5), 6)
        ref = reference_gram_space(make(), build_gamma(make(), 3))
        eigvalsh, calls = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: calls.append(np.shape(a)) or eigvalsh(a))
        space = builder(make())
        build_operators(space)
        # check_odd's one eigvalsh is of the 12 x 12 Gamma-tilde
        assert (16, 16) not in calls and space.rank == 16 and space.decided_spectrum is None
        assert "spectrum" not in vars(space) and "norm" not in vars(space)
        monkeypatch.undo()
        assert space.vectors.tobytes() == ref.vectors.tobytes()
        assert space.spectrum.tobytes() == ref.spectrum.tobytes()
        assert space.spectrum is space.spectrum and not space.spectrum.flags.writeable
        # with no certificate, the spectrum decides, on the same vectors
        monkeypatch.setattr(matmom.operator_model, "certified", lambda a: False)
        decided = builder(make())
        assert decided.decided_spectrum.tobytes() == ref.spectrum.tobytes()
        assert decided.vectors.tobytes() == ref.vectors.tobytes()


def _hermitian_test_spaces():
    """Gram spaces of both routes, including some on which T[:p] is far from
    Hermitian: bent spaces whose kernel inclusion holds only within its
    bound, and the [-1, 1], N = 1, 60-atom, l = 40 frontier space, whose raw
    T[:p] on the rank-deficient route is 5.1e-2 asymmetric (relative)."""
    for make, d in ONE_SVD_CASES + FULL_RANK_CASES:
        yield build_gram_space(moments_of(make(), 2 * d))
    for case in range(4):
        for eps in (1e-12, 1e-8):
            yield TestOneSvdOperators._bent_space(case, eps)[1]
    yield build_gram_space(moments_of(gen_random_measure(0, 1, 60, -1.0, 1.0), 40))


def test_p_is_exactly_hermitian_on_every_route():
    # extremal_extensions factors P with eigh, which reads one triangle only
    for space in _hermitian_test_spaces():
        model = build_operators(space)
        assert np.array_equal(model.P, model.P.conj().T)
        assert np.isfinite(model.Q).all()


# (interval, N, atoms, l) of the high-precision oracle; (d+1)N <= 18
ORACLE_CELLS = [
    ((0.0, 1.0), 1, 12, 8),
    ((0.0, 1.0), 1, 20, 12),
    ((0.0, 1.0), 2, 20, 10),
    ((-1.0, 1.0), 2, 20, 16),
    ((-2.0, 3.0), 2, 10, 8),
]


def _mp_shift_eigenvalues(seq, dps=50):
    """Eigenvalues of the shift's compression to the domain, in ``dps``-digit
    arithmetic from the same float moments: those of the pencil
    (Gamma[:dN, N:N+dN], Gamma_{d-1}), by Cholesky of Gamma_{d-1}, mapped to
    [-1, 1] by the affine map of the interval."""
    mpmath = pytest.importorskip("mpmath")
    n, d = seq.N, seq.l // 2
    dn = d * n
    gamma = build_gamma(seq, d)
    with mpmath.workdps(dps):
        def exact(block):
            return mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row]
                                  for row in block])

        inv_chol = mpmath.inverse(mpmath.cholesky(exact(gamma[:dn, :dn])))
        pencil = inv_chol * exact(gamma[:dn, n : n + dn]) * inv_chol.H
        w = mpmath.eighe(pencil, eigvals_only=True)
        a, b = mpmath.mpf(seq.a), mpmath.mpf(seq.b)
        return np.sort([float((2 * x - a - b) / (b - a)) for x in w])


# the large benchmark shape: N = 8, 40 atoms, l = 20 on [-1, 1]
LARGE_CASE = (lambda: gen_random_measure(0, 8, 40, -1.0, 1.0), 10)


def _dense_operators(space):
    """P and Q of a full-rank space by the dense formula: with R the
    vectors (an upper-triangular factor, see TestGramVectors), T = scale *
    R[:, N:N+dN] R_dd^-1 over the whole dN x dN block R_dd, P = herm(T[:dN])
    - shift I and Q = T[dN:]."""
    n, dn = space.N, space.d * space.N
    r = space.vectors
    scale = 2.0 / (space.b - space.a)
    shift = (space.a + space.b) / (space.b - space.a)
    t = scale * (r[:, n : n + dn] @ np.linalg.inv(r[:dn, :dn]))
    return 0.5 * (t[:dn] + t[:dn].conj().T) - shift * np.eye(dn), t[dn:]


class TestGramSchmidtOperators:
    """On a full-rank space the bases are Gram-Schmidt of x_0, x_1, ... in
    order, so P is the truncated block Jacobi matrix of the orthonormal
    polynomials and Q reaches only the last block of the domain."""

    @pytest.mark.parametrize("case", range(len(FULL_RANK_CASES)))
    def test_block_jacobi_structure(self, case):
        make, d = FULL_RANK_CASES[case]
        space = build_gram_space(moments_of(make(), 2 * d))
        n, dn = space.N, d * space.N
        assert space.rank == dn + n
        model = build_operators(space)
        # x_0..x_{N-1} come first in Gram-Schmidt order: their coordinates
        # are upper triangular with a positive diagonal, and zero below row N
        f = model.first_vectors
        assert not np.tril(f, -1).any()
        assert np.abs(np.diagonal(f).imag).max() <= 1e-12 * np.abs(f).max()
        assert np.diagonal(f).real.min() > 0
        # P couples each block only to its neighbours, and the shift leaves
        # the domain only from its last block: exactly
        block = np.arange(dn) // n
        off_band = np.abs(block[:, None] - block[None, :]) > 1
        assert not model.P[off_band].any()
        assert not model.Q[:, : dn - n].any()

    def test_d_zero_has_empty_operators(self):
        # a space assembled by hand with no domain: P is 0 x 0, Q is N x 0
        gram = np.array([[2.0, 0.5], [0.5, 1.0]])
        space = GramSpace(a=-1.0, b=1.0, N=2, d=0, vectors=np.linalg.cholesky(gram).T,
                          gram=gram)
        model = build_operators(space)
        assert model.P.shape == (0, 0) and model.Q.shape == (2, 0)

    @pytest.mark.parametrize("case", range(len(FULL_RANK_CASES) + 1))
    def test_block_formulas_match_the_dense_formula(self, case):
        # the worst relative error measured was 4.0e-11, on the large shape
        make, d = (FULL_RANK_CASES + [LARGE_CASE])[case]
        space = build_gram_space(moments_of(make(), 2 * d))
        model = build_operators(space)
        p_ref, q_ref = _dense_operators(space)
        size = np.linalg.norm(model.P, 2)
        assert np.abs(model.P - p_ref).max() <= 1e-10 * size
        assert np.abs(model.Q - q_ref).max() <= 1e-10 * size

    @pytest.mark.parametrize("cell", ORACLE_CELLS)
    def test_p_spectrum_matches_50_digit_oracle(self, cell):
        # the 15 oracle evaluations, at (d+1)N <= 18, take about 1 s on one
        # core of a 2-vCPU x86-64 VM; the float errors measured were at most
        # 5.0e-10, on [0, 1], l = 12
        (a, b), n, atoms, l = cell
        for seed in range(3):
            seq = moments_of(gen_random_measure(seed, n, atoms, a, b), l)
            space = build_gram_space(seq)
            assert space.rank == space.vectors.shape[1]
            got = np.linalg.eigvalsh(build_operators(space).P)
            assert np.abs(got - _mp_shift_eigenvalues(seq)).max() <= 1e-9


def _mapped_moments(seq):
    """M_k = sum_i C(k, i) scale^i (-shift)^(k-i) S_i for k <= l: the moments
    of the representing measures mapped from [a, b] to [-1, 1] by the affine
    map of :func:`build_operators`."""
    scale = 2.0 / (seq.b - seq.a)
    shift = (seq.a + seq.b) / (seq.b - seq.a)
    return [sum(math.comb(k, i) * scale**i * (-shift) ** (k - i) * seq.moments[i]
                for i in range(k + 1))
            for k in range(seq.l + 1)]


class TestModelCoordinates:
    """The model, its extensions and its first vectors share one coordinate
    system of the Gram space, whichever route built it."""

    @pytest.mark.parametrize("case", range(len(ONE_SVD_CASES) + len(FULL_RANK_CASES)))
    def test_extensions_reproduce_the_moments(self, case):
        # every self-adjoint extension B of the shift contraction maps x_j
        # to the mapped x_{N+j} while x_j lies in the domain, so for k <= 2d
        # the moments are <B^k x_j, x_n>, basis-free; the worst relative
        # error measured was 1.2e-12, on the family problem (case 6)
        make, d = (ONE_SVD_CASES + FULL_RANK_CASES)[case]
        seq = moments_of(make(), 2 * d)
        interval = extremal_extensions(build_operators(build_gram_space(seq)))
        f = interval.model.first_vectors
        extensions = [interval.B_mu, interval.B_M, canonical_extension(interval, 0.3)]
        if interval.def_dim:
            k = random_contraction(np.random.default_rng(case), interval.def_dim, (0.0, 1.0))
            extensions.append(canonical_extension(interval, k))
        want = _mapped_moments(seq)
        size = max(1.0, np.abs(want[0]).max())
        for ext in extensions:
            bk_f = f
            for k in range(2 * d + 1):
                assert np.abs((f.conj().T @ bk_f).T - want[k]).max() <= 1e-10 * size
                bk_f = ext @ bk_f

    @pytest.mark.parametrize("make, d", [
        (lambda: gen_random_measure(0, 4, 30, -1.0, 2.0), 8),
        (lambda: _rank_one_weight_measure(21, 3, 5, 0.0, 1.0), 1),
    ], ids=["family", "rank-deficient"])
    def test_matrix_k_acts_in_the_documented_coordinates(self, make, d):
        # A matrix K acts on the defect space in the coordinates the README
        # states: Gram-Schmidt at full rank, pinned-phase SVD otherwise.
        # Rotated back to the Gram space's eigen coordinates by those bases,
        # B_K must give the measure the solver gives.
        seq = moments_of(make(), 2 * d)
        space = build_gram_space(seq)
        interval = extremal_extensions(build_operators(space))
        model = interval.model
        u, p = _model_bases(space)
        assert p == model.dom_dim and interval.def_dim == model.def_dim >= 2
        k = random_contraction(np.random.default_rng(d), interval.def_dim, (0.0, 1.0))
        c_half = sqrt_from_eig(EigDecomposition(*np.linalg.eigh(interval.C_R)))
        x_k = interval.X_mu + c_half @ k @ c_half
        b_k = u @ np.block([[model.P, model.Q.conj().T], [model.Q, x_k]]) @ u.conj().T
        sd = spectral_data(0.5 * (b_k + b_k.conj().T), space.vectors[:, : seq.N])
        positions = np.clip(0.5 * (seq.b - seq.a) * sd.eigenvalues + 0.5 * (seq.a + seq.b),
                            seq.a, seq.b)
        want = measure_from_atoms(seq.a, seq.b, positions, sd.weights, N=seq.N)
        got = solve_odd(seq, k)
        assert got.num_atoms == want.num_atoms
        assert np.abs(got.positions - want.positions).max() <= 1e-10
        size = np.abs(seq.moments[0]).max()
        assert np.abs(got.weights - want.weights).max() <= 1e-10 * size


def test_import_loads_no_scipy():
    # numpy is the one declared dependency; loading scipy would also cost
    # every process set-up time and memory
    code = "import sys, matmom; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_star_import_resolves_every_exported_name():
    # the star import raises on a name left in __all__ after its definition
    # is gone, and no other test imports that way
    code = "from matmom import *"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


class TestOperatorIdentities:
    @pytest.mark.parametrize("seed", range(8))
    def test_contraction_defect_matches_weighted_form(self, seed):
        # |u|^2 - |Bu|^2 equals 4/(b-a)^2 times the interval-weighted
        # quadratic form of the coefficient vector
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3))
        d = int(rng.integers(1, 4))
        a, b = -0.5, 2.0
        mu = gen_random_measure(2000 + seed, n, int(rng.integers(1, 5)), a, b)
        seq = moments_of(mu, 2 * d)
        space = build_gram_space(seq)
        g_dom = space.vectors[:, : d * n]
        g_shift = space.vectors[:, n : n + d * n]
        gtilde = build_gamma_tilde(seq, d)
        scale = max(1.0, np.linalg.norm(build_gamma(seq, d), 2))
        for _ in range(10):
            alpha = rng.standard_normal(d * n) + 1j * rng.standard_normal(d * n)
            u = g_dom @ alpha
            bu = (2.0 / (b - a)) * (g_shift @ alpha) - ((a + b) / (b - a)) * u
            lhs = np.vdot(u, u).real - np.vdot(bu, bu).real
            # quadratic form sum_{k,j} alpha_k conj(alpha_j) M[k, j] in the
            # package's inner-product convention
            rhs = (4.0 / (b - a) ** 2) * np.real(
                alpha @ (gtilde @ alpha.conj())
            )
            assert abs(lhs - rhs) <= 1e-9 * scale * max(1.0, np.abs(alpha).max() ** 2)
            assert lhs >= -1e-9 * scale * max(1.0, np.abs(alpha).max() ** 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_hermitian_on_domain(self, seed):
        rng = np.random.default_rng(seed)
        mu = gen_random_measure(3000 + seed, 2, 3, -1.0, 1.0)
        seq = moments_of(mu, 4)
        space = build_gram_space(seq)
        model = build_operators(space)
        # <B u, v> = <u, B v> for domain vectors u, v; in the model's
        # coordinates the domain comes first, and B maps it by [P; Q]
        p, q = model.dom_dim, model.def_dim
        column = np.vstack([model.P, model.Q])
        for _ in range(5):
            cu = rng.standard_normal(p) + 1j * rng.standard_normal(p)
            cv = rng.standard_normal(p) + 1j * rng.standard_normal(p)
            bu = column @ cu
            bv = column @ cv
            u = np.concatenate([cu, np.zeros(q)])
            v = np.concatenate([cv, np.zeros(q)])
            assert abs(np.vdot(v, bu) - np.vdot(bv, u)) <= 1e-9 * max(
                1.0, np.abs(cu).max() * np.abs(cv).max()
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_shift_power_identity(self, seed):
        # applying the shift r times to x_j lands on x_{rN+j}
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3))
        d = int(rng.integers(1, 4))
        mu = gen_random_measure(4000 + seed, n, 4, -1.0, 1.5)
        seq = moments_of(mu, 2 * d)
        space = build_gram_space(seq)
        g_dom = space.vectors[:, : d * n]
        g_shift = space.vectors[:, n : n + d * n]
        pinv_dom = np.linalg.pinv(g_dom, rcond=1e-10)
        shift_apply = lambda vec: g_shift @ (pinv_dom @ vec)
        scale = max(1.0, np.abs(space.vectors).max())
        for j in range(n):
            vec = space.vectors[:, j]
            for r in range(1, d + 1):
                vec = shift_apply(vec)
                assert np.abs(vec - space.vectors[:, r * n + j]).max() <= 1e-8 * scale

