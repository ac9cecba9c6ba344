import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

import matmom.extensions
import matmom.solutions
from matmom import (
    ContractionModel,
    MomentSequence,
    NumericalInconsistency,
    OperatorIllDefined,
    ValidationError,
    build_gram_space,
    build_operators,
    canonical_extension,
    check_odd,
    extremal_completions,
    extremal_extensions,
    gen_random_measure,
    generalized_resolvent,
    moments_of,
    qmu,
    solve_odd,
)

from helpers import (
    defect_support_basis,
    loewner_leq,
    random_contraction,
    random_contraction_column,
    random_unitaries,
    random_unitary,
    reference_completions,
    reference_contraction_guards,
)


def scalar_seq(a, b, values):
    return MomentSequence(a, b, tuple(np.array([[v]], dtype=complex) for v in values))


def interval_for(seq):
    return extremal_extensions(build_operators(build_gram_space(seq)))


@pytest.fixture(scope="module")
def lebesgue_interval():
    return interval_for(scalar_seq(0, 1, [1, 0.5, 1 / 3]))


@pytest.fixture(scope="module")
def matrix_defect_interval():
    # N = 2 instance whose defect has rank 2
    seq = moments_of(gen_random_measure(7, 2, 2, 0.0, 1.0), 2)
    iv = interval_for(seq)
    assert iv.def_dim == 2 and iv.R0_dim == 0
    return iv


def assemble(p, q, x):
    return np.block([[p, q.conj().T], [q, x]])


def synthetic_model(p, q):
    """A contraction model of the column [P; Q] with no Gram space."""
    return ContractionModel(space=None, first_vectors=None, P=p, Q=q)


def column_with_norm(rng, p_dim, q_dim, norm):
    """A random column [P; Q], P Hermitian, scaled to spectral norm ``norm``."""
    p, q = random_contraction_column(rng, p_dim, q_dim)
    scale = norm / np.linalg.norm(np.vstack([p, q]), 2)
    return scale * p, scale * q


def unit_norm_column(rng, p_dim, q_dim, sign):
    """A contraction column whose P has the eigenvalue ``sign`` (+-1) with
    eigenvector v and Q v = 0; returns P, Q and v as a column."""
    rest = random_contraction(rng, p_dim - 1 + q_dim)
    t = np.zeros((p_dim + q_dim,) * 2, dtype=complex)
    t[0, 0], t[1:, 1:] = sign, rest
    u = np.eye(p_dim + q_dim, dtype=complex)
    u[:p_dim, :p_dim] = random_unitary(rng, p_dim)
    t = u @ t @ u.conj().T
    return 0.5 * (t[:p_dim, :p_dim] + t[:p_dim, :p_dim].conj().T), t[p_dim:, :p_dim], u[:p_dim, :1]


def rule_accepts(model) -> bool:
    try:
        extremal_extensions(model)
    except NumericalInconsistency:
        return False
    return True


class TestExtremalCompletions:
    def test_defect_line_example(self):
        x_mu, x_m = extremal_completions(np.zeros((1, 1)), np.ones((1, 1)))
        assert np.allclose(x_mu, [[0.0]], atol=1e-14)
        assert np.allclose(x_m, [[0.0]], atol=1e-14)

    def test_zero_column_is_unconstrained(self):
        x_mu, x_m = extremal_completions(np.zeros((1, 1)), np.zeros((2, 1)))
        assert np.allclose(x_mu, -np.eye(2), atol=1e-14)
        assert np.allclose(x_m, np.eye(2), atol=1e-14)

    def test_norm_one_compression(self):
        # with |P| = 1 the pseudo-inverse route must still work
        x_mu, x_m = extremal_completions(np.eye(1), np.zeros((1, 1)))
        assert np.allclose(x_mu, [[-1.0]])
        assert np.allclose(x_m, [[1.0]])

    @pytest.mark.parametrize("seed", range(12))
    def test_brute_force_interval_oracle(self, seed):
        rng = np.random.default_rng(seed)
        p_dim = int(rng.integers(1, 5))
        q_dim = int(rng.integers(1, 4))
        p, q = random_contraction_column(rng, p_dim, q_dim)
        x_mu, x_m = extremal_completions(p, q)
        # endpoints are themselves valid completions
        for x in (x_mu, x_m):
            t = assemble(p, q, x)
            assert np.linalg.norm(t, 2) <= 1.0 + 1e-10
            assert np.allclose(t[:p_dim, :p_dim], p)
            assert np.allclose(t[p_dim:, :p_dim], q)
        # every sampled self-adjoint contraction completion sits inside
        samples = np.stack([random_contraction(rng, q_dim) for _ in range(400)])
        ts = np.zeros((400, p_dim + q_dim, p_dim + q_dim), dtype=complex)
        ts[:, :p_dim, :p_dim] = p
        ts[:, p_dim:, :p_dim] = q
        ts[:, :p_dim, p_dim:] = q.conj().T
        ts[:, p_dim:, p_dim:] = samples
        norms = np.abs(np.linalg.eigvalsh(ts)).max(axis=1)
        valid = samples[norms <= 1.0]
        scale = max(1.0, np.linalg.norm(x_m - x_mu, 2))
        for x in valid:
            assert np.linalg.eigvalsh(x - x_mu).min() >= -1e-8 * scale
            assert np.linalg.eigvalsh(x_m - x).min() >= -1e-8 * scale


class TestExtremalExtensions:
    def test_determinate_example(self):
        iv = interval_for(scalar_seq(-1, 1, [1, 0, 1]))
        assert iv.determinate
        assert iv.R0_dim == 1
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(iv.B_mu, swap, atol=1e-12)
        assert np.allclose(iv.B_M, swap, atol=1e-12)
        assert np.linalg.norm(iv.C, 2) <= 1e-10

    def test_lebesgue_defect(self, lebesgue_interval):
        iv = lebesgue_interval
        assert not iv.determinate
        assert np.allclose(iv.X_mu, [[-2.0 / 3.0]], atol=1e-12)
        assert np.allclose(iv.X_M, [[2.0 / 3.0]], atol=1e-12)
        assert iv.R0_dim == 0

    def test_lebesgue_defect_against_brute_force(self, lebesgue_interval):
        # sweep scalar completions of the computed column; the valid ones
        # must fill exactly the computed interval
        iv = lebesgue_interval
        p, q = iv.model.P, iv.model.Q
        xs = np.linspace(-1.0, 1.0, 4001)
        valid = [x for x in xs
                 if np.linalg.norm(assemble(p, q, np.array([[x]])), 2) <= 1.0]
        assert min(valid) == pytest.approx(iv.X_mu[0, 0].real, abs=1e-3)
        assert max(valid) == pytest.approx(iv.X_M[0, 0].real, abs=1e-3)

    def test_no_defect_collapses(self):
        iv = interval_for(scalar_seq(-1, 1, [1, 1, 1]))
        assert iv.def_dim == 0
        assert iv.determinate
        assert np.allclose(iv.B_mu, iv.B_M)

    @pytest.mark.parametrize("seed", range(6))
    def test_ordering_and_contraction(self, seed):
        rng = np.random.default_rng(seed)
        mu = gen_random_measure(500 + seed, int(rng.integers(1, 3)), 3, -1.0, 2.0)
        iv = interval_for(moments_of(mu, 4))
        assert loewner_leq(iv.B_mu, iv.B_M)
        for ext in (iv.B_mu, iv.B_M):
            assert np.linalg.norm(ext, 2) <= 1.0 + 1e-10
        assert np.allclose(iv.C, iv.B_M - iv.B_mu)


def _count_linalg(monkeypatch, names):
    """Calls of each ``numpy.linalg`` function of ``names``, counted live."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


class TestFactorizations:
    def test_two_eigh_and_no_eigvalsh(self, monkeypatch, matrix_defect_interval):
        # a Cholesky pair proves that I + P and I - P keep every eigenvalue,
        # and one solve pair gives the completions: P is not factored.  The
        # defect takes one eigh, and the minimal extension the second, only
        # when a resolvent function asks for it
        counts = _count_linalg(monkeypatch, ("eigh", "eigvalsh", "cholesky", "solve"))
        iv = extremal_extensions(matrix_defect_interval.model)
        assert counts == {"eigh": 1, "eigvalsh": 0, "cholesky": 1, "solve": 1}
        w, v = iv.mu_eig
        assert counts["eigh"] == 2
        assert iv.mu_eig is iv.mu_eig
        monkeypatch.undo()
        w_ref, v_ref = np.linalg.eigh(iv.B_mu)
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)


# (measure, d) with Gram spaces of full rank (d+1)N, the large shape last
CERTIFIED_CASES = [
    (lambda: gen_random_measure(0, 4, 30, -1.0, 2.0), 8),
    (lambda: gen_random_measure(16, 2, 6, -1.0, 1.0), 2),
    (lambda: gen_random_measure(3, 1, 12, 0.0, 1.0), 5),
    (lambda: gen_random_measure(5, 3, 10, -2.0, 3.0), 1),
    # P and Q square, of sizes 2 and 1: the solve's right-hand side must
    # stay a matrix, not a stack of vectors
    (lambda: gen_random_measure(7, 2, 3, -1.0, 1.0), 1),
    (lambda: gen_random_measure(7, 1, 3, 0.0, 1.0), 1),
    (lambda: gen_random_measure(0, 8, 40, -1.0, 1.0), 10),
]


class TestCholeskyCertificate:
    """Where one Cholesky pair proves that the rank cutoff keeps every 1 +- w,
    the completions are Q (I +- P)^-1 Q* from one solve pair, and P takes no
    eigendecomposition.  Everywhere else the eigendecomposition of P decides,
    with the messages it always gave."""

    @pytest.mark.parametrize("case", range(len(CERTIFIED_CASES) + 6))
    def test_certified_completions_match_the_reference(self, case, monkeypatch):
        if case < len(CERTIFIED_CASES):
            make, d = CERTIFIED_CASES[case]
            model = build_operators(build_gram_space(moments_of(make(), 2 * d)))
            p, q = model.P, model.Q
        else:
            rng = np.random.default_rng(case)
            p, q = random_contraction_column(rng, int(rng.integers(1, 6)),
                                             int(rng.integers(1, 4)))
        counts = _count_linalg(monkeypatch, ("eigh", "cholesky", "solve"))
        got = extremal_completions(p, q)
        assert counts == {"eigh": 0, "cholesky": 1, "solve": 1}
        monkeypatch.undo()
        for x, ref in zip(got, reference_completions(p, q)):
            assert np.array_equal(x, x.conj().T)
            assert np.abs(x - ref).max() <= 1e-12

    @pytest.mark.parametrize("p", [np.eye(1), -np.eye(1), np.diag([1.0 - 1e-12, 0.3]),
                                   np.diag([-1.0 + 1e-12, 0.3])],
                             ids=["one", "minus-one", "near-one", "near-minus-one"])
    def test_eigenvalue_at_the_cutoff_takes_eigh(self, p, monkeypatch):
        # 1 - w or 1 + w is dropped (or nearly so), so no certificate
        # exists; Q reaches only the eigenvector 0.3, if there is one
        q = np.zeros((2, p.shape[0]))
        q[0, 1:] = 0.5
        counts = _count_linalg(monkeypatch, ("eigh", "cholesky", "solve"))
        got = extremal_completions(p, q)
        assert counts == {"eigh": 1, "cholesky": 1, "solve": 0}
        monkeypatch.undo()
        for x, ref in zip(got, reference_completions(p, q)):
            assert np.abs(x - ref).max() <= 1e-12

    @pytest.mark.parametrize("p, message", [
        (np.array([[1.0 + 1e-6]]), "I - P has negative eigenvalue -1.000e-06 beyond tolerance"),
        (np.array([[-1.0 - 1e-6]]), "I + P has negative eigenvalue -1.000e-06 beyond tolerance"),
    ])
    def test_failed_certificate_keeps_the_messages(self, p, message, monkeypatch):
        counts = _count_linalg(monkeypatch, ("eigh", "cholesky"))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            extremal_completions(p, np.zeros((1, 1)))
        assert counts == {"eigh": 1, "cholesky": 1}

    def test_empty_p_is_not_certified(self, monkeypatch):
        def refuse(stack):
            raise AssertionError("certificate reached")

        monkeypatch.setattr(matmom.extensions, "keeps_every_eigenvalue", refuse)
        x_mu, x_m = extremal_completions(np.zeros((0, 0)), np.zeros((2, 0)))
        assert np.array_equal(x_mu, -np.eye(2)) and np.array_equal(x_m, np.eye(2))
        # zero moments: a rank-0 space, whose P is 0 x 0
        assert solve_odd(scalar_seq(-1, 1, [0, 0, 0])).num_atoms == 0


class TestOneContractionRule:
    """Contractivity of [P; Q] is decided once, on the eigenbasis of P: I + P
    and I - P PSD, range inclusion where the rank cutoff drops 1 +- w, and
    the defect PSD.  The tests it replaced are the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 3), atoms=st.integers(1, 6),
           l=st.sampled_from([2, 4, 6, 8]), ab=st.sampled_from([(0.0, 1.0), (-2.0, 3.0)]),
           norm=st.sampled_from([None, 1.0 - 1e-3, 1.0 + 1e-3]))
    def test_accepts_exactly_when_the_old_guards_do(self, seed, n, atoms, l, ab, norm):
        seq = moments_of(gen_random_measure(seed, n, atoms, *ab), l)
        report = check_odd(seq)
        assume(report.solvable)
        try:
            model = build_operators(report.space)
        except OperatorIllDefined:
            assume(False)
        assume(model.P.size or norm is None)
        self._compare(model, norm)

    @pytest.mark.parametrize("norm", [None, 1.0 - 1e-3, 1.0 + 1e-3])
    @pytest.mark.parametrize("seed", range(3))
    def test_large_shape(self, seed, norm):
        # N = 8, 40 atoms, l = 20 on [-1, 1], defect dimension 8
        seq = moments_of(gen_random_measure(seed, 8, 40, -1.0, 1.0), 20)
        self._compare(build_operators(check_odd(seq).space), norm)

    @staticmethod
    def _compare(model, norm):
        # the model as built, or its column scaled to spectral norm ``norm``
        # just inside or outside the unit ball, clear of the rounding slack
        if norm is not None:
            scale = norm / np.linalg.norm(np.vstack([model.P, model.Q]), 2)
            model = dataclasses.replace(model, P=scale * model.P, Q=scale * model.Q)
        accepted = rule_accepts(model)
        assert accepted == reference_contraction_guards(model)
        if norm is not None:
            assert accepted == (norm < 1.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_column_inside_the_unit_ball_passes(self, seed):
        rng = np.random.default_rng(seed)
        p, q = column_with_norm(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)),
                                1.0 - 1e-6)
        assert rule_accepts(synthetic_model(p, q))
        assert reference_contraction_guards(synthetic_model(p, q))

    @pytest.mark.parametrize("seed", range(8))
    def test_column_outside_the_unit_ball_is_numerical(self, seed):
        rng = np.random.default_rng(seed)
        p, q = column_with_norm(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)),
                                1.0 + 1e-6)
        with pytest.raises(NumericalInconsistency):
            extremal_extensions(synthetic_model(p, q))
        assert not reference_contraction_guards(synthetic_model(p, q))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_unit_norm_compression_with_q_orthogonal_passes(self, seed, sign):
        # norm(P) = 1 is attained, and Q vanishes on that eigenvector
        p, q, v = unit_norm_column(np.random.default_rng(seed), 3, 2, sign)
        assert np.abs(q @ v).max() <= 1e-15
        assert rule_accepts(synthetic_model(p, q))
        assert reference_contraction_guards(synthetic_model(p, q))

    @pytest.mark.parametrize("seed", range(12))
    def test_completions_match_the_pinv_formulas(self, seed):
        # X_min and X_max as sums over Q V agree with the p x p pseudo-inverse
        # route up to rounding: each entry is a sum of p terms of size at
        # most ||Q v_k||^2 / lambda_k, so the bound is 16 (p + q) eps times
        # 1 + sum_k ||Q v_k||^2 / lambda_k
        rng = np.random.default_rng(seed)
        p_dim, q_dim = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        if seed % 3 == 0:
            p, q, _ = unit_norm_column(rng, p_dim, q_dim, 1.0 if seed % 2 else -1.0)
        else:
            p, q = random_contraction_column(rng, p_dim, q_dim)
        w, v = np.linalg.eigh(p)
        qv2 = (np.abs(q @ v) ** 2).sum(axis=0)
        for got, ref, lam in zip(extremal_completions(p, q), reference_completions(p, q),
                                 (1.0 + w, 1.0 - w)):
            keep = lam > 1e-10 * lam.max()
            mass = 1.0 + (qv2[keep] / lam[keep]).sum()
            assert np.abs(got - ref).max() <= 16 * (p_dim + q_dim) * np.finfo(float).eps * mass


class TestCanonicalExtension:
    def test_endpoints_and_midpoint(self, lebesgue_interval):
        iv = lebesgue_interval
        assert np.allclose(canonical_extension(iv, 0.0), iv.B_mu, atol=1e-12)
        assert np.allclose(canonical_extension(iv, 1.0), iv.B_M, atol=1e-12)
        mid = canonical_extension(iv, 0.5)
        assert np.allclose(mid, 0.5 * (iv.B_mu + iv.B_M), atol=1e-12)

    def test_sandwich_property(self, matrix_defect_interval):
        iv = matrix_defect_interval
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = random_contraction(rng, iv.def_dim, spectrum_range=(0.0, 1.0))
            bk = canonical_extension(iv, k)
            assert loewner_leq(iv.B_mu, bk)
            assert loewner_leq(bk, iv.B_M)
            assert np.linalg.norm(bk, 2) <= 1.0 + 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_extends_the_contraction(self, seed, matrix_defect_interval):
        iv = matrix_defect_interval
        model = iv.model
        rng = np.random.default_rng(100 + seed)
        k = random_contraction(rng, iv.def_dim, spectrum_range=(0.0, 1.0))
        bk = canonical_extension(iv, k)
        # the model's coordinates put the domain first
        assert np.abs(bk[:, : model.dom_dim] - np.vstack([model.P, model.Q])).max() <= 1e-9

    def test_determinate_all_coincide(self):
        iv = interval_for(scalar_seq(-1, 1, [1, 0, 1]))
        exts = [canonical_extension(iv, k) for k in (0.0, 0.5, 1.0)]
        assert max(np.abs(exts[0] - e).max() for e in exts[1:]) <= 1e-9

    def test_parameter_validation(self, lebesgue_interval):
        with pytest.raises(ValidationError):
            canonical_extension(lebesgue_interval, 1.5)
        with pytest.raises(ValidationError):
            canonical_extension(lebesgue_interval, -0.1)
        with pytest.raises(ValidationError):
            canonical_extension(lebesgue_interval, np.array([[2.0]]))
        with pytest.raises(ValidationError):
            canonical_extension(lebesgue_interval, np.eye(3))


@pytest.fixture(scope="module")
def direct_sum_interval():
    # direct sum of a rigid and a flexible problem: singular, nonzero defect
    rigid = [1.0, 0.0, 1.0]             # boundary atoms, unique solution
    flexible = [1.0, 0.0, 1.0 / 3.0]    # uniform-density moments
    moments = tuple(np.diag([r, f]).astype(complex)
                    for r, f in zip(rigid, flexible))
    return interval_for(MomentSequence(-1.0, 1.0, moments))


class TestPartialDeterminacy:
    def test_defect_is_singular_but_nonzero(self, direct_sum_interval):
        iv = direct_sum_interval
        assert iv.def_dim == 2
        assert iv.R0_dim == 1
        assert not iv.determinate
        assert defect_support_basis(iv).shape[1] == 1

    def test_off_support_parameter_directions_are_absorbed(self,
                                                           direct_sum_interval):
        iv = direct_sum_interval
        support = defect_support_basis(iv)
        proj = support @ support.conj().T
        k_live = 0.37 * proj
        k_bumped = k_live + 0.9 * (np.eye(iv.def_dim) - proj)
        b1 = canonical_extension(iv, k_live)
        b2 = canonical_extension(iv, k_bumped)
        assert np.abs(b1 - b2).max() <= 1e-12

    def test_live_direction_still_moves_the_extension(self, direct_sum_interval):
        iv = direct_sum_interval
        b0 = canonical_extension(iv, 0.0)
        b1 = canonical_extension(iv, 1.0)
        assert np.abs(b1 - b0).max() > 1e-6


class TestQmu:
    def test_zero_defect_gives_identity(self):
        # nonempty defect space with vanishing defect operator
        iv = interval_for(scalar_seq(-1, 1, [1, 0, 1]))
        assert iv.def_dim == 1
        for z in (2j, 3.0, -5.0 + 0.1j):
            assert np.allclose(qmu(iv, z), np.eye(1), atol=1e-12)

    def test_decay_at_infinity(self, lebesgue_interval):
        assert np.abs(qmu(lebesgue_interval, 1e6j) - np.eye(1)).max() <= 1e-5

    def test_against_dense_arithmetic(self, matrix_defect_interval):
        # recompute the formula with plain dense inverses
        iv = matrix_defect_interval
        r, p = iv.B_mu.shape[0], iv.model.dom_dim
        # C^(1/2) on the whole space: C_R^(1/2) in the trailing defect block
        c_half = np.zeros((r, r), dtype=complex)
        c_half[p:, p:] = iv.C_R_half
        for z in (2j, -1 + 1j, 3.0):
            resolvent = np.linalg.inv(iv.B_mu - z * np.eye(r))
            expected = (c_half @ resolvent @ c_half)[p:, p:] + np.eye(iv.def_dim)
            assert np.abs(qmu(iv, z) - expected).max() <= 1e-10

    def test_rejects_real_points_inside_interval(self, lebesgue_interval):
        for z in (0.0, 0.5, -1.0, 1.0):
            with pytest.raises(ValidationError):
                qmu(lebesgue_interval, z)

    def test_rejects_points_near_spectrum(self, lebesgue_interval):
        lam = lebesgue_interval.mu_eig.eigenvalues[-1]
        with pytest.raises(ValidationError):
            qmu(lebesgue_interval, lam + 1e-10)


class TestGeneralizedResolvent:
    def test_zero_defect_is_plain_resolvent(self):
        iv = interval_for(scalar_seq(-1, 1, [1, 0, 1]))
        r = iv.B_mu.shape[0]
        for z in (2j, 3.0):
            expected = np.linalg.inv(iv.B_mu - z * np.eye(r))
            assert np.allclose(generalized_resolvent(iv, 0.7, z), expected,
                               atol=1e-12)

    def test_k_zero_is_minimal_resolvent(self, lebesgue_interval):
        iv = lebesgue_interval
        r = iv.B_mu.shape[0]
        for z in (2j, -1 + 1j, 3.0):
            expected = np.linalg.inv(iv.B_mu - z * np.eye(r))
            assert np.allclose(generalized_resolvent(iv, 0.0, z), expected,
                               atol=1e-12)

    def test_resolvent_identity(self, matrix_defect_interval):
        iv = matrix_defect_interval
        rng = np.random.default_rng(11)
        k = random_contraction(rng, iv.def_dim, spectrum_range=(0.0, 1.0))
        zs = [2j, -1 + 1j, 3.0]
        rs = {z: generalized_resolvent(iv, k, z) for z in zs}
        for z in zs:
            for w in zs:
                if z == w:
                    continue
                lhs = rs[z] - rs[w]
                rhs = (z - w) * rs[z] @ rs[w]
                assert np.abs(lhs - rhs).max() <= 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_reconstruction_is_z_independent_extension(self, seed,
                                                       matrix_defect_interval):
        iv = matrix_defect_interval
        model = iv.model
        rng = np.random.default_rng(200 + seed)
        k = random_contraction(rng, iv.def_dim, spectrum_range=(0.0, 1.0))
        r = iv.B_mu.shape[0]
        recon = []
        for z in (2j, -1 + 1j, 3.0):
            rz = generalized_resolvent(iv, k, z)
            recon.append(z * np.eye(r) + np.linalg.inv(rz))
        spread = max(np.abs(recon[0] - m).max() for m in recon[1:])
        assert spread <= 1e-8
        bprime = recon[0]
        assert np.abs(bprime - bprime.conj().T).max() <= 1e-8
        assert np.linalg.norm(bprime, 2) <= 1.0 + 1e-8
        assert np.abs(bprime[:, : model.dom_dim] - np.vstack([model.P, model.Q])).max() <= 1e-8
        # this artifact's normalization: the reconstruction is exactly the
        # canonical extension with the same parameter
        assert np.abs(bprime - canonical_extension(iv, k)).max() <= 1e-8

    def test_parameter_map_is_injective(self, matrix_defect_interval):
        iv = matrix_defect_interval
        rng = np.random.default_rng(42)
        support = defect_support_basis(iv)
        c_norm = np.linalg.norm(iv.C, 2)
        r = iv.B_mu.shape[0]
        recons = []
        for _ in range(8):
            u = random_unitary(rng, support.shape[1])
            lam = rng.uniform(0.0, 1.0, support.shape[1])
            k = support @ ((u * lam) @ u.conj().T) @ support.conj().T
            rz = generalized_resolvent(iv, k, 2j)
            recons.append(2j * np.eye(r) + np.linalg.inv(rz))
        for i in range(len(recons)):
            for j in range(i + 1, len(recons)):
                assert np.abs(recons[i] - recons[j]).max() > 1e-8 * c_norm

    def test_rejects_invalid_arguments(self, lebesgue_interval):
        with pytest.raises(ValidationError):
            generalized_resolvent(lebesgue_interval, 2.0, 2j)
        with pytest.raises(ValidationError):
            generalized_resolvent(lebesgue_interval, 0.5, 0.25)


def random_unit_interval_param(rng, dim):
    """A random Hermitian K with spectrum in [0, 1]."""
    u = random_unitary(rng, dim)
    return (u * rng.uniform(0.0, 1.0, dim)) @ u.conj().T


class TestResolventDensity:
    """The Stieltjes-Perron density is (G - G*)/(2 pi i) of the resolvent
    forms G = (X* (B_K - z)^(-1) X)^T between the first N Gram vectors X."""

    @pytest.fixture(scope="class")
    def wide_interval(self):
        iv = interval_for(moments_of(gen_random_measure(3, 2, 6, -1.0, 2.0), 4))
        assert iv.def_dim == 2
        return iv

    @pytest.mark.parametrize("name", ["matrix_defect_interval", "wide_interval"])
    def test_matches_dense_resolvent(self, request, name):
        iv = request.getfixturevalue(name)
        kk = random_unit_interval_param(np.random.default_rng(5), iv.def_dim)
        ts, eps = np.linspace(-1.05, 1.05, 1001), 1e-3
        ext, x = canonical_extension(iv, kk), iv.model.first_vectors
        eye = np.eye(ext.shape[0])
        g = np.stack([(x.conj().T @ np.linalg.solve(ext - (t + 1j * eps) * eye, x)).T
                      for t in ts])
        want = (g - g.conj().transpose(0, 2, 1)) / (2j * np.pi)
        got = matmom.solutions._resolvent_density(iv, kk, ts, eps)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_middle_factor_guard_names_the_first_failing_point(
            self, monkeypatch, matrix_defect_interval):
        iv = matrix_defect_interval
        kk = random_unit_interval_param(np.random.default_rng(6), iv.def_dim)
        ts, eps = np.linspace(-1.05, 1.05, 201), 1e-3
        w, v = iv.mu_eig
        defect = v[iv.model.dom_dim :].conj().T
        conds = []
        for t in ts:
            q_mu = iv.C_R_half @ (defect.conj().T / (w - (t + 1j * eps))) @ defect @ iv.C_R_half
            conds.append(np.linalg.cond(np.eye(iv.def_dim) + q_mu @ kk))
        # a bound between the largest condition number and the next one
        limit = 0.5 * sum(sorted(conds)[-2:])
        first = ts[int(np.argmax(np.array(conds) > limit))]
        monkeypatch.setattr(matmom.extensions, "COND_LIMIT", limit)
        with pytest.raises(NumericalInconsistency,
                           match=re.escape(f"singular at z={complex(first + 1j * eps)}")):
            matmom.solutions._resolvent_density(iv, kk, ts, eps)


class TestCompletionNormGuard:
    def test_inconsistent_column_is_detected(self):
        # a column with norm well above 1 cannot come from a contraction
        p = np.zeros((1, 1))
        q = np.array([[2.0]])
        x_mu, x_m = extremal_completions(p, q)
        t = assemble(p, q, x_mu)
        assert np.linalg.norm(t, 2) > 1.0 + 1e-8

    def test_extremal_extensions_rejects_non_contraction(self):
        # the same column inside a model: X_min = 3 and X_max = -3, so the
        # defect is -6
        model = build_operators(build_gram_space(scalar_seq(-1, 1, [1, 0, 1])))
        bad = dataclasses.replace(model, P=np.zeros((1, 1), dtype=complex),
                                  Q=np.array([[2.0]], dtype=complex))
        with pytest.raises(NumericalInconsistency, match="defect has negative eigenvalue"):
            extremal_extensions(bad)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_unit_norm_compression_with_q_on_its_eigenvector(self, sign):
        # the defect cannot see Q on an eigenvector of P whose 1 -+ w the rank
        # cutoff drops; there the column itself must have norm at most 1
        p, q, v = unit_norm_column(np.random.default_rng(5), 3, 2, sign)
        q = q + 1e-3 * np.array([[0.6], [0.8j]]) @ v.conj().T
        with pytest.raises(ValidationError, match="contraction column has norm 1.0000005"):
            extremal_completions(p, q)
        with pytest.raises(NumericalInconsistency, match="contraction column has norm"):
            extremal_extensions(synthetic_model(p, q))
        assert not reference_contraction_guards(synthetic_model(p, q))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_q_is_rejected(self, value):
        with pytest.raises(ValidationError, match="Q contains non-finite entries"):
            extremal_completions(np.zeros((1, 1)), [[value]])

    def test_negative_defect_is_numerical(self, monkeypatch, lebesgue_interval):
        # swapped completions pass the tests on the eigenbasis of P, and
        # their difference is minus the defect
        core = matmom.extensions._extremal_completions
        swapped = lambda p, q: core(p, q)[::-1]
        monkeypatch.setattr(matmom.extensions, "_extremal_completions", swapped)
        with pytest.raises(NumericalInconsistency, match="defect has negative eigenvalue"):
            extremal_extensions(lebesgue_interval.model)


def test_batched_unitary_sampler_matches_loop():
    for n in (1, 2, 3):
        loop_rng, batch_rng = np.random.default_rng(n), np.random.default_rng(n)
        loop = np.stack([random_unitary(loop_rng, n) for _ in range(50)])
        assert np.array_equal(random_unitaries(batch_rng, n, 50), loop)
        assert loop_rng.uniform() == batch_rng.uniform()
