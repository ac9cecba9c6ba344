import inspect
import pickle
import warnings
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

import matmom.extensions
import matmom.linalg
import matmom.operator_model
import matmom.solutions
import matmom.solvability
from matmom import (
    MomentSequence,
    NumericalInconsistency,
    ValidationError,
    build_gamma,
    build_gamma_tilde,
    build_h_pair,
    check,
    check_cdfk,
    check_even,
    check_l0,
    check_odd,
    gen_random_measure,
    measure_from_atoms,
    moments_of,
    solve_even,
    solve_odd,
)
from matmom.linalg import PSD_TOL, certified, herm_part, psd_ok, rank_keep
from matmom.solvability import (
    CONSISTENCY_TOL,
    Condition,
    _psd_condition,
    _psd_condition_eig,
)

from helpers import (
    random_hermitian,
    random_psd,
    random_unitary,
    reference_check_even,
    reference_check_odd,
    reference_pair_verdict,
)


def scalar_seq(a, b, values):
    return MomentSequence(a, b, tuple(np.array([[v]], dtype=complex) for v in values))


def gauss_unit_interval_measure():
    # two-point quadrature reproducing the first four Lebesgue moments on [0, 1]
    off = 1.0 / (2.0 * np.sqrt(3.0))
    return measure_from_atoms(0, 1, [0.5 - off, 0.5 + off],
                              [0.5 * np.eye(1), 0.5 * np.eye(1)])


class TestCheckOdd:
    def test_symmetric_example_solvable(self):
        rep = check_odd(scalar_seq(-1, 1, [1, 0, 1]))
        assert rep.solvable and rep.case == "odd"
        assert [c.name for c in rep.conditions] == ["Gamma PSD", "GammaTilde PSD"]
        assert [c.name for c in rep.diagnostics] == ["kernel inclusion"]

    def test_second_moment_too_large(self):
        rep = check_odd(scalar_seq(-1, 1, [1, 0, 3]))
        assert not rep.solvable
        assert rep.failed_conditions == ("GammaTilde PSD",)
        assert rep.details["GammaTilde PSD"] == pytest.approx(-2.0)

    def test_lebesgue_moments_solvable(self):
        # realized by an explicit quadrature measure, so necessity forces yes
        mu = gauss_unit_interval_measure()
        seq = moments_of(mu, 2)
        assert np.allclose([s[0, 0] for s in seq.moments], [1.0, 0.5, 1 / 3])
        assert check_odd(seq).solvable

    def test_kernel_inclusion_failure(self):
        # zero mass but nonzero second moment: the shifted Hankel does not
        # annihilate the kernel; the interval-weighted matrix fails too, and
        # its failure is the verdict, the kernel's a diagnostic
        rep = check_odd(scalar_seq(-1, 1, [0, 0, 1]))
        assert not rep.solvable
        assert rep.failed_conditions == ("GammaTilde PSD",)
        (kernel,) = rep.diagnostics
        assert kernel.name == "kernel inclusion" and not kernel.passed

    def test_parity_errors(self):
        with pytest.raises(ValidationError):
            check_odd(scalar_seq(-1, 1, [1, 0]))
        with pytest.raises(ValidationError):
            check_odd(scalar_seq(-1, 1, [1]))


class TestCheckEven:
    def test_interval_for_two_moments(self):
        rep = check_even(scalar_seq(0, 1, [1, 0.5]))
        assert rep.solvable
        assert rep.even_case.S_min == pytest.approx(np.array([[0.25]]))
        assert rep.even_case.S_max == pytest.approx(np.array([[0.5]]))

    @pytest.mark.parametrize("seed", range(4))
    def test_width_root_from_the_judged_spectrum(self, seed):
        # width_half squares to the interval width whose eigenvalues the
        # "S interval nonempty" condition judged, clipped at zero, up to the
        # eigenvalues the rank cutoff drops
        seq = moments_of(gen_random_measure(seed, 2, 3, -1.0, 2.0), 5)
        rep = check_even(seq)
        data = rep.even_case
        width = data.S_max - data.S_min
        w, v = np.linalg.eigh(width)
        clipped = (v * np.maximum(w, 0.0)) @ v.conj().T
        assert np.allclose(data.width_half, data.width_half.conj().T, rtol=0, atol=0)
        assert np.allclose(data.width_half @ data.width_half, clipped,
                           rtol=0, atol=1e-10 * max(1.0, np.abs(w).max()))

    def test_mean_outside_interval(self):
        # S_1 > b S_0: H-tilde = b S_0 - S_1 fails, so no interval is formed
        rep = check_even(scalar_seq(0, 1, [1, 2]))
        assert not rep.solvable
        assert rep.failed_conditions == ("HTilde PSD",)
        assert rep.even_case is None
        assert [c.name for c in rep.diagnostics] == ["GammaTilde PSD"]

    def test_d_zero_conventions(self):
        # the second system is empty, so S_max = -ab S_0 + (a+b) S_1
        rep = check_even(scalar_seq(-2, 3, [1, 0.5]))
        assert rep.even_case.S_max == pytest.approx(np.array([[6.0 + 0.5]]))

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-2.0, 3.0)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_d_zero_empty_y_system(self, n, a, b):
        # the Y system is 0 x 0: consistent with residual 0, and its zero
        # quadratic form leaves S_max = -ab S_0 + (a+b) S_1
        seq = moments_of(gen_random_measure(n, n, n + 1, a, b), 1)
        rep = check_even(seq)
        assert rep.solvable
        y_cond = next(c for c in rep.diagnostics if c.name == "Y system consistent")
        assert y_cond == Condition("Y system consistent", True, "residual", 0.0,
                                   CONSISTENCY_TOL, 0.0)
        s0, s1 = seq.moments
        expected = herm_part(-a * b * s0 + (a + b) * s1)
        assert rep.even_case.S_max.tobytes() == expected.tobytes()

    def test_higher_order_even(self):
        mu = gen_random_measure(11, 2, 3, 0.0, 1.0)
        seq = moments_of(mu, 5)
        rep = check_even(seq)
        assert rep.solvable
        # S_min is the quadratic form of the X system's minimal-norm solution
        gamma = build_gamma(seq, 2)
        rhs = np.vstack([seq.moments[3 + i] for i in range(3)])
        s_min = rep.even_case.S_min
        expected = rhs.conj().T @ np.linalg.pinv(gamma) @ rhs
        assert np.linalg.norm(s_min - expected, 2) <= 1e-10 * max(1.0, np.linalg.norm(s_min, 2))

    def test_parity_error(self):
        with pytest.raises(ValidationError):
            check_even(scalar_seq(0, 1, [1, 0.5, 1 / 3]))

    def test_each_moment_matrix_factored_once(self, monkeypatch):
        # Gamma_d is factored as check_odd factors it.  Below order 16
        # eigvalsh decides, then a full-rank Gamma_d takes its Cholesky
        # factor, on which one solve gives the X system, and a rank-deficient
        # one takes one eigh.  From order 16 a Cholesky certificate of the
        # shifted Gamma_d decides with no eigensolve, and so does one of the
        # shifted H pair, stacked; below order 16 one eigvalsh factors the
        # stacked H pair of the verdict.  One eigh of Gamma-tilde_d serves
        # its PSD diagnostic and the Y system, and the width takes the last
        # eigh.  The last eigvalsh, of the stacked ends S_min, S_max, gives
        # the interval's scale
        for n, atoms, rank in ((2, 6, 8), (2, 3, 6), (4, 6, 16)):
            self._assert_factored_once(monkeypatch, n, atoms, rank)

    @staticmethod
    def _assert_factored_once(monkeypatch, n, atoms, rank):
        seq = moments_of(gen_random_measure(3, n, atoms, -1.0, 1.5), 7)
        gamma, gtilde = build_gamma(seq, 3), build_gamma_tilde(seq, 3)
        pair = np.stack(build_h_pair(seq, 3))
        factored = {"eigh": [], "eigvalsh": [], "cholesky": [], "solve": []}
        for name, mats in factored.items():
            original = getattr(np.linalg, name)

            def recorded(a, *args, _mats=mats, _original=original, **kwargs):
                _mats.append(np.asarray(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        rep = check_even(seq)
        monkeypatch.undo()
        assert rep.solvable and rep.space.rank == rank
        full, cert = rank == 4 * n, rank >= 16
        ends = np.stack([rep.even_case.S_min, rep.even_case.S_max])
        assert {name: len(mats) for name, mats in factored.items()} == {
            "eigh": 3 - full, "eigvalsh": 3 - 2 * cert, "cholesky": int(full) + 2 * cert,
            "solve": int(full)}
        same = lambda x, y: x.shape == y.shape and np.allclose(x, y, rtol=0, atol=1e-13)
        near = lambda x, y: x.shape == y.shape and np.allclose(
            x, y, rtol=0, atol=1e-9 * np.abs(y).sum(axis=-2).max())
        assert all(map(same, factored["eigvalsh"], (ends,) if cert else (gamma, pair, ends)))
        assert all(map(same, factored["eigh"], (gamma,) * (not full) + (gtilde,)))
        # the certificates factor Gamma_d and the H pair shifted by about
        # 2e-10 ||.||_1, and the Gram factor, after Gamma_d's certificate,
        # is Gamma_d's own
        assert all(map(near, factored["cholesky"], (gamma, gamma, pair) if cert else (gamma,)))
        if full:
            assert same(factored["cholesky"][int(cert)], gamma)
        assert all(same(x, rep.space.vectors.T) for x in factored["solve"])
        # the PSD conditions read the deciding spectra, or eigvalsh's when
        # a certificate decided; Gamma_d has none on the even report
        assert rep.details["H PSD"] == np.linalg.eigvalsh(pair[0]).min()
        assert rep.details["GammaTilde PSD"] == np.linalg.eigh(gtilde)[0].min()
        assert "Gamma PSD" not in rep.details


class TestOverflowingCombinations:
    """Gamma-tilde and the H pair combine finite moments and can overflow;
    that is an error in the data's scale, never a verdict of unsolvable."""

    @pytest.mark.parametrize("l", [2, 3])
    def test_check_raises(self, l):
        seq = MomentSequence(-2.0, 3.0, (8e307 * np.eye(2),) * (l + 1))
        with pytest.raises(ValidationError, match="non-finite entries"):
            check(seq)
        with pytest.raises(ValidationError, match="non-finite entries"):
            check_cdfk(seq)

    def test_even_interval_overflow_raises(self):
        # genuine moments: the block systems' quadratic forms and the ends of
        # the next-moment interval overflow (the next moment itself would),
        # which was judged "S interval nonempty: FAIL" on a NaN width
        mu = measure_from_atoms(-2.0, 3.0, [-2.0, 0.1, 3.0], [3e306 * np.eye(1)] * 3)
        seq = moments_of(mu, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^S_min contains non-finite entries"):
                check_even(seq)

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e250, 1e290])
    @pytest.mark.parametrize("atoms, l", [([0.3], 3), ([0.2, 0.7], 5)])
    def test_consistency_residuals_at_large_scale(self, scale, atoms, l):
        # a rank-deficient Gamma: the squares in the residual's norm and its
        # scale overflowed, and inf/inf failed "X system consistent"
        mu = measure_from_atoms(0.0, 1.0, atoms, [scale * np.eye(1)] * len(atoms))
        report = check_even(moments_of(mu, l))
        assert report.solvable, report.failed_conditions
        assert report.details["X system consistent"] <= 1e-8 * scale


class TestSubnormalScale:
    """Genuine moments of subnormal scale carry too few digits for a Gram
    factor: that is a numerical error, raised by the check and by both
    solves, never numpy's own."""

    @staticmethod
    def _seq(l):
        seq = moments_of(gen_random_measure(42, 1, 4, 0.0, 1.0), l)
        return MomentSequence(0.0, 1.0, tuple(np.ldexp(s.real, -1070) for s in seq.moments))

    @pytest.mark.parametrize("l", [4, 5])
    def test_raises_numerical_inconsistency(self, l):
        seq = self._seq(l)
        for run in (check, solve_odd if l % 2 == 0 else solve_even):
            with pytest.raises(NumericalInconsistency, match="no Cholesky factor"):
                run(seq)


def _report_fields(report) -> list:
    """Every field of a check report, each float and array as its bytes."""
    bits = lambda x: np.float64(x).tobytes()
    condition = lambda c: (c.name, type(c.passed), c.passed, c.kind, bits(c.quantity),
                           bits(c.threshold), bits(c.value))
    fields = [report.solvable, report.case, report.failed_conditions,
              [condition(c) for c in report.conditions],
              [condition(c) for c in report.diagnostics]]
    arrays = ()
    if report.even_case is not None:
        data = report.even_case
        arrays = (data.S_min, data.S_max, *data.width, data.next_coords)
    if report.space is not None:
        arrays += (report.space.vectors, report.space.spectrum)
    return fields + [(arr.dtype.str, arr.shape, arr.tobytes()) for arr in arrays]


def _outcome(check_fn, seq):
    """The report's fields, or the exception's class and message."""
    try:
        return _report_fields(check_fn(seq))
    except Exception as exc:
        return type(exc), str(exc)


def _sweep():
    """1,000 problems: N 1-3, d 0-3, atoms 1-5 on [0, 1], [-1, 1] or [-2, 3],
    at l = 2d+1.  Every other one has each moment perturbed by a Hermitian
    matrix: of scale 1e-3, which fails verdicts; 1e-8, which fails
    diagnostics of solvable problems; or 1, which drives eigenvalues far
    below -1."""
    for g in range(1000):
        rng = np.random.default_rng(60_000 + g)
        n, d, atoms = int(rng.integers(1, 4)), int(rng.integers(0, 4)), int(rng.integers(1, 6))
        a, b = ((0.0, 1.0), (-1.0, 1.0), (-2.0, 3.0))[int(rng.integers(3))]
        seq = moments_of(gen_random_measure(g, n, atoms, a, b), 2 * d + 1)
        if g % 2:
            scale = (1e-3, 1e-8, 1.0)[g // 2 % 3]
            seq = MomentSequence(a, b, tuple(s + scale * random_hermitian(rng, n)
                                             for s in seq.moments))
        yield g, d, seq


class TestReportsBitForBit:
    """check_odd and check_even give the reports and exceptions of the
    reference bodies, which form every combination, Hankel matrix and
    factorization one at a time: floats and arrays bit for bit."""

    def test_sweep(self):
        reached = Counter()
        for g, d, seq in _sweep():
            cases = [(check_even, reference_check_even, seq)]
            if d >= 1:
                cases.append((check_odd, reference_check_odd, seq.truncated(2 * d)))
            for check_fn, reference, problem in cases:
                assert _outcome(check_fn, problem) == _outcome(reference, problem), (g, problem.l)
                report = check_fn(problem)
                reached[report.case, report.solvable] += 1
                reached[report.case, "diagnostic fails"] += report.solvable and not all(
                    c.passed for c in report.diagnostics)
        # the sweep reaches both verdicts in both cases, and solvable even
        # problems whose construction fails a diagnostic
        assert min(reached[case, verdict] for case in ("odd", "even")
                   for verdict in (True, False)) > 100
        assert reached["even", "diagnostic fails"] > 0

    def test_overflow_sweep(self):
        # moments near the double range overflow at different stops, often
        # several at once, and the first is named as the reference names it;
        # seeds 1655 and 2749 overflow S_min together with the Y quadratic
        # form and with the Y right side
        stops = Counter()
        for g in [*range(300), 1655, 2749]:
            rng = np.random.default_rng(70_000 + g)
            n, d, atoms = int(rng.integers(1, 3)), int(rng.integers(0, 3)), int(rng.integers(1, 5))
            a, b = ((0.0, 1.0), (-1.0, 1.0), (-2.0, 3.0), (0.0, 3.0))[int(rng.integers(4))]
            scale = 10.0 ** rng.uniform(300, 308)
            with np.errstate(over="ignore"):
                stack = scale * moments_of(gen_random_measure(g, n, atoms, a, b), 2 * d + 1)._stack
            try:
                seq = MomentSequence(a, b, tuple(stack))
            except ValidationError:
                continue
            for problem in (seq, *((seq.truncated(2 * d),) if d else ())):
                reference = reference_check_even if problem.l % 2 else reference_check_odd
                got = _outcome(check, problem)
                assert got == _outcome(reference, problem), (g, problem.l)
                if got[0] is ValidationError:
                    stops[got[1].split(" contains")[0]] += 1
        assert set(stops) == {"GammaTilde", "S_min", "Y quadratic form", "S_max"}

    @pytest.mark.parametrize("name, seq", [
        ("GammaTilde", MomentSequence(-2.0, 3.0, (8e307 * np.eye(2),) * 3)),
        ("GammaTilde", MomentSequence(-2.0, 3.0, (8e307 * np.eye(2),) * 4)),
        ("S_min", moments_of(measure_from_atoms(-2.0, 3.0, [-2.0, 0.1, 3.0],
                                                [3e306 * np.eye(1)] * 3), 3)),
        ("HTilde", scalar_seq(0.0, 3.0, [1.0, 0.0, 4e307, -8.9e307])),
        # S_0 is not PSD, so no interval is formed, and both H and HTilde overflow
        ("H", scalar_seq(-2.0, 3.0, [-8e307, -8e307])),
    ], ids=["GammaTilde-l2", "GammaTilde-l3", "S_min", "HTilde", "H-and-HTilde"])
    def test_overflow_stops(self, name, seq):
        # the first combination that overflows is named as the reference
        # names it, by the same exception class and message
        reference = reference_check_odd if seq.l % 2 == 0 else reference_check_even
        got = _outcome(check, seq)
        assert got == _outcome(reference, seq)
        assert got[0] is ValidationError
        assert got[1].startswith(f"{name} contains non-finite entries")


def _certificate_sweep():
    """200 problems whose moment matrices reach order 16, where the checks
    try a certificate: N 2-4 with d around 16/N, atoms 1 to d + 3 (so most
    are rank-deficient) on [0, 1], [-1, 1] or [-2, 3], at l = 2d + 1.
    Every other one has each moment perturbed by a Hermitian matrix of
    scale 1e-8 or 1e-3, as in :func:`_sweep`.  Each comes as drawn and with
    every moment scaled by 2^60 and by 2^-60, which scales every matrix
    exactly."""
    for g in range(200):
        rng = np.random.default_rng(70_000 + g)
        n = int(rng.integers(2, 5))
        top = -(-16 // n)
        d = int(rng.integers(max(1, top - 1), top + 3))
        atoms = int(rng.integers(1, d + 4))
        a, b = ((0.0, 1.0), (-1.0, 1.0), (-2.0, 3.0))[int(rng.integers(3))]
        seq = moments_of(gen_random_measure(g, n, atoms, a, b), 2 * d + 1)
        if g % 2:
            scale = (1e-8, 1e-3)[g // 2 % 2]
            seq = MomentSequence(a, b, tuple(s + scale * random_hermitian(rng, n)
                                             for s in seq.moments))
        for k in (0, 60, -60):
            yield g, k, MomentSequence(a, b, tuple(np.ldexp(s.real, k) + 1j * np.ldexp(s.imag, k)
                                                   for s in seq.moments))


def _large_shape(l):
    return moments_of(gen_random_measure(0, 8, 40, -1.0, 1.0), l)


class TestCertificates:
    """From order 16 the checks decide Gamma's, Gamma-tilde's and the H
    pair's PSD conditions and Gamma's rank on a Cholesky certificate and
    form a spectrum only when a report reads it; every verdict, vector and
    number is the eigensolve's, bit for bit."""

    def test_a_passing_certificate_agrees_with_eigvalsh(self):
        reached = Counter()
        for g, k, seq in _certificate_sweep():
            d = (seq.l - 1) // 2
            h_pair = build_h_pair(seq, d)
            assert certified(np.stack(h_pair)) == all(map(certified, h_pair))
            for m in (build_gamma(seq, d), build_gamma_tilde(seq, d), *h_pair):
                if m.shape[0] < 16:
                    continue
                w = np.linalg.eigvalsh(m)
                ratio = w[0] / w[-1]
                kind = ("band" if 1e-12 <= ratio <= 1e-8
                        else "deficient" if ratio < 1e-12 else "clear")
                proved = certified(m)
                reached[kind, proved] += 1
                if proved:
                    assert rank_keep(w).all() and psd_ok(w), (g, k)
        # the sweep reaches both answers inside [1e-12, 1e-8] and many
        # rank-deficient matrices, which no certificate passes
        assert reached["band", True] >= 50 and reached["band", False] >= 50
        assert reached["deficient", False] >= 1000 and reached["deficient", True] == 0
        assert reached["clear", True] >= 200

    def test_reports_bit_for_bit(self):
        reached = Counter()
        for g, k, seq in _certificate_sweep():
            d = (seq.l - 1) // 2
            for check_fn, reference, problem in ((check_even, reference_check_even, seq),
                                                 (check_odd, reference_check_odd,
                                                  seq.truncated(2 * d))):
                report = check_fn(problem)
                reached["certified space"] += report.space.decided_spectrum is None
                reached["deferred"] += sum("value" not in vars(c) for c in report.conditions)
                reached[report.case, report.solvable] += 1
                assert _report_fields(report) == _outcome(reference, problem), (g, k, problem.l)
        assert reached["certified space"] >= 120 and reached["deferred"] >= 200
        assert min(reached[case, verdict] for case in ("odd", "even")
                   for verdict in (True, False)) >= 150

    def test_large_shape_check_takes_no_eigensolve(self, monkeypatch):
        # the odd check decides Gamma (88 x 88) and Gamma-tilde (80 x 80)
        # on certificates; read afterwards, its report is the eigensolve's.
        # The even check still takes eigh of Gamma-tilde, of the width and
        # eigvalsh of the ends, but neither of Gamma nor of the H pair
        odd, even = _large_shape(20), _large_shape(21)
        calls = []
        for name in ("eigvalsh", "eigh"):
            original = getattr(np.linalg, name)

            def counted(a, *args, _name=name, _original=original, **kwargs):
                calls.append((_name, np.shape(a)))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        assert check(odd).solvable
        assert calls == []
        assert check(even).solvable
        monkeypatch.undo()
        assert calls == [("eigh", (80, 80)), ("eigh", (8, 8)), ("eigvalsh", (2, 8, 8))]
        for check_fn, reference, seq in ((check_odd, reference_check_odd, odd),
                                         (check_even, reference_check_even, even)):
            assert _outcome(check_fn, seq) == _outcome(reference, seq)

    def test_an_unread_report_pickles(self):
        # the deferred numbers travel as the matrices they come from
        report = check_odd(_large_shape(20))
        copy = pickle.loads(pickle.dumps(report))
        assert all("value" not in vars(c) for c in copy.conditions[:2])
        assert _report_fields(copy) == _report_fields(report)

    def test_deferred_condition_is_the_judged_one(self):
        m = random_psd(np.random.default_rng(5), 20)
        cond = _psd_condition("GammaTilde PSD", m)
        assert cond.passed and "quantity" not in vars(cond) and not m.flags.writeable
        unread = pickle.loads(pickle.dumps(cond))
        judged = _psd_condition_eig("GammaTilde PSD", np.linalg.eigvalsh(m))
        # equality, the hash and repr read the numbers as fields
        assert cond == judged and hash(cond) == hash(judged) and repr(cond) == repr(judged)
        bits = lambda c: np.array([c.quantity, c.value]).tobytes()
        assert bits(cond) == bits(judged) == bits(unread)
        assert pickle.loads(pickle.dumps(cond)) == judged
        with pytest.raises(AttributeError):
            cond.margin
        # the six public fields and the constructor are as they were
        assert [f.name for f in fields(Condition) if f.compare] == [
            "name", "passed", "kind", "quantity", "threshold", "value"]
        assert Condition("S0 PSD", True, "psd", 0.5, PSD_TOL, 0.5).quantity == 0.5


class TestCheckL0:
    def test_identity(self):
        assert check_l0(np.eye(2)).solvable

    def test_indefinite(self):
        rep = check_l0(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert not rep.solvable
        assert rep.failed_conditions == ("S0 PSD",)

    def test_zero_matrix(self):
        assert check_l0(np.zeros((2, 2))).solvable

    def test_no_cross_check(self):
        # S_0 PSD is the verdict, with nothing beside it
        rep = check_l0(np.eye(1))
        assert [c.name for c in rep.conditions] == ["S0 PSD"] and rep.diagnostics == ()


class TestCheckCdfk:
    def test_examples(self):
        assert not check_cdfk(scalar_seq(0, 1, [1, 2]))
        assert check_cdfk(scalar_seq(0, 1, [1, 0.5]))
        assert check_cdfk(scalar_seq(-1, 1, [1, 0, 1]))

    def test_requires_l_at_least_one(self):
        with pytest.raises(ValidationError):
            check_cdfk(scalar_seq(0, 1, [1]))


class TestNecessity:
    """Moments of an actual measure are always solvable, and the reference
    pair, factored by eigvalsh, agrees."""

    @pytest.mark.parametrize("seed", range(500))
    def test_random_measures(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        atoms = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        a, b = sorted(rng.uniform(-3, 3, size=2))
        if b - a < 0.1:
            b = a + 0.1
        mu = gen_random_measure(seed, n, atoms, a, b)

        odd = moments_of(mu, 2 * d)
        rep_odd = check_odd(odd)
        assert rep_odd.solvable, (seed, rep_odd.failed_conditions)
        assert reference_pair_verdict(odd)

        even = moments_of(mu, 2 * d + 1)
        rep_even = check_even(even)
        assert rep_even.solvable, (seed, rep_even.failed_conditions)
        assert reference_pair_verdict(even)


class TestCriteriaAgreement:
    @pytest.mark.parametrize("seed", range(60))
    def test_perturbed_instances_agree(self, seed):
        # Hermitian perturbations of magnitude 1e-2 push many instances off
        # the solvable set; the verdict is still the reference pair's.
        rng = np.random.default_rng(10_000 + seed)
        n = int(rng.integers(1, 3))
        mu = gen_random_measure(seed, n, int(rng.integers(1, 4)), -1.0, 1.0)
        l = int(rng.integers(2, 6))
        seq = moments_of(mu, l)
        perturbed = MomentSequence(seq.a, seq.b, tuple(
            s + 1e-2 * random_hermitian(rng, n) for s in seq.moments
        ))
        rep = check(perturbed)
        assert rep.solvable == reference_pair_verdict(perturbed), (seed, rep.failed_conditions)


class TestEvenOddConsistency:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_appending_inside_interval_stays_solvable(self, seed):
        from matmom.linalg import EigDecomposition, psd_ok, sqrt_from_eig

        rng = np.random.default_rng(20_000 + seed)
        n = int(rng.integers(1, 3))
        mu = gen_random_measure(seed, n, 3, 0.0, 1.0)
        d = int(rng.integers(0, 3))
        seq = moments_of(mu, 2 * d + 1)
        rep = check_even(seq)
        assert rep.solvable
        data = rep.even_case
        width = EigDecomposition(*np.linalg.eigh(herm_part(data.S_max - data.S_min)))
        assert psd_ok(width.eigenvalues)
        width_half = sqrt_from_eig(width)
        interior = []
        for _ in range(3):
            t = random_hermitian(rng, n)
            w = np.linalg.eigvalsh(t)
            t = (t - w.min() * np.eye(n)) / max(w.max() - w.min(), 1.0)
            interior.append(herm_part(data.S_min + width_half @ t @ width_half))
        for s_next in (data.S_min, data.S_max,
                       0.5 * (data.S_min + data.S_max), *interior):
            assert check_odd(seq.extended(s_next)).solvable

    def test_appending_outside_interval_fails(self):
        seq = scalar_seq(0, 1, [1, 0.5])
        data = check_even(seq).even_case
        eps = 1e-6 * np.eye(1)
        assert not check_odd(seq.extended(data.S_min - eps)).solvable
        assert not check_odd(seq.extended(data.S_max + eps)).solvable


class TestUnitaryInvariance:
    @pytest.mark.parametrize("seed", range(8))
    def test_odd_verdict_invariant_under_congruence(self, seed):
        rng = np.random.default_rng(30_000 + seed)
        n = 2
        if seed % 2 == 0:
            seq = moments_of(gen_random_measure(seed, n, 3, -1.0, 1.0), 4)
        else:
            # decisively unsolvable: too-large top moment
            mu = gen_random_measure(seed, n, 3, -1.0, 1.0)
            seq = moments_of(mu, 4)
            seq = MomentSequence(seq.a, seq.b, seq.moments[:-1]
                                 + (seq.moments[-1] + 10 * np.eye(n),))
        u = random_unitary(rng, n)
        rotated = MomentSequence(seq.a, seq.b, tuple(
            u.conj().T @ s @ u for s in seq.moments
        ))
        assert check_odd(seq).solvable == check_odd(rotated).solvable


def test_chain_takes_no_tolerance_parameters():
    # the chain's tolerances are module constants: no public function or
    # method of its four modules takes one
    modules = (matmom.solvability, matmom.operator_model, matmom.extensions,
               matmom.solutions)
    callables = []
    for module in modules:
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                callables.append((name, obj))
            elif inspect.isclass(obj):
                callables += [(f"{name}.{attr}", member)
                              for attr, member in vars(obj).items()
                              if inspect.isfunction(member) and not attr.startswith("_")]
    names = {name for name, _ in callables}
    assert {"check", "check_odd", "build_operators", "extremal_extensions",
            "VerificationReport.passed_at", "solve_odd"} <= names
    offending = [(name, param) for name, fn in callables
                 for param in inspect.signature(fn).parameters
                 if param.endswith("_tol")]
    assert offending == []


def test_linalg_takes_a_tolerance_only_where_two_values_reach_it():
    # every other rule of linalg reads its module constant, and the
    # Stieltjes-Perron oracle keeps only its grid as parameters
    taking = {(name, param) for name, fn in vars(matmom.linalg).items()
              if inspect.isfunction(fn) and fn.__module__ == matmom.linalg.__name__
              for param in inspect.signature(fn).parameters
              if param == "tol" or param.endswith("_tol")}
    assert taking == {("psd_ok", "tol"), ("require_hermitian", "tol"),
                      ("require_hermitian_stack", "tol"), ("cluster_starts", "tol")}
    params = inspect.signature(matmom.solutions.stieltjes_perron_recover).parameters
    assert list(params) == ["interval", "k", "eps", "step"]


def test_dispatch():
    assert check(scalar_seq(0, 1, [1])).case == "l0"
    assert check(scalar_seq(0, 1, [1, 0.5])).case == "even"
    assert check(scalar_seq(-1, 1, [1, 0, 1])).case == "odd"


class TestSharedReportIsImmutable:
    """A report is returned to every caller that checks the same sequence
    object, so no caller can change what the next one reads."""

    @staticmethod
    def _arrays(rep):
        if rep.case == "odd":
            space = rep.space
            return (space.vectors, space.spectrum, *space.domain_svd)
        data = rep.even_case
        return (data.S_min, data.S_max, *data.width, data.width_half)

    @pytest.mark.parametrize("l", [4, 5])
    def test_arrays_are_read_only(self, l):
        rep = check(moments_of(gen_random_measure(5, 2, 6, -1.0, 2.0), l))
        for arr in self._arrays(rep):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0.0

    @pytest.mark.parametrize("l", [4, 5])
    def test_details_is_a_new_dict(self, l):
        seq = moments_of(gen_random_measure(5, 2, 6, -1.0, 2.0), l)
        rep = check(seq)
        expected = {c.name: c.value for c in rep.conditions + rep.diagnostics}
        rep.details["Gamma PSD"] = 99.0
        rep.details.clear()
        assert check(seq) is rep
        assert check(seq).details == expected
