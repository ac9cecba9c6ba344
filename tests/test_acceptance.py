"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS line on success (visible with ``pytest -s``); any
assertion failure marks the corresponding criterion as failed.
"""

import time

import numpy as np
from matmom import (
    MomentSequence,
    build_gram_space,
    build_operators,
    check_even,
    check_l0,
    check_odd,
    extremal_completions,
    extremal_extensions,
    gen_random_measure,
    generalized_resolvent,
    moments_of,
    solve_even,
    solve_l0,
    solve_odd,
    stieltjes_perron_recover,
    verify,
)
from matmom.cli import main
from matmom.io import write_problem

from helpers import (
    defect_support_basis,
    random_contraction_column,
    random_unitaries,
    random_unitary,
    reference_pair_verdict,
)


def scalar_seq(a, b, values):
    return MomentSequence(a, b, tuple(np.array([[v]], dtype=complex) for v in values))


def interval_for(seq):
    return extremal_extensions(build_operators(build_gram_space(seq)))


def acceptance_instances(count=200):
    """Deterministic population: N in {1,2,3}, atoms <= 4, d <= 3, both intervals."""
    for seed in range(count):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        atoms = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        a, b = (0.0, 1.0) if seed % 2 else (-2.0, 3.0)
        yield seed, gen_random_measure(seed, n, atoms, a, b), d


def test_01_round_trip_suite():
    start = time.monotonic()
    for seed, mu, d in acceptance_instances(200):
        seq = moments_of(mu, 2 * d)
        report = check_odd(seq)
        assert report.solvable, (seed, report.failed_conditions)
        measure = solve_odd(seq, k=0.5)
        outcome = verify(measure, seq, tol=1e-8)
        assert outcome.passed, (seed, outcome.max_relative_residual)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"round-trip suite took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 round-trip suite: PASS (200 instances, {elapsed:.1f}s)")


def test_02_necessity_and_criteria_agreement():
    for seed, mu, d in acceptance_instances(200):
        # the odd case, the even-case truncation of the same moment set and
        # a longer even-case sequence from the same measure: each verdict is
        # yes, and so is the reference pair's, factored by eigvalsh
        seq = moments_of(mu, 2 * d)
        for problem in (seq, seq.truncated(2 * d - 1), moments_of(mu, 2 * d + 1)):
            report = check_odd(problem) if problem.l % 2 == 0 else check_even(problem)
            assert report.solvable, (seed, problem.l, report.failed_conditions)
            assert reference_pair_verdict(problem), (seed, problem.l)
    print("\nACCEPTANCE 2 necessity and the pair's verdict: PASS (600 checks)")


def test_03_determinacy():
    seq = scalar_seq(-1, 1, [1, 0, 1])
    iv = interval_for(seq)
    assert iv.determinate
    assert np.linalg.norm(iv.C, 2) <= 1e-10
    measures = [solve_odd(seq, k) for k in (0.0, 0.5, 1.0)]
    for m in measures:
        assert m.num_atoms == 2
        assert np.abs(m.positions - np.array([-1.0, 1.0])).max() <= 1e-9
        assert np.abs(m.weights[:, 0, 0] - 0.5).max() <= 1e-9
    for m in measures[1:]:
        assert np.abs(m.positions - measures[0].positions).max() <= 1e-9
        assert np.abs(m.weights - measures[0].weights).max() <= 1e-9
    print("\nACCEPTANCE 3 determinacy: PASS")


def test_04_indeterminacy():
    seq = scalar_seq(0, 1, [1, 0.5, 1 / 3])
    iv = interval_for(seq)
    assert np.linalg.norm(iv.C, 2) > 1e-10
    m0 = solve_odd(seq, 0.0)
    m1 = solve_odd(seq, 1.0)
    assert verify(m0, seq, tol=1e-9).passed
    assert verify(m1, seq, tol=1e-9).passed
    difference = max(
        np.abs(m0.positions - m1.positions).max(),
        np.abs(m0.weights - m1.weights).max(),
    )
    assert difference > 1e-6
    print("\nACCEPTANCE 4 indeterminacy: PASS")


def test_05_resolvent_formula():
    fixtures = [
        scalar_seq(0, 1, [1, 0.5, 1 / 3]),
        moments_of(gen_random_measure(7, 2, 2, 0.0, 1.0), 2),
    ]
    zs = [2j, -1 + 1j, 3.0]
    rng = np.random.default_rng(2024)
    for seq in fixtures:
        iv = interval_for(seq)
        model = iv.model
        r = iv.B_mu.shape[0]
        support = defect_support_basis(iv)
        c_norm = np.linalg.norm(iv.C, 2)
        assert c_norm > 0
        reconstructions = []
        for _ in range(20):
            u = random_unitary(rng, support.shape[1])
            lam = rng.uniform(0.0, 1.0, support.shape[1])
            k = support @ ((u * lam) @ u.conj().T) @ support.conj().T
            resolvents = {z: generalized_resolvent(iv, k, z) for z in zs}
            # resolvent identity
            for z in zs:
                for w in zs:
                    if z == w:
                        continue
                    gap = resolvents[z] - resolvents[w] - (z - w) * (
                        resolvents[z] @ resolvents[w])
                    assert np.abs(gap).max() <= 1e-8
            # z-independent self-adjoint contraction extension
            recon = [z * np.eye(r) + np.linalg.inv(resolvents[z]) for z in zs]
            for m in recon[1:]:
                assert np.abs(recon[0] - m).max() <= 1e-8
            bprime = recon[0]
            assert np.abs(bprime - bprime.conj().T).max() <= 1e-8
            assert np.linalg.norm(bprime, 2) <= 1.0 + 1e-8
            # the model's coordinates put the domain first
            assert np.abs(bprime[:, : model.dom_dim] - np.vstack([model.P, model.Q])).max() <= 1e-8
            reconstructions.append(bprime)
        # injectivity of the parameter map
        for i in range(len(reconstructions)):
            for j in range(i + 1, len(reconstructions)):
                distance = np.abs(reconstructions[i] - reconstructions[j]).max()
                assert distance > 1e-8 * c_norm
    print("\nACCEPTANCE 5 resolvent formula: PASS (20 parameters per fixture, "
          "3 points)")


def test_06_extremal_formula_oracle():
    rng = np.random.default_rng(99)
    n_samples = 10_000
    for _ in range(50):
        p_dim = int(rng.integers(1, 5))
        q_dim = int(rng.integers(1, 4))
        p, q = random_contraction_column(rng, p_dim, q_dim)
        x_mu, x_m = extremal_completions(p, q)
        # endpoints are valid completions
        for x in (x_mu, x_m):
            t = np.block([[p, q.conj().T], [q, x]])
            assert np.linalg.norm(t, 2) <= 1.0 + 1e-10
        # batched brute-force sample of self-adjoint completions
        units = random_unitaries(rng, q_dim, n_samples)
        lams = rng.uniform(-1.0, 1.0, (n_samples, q_dim))
        xs = (units * lams[:, None, :]) @ units.conj().transpose(0, 2, 1)
        ts = np.zeros((n_samples, p_dim + q_dim, p_dim + q_dim), dtype=complex)
        ts[:, :p_dim, :p_dim] = p
        ts[:, p_dim:, :p_dim] = q
        ts[:, :p_dim, p_dim:] = q.conj().T
        ts[:, p_dim:, p_dim:] = xs
        contraction = np.abs(np.linalg.eigvalsh(ts)).max(axis=1) <= 1.0
        valid = xs[contraction]
        scale = max(1.0, np.linalg.norm(x_m - x_mu, 2))
        if valid.size:
            low = np.linalg.eigvalsh(valid - x_mu).min()
            high = np.linalg.eigvalsh(x_m[None] - valid).min()
            assert low >= -1e-8 * scale
            assert high >= -1e-8 * scale
    print("\nACCEPTANCE 6 extremal-formula oracle: PASS (50 columns x 1e4 samples)")


def test_07_even_case():
    seq = scalar_seq(0, 1, [1, 0.5])
    report = check_even(seq)
    assert report.solvable
    assert np.abs(report.even_case.S_min - 0.25).max() <= 1e-12
    assert np.abs(report.even_case.S_max - 0.5).max() <= 1e-12

    low = solve_even(seq, t=0.0)
    assert low.num_atoms == 1
    assert abs(low.positions[0] - 0.5) <= 1e-9
    assert abs(low.weights[0, 0, 0] - 1.0) <= 1e-9

    high = solve_even(seq, t=1.0)
    assert high.num_atoms == 2
    assert np.abs(high.positions - np.array([0.0, 1.0])).max() <= 1e-9
    assert np.abs(high.weights[:, 0, 0] - 0.5).max() <= 1e-9

    s2_low = moments_of(low, 2).moments[2]
    s2_high = moments_of(high, 2).moments[2]
    assert np.abs(s2_low - report.even_case.S_min).max() <= 1e-8
    assert np.abs(s2_high - report.even_case.S_max).max() <= 1e-8
    print("\nACCEPTANCE 7 even case: PASS")


def test_08_stieltjes_perron_cross_check():
    # single boundary atom
    point = scalar_seq(-1, 1, [1, 1, 1])
    iv_point = interval_for(point)
    rec = stieltjes_perron_recover(iv_point, 0.5, eps=1e-4, step=1e-4)
    assert rec.num_atoms == 1
    assert abs(rec.positions[0] - 1.0) <= 1e-3
    assert abs(np.trace(rec.total_mass()).real - 1.0) <= 1e-3

    # two interior atoms, mass and locations
    seq = scalar_seq(0, 1, [1, 0.5, 1 / 3])
    iv = interval_for(seq)
    exact = solve_odd(seq, 0.5)
    lam_exact = (exact.positions - 0.5) / 0.5
    rec2 = stieltjes_perron_recover(iv, 0.5, eps=1e-4, step=1e-4)
    assert rec2.num_atoms == lam_exact.size
    assert np.abs(rec2.positions - lam_exact).max() <= 1e-3
    assert abs(np.trace(rec2.total_mass()).real - 1.0) <= 1e-3

    # monotone improvement under refinement, on both scalar examples
    for fixture, targets in ((iv, lam_exact), (iv_point, np.array([1.0]))):
        errors = []
        for eps in (8e-4, 4e-4, 2e-4):
            r = stieltjes_perron_recover(fixture, 0.5, eps=eps, step=eps)
            errors.append(np.abs(r.positions - targets).max())
        assert errors[1] <= errors[0]
        assert errors[2] <= errors[1]
        assert errors[2] < errors[0]
    print("\nACCEPTANCE 8 spectral-inversion cross-check: PASS")


def test_09_l0_case(tmp_path):
    # exit-code contract through the CLI
    good = tmp_path / "good.json"
    write_problem(good, MomentSequence(0.0, 1.0, (np.array([[2.0, 1j],
                                                            [-1j, 3.0]]),)))
    assert main(["check", str(good)]) == 0
    out = tmp_path / "m.json"
    assert main(["solve", str(good), "--out", str(out)]) == 0

    bad = tmp_path / "bad.json"
    write_problem(bad, MomentSequence(0.0, 1.0, (np.diag([1.0, -1.0]),)))
    assert main(["check", str(bad)]) == 2
    assert main(["solve", str(bad), "--out", str(tmp_path / "m2.json")]) == 2

    # exact mass conservation through the library
    s0 = np.array([[2.0, 1j], [-1j, 3.0]])
    measure = solve_l0(s0, 0.0, 1.0)
    assert np.array_equal(measure.total_mass(), s0)
    assert check_l0(s0).solvable
    assert not check_l0(np.diag([1.0, -1.0])).solvable
    print("\nACCEPTANCE 9 l0 case: PASS")
