import inspect
import json
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import matmom.cli
import matmom.solutions
from helpers import (
    reference_check_odd,
    reference_measure_text,
    reference_pair_verdict,
    reference_problem_text,
)
from matmom import (
    MomentSequence,
    ValidationError,
    gen_random_measure,
    measure_from_atoms,
    moments_of,
)
from matmom.cli import main
from matmom.io import (
    FileFormatError,
    format_float,
    read_matrix_param,
    read_measure,
    read_problem,
    write_measure,
    write_problem,
)
from matmom.solutions import SOLVE_VERIFY_TOL


def scalar_seq(a, b, values):
    return MomentSequence(a, b, tuple(np.array([[v]], dtype=complex) for v in values))


def write_scalar_problem(path, a, b, values):
    write_problem(path, scalar_seq(a, b, values))
    return str(path)


def assert_one_error_line(err: str) -> None:
    """The exit-code contract's usage failure: one ``error:`` line, no traceback."""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.fixture
def symmetric_problem(tmp_path):
    return write_scalar_problem(tmp_path / "p.json", -1, 1, [1, 0, 1])


class TestFileRoundTrip:
    def test_problem_lossless(self, tmp_path):
        mu = gen_random_measure(3, 2, 3, -1.7, 2.9)
        seq = moments_of(mu, 4)
        path = tmp_path / "problem.json"
        write_problem(path, seq)
        back = read_problem(path)
        assert back.a == seq.a and back.b == seq.b and back.N == seq.N
        for s1, s2 in zip(seq.moments, back.moments):
            assert np.array_equal(s1, s2)

    def test_measure_lossless(self, tmp_path):
        mu = gen_random_measure(4, 2, 3, 0.0, 1.0)
        path = tmp_path / "measure.json"
        write_measure(path, mu)
        back = read_measure(path)
        assert np.array_equal(back.positions, mu.positions)
        assert np.array_equal(back.weights, mu.weights)

    def test_floats_in_scientific_notation(self, tmp_path):
        path = tmp_path / "problem.json"
        write_scalar_problem(path, 0, 1, [1, 0.5])
        text = path.read_text()
        assert "5.0000000000000000e-01" in text

    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"a": 0.0, "b": 1.0,\n  "N": 1, "moments": [[[ 1.0')
        with pytest.raises(FileFormatError) as err:
            read_problem(path)
        assert "bad.json" in str(err.value)

    def test_non_hermitian_rejected(self, tmp_path):
        path = tmp_path / "nh.json"
        doc = {"a": 0.0, "b": 1.0, "N": 2,
               "moments": [[[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError):
            read_problem(path)


# Doubles that stress the float notation: signed zero, the smallest
# subnormal, the most negative double, exact integers.
EXTREME_FLOATS = [-0.0, 5e-324, -1.7976931348623157e308, 3.0, -7.0, 2.0 ** 53, 0.1, 1e22]

# A valid Hermitian 2 x 2 moment; the parity cases replace one of its parts.
GOOD_2X2 = "[[[1.0, 0.0], [0.5, 0.25]], [[0.5, -0.25], [2.0, 0.0]]]"
MALFORMED_2X2 = {
    "string": ('[[[1.0, 0.0], ["0.5", 0.25]], [[0.5, -0.25], [2.0, 0.0]]]',
               "[1][0][1]: expected an [re, im] pair"),
    "null": ("[[[1.0, 0.0], [0.5, null]], [[0.5, -0.25], [2.0, 0.0]]]",
             "[1][0][1]: expected an [re, im] pair"),
    "three_element_entry": (
        "[[[1.0, 0.0], [0.5, 0.25, 0.0]], [[0.5, -0.25], [2.0, 0.0]]]",
        "[1][0][1]: expected an [re, im] pair"),
    "ragged_row": ("[[[1.0, 0.0], [0.5, 0.25]], [[0.5, -0.25]]]",
                   "[1][1]: expected 2 entries"),
    "extra_nesting": ("[[[1.0, 0.0], [[0.5], [0.25]]], [[0.5, -0.25], [2.0, 0.0]]]",
                      "[1][0][1]: expected an [re, im] pair"),
    "wrong_n": ("[[[1.0, 0.0]]]", "[1]: expected 2 rows"),
}


def problem_text(moments, n=2) -> str:
    return f'{{"a": 0.0, "b": 1.0, "N": {n}, "moments": [{", ".join(moments)}]}}'


def measure_text(weights, n=2) -> str:
    atoms = ", ".join(f'{{"x": {0.25 * (i + 1)}, "W": {w}}}' for i, w in enumerate(weights))
    return f'{{"a": 0.0, "b": 1.0, "N": {n}, "atoms": [{atoms}]}}'


class TestFileWriterAndParser:
    """The writers against the value-by-value reference formatter, and the
    parser's verdict and message on malformed and unusual files."""

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_bytes_match_reference_formatter(self, tmp_path, n):
        mu = gen_random_measure(n, n, 4, -1.3, 2.9)
        seq = moments_of(mu, 5)
        # stand-ins with values a validated sequence or measure cannot hold
        # (symmetrizing -1.79e308 overflows): the writers only format
        rng = np.random.default_rng(n)
        raw = rng.standard_normal((4, n, n, 2))
        raw.reshape(-1)[: len(EXTREME_FLOATS)] = EXTREME_FLOATS
        mats = raw.view(complex)[..., 0]
        extreme_seq = SimpleNamespace(a=-0.0, b=5e-324, N=n, moments=tuple(mats))
        extreme_measure = SimpleNamespace(
            a=-1.7976931348623157e308, b=1.0, N=n, num_atoms=4,
            positions=np.array(EXTREME_FLOATS[:4]), weights=mats)
        for i, (write, ref, obj) in enumerate([
                (write_problem, reference_problem_text, seq),
                (write_measure, reference_measure_text, mu),
                (write_problem, reference_problem_text, extreme_seq),
                (write_measure, reference_measure_text, extreme_measure)]):
            path = tmp_path / f"{i}.json"
            write(path, obj)
            assert path.read_text() == ref(obj)

    @pytest.mark.parametrize("n", [1, 8])
    def test_lossless_at_block_size(self, tmp_path, n):
        mu = gen_random_measure(11, n, 5, -2.5, 0.75)
        seq = moments_of(mu, 6)
        write_problem(tmp_path / "p.json", seq)
        write_measure(tmp_path / "m.json", mu)
        back = read_problem(tmp_path / "p.json")
        assert np.array_equal(np.stack(back.moments), np.stack(seq.moments))
        measure = read_measure(tmp_path / "m.json")
        assert np.array_equal(measure.positions, mu.positions)
        assert np.array_equal(measure.weights, mu.weights)

    @pytest.mark.parametrize("case", sorted(MALFORMED_2X2))
    def test_malformed_entry_located(self, tmp_path, case):
        bad, where = MALFORMED_2X2[case]
        path = tmp_path / "p.json"
        path.write_text(problem_text([GOOD_2X2, bad, GOOD_2X2]))
        with pytest.raises(FileFormatError) as err:
            read_problem(path)
        assert str(err.value) == f"{path}: moments{where}"
        path.write_text(measure_text([GOOD_2X2, bad]))
        with pytest.raises(FileFormatError) as err:
            read_measure(path)
        where = where.replace("[1]", "[1].W", 1)
        assert str(err.value) == f"{path}: atoms{where}"

    def test_non_finite_entry_named(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(problem_text([GOOD_2X2, GOOD_2X2.replace("2.0", "NaN")]))
        with pytest.raises(FileFormatError) as err:
            read_problem(path)
        assert str(err.value) == f"{path}: moments[1] contains non-finite entries"

    def test_non_hermitian_moment_named_by_index(self, tmp_path):
        path = tmp_path / "p.json"
        skew = "[[[1.0, 0.0], [0.5, 0.25]], [[0.0, 0.0], [2.0, 0.0]]]"
        path.write_text(problem_text([GOOD_2X2, GOOD_2X2, skew]))
        with pytest.raises(FileFormatError) as err:
            read_problem(path)
        assert str(err.value) == (
            f"{path}: moments[2] is not Hermitian: asymmetry 5.590e-01 exceeds "
            "1.0e-10 * max(1, 2.000e+00)")

    @pytest.mark.parametrize("parser", ["stack", "entry by entry"])
    def test_problem_checked_once_as_the_validating_route(self, tmp_path, parser):
        # an integer too large for int64 sends the file to the entry parser;
        # either way the sequence is the one MomentSequence builds from the
        # parsed matrices, and a non-finite endpoint fails as it does there
        first = "[[[18446744073709551621, 0.0], [0.5, 0.25]], [[0.5, -0.25], [2.0, 0.0]]]"
        skewed = "[[[1.0, 0.0], [0.5, 0.25]], [[0.5, -0.2500000000001], [3.0, 0.0]]]"
        moments = [first if parser != "stack" else GOOD_2X2, skewed, GOOD_2X2]
        path = tmp_path / "p.json"
        path.write_text(problem_text(moments))
        got = read_problem(path)
        parsed = [np.array([[e[0] + 1j * e[1] for e in row] for row in json.loads(m)])
                  for m in moments]
        want = MomentSequence(0.0, 1.0, tuple(0.5 * (m + m.conj().T) for m in parsed))
        assert got._stack.tobytes() == want._stack.tobytes()
        assert not got._stack.flags.writeable
        for a in ("-Infinity", "NaN"):
            path.write_text(problem_text(moments).replace('"a": 0.0', f'"a": {a}'))
            with pytest.raises(ValidationError) as err:
                read_problem(path)
            assert str(err.value) == {"NaN": f"{path}: requires a < b",
                                      "-Infinity": "interval endpoints must be finite"}[a]

    @pytest.mark.parametrize("parser", ["stack", "entry by entry"])
    def test_symmetrization_overflow_is_a_file_fault(self, tmp_path, parser):
        # an integer too large for int64 sends the file to the entry parser
        huge = "[[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]"
        first = GOOD_2X2 if parser == "stack" else GOOD_2X2.replace(
            "2.0, 0.0", "18446744073709551621, 0.0")
        path = tmp_path / "p.json"
        path.write_text(problem_text([first, huge]))
        with pytest.raises(FileFormatError) as err:
            read_problem(path)
        assert str(err.value) == (
            f"{path}: moments[1] has entries too large to symmetrize (largest 1.000e+308)")

    @pytest.mark.parametrize("big", [2 ** 63 + 1, 2 ** 64 + 5])
    def test_bools_and_big_integers_accepted(self, tmp_path, big):
        bools = "[[[true, false], [false, false]], [[false, false], [1, false]]]"
        ints = f"[[[{big}, 0], [0.5, 0.25]], [[0.5, -0.25], [3, false]]]"
        want = [np.eye(2), np.array([[float(big), 0.5 + 0.25j], [0.5 - 0.25j, 3.0]])]
        path = tmp_path / "p.json"
        path.write_text(problem_text([bools, ints]))
        assert np.array_equal(np.stack(read_problem(path).moments), np.stack(want))
        for weight, w in zip([bools, ints], want):
            path.write_text(measure_text([weight]))
            assert np.array_equal(read_measure(path).weights, w[None])


class TestCheckCommand:
    def test_solvable_exits_zero(self, symmetric_problem, capsys):
        assert main(["check", symmetric_problem]) == 0
        out = capsys.readouterr().out
        assert "solvable: yes" in out
        # the interval-weighted matrix of this boundary problem is singular
        assert "GammaTilde PSD: PASS (min-eig 0.0000000000000000e+00)" in out

    def test_unsolvable_exits_two(self, tmp_path, capsys):
        path = write_scalar_problem(tmp_path / "u.json", -1, 1, [1, 0, 3])
        assert main(["check", path]) == 2
        assert "GammaTilde PSD: FAIL" in capsys.readouterr().out

    def test_even_case_prints_interval(self, tmp_path, capsys):
        path = write_scalar_problem(tmp_path / "e.json", 0, 1, [1, 0.5])
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert "S_min" in out and "S_max" in out

    def test_deferred_numbers_reach_the_printout(self, tmp_path, capsys):
        # the large shape's check decides its PSD conditions on certificates
        # and forms their spectra only for the printout, which shows the
        # eigensolve's minimum eigenvalues
        seq = moments_of(gen_random_measure(0, 8, 40, -1.0, 1.0), 20)
        write_problem(tmp_path / "p.json", seq)
        assert main(["check", str(tmp_path / "p.json")]) == 0
        printed = re.findall(r"\(min-eig (\S+)\)", capsys.readouterr().out)
        assert printed == [format_float(c.value) for c in reference_check_odd(seq).conditions
                           if c.kind == "psd"]
        assert len(printed) == 2

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_matrix_rows_match_per_entry_formatting(self, n, capsys):
        # one %-template per matrix prints what formatting each entry on its
        # own printed: signed zeros, subnormals, the largest double, inf, nan
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        special = [complex(0.0, 0.0), complex(-0.0, -0.0), complex(0.0, -0.0),
                   complex(-0.0, 0.0), complex(5e-324, -1.7976931348623157e308),
                   complex(np.inf, np.nan), complex(-np.inf, -1e-300)]
        m.ravel()[: len(special)] = special[: n * n]
        matmom.cli._print_matrix(m)
        want = "".join("  " + "  ".join(f"{format_float(v.real)}{v.imag:+.16e}j" for v in row)
                       + "\n" for row in m)
        assert capsys.readouterr().out == want
        matmom.cli._print_matrix(np.zeros((0, 0)))
        assert capsys.readouterr().out == ""

    def test_l0_case(self, tmp_path):
        path = write_scalar_problem(tmp_path / "l0.json", 0, 1, [1])
        assert main(["check", path]) == 0

    def test_criteria_verdicts_printed_as_they_are(self, tmp_path, capsys):
        # the verdict printed is the pair's, as the reference factors it; the
        # kernel-inclusion residual is printed beside it as a diagnostic, and
        # no second criterion is printed
        path = str(tmp_path / "p.json")
        assert main(["gen", "--seed", "5", "--N", "8", "--atoms", "40", "--a", "-2",
                     "--b", "3", "--l", "20", "--out", path]) == 0
        capsys.readouterr()
        code = main(["check", path])
        out = capsys.readouterr().out
        verdict = reference_pair_verdict(read_problem(path))
        assert code == (0 if verdict else 2)
        assert f"solvable: {'yes' if verdict else 'no'}" in out
        assert re.findall(r"^(\w+) ([\w ]+): (?:PASS|FAIL)", out, flags=re.M) == [
            ("condition", "Gamma PSD"), ("condition", "GammaTilde PSD"),
            ("diagnostic", "kernel inclusion")]
        assert "cross-check" not in out

    @pytest.mark.parametrize("l", [2, 3])
    def test_overflowing_combination_exits_one(self, tmp_path, l):
        # an error in the scale of the data, never "unsolvable"; run as a
        # program, where a numpy overflow warning would reach stderr too
        path = tmp_path / "p.json"
        write_problem(path, MomentSequence(-2.0, 3.0, (8e307 * np.eye(2),) * (l + 1)))
        proc = subprocess.run([sys.executable, "-m", "matmom", "check", str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert_one_error_line(proc.stderr)
        assert "GammaTilde contains non-finite entries" in proc.stderr

    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_even_interval_overflow_exits_one(self, tmp_path, command):
        # genuine moments whose next-moment interval overflows: an error in
        # the data's scale, once reported as "solvable: no" and "unsolvable"
        path = tmp_path / "big-even.json"
        mu = measure_from_atoms(-2.0, 3.0, [-2.0, 0.1, 3.0], [3e306 * np.eye(1)] * 3)
        write_problem(path, moments_of(mu, 3))
        out = [] if command == "check" else ["--out", str(tmp_path / "m.json")]
        proc = subprocess.run([sys.executable, "-m", "matmom", command, str(path), *out],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert_one_error_line(proc.stderr)
        assert "S_min contains non-finite entries" in proc.stderr

    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_subnormal_moments_exit_one(self, tmp_path, command):
        # genuine moments of subnormal scale: the moment matrix keeps every
        # eigenvalue but has no Cholesky factor, a numerical error
        path = tmp_path / "subnormal.json"
        seq = moments_of(gen_random_measure(42, 1, 4, 0.0, 1.0), 5)
        write_problem(path, MomentSequence(0.0, 1.0, tuple(np.ldexp(s.real, -1070)
                                                           for s in seq.moments)))
        out = [] if command == "check" else ["--out", str(tmp_path / "m.json")]
        proc = subprocess.run([sys.executable, "-m", "matmom", command, str(path), *out],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert_one_error_line(proc.stderr)
        assert "no Cholesky factor" in proc.stderr

    def test_truncated_file_exits_one(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"a": 0.0, "b": 1.0')
        assert main(["check", str(path)]) == 1

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.json")]) == 1


class TestSolveCommand:
    def test_symmetric_solve(self, symmetric_problem, tmp_path, capsys):
        out_path = tmp_path / "m.json"
        code = main(["solve", symmetric_problem, "--scalar-k", "0.5",
                     "--out", str(out_path)])
        assert code == 0
        measure = read_measure(out_path)
        assert np.allclose(measure.positions, [-1.0, 1.0], atol=1e-9)
        assert np.allclose(measure.weights[:, 0, 0], [0.5, 0.5], atol=1e-9)
        assert "verification residual" in capsys.readouterr().out

    def test_even_lower_endpoint(self, tmp_path):
        path = write_scalar_problem(tmp_path / "p.json", 0, 1, [1, 0.5])
        out_path = tmp_path / "m.json"
        assert main(["solve", path, "--scalar-t", "0", "--out", str(out_path)]) == 0
        measure = read_measure(out_path)
        assert measure.num_atoms == 1
        assert abs(measure.positions[0] - 0.5) <= 1e-9
        assert abs(measure.weights[0, 0, 0].real - 1.0) <= 1e-9

    def test_l0_solve(self, tmp_path):
        path = write_scalar_problem(tmp_path / "p.json", 0, 1, [2.0])
        out_path = tmp_path / "m.json"
        assert main(["solve", path, "--out", str(out_path)]) == 0
        measure = read_measure(out_path)
        assert measure.num_atoms == 1 and measure.positions[0] == 0.5

    def test_out_of_range_parameter_exits_one(self, symmetric_problem, tmp_path):
        code = main(["solve", symmetric_problem, "--scalar-k", "2",
                     "--out", str(tmp_path / "m.json")])
        assert code == 1

    def test_unsolvable_exits_two(self, tmp_path):
        path = write_scalar_problem(tmp_path / "u.json", 0, 1, [1, 2])
        assert main(["solve", path, "--out", str(tmp_path / "m.json")]) == 2

    def test_rounding_failure_after_check_is_not_unsolvable(self, tmp_path, capsys):
        # check passes; should the solve still fail on rounding, that is a
        # numerical error (exit 1), never "unsolvable" (exit 2)
        path = str(tmp_path / "p.json")
        assert main(["gen", "--seed", "0", "--N", "1", "--atoms", "60", "--a", "-1",
                     "--b", "1", "--l", "40", "--out", path]) == 0
        assert main(["check", path]) == 0
        capsys.readouterr()
        code = main(["solve", path, "--out", str(tmp_path / "m.json")])
        err = capsys.readouterr().err
        assert code in (0, 1)
        if code == 1:
            assert err.startswith("error: ") and "residual" in err

    def test_check_and_solve_agree_past_old_frontier(self, tmp_path):
        # check reports kernel inclusion and solve does not decide it
        # again: an instance that check accepts solves and verifies
        path, out = str(tmp_path / "p.json"), str(tmp_path / "m.json")
        assert main(["gen", "--seed", "0", "--N", "1", "--atoms", "60", "--a", "-1",
                     "--b", "1", "--l", "40", "--out", path]) == 0
        assert main(["check", path]) == 0
        assert main(["solve", path, "--out", out]) == 0
        assert main(["verify", out, path]) == 0

    @pytest.mark.parametrize("l", [0, 3, 4])
    def test_solve_verifies_once(self, tmp_path, monkeypatch, l):
        calls = []
        real = matmom.solutions.verify

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(matmom.solutions, "verify", counting)
        monkeypatch.setattr(matmom.cli, "verify", counting)
        path = str(tmp_path / "p.json")
        assert main(["gen", "--seed", "2", "--N", "2", "--atoms", "3",
                     "--l", str(l), "--out", path]) == 0
        assert main(["solve", path, "--out", str(tmp_path / "m.json")]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("l", [3, 4])
    def test_tol_sets_the_verdict(self, tmp_path, capsys, l):
        path = str(tmp_path / "p.json")
        out = str(tmp_path / "m.json")
        assert main(["gen", "--seed", "2", "--N", "2", "--atoms", "3",
                     "--l", str(l), "--out", path]) == 0
        capsys.readouterr()
        assert main(["solve", path, "--out", out]) == 0
        printed = capsys.readouterr().out
        assert main(["solve", path, "--out", out, "--tol", "1e-30"]) == 2
        # same measure and residual, judged at the tighter tolerance
        assert capsys.readouterr().out == printed
        assert main(["verify", out, path, "--tol", "1e-30"]) == 2

    def test_matrix_parameter_file(self, tmp_path):
        path = write_scalar_problem(tmp_path / "p.json", 0, 1, [1, 0.5, 1 / 3])
        k_path = tmp_path / "k.json"
        k_path.write_text('{"matrix": [[[0.25, 0.0]]]}')
        out_path = tmp_path / "m.json"
        assert main(["solve", path, "--param-k", str(k_path),
                     "--out", str(out_path)]) == 0

    @pytest.mark.parametrize("scalar, param, what", [
        ("--scalar-k", "--param-k", "the extension parameter"),
        ("--scalar-t", "--param-t", "the moment-interval parameter"),
    ])
    def test_scalar_and_file_for_one_parameter_exit_one(self, tmp_path, capsys,
                                                         symmetric_problem, scalar, param,
                                                         what):
        k = tmp_path / "k.json"
        k.write_text('{"matrix": [[[0.5, 0.0]]]}')
        out = tmp_path / "m.json"
        assert main(["solve", symmetric_problem, scalar, "0.5", param, str(k),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert err == f"error: give either a scalar or a file for {what}, not both\n"
        assert not out.exists()

    def test_wrong_parameter_dimension_exits_one(self, tmp_path):
        path = write_scalar_problem(tmp_path / "p.json", 0, 1, [1, 0.5, 1 / 3])
        k_path = tmp_path / "k.json"
        k_path.write_text(
            '{"matrix": [[[0.25, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.25, 0.0]]]}'
        )
        assert main(["solve", path, "--param-k", str(k_path),
                     "--out", str(tmp_path / "m.json")]) == 1


class TestVerifyCommand:
    def test_solver_output_verifies(self, symmetric_problem, tmp_path):
        out_path = tmp_path / "m.json"
        assert main(["solve", symmetric_problem, "--out", str(out_path)]) == 0
        assert main(["verify", str(out_path), symmetric_problem]) == 0

    def test_perturbed_measure_fails(self, symmetric_problem, tmp_path, capsys):
        bad = measure_from_atoms(-1, 1, [-1.0, 1.0],
                                 [0.5 * np.eye(1), 0.5005 * np.eye(1)])
        bad_path = tmp_path / "bad.json"
        write_measure(bad_path, bad)
        assert main(["verify", str(bad_path), symmetric_problem]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_block_size_mismatch_exits_one(self, symmetric_problem, tmp_path):
        other = gen_random_measure(1, 2, 2, -1.0, 1.0)
        path = tmp_path / "m2.json"
        write_measure(path, other)
        assert main(["verify", str(path), symmetric_problem]) == 1

    @pytest.mark.parametrize("field, value", [
        ("W", float("nan")), ("W", float("inf")), ("x", float("nan")),
    ])
    def test_non_finite_atom_exits_one(self, tmp_path, capsys, field, value):
        # a malformed measure file, not a measure that fails verification
        problem, source = str(tmp_path / "p.json"), tmp_path / "m.json"
        assert main(["gen", "--seed", "1", "--N", "1", "--atoms", "2", "--a", "0",
                     "--b", "1", "--l", "2", "--out", problem,
                     "--measure-out", str(source)]) == 0
        doc = json.loads(source.read_text())
        if field == "W":
            doc["atoms"][0]["W"][0][0][0] = value
        else:
            doc["atoms"][0]["x"] = value
        source.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(source), problem]) == 1
        assert "atom 0 has a non-finite" in capsys.readouterr().err


class TestGenCommand:
    def test_deterministic_bytes(self, tmp_path):
        args = ["gen", "--seed", "7", "--N", "2", "--atoms", "3",
                "--a", "-1", "--b", "2", "--l", "4"]
        p1, p2 = tmp_path / "p1.json", tmp_path / "p2.json"
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert main(args + ["--out", str(p1), "--measure-out", str(m1)]) == 0
        assert main(args + ["--out", str(p2), "--measure-out", str(m2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        assert m1.read_bytes() == m2.read_bytes()

    def test_generated_problem_is_solvable(self, tmp_path):
        path = tmp_path / "p.json"
        assert main(["gen", "--seed", "3", "--N", "2", "--atoms", "2",
                     "--l", "4", "--out", str(path)]) == 0
        assert main(["check", str(path)]) == 0

    def test_generating_measure_verifies(self, tmp_path):
        p, m = tmp_path / "p.json", tmp_path / "m.json"
        assert main(["gen", "--seed", "5", "--l", "3", "--out", str(p),
                     "--measure-out", str(m)]) == 0
        assert main(["verify", str(m), str(p)]) == 0

    @pytest.mark.parametrize("args", [["--atoms", "0"], ["--N", "0"], ["--l", "-1"],
                                      ["--a", "1", "--b", "0"]],
                             ids=["atoms", "N", "l", "interval"])
    def test_invalid_argument_exits_one(self, tmp_path, capsys, args):
        # the library rejects each before anything is written
        out = tmp_path / "p.json"
        assert main(["gen", "--seed", "1", *args, "--out", str(out)]) == 1
        assert_one_error_line(capsys.readouterr().err)
        assert not out.exists()

    def test_unsymmetrizable_moment_exits_one(self, tmp_path):
        # S_4 = 1.68e308 is finite but its symmetrization is not: once
        # written as inf/nan tokens that no JSON reader accepts
        out = tmp_path / "p.json"
        proc = subprocess.run([sys.executable, "-m", "matmom", "gen", "--seed", "5",
                               "--N", "1", "--atoms", "1", "--a", "9e76", "--b", "1e77",
                               "--l", "4", "--out", str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert_one_error_line(proc.stderr)
        assert "S_4 has entries too large to symmetrize" in proc.stderr
        assert not out.exists()

    def test_negative_endpoint_in_scientific_notation(self, tmp_path, capsys):
        # argparse's own pattern for negative numbers has no exponent
        out = tmp_path / "p.json"
        assert main(["gen", "--seed", "7", "--N", "2", "--atoms", "3", "--a", "-1e-3",
                     "--b", "2e-3", "--l", "5", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["a"] == -0.001
        assert main(["check", str(out)]) == 0
        # an unknown option is still refused
        assert main(["gen", "--seed", "7", "--bogus", "--out", str(out)]) == 1
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert main(["gen", "--seed", "-1", "--out", str(out)]) == 1
        assert_one_error_line(capsys.readouterr().err)
        assert not out.exists()


class TestUsage:
    def test_unknown_command_exits_one(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_argument_exits_one(self):
        assert main(["solve"]) == 1

    def test_one_parser_serves_every_call(self, capsys, symmetric_problem):
        # a usage error from the shared parser leaves nothing behind for the
        # next call, and keeps its exit code and message
        assert matmom.cli._build_parser() is matmom.cli._build_parser()
        assert main(["solve"]) == 1
        first = capsys.readouterr().err
        assert first.startswith("matmom solve: ")
        assert main(["check", symmetric_problem]) == 0
        capsys.readouterr()
        assert main(["solve"]) == 1
        assert capsys.readouterr().err == first

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "abc"])
    def test_tol_must_be_finite_and_non_negative(self, tmp_path, capsys,
                                                 symmetric_problem, tol):
        # a usage error (1), not a failed verification (2), found while
        # parsing: no file is read or written
        solved = tmp_path / "solved.json"
        assert main(["solve", symmetric_problem, "--out", str(solved)]) == 0
        capsys.readouterr()
        out = tmp_path / "m.json"
        assert main(["solve", symmetric_problem, "--out", str(out), "--tol", tol]) == 1
        assert not out.exists()
        printed = capsys.readouterr()
        assert printed.out == ""
        assert "argument --tol: expected a finite number >= 0" in printed.err
        assert main(["verify", str(solved), symmetric_problem, "--tol", tol]) == 1
        printed = capsys.readouterr()
        assert printed.out == ""
        assert "argument --tol: expected a finite number >= 0" in printed.err
        # zero is a tolerance
        assert main(["solve", symmetric_problem, "--out", str(out), "--tol", "0"]) != 1
        assert out.exists()
        assert main(["verify", str(out), symmetric_problem, "--tol", "0"]) != 1
        printed = capsys.readouterr()
        assert printed.err == ""
        assert "verified: " in printed.out

    def test_default_tol_is_the_round_trip_contract(self):
        parser = matmom.cli._build_parser()
        for argv in (["solve", "p.json", "--out", "m.json"], ["verify", "m.json", "p.json"]):
            assert parser.parse_args(argv).tol == SOLVE_VERIFY_TOL
        default = inspect.signature(matmom.solutions.verify).parameters["tol"].default
        assert default == SOLVE_VERIFY_TOL == 1e-8

    def test_module_entry_point(self, tmp_path):
        path = tmp_path / "p.json"
        write_scalar_problem(path, -1, 1, [1, 0, 1])
        proc = subprocess.run(
            [sys.executable, "-m", "matmom", "check", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "solvable: yes" in proc.stdout

    def test_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "matmom", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "check" in proc.stdout and "solve" in proc.stdout


class TestClosedStdout:
    """A reader of stdout that goes away (``matmom check p.json | head -n 1``)
    ends the program with exit 1 and nothing on stderr: no traceback and no
    "Exception ignored" line from the interpreter's final flush."""

    @pytest.mark.parametrize("command", ["check", "solve", "verify", "gen"])
    def test_exits_one_silently(self, tmp_path, command):
        problem, measure = tmp_path / "p.json", tmp_path / "m.json"
        write_problem(problem, moments_of(gen_random_measure(3, 2, 2, 0.0, 1.0), 3))
        write_measure(measure, gen_random_measure(3, 2, 2, 0.0, 1.0))
        args = {
            "check": [str(problem)],
            "solve": [str(problem), "--out", str(tmp_path / "solved.json")],
            "verify": [str(measure), str(problem)],
            "gen": ["--seed", "3", "--out", str(tmp_path / "g.json")],
        }[command]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "matmom", command, *args],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
class TestFullStdout:
    """A standard output that refuses writes (``matmom check p.json >
    /dev/full``) ends the program with exit 1 and one error line, whether the
    write fails inside a command or at the final flush."""

    @pytest.mark.parametrize("n", [1, 60])
    def test_one_error_line(self, tmp_path, n):
        # N = 60 prints about 350 kB, so the write fails while check prints
        problem = tmp_path / "p.json"
        write_problem(problem, moments_of(gen_random_measure(3, n, n, 0.0, 1.0), 1))
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "matmom", "check", str(problem)],
                                  stdout=full, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 1
        assert_one_error_line(proc.stderr)
        assert "No space left on device" in proc.stderr


class TestUnwritableOutput:
    """A file that cannot be written is a usage error, as one that cannot be
    read is."""

    @pytest.mark.parametrize("option", ["--out", "--measure-out"])
    def test_gen(self, tmp_path, capsys, option):
        paths = {"--out": str(tmp_path / "p.json"), "--measure-out": str(tmp_path / "m.json")}
        paths[option] = str(tmp_path / "missing" / "f.json")
        argv = ["gen", "--seed", "1"] + [x for kv in paths.items() for x in kv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert paths[option] in err

    def test_solve(self, symmetric_problem, tmp_path, capsys):
        out = str(tmp_path / "missing" / "m.json")
        assert main(["solve", symmetric_problem, "--out", out]) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert out in err

    def test_writers_raise_a_file_fault(self, tmp_path):
        seq = scalar_seq(-1, 1, [1, 0, 1])
        with pytest.raises(FileFormatError, match="missing"):
            write_problem(tmp_path / "missing" / "p.json", seq)
        with pytest.raises(FileFormatError, match="missing"):
            write_measure(tmp_path / "missing" / "m.json",
                          measure_from_atoms(-1, 1, [0.0], [np.eye(1)]))


class TestFileValidation:
    def test_wrong_entry_shape(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"a": 0.0, "b": 1.0, "N": 1, "moments": [[[1.0]]]}')
        with pytest.raises(FileFormatError) as err:
            read_problem(path)
        assert "[re, im]" in str(err.value)

    def test_wrong_matrix_size(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(
            '{"a": 0.0, "b": 1.0, "N": 2, "moments": [[[[1.0, 0.0]]]]}'
        )
        with pytest.raises(FileFormatError) as err:
            read_problem(path)
        assert "rows" in str(err.value)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"a": 0.0, "b": 1.0, "N": 1}')
        with pytest.raises(FileFormatError) as err:
            read_problem(path)
        assert "moments" in str(err.value)

    def test_interval_must_be_ordered(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"a": 1.0, "b": 0.0, "N": 1, "moments": [[[[1.0, 0.0]]]]}')
        with pytest.raises(FileFormatError):
            read_problem(path)

    @pytest.mark.parametrize("reader, text, message", [
        (read_problem, "[1]", "top-level value must be an object"),
        (read_problem, '{"a": "0", "b": 1, "N": 1, "moments": [[[[1, 0]]]]}',
         "key 'a' has wrong type"),
        (read_problem, '{"a": 0, "b": 1, "N": 0, "moments": [[[[1, 0]]]]}',
         "N must be a positive integer"),
        (read_problem, '{"a": 0, "b": 1, "N": 1, "moments": []}',
         "moments array must be nonempty"),
        (read_measure, '{"a": 0, "b": 1, "N": 1, "atoms": [1]}', "atoms[0] must be an object"),
        (read_matrix_param, '{"matrix": []}', "matrix must be a nonempty list of rows"),
    ], ids=["top level", "key type", "N", "moments", "atom", "matrix parameter"])
    def test_document_rejected(self, tmp_path, reader, text, message):
        path = tmp_path / "f.json"
        path.write_text(text)
        with pytest.raises(FileFormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
            reader(path)

    @pytest.mark.parametrize("name", ["p.json", "m.json", "k.json"])
    def test_nesting_past_the_recursion_limit(self, tmp_path, capsys, symmetric_problem,
                                              name):
        # json.loads gives up on arrays nested deeper than Python's recursion
        path = tmp_path / name
        path.write_text("[" * 100_000 + "]" * 100_000)
        argv = {"p.json": ["check", str(path)],
                "m.json": ["verify", str(path), symmetric_problem],
                "k.json": ["solve", symmetric_problem, "--param-k", str(path),
                           "--out", str(tmp_path / "out.json")]}[name]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert err.startswith(f"error: {path}: maximum recursion depth exceeded")

    def test_measure_atoms_canonicalized_on_read(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            '{"a": 0.0, "b": 1.0, "N": 1, "atoms": ['
            '{"x": 0.7, "W": [[[1.0, 0.0]]]}, {"x": 0.2, "W": [[[2.0, 0.0]]]}]}'
        )
        measure = read_measure(path)
        assert np.allclose(measure.positions, [0.2, 0.7])


class TestMeasureBlockSize:
    """A measure file's N is a positive integer whose empty weight stack
    exists; any other is a fault of the file: exit 1, one error line."""

    CASES = {
        "2^32": ('{"a": 0, "b": 1, "N": 4294967296, "atoms": []}', "is too large"),
        "negative": ('{"a": 0, "b": 1, "N": -1, "atoms": []}', "positive integer, got -1"),
        "zero with an atom": ('{"a": 0, "b": 1, "N": 0, "atoms": [{"x": 0.5, "W": []}]}',
                              "positive integer, got 0"),
        "zero": ('{"a": 0, "b": 1, "N": 0, "atoms": []}', "positive integer, got 0"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_read_measure_rejects(self, tmp_path, case):
        text, message = self.CASES[case]
        path = tmp_path / "m.json"
        path.write_text(text)
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: block size N"):
            read_measure(path)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_verify_exits_one(self, tmp_path, capsys, symmetric_problem, case):
        text, message = self.CASES[case]
        path = tmp_path / "m.json"
        path.write_text(text)
        assert main(["verify", str(path), symmetric_problem]) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert message in err


class TestIntegersBeyondTheDoubleRange:
    """JSON integers have no bound.  One beyond the double range is a fault
    of the file wherever it stands: exit 1 with one error line naming it."""

    # place: (file, keys of the entry in its document, the entry as named)
    PLACES = {
        "moment": ("p.json", ["moments", 1, 0, 1, 0], "moments[1][0][1]"),
        "problem a": ("p.json", ["a"], "key 'a'"),
        "problem b": ("p.json", ["b"], "key 'b'"),
        "weight": ("m.json", ["atoms", 1, "W", 0, 1, 1], "atoms[1].W[0][1]"),
        "measure a": ("m.json", ["a"], "key 'a'"),
        "measure b": ("m.json", ["b"], "key 'b'"),
        "atom x": ("m.json", ["atoms", 1, "x"], "atoms[1]: key 'x'"),
        "matrix parameter": ("k.json", ["matrix", 1, 0, 0], "matrix[1][0]"),
    }

    @pytest.mark.parametrize("place", sorted(PLACES))
    def test_exits_one_naming_the_entry(self, tmp_path, capsys, place):
        problem, measure, param = (tmp_path / name for name in ("p.json", "m.json", "k.json"))
        assert main(["gen", "--seed", "1", "--N", "2", "--atoms", "2", "--a", "0",
                     "--b", "1", "--l", "2", "--out", str(problem),
                     "--measure-out", str(measure)]) == 0
        param.write_text('{"matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}')
        name, keys, where = self.PLACES[place]
        path = tmp_path / name
        doc = json.loads(path.read_text())
        entry = doc
        for key in keys[:-1]:
            entry = entry[key]
        entry[keys[-1]] = 10 ** 400
        path.write_text(json.dumps(doc))
        argv = {"p.json": ["check", str(problem)],
                "m.json": ["verify", str(measure), str(problem)],
                "k.json": ["solve", str(problem), "--param-k", str(param),
                           "--out", str(tmp_path / "out.json")]}[name]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert err == f"error: {path}: {where}: integer of 401 digits exceeds the double range\n"

    def test_integer_past_the_text_conversion_limit(self, tmp_path, capsys):
        # json.loads itself refuses an integer literal of more than 4300 digits
        path = tmp_path / "p.json"
        path.write_text('{"a": 0, "b": 1, "N": 1, "moments": [[[[1' + "0" * 5000 + ", 0]]]]}")
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert err.startswith(f"error: {path}: Exceeds the limit")
