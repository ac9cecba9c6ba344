"""Command-line interface.

Subcommands: ``check`` (solvability report), ``solve`` (write a solution
measure), ``verify`` (compare a measure against a problem), ``gen`` (seeded
random solvable problem).  Exit codes: 0 success, 1 usage or parse error
or a standard output that cannot be written (silently if its reader closed
it), 2 mathematical negative (unsolvable problem or failed verification).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

import numpy as np

from . import io as mio
from .errors import MatmomError, Unsolvable, ValidationError
from .io import format_float
from .moments import gen_random_measure, moments_of
from .solvability import SolvabilityReport, check
from .solutions import SOLVE_VERIFY_TOL, _solve, solve_l0, verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2


class _UsageError(ValidationError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern for a negative number has no exponent, so it
        # takes "--a -1e-3" for two options; subcommand parsers are _Parsers too
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    # argparse exits with status 2 on usage errors; the exit-code contract
    # reserves 2 for mathematical negatives, so route usage errors to 1.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _tolerance(text: str) -> float:
    """The value of a ``--tol`` option: a finite number >= 0.  Anything else
    is a usage error, raised while parsing, before any file is touched."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _print_report(report: SolvabilityReport) -> None:
    print(f"case: {report.case}")
    for label, conds in (("condition", report.conditions),
                         ("diagnostic", report.diagnostics)):
        for cond in conds:
            status = "PASS" if cond.passed else "FAIL"
            kind = "min-eig" if cond.kind == "psd" else "residual"
            print(f"{label} {cond.name}: {status} ({kind} {format_float(cond.value)})")
    if report.even_case is not None:
        print("S_min:")
        _print_matrix(report.even_case.S_min)
        print("S_max:")
        _print_matrix(report.even_case.S_max)
    print(f"solvable: {'yes' if report.solvable else 'no'}")


@functools.lru_cache(maxsize=32)
def _matrix_lines(n: int) -> str:
    """%-template of an n x n complex matrix as printed: a line per row,
    two spaces before each entry, written re then signed im then j.

    ``"%.16e" % x`` gives the characters of :func:`format_float`, so one
    ``%`` prints a whole matrix as formatting each entry on its own did.
    """
    return "\n".join(["  " + "  ".join(["%.16e%+.16ej"] * n)] * n)


def _print_matrix(m: np.ndarray) -> None:
    m = np.ascontiguousarray(m, dtype=complex)
    if m.size:
        print(_matrix_lines(len(m)) % tuple(m.view(float).ravel().tolist()))


def _cmd_check(args) -> int:
    seq = mio.read_problem(args.problem)
    report = check(seq)
    _print_report(report)
    return EXIT_OK if report.solvable else EXIT_NEGATIVE


def _read_param(scalar, path, what: str):
    if scalar is not None and path is not None:
        raise _UsageError(f"give either a scalar or a file for {what}, not both")
    if path is not None:
        return mio.read_matrix_param(path)
    if scalar is not None:
        return scalar
    return 0.5


def _cmd_solve(args) -> int:
    seq = mio.read_problem(args.problem)
    k = _read_param(args.scalar_k, args.param_k, "the extension parameter")
    t = _read_param(args.scalar_t, args.param_t, "the moment-interval parameter")
    if seq.l == 0:
        measure = solve_l0(seq.moments[0], seq.a, seq.b)
        outcome = verify(measure, seq, tol=args.tol)
    else:
        # the solver's own verification, judged again at --tol
        measure, outcome = _solve(seq, k, t if seq.l % 2 else None)
    mio.write_measure(args.out, measure)
    print(f"atoms: {measure.num_atoms}")
    print(f"verification residual: {format_float(outcome.max_relative_residual)}")
    print(f"wrote {args.out}")
    return EXIT_OK if outcome.passed_at(args.tol) else EXIT_NEGATIVE


def _cmd_verify(args) -> int:
    measure = mio.read_measure(args.measure)
    seq = mio.read_problem(args.problem)
    outcome = verify(measure, seq, tol=args.tol)
    print("n  residual               scale                  status")
    scales = outcome.moment_scales
    for i in range(seq.l + 1):
        res = outcome.moment_residuals[i]
        scale = scales[i]
        ok = "PASS" if res <= args.tol * scale else "FAIL"
        print(f"{i}  {format_float(res)}  {format_float(scale)}  {ok}")
    print(f"support inside [a, b]: {'yes' if outcome.support_ok else 'NO'}")
    print(f"verified: {'yes' if outcome.passed else 'no'}")
    return EXIT_OK if outcome.passed else EXIT_NEGATIVE


def _cmd_gen(args) -> int:
    measure = gen_random_measure(args.seed, args.N, args.atoms, args.a, args.b)
    seq = moments_of(measure, args.l)
    mio.write_problem(args.out, seq)
    print(f"wrote {args.out}")
    if args.measure_out:
        mio.write_measure(args.measure_out, measure)
        print(f"wrote {args.measure_out}")
    return EXIT_OK


# parsing leaves no state in the parser, so one serves every call
@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    parser = _Parser(prog="matmom",
                     description="Truncated matrix moment problems on [a, b]")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide solvability of a problem file")
    p_check.add_argument("problem")
    p_check.set_defaults(func=_cmd_check)

    p_solve = sub.add_parser("solve", help="construct a solution measure")
    p_solve.add_argument("problem")
    p_solve.add_argument("--scalar-k", type=float, default=None,
                         help="extension parameter K = t*I, t in [0, 1]")
    p_solve.add_argument("--param-k", default=None,
                         help="matrix file for the extension parameter K")
    p_solve.add_argument("--scalar-t", type=float, default=None,
                         help="even-case moment parameter T = t*I, t in [0, 1]")
    p_solve.add_argument("--param-t", default=None,
                         help="matrix file for the even-case moment parameter T")
    p_solve.add_argument("--out", required=True, help="output measure file")
    p_solve.add_argument("--tol", type=_tolerance, default=SOLVE_VERIFY_TOL)
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="check a measure against a problem")
    p_verify.add_argument("measure")
    p_verify.add_argument("problem")
    p_verify.add_argument("--tol", type=_tolerance, default=SOLVE_VERIFY_TOL)
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a seeded solvable problem")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--N", type=int, default=1)
    p_gen.add_argument("--atoms", type=int, default=2)
    p_gen.add_argument("--a", type=float, default=-1.0)
    p_gen.add_argument("--b", type=float, default=1.0)
    p_gen.add_argument("--l", type=int, default=2)
    p_gen.add_argument("--out", required=True, help="output problem file")
    p_gen.add_argument("--measure-out", default=None,
                       help="also write the generating measure")
    p_gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except Unsolvable as exc:
        print(f"unsolvable: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (ValidationError, MatmomError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console() -> None:
    try:
        code = main()
        # flushed here, so that a failed write to stdout raises inside the try
        sys.stdout.flush()
    except OSError as exc:
        # main turns every file fault into an error line, so this is stdout's:
        # what is left goes to devnull, so that the interpreter's own flush at
        # exit fails no second time, and the exit status is 1.  A reader that
        # has gone (``matmom check p.json | head -n 1``) is told nothing; any
        # other fault (``matmom check p.json > /dev/full``) gets one line.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    raise SystemExit(code)


if __name__ == "__main__":
    console()
