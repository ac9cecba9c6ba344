"""The four workloads: how their inputs are made, what one operation is, and
how its output is checked.

Instance ``i`` of workload seed ``s`` draws from generator seed
``1_000_000 * s + i``; instances are taken in order and none is skipped.
Every input is the moment sequence of a measure made by
``matmom.gen_random_measure``, so every problem is solvable.

Each workload is built from the workload seed, the number of cases to make
and a scratch directory (used only by ``cli``).  An operation returns
``(check_s, op_s, result)``: the time of the standalone solvability verdict,
the time of the operation itself, and what the output checks need.
``span`` is a context-manager factory that the traced run uses to mark the
operation; it opens no span in timed runs.
"""

from __future__ import annotations

import contextlib
import io
import os
import time

import numpy as np

import matmom as mm
from matmom import cli

import checks

clock = time.perf_counter


class OperationFailed(Exception):
    """The program gave up on an input: it raised or exited non-zero."""


def instance_seed(seed: int, i: int) -> int:
    return 1_000_000 * seed + i


def _program(fn, *args):
    """Call into matmom; any exception it raises fails the operation."""
    try:
        return fn(*args)
    except Exception as exc:
        raise OperationFailed(f"{fn.__name__}: {type(exc).__name__}: {exc}") from exc


def _solve(seq, *params):
    return _program(mm.solve_odd if seq.l % 2 == 0 else mm.solve_even, seq, *params)


def _verdict(seq) -> bool:
    return _program(mm.check, seq).solvable


def _check_then_solve(seq, span, *params):
    t0 = clock()
    verdict = _verdict(seq)
    t1 = clock()
    with span():
        measure = _solve(seq, *params)
    t2 = clock()
    return t1 - t0, t2 - t1, (verdict, measure)


def _library_errors(seq, verdict, measure) -> list[str]:
    errors = [] if verdict else ["check says unsolvable on moments of a measure"]
    moments = np.stack(seq.moments)
    return errors + checks.solution_errors(measure.positions, measure.weights,
                                           seq.a, seq.b, moments)


class Population:
    """Many small distinct problems: N 1-3, atoms 1-4, d = 1, on [0, 1] or
    [-2, 3].  One operation solves two of them: an odd problem (l = 2d,
    solve_odd) and an even one (l = 2d + 1, solve_even).  The even problem is
    extended to an odd one of order d + 1 and takes about 1.6x as long, so
    timing the pair keeps the median off the gap between the two."""

    per_second = 200     # pairs made per run second; about 110/s are used today
    D = 1

    def __init__(self, seed: int, count: int, workdir: str):
        self.cases = [(self._problem(seed, 2 * j), self._problem(seed, 2 * j + 1))
                      for j in range(count)]

    def _problem(self, seed, i):
        g = instance_seed(seed, i)
        rng = np.random.default_rng(g)
        n = int(rng.integers(1, 4))
        atoms = int(rng.integers(1, 5))
        a, b = (0.0, 1.0) if rng.integers(2) else (-2.0, 3.0)
        source = mm.gen_random_measure(g, n, atoms, a, b)
        return source, mm.moments_of(source, 2 * self.D + i % 2)

    def run(self, pair, span):
        t0 = clock()
        verdicts = [_verdict(seq) for _, seq in pair]
        t1 = clock()
        with span():
            measures = [_solve(seq) for _, seq in pair]
        t2 = clock()
        return t1 - t0, t2 - t1, list(zip(verdicts, measures))

    def errors(self, pair, results) -> list[str]:
        errors = []
        for (source, seq), (verdict, measure) in zip(pair, results):
            errors += _library_errors(seq, verdict, measure)
            if source.num_atoms <= self.D:
                errors += checks.same_measure_errors(
                    measure.positions, measure.weights, source.positions,
                    source.weights, seq.a, seq.b, seq.moments[0])
        return errors


class Large:
    """One shape: N = 8, atoms = 40, l = 20 on [-1, 1] (defect dimension 8)."""

    per_second = 25      # about 15/s are used today

    def __init__(self, seed: int, count: int, workdir: str):
        self.cases = [
            mm.moments_of(mm.gen_random_measure(instance_seed(seed, i), 8, 40, -1.0, 1.0), 20)
            for i in range(count)
        ]

    def run(self, seq, span):
        return _check_then_solve(seq, span)

    def errors(self, seq, result) -> list[str]:
        return _library_errors(seq, *result)


def _random_k(rng, dim: int) -> np.ndarray:
    """Hermitian 0 <= K <= I: a Haar unitary times uniform eigenvalues."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    u = q * (np.diagonal(r).conj() / np.abs(np.diagonal(r)))
    k = (u * rng.uniform(0.0, 1.0, dim)) @ u.conj().T
    return 0.5 * (k + k.conj().T)


class Family:
    """One indeterminate problem, gen_random_measure(0, 4, 30, -1, 2) with
    l = 16 (defect dimension 4), solved at a sequence of parameters that
    alternates a scalar t in [0, 1] with a random Hermitian 0 <= K <= I."""

    per_second = 150     # about 50/s are used today
    DEFECT_DIM = 4

    def __init__(self, seed: int, count: int, workdir: str):
        self.seq = mm.moments_of(mm.gen_random_measure(0, 4, 30, -1.0, 2.0), 16)
        self.cases = []
        for i in range(count):
            rng = np.random.default_rng(instance_seed(seed, i))
            self.cases.append(float(rng.uniform()) if i % 2 == 0
                              else _random_k(rng, self.DEFECT_DIM))
        self._previous = None

    def run(self, k, span):
        return _check_then_solve(self.seq, span, k)

    def errors(self, k, result) -> list[str]:
        errors = _library_errors(self.seq, *result)
        measure = result[1]
        if self._previous is not None:
            errors += checks.distinct_errors(
                measure.positions, measure.weights, self._previous.positions,
                self._previous.weights, self.seq.a, self.seq.b, self.seq.moments[0])
        self._previous = measure
        return errors


class Cli:
    """The pipeline gen -> check -> solve -> verify through matmom.cli.main,
    in-process, on files in a temporary directory: N = 6, atoms = 20 on
    [-1, 1], alternating l = 14 and l = 15."""

    per_second = 25      # about 10/s are used today
    STEPS = ("gen", "check", "solve", "verify")

    def __init__(self, seed: int, count: int, workdir: str):
        self.dir = workdir
        self.cases = [(instance_seed(seed, i), 14 + i % 2) for i in range(count)]

    def _files(self):
        return tuple(os.path.join(self.dir, name) for name in
                     ("problem.json", "source.json", "measure.json"))

    def run(self, case, span):
        g, l = case
        problem, source, measure = self._files()
        argvs = (
            ["gen", "--seed", str(g), "--N", "6", "--atoms", "20", "--a", "-1",
             "--b", "1", "--l", str(l), "--out", problem, "--measure-out", source],
            ["check", problem],
            ["solve", problem, "--out", measure],
            ["verify", measure, problem],
        )
        times = []
        sink = io.StringIO()
        with span(), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for step, argv in zip(self.STEPS, argvs):
                t0 = clock()
                code = _program(cli.main, argv)
                times.append(clock() - t0)
                if code != 0:
                    raise OperationFailed(f"matmom {step} exited with {code}: "
                                          + sink.getvalue()[-300:])
        return times[1], sum(times), None

    def errors(self, case, result) -> list[str]:
        problem, source, measure = self._files()
        with open(problem) as f:
            a, b, moments = checks.read_problem_json(f.read())
        with open(source) as f:
            _, _, src_pos, src_w = checks.read_measure_json(f.read())
        with open(measure) as f:
            ma, mb, pos, w = checks.read_measure_json(f.read())
        errors = [] if (ma, mb) == (a, b) else [f"measure interval [{ma}, {mb}]"]
        if moments.shape[0] != case[1] + 1:
            errors.append(f"problem has {moments.shape[0]} moments, expected {case[1] + 1}")
        errors += ["gen: " + e for e in checks.moment_errors(src_pos, src_w, moments)]
        return errors + checks.solution_errors(pos, w, a, b, moments)


BY_NAME = {"population": Population, "large": Large, "family": Family, "cli": Cli}
