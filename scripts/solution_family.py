#!/usr/bin/env python3
"""Enumerate canonical solutions of one problem across the parameter range.

With no argument, runs the built-in demo (first three power moments of the
uniform density on [0, 1], an indeterminate problem with a one-dimensional
defect).  Pass a problem file to inspect your own data.
"""

import argparse

import numpy as np

from matmom import (
    MomentSequence,
    build_operators,
    check_odd,
    extremal_extensions,
    moments_of,
    solve_odd,
)
from matmom.io import read_problem


def demo_problem() -> MomentSequence:
    eye = np.eye(1)
    return MomentSequence(0.0, 1.0, (eye, eye / 2, eye / 3))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("problem", nargs="?", help="problem file (JSON)")
    parser.add_argument("--samples", type=int, default=5,
                        help="number of scalar parameters in [0, 1]")
    args = parser.parse_args()

    seq = read_problem(args.problem) if args.problem else demo_problem()
    report = check_odd(seq)
    if not report.solvable:
        raise SystemExit(f"problem is unsolvable: {report.failed_conditions}")

    # the check's Gram space is the one solve_odd builds its operators on
    interval = extremal_extensions(build_operators(report.space))
    print(f"Gram-space rank: {interval.model.space.rank}")
    print(f"defect dimension: {interval.def_dim} (fixed: {interval.R0_dim})")
    print(f"determinate: {interval.determinate}")
    print()

    for t in np.linspace(0.0, 1.0, args.samples):
        measure = solve_odd(seq, float(t))
        atoms = ", ".join(
            f"({x:.6f}, trace {np.trace(w).real:.6f})"
            for x, w in zip(measure.positions, measure.weights)
        )
        top = moments_of(measure, seq.l + 1).moments[-1]
        print(f"K = {t:.2f} * I: atoms {atoms}; next moment trace "
              f"{np.trace(top).real:.8f}")


if __name__ == "__main__":
    main()
