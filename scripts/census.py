#!/usr/bin/env python3
"""Correctness census: solve fixed populations of genuine problems and count
the outcomes.

Every problem is the moment sequence of a measure made by
``gen_random_measure``, so every one is solvable; a failure is the
pipeline's.  The recipes draw, for generator seed g, from
``rng = np.random.default_rng(g)`` in the order given:

- endpoint: g = 10000-10599; N = rng.integers(1, 4), atoms =
  rng.integers(1, 5), l = rng.choice([3, 5, 7]) on [0, 1]; ``solve_even`` at
  t in {0, 1} (the ends of the moment interval) and k in {0, 1}.
- wide: g = 20000-21999; N and atoms as above, l = 7 on [-2, 3];
  ``solve_even`` at t = k = 0.5.
- determinate: g = 30000-32999 on [0, 1] and on [-2, 3]; d =
  rng.integers(2, 4), N = rng.integers(1, 4), atoms = rng.integers(1, d + 1),
  l = 2d; ``solve_odd`` at k = 0.5.  The solution is unique, so a solved
  measure with another atom count than the generator's is a split.
- frontier: the degree/conditioning cells of ``FRONTIER_CELLS``, seeds 0-9
  (those of ``matmom gen --seed``); ``solve_odd`` at k = 0.5.  The last
  cell, [-2, 3] with N = 8, atoms = 40 and l = 20, is the benchmark's
  ``large`` shape on this wider interval; there every seed's measure
  fails verification (residuals 1e-4 to 7e-3).
- short: g = 0-1199; N = rng.integers(1, 4), atoms = rng.integers(1, 6), l =
  rng.integers(2, 8) on the (g mod 3)-th of [0, 1e-3], [0, 1e-2] and
  [0, 0.1]; ``solve_even`` at t = k = 0.5 when l is odd, ``solve_odd`` at
  k = 0.5 when it is even.

The digest pins the bits of the chain rather than its outcomes, for
changes meant to keep them.  For g = 40000-40599 it draws N =
rng.integers(1, 4), d = rng.integers(1, 5), atoms = rng.integers(1, d + 3)
and the interval [0, 1], [-1, 1] or [-2, 3] (rng.integers(3)), and takes l
= 2d.  Each instance goes to its route, "full rank" when the Gram space of
``check_odd`` has rank (d+1)N and "rank-deficient" otherwise.  Per route it
gives a SHA-256 of the ``check_odd`` reports (the name and verdict of each
condition, then of each diagnostic, with the bytes of its quantity and
value, then the report's verdict), one of the model (the bytes of P, Q and
``first_vectors`` of ``build_operators``) and one of the measure
(``solve_odd`` at k = 0.5); the model and measure hashes hash an
exception's class and message in place of a failed step.  The "even" entry
takes the same draws at l = 2d+1.  Its check hash covers the ``check_even``
reports: the conditions as above, then the bytes of S_min, S_max, the
width's eigenvalues and eigenvectors and the X system's coordinates
``next_coords`` when the interval was formed, or an exception's class and
message.  Its measure hash covers ``solve_even`` at t = k = 0.5, as the
routes' measure hashes do.  Failures of both are counted by message.  So
the check hashes pin every bit of both checks' reports, and the model and
measure hashes every bit of the solves.  The digest only prints: the exit
status reads the census alone.

Each instance is recorded with its recipe, seed, interval, N, atoms, l, t
and k, its outcome ("solved" or the exception class), the message with its
numbers cut off, the solved atom count and the generator's atom count.  The
summary counts outcomes and messages per group (a recipe, split by t or by
interval, or one frontier cell), counts the splits of determinate groups,
and gives a SHA-256 over the bytes of the solved measures' positions and
weights.  It is printed as JSON; ``--out`` also writes every instance.
``--quick`` takes every fifth seed.

The exit status is 1 when any instance is reported ``Unsolvable``: the
moments are genuine, so that verdict is always wrong.

    python scripts/census.py [--quick] [--out census.json]
"""

import argparse
import hashlib
import json
import re
import sys
import time
from collections import Counter

import numpy as np

from matmom import (
    MatmomError,
    Unsolvable,
    build_operators,
    check_even,
    check_odd,
    gen_random_measure,
    moments_of,
    solve_even,
    solve_odd,
)

# (a, b, N, atoms, l)
FRONTIER_CELLS = [
    (0.0, 1.0, 1, 12, 8),
    (0.0, 1.0, 1, 18, 12),
    (0.0, 1.0, 1, 21, 14),
    (0.0, 1.0, 1, 24, 16),
    (0.0, 1.0, 1, 75, 50),
    (0.0, 1.0, 3, 24, 16),
    (0.0, 1.0, 3, 36, 24),
    (0.0, 1.0, 3, 60, 40),
    (-1.0, 1.0, 1, 36, 24),
    (-1.0, 1.0, 1, 48, 32),
    (-1.0, 1.0, 1, 60, 40),
    (-1.0, 1.0, 6, 12, 20),
    (-2.0, 3.0, 4, 20, 16),
    (-2.0, 3.0, 8, 40, 20),
]


def _interval(a, b):
    return f"[{a:g}, {b:g}]"


def instances(step):
    """``(group, recipe, seed, a, b, N, atoms, l, t, k)`` of every solve,
    every ``step``-th seed of each recipe."""
    for g in range(10000, 10600, step):
        rng = np.random.default_rng(g)
        n, atoms = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        l = int(rng.choice([3, 5, 7]))
        for t in (0.0, 1.0):
            for k in (0.0, 1.0):
                yield f"endpoint t={t:g}", "endpoint", g, 0.0, 1.0, n, atoms, l, t, k
    for g in range(20000, 22000, step):
        rng = np.random.default_rng(g)
        n, atoms = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        yield "wide", "wide", g, -2.0, 3.0, n, atoms, 7, 0.5, 0.5
    for a, b in ((0.0, 1.0), (-2.0, 3.0)):
        for g in range(30000, 33000, step):
            rng = np.random.default_rng(g)
            d = int(rng.integers(2, 4))
            n = int(rng.integers(1, 4))
            atoms = int(rng.integers(1, d + 1))
            yield (f"determinate {_interval(a, b)}", "determinate", g, a, b, n, atoms,
                   2 * d, None, 0.5)
    for a, b, n, atoms, l in FRONTIER_CELLS:
        group = f"frontier {_interval(a, b)} N={n} atoms={atoms} l={l}"
        for g in range(0, 10, step):
            yield group, "frontier", g, a, b, n, atoms, l, None, 0.5
    short = ((0.0, 1e-3), (0.0, 1e-2), (0.0, 0.1))
    for g in range(0, 1200, step):
        rng = np.random.default_rng(g)
        n, atoms, l = int(rng.integers(1, 4)), int(rng.integers(1, 6)), int(rng.integers(2, 8))
        a, b = short[g % 3]
        yield (f"short {_interval(a, b)}", "short", g, a, b, n, atoms, l,
               0.5 if l % 2 else None, 0.5)


def message_prefix(message: str) -> str:
    """The message up to its first number, so that equal failures count together."""
    return re.split(r"\s[-+]?\.?\d", message, maxsplit=1)[0].rstrip(" ,;:(")


def run(step):
    records, digests, unsolvable = [], {}, 0
    for group, recipe, g, a, b, n, atoms, l, t, k in instances(step):
        source = gen_random_measure(g, n, atoms, a, b)
        seq = moments_of(source, l)
        record = {"group": group, "recipe": recipe, "seed": g, "interval": [a, b],
                  "N": n, "atoms": atoms, "l": l, "t": t, "k": k,
                  "outcome": "solved", "message": "", "solved_atoms": None,
                  "generator_atoms": source.num_atoms}
        digest = digests.setdefault(group, hashlib.sha256())
        try:
            measure = solve_odd(seq, k) if t is None else solve_even(seq, t, k)
        except MatmomError as exc:
            record.update(outcome=type(exc).__name__, message=message_prefix(str(exc)))
            unsolvable += isinstance(exc, Unsolvable)
        else:
            record["solved_atoms"] = measure.num_atoms
            digest.update(np.ascontiguousarray(measure.positions).tobytes())
            digest.update(np.ascontiguousarray(measure.weights).tobytes())
        records.append(record)
    return records, {group: h.hexdigest() for group, h in digests.items()}, unsolvable


def summarize(records, digests):
    summary = {}
    for r in records:
        determinate = r["recipe"] == "determinate"
        s = summary.setdefault(r["group"], {"instances": 0, "solved": 0,
                                            **({"splits": 0} if determinate else {}),
                                            "failures": Counter()})
        s["instances"] += 1
        if r["outcome"] == "solved":
            s["solved"] += 1
            if determinate:
                s["splits"] += r["solved_atoms"] != r["generator_atoms"]
        else:
            s["failures"][f"{r['outcome']}: {r['message']}"] += 1
    for group, s in summary.items():
        s["failures"] = dict(s["failures"].most_common())
        s["sha256"] = digests[group]
    return summary


def _hash_failure(hasher, exc: MatmomError) -> str:
    """Hash a failed step's exception class and message; return the count key."""
    hasher.update(f"{type(exc).__name__}: {exc}".encode())
    return f"{type(exc).__name__}: {message_prefix(str(exc))}"


def _hash_report(hasher, report) -> None:
    """Hash a check report: the name, verdict and bytes of quantity and
    value of each condition, then of each diagnostic, then the verdict."""
    for c in report.conditions + report.diagnostics:
        hasher.update(f"{c.name}:{c.passed}:".encode())
        hasher.update(np.array([c.quantity, c.value], dtype=float).tobytes())
    hasher.update(f"{report.solvable}".encode())


def digest():
    """Per route, the instance count, the SHA-256 of the check reports, of the
    models and of the measures, and the failures counted by message; under
    "even", the count, the SHA-256 of the even-case check reports and of the
    even-case measures, and their failures."""
    routes = {}
    even = {"instances": 0, "check": hashlib.sha256(), "measure": hashlib.sha256(),
            "failures": Counter()}
    for g in range(40000, 40600):
        rng = np.random.default_rng(g)
        n, d = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        atoms = int(rng.integers(1, d + 3))
        a, b = ((0.0, 1.0), (-1.0, 1.0), (-2.0, 3.0))[int(rng.integers(3))]
        source = gen_random_measure(g, n, atoms, a, b)
        seq = moments_of(source, 2 * d)
        report = check_odd(seq)
        space = report.space
        route = routes.setdefault(
            "full rank" if space.rank == space.vectors.shape[1] else "rank-deficient",
            {"instances": 0, "check": hashlib.sha256(), "model": hashlib.sha256(),
             "measure": hashlib.sha256(), "failures": Counter()})
        route["instances"] += 1
        _hash_report(route["check"], report)
        try:
            model = build_operators(space)
        except MatmomError as exc:
            route["failures"]["model " + _hash_failure(route["model"], exc)] += 1
        else:
            for block in (model.P, model.Q, model.first_vectors):
                route["model"].update(np.ascontiguousarray(block).tobytes())
        try:
            measure = solve_odd(seq, 0.5)
        except MatmomError as exc:
            route["failures"]["measure " + _hash_failure(route["measure"], exc)] += 1
        else:
            route["measure"].update(np.ascontiguousarray(measure.positions).tobytes())
            route["measure"].update(np.ascontiguousarray(measure.weights).tobytes())
        even["instances"] += 1
        even_seq = moments_of(source, 2 * d + 1)
        try:
            even_report = check_even(even_seq)
        except MatmomError as exc:
            even["failures"]["check " + _hash_failure(even["check"], exc)] += 1
        else:
            _hash_report(even["check"], even_report)
            data = even_report.even_case
            if data is not None:
                for arr in (data.S_min, data.S_max, *data.width, data.next_coords):
                    even["check"].update(np.ascontiguousarray(arr).tobytes())
        try:
            measure = solve_even(even_seq, 0.5, 0.5)
        except MatmomError as exc:
            even["failures"]["measure " + _hash_failure(even["measure"], exc)] += 1
        else:
            even["measure"].update(np.ascontiguousarray(measure.positions).tobytes())
            even["measure"].update(np.ascontiguousarray(measure.weights).tobytes())
    result = {name: {"instances": r["instances"], "check": r["check"].hexdigest(),
                     "model": r["model"].hexdigest(), "measure": r["measure"].hexdigest(),
                     "failures": dict(r["failures"].most_common())}
              for name, r in sorted(routes.items())}
    result["even"] = {"instances": even["instances"], "check": even["check"].hexdigest(),
                      "measure": even["measure"].hexdigest(),
                      "failures": dict(even["failures"].most_common())}
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="every fifth seed")
    parser.add_argument("--out", default=None, help="write every instance and the summary")
    args = parser.parse_args()

    start = time.monotonic()
    records, digests, unsolvable = run(5 if args.quick else 1)
    summary = summarize(records, digests)
    result = {"quick": args.quick, "seconds": round(time.monotonic() - start, 1),
              "unsolvable": unsolvable, "summary": summary, "digest": digest()}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(dict(result, instances=records), fh, indent=1)
    json.dump(result, sys.stdout, indent=1)
    print()
    if unsolvable:
        print(f"{unsolvable} genuine instances reported Unsolvable", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
