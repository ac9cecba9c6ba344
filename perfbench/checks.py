"""Output checks that do not rely on the program under test.

Every function here takes plain numpy arrays (or JSON text) and uses only
numpy, so a fault in matmom cannot hide itself by also breaking the check.
Each returns a list of human-readable problems; an empty list means the
output passed.
"""

from __future__ import annotations

import json

import numpy as np

# Relative tolerance of the moment round trip: |sum_i x_i^n W_i - S_n| must
# stay within MOMENT_TOL * max(1, ||S_n||_2) entrywise.
MOMENT_TOL = 1e-8
# Weights must be Hermitian and have no eigenvalue below
# -WEIGHT_TOL * max(1, ||S_0||_2).
WEIGHT_TOL = 1e-9
# A determinate problem has one solution: the generating measure.  Atom
# positions must agree within SAME_TOL * (b - a), weights within
# SAME_TOL * max(1, ||S_0||_2).
SAME_TOL = 1e-6
# Two solutions of a family count as distinct when they differ by more than
# DISTINCT_TOL in the same relative units.
DISTINCT_TOL = 1e-9


def _spectral_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def moment_errors(positions, weights, moments) -> list[str]:
    """Recompute S_n = sum_i x_i^n W_i and compare with the prescribed S_n."""
    x = np.asarray(positions, dtype=float)
    w = np.asarray(weights, dtype=complex)
    s = np.asarray(moments, dtype=complex)
    n = s.shape[-1]
    if x.ndim != 1 or w.shape != (x.size, n, n):
        return [f"atom arrays have shapes {x.shape} and {w.shape} for N={n}"]
    powers = x[:, None] ** np.arange(s.shape[0])[None, :]
    recomputed = np.einsum("in,iab->nab", powers, w)
    errors = []
    for k in range(s.shape[0]):
        residual = float(np.abs(recomputed[k] - s[k]).max())
        bound = MOMENT_TOL * max(1.0, _spectral_norm(s[k]))
        if not residual <= bound:
            errors.append(f"moment {k}: residual {residual:.3e} > {bound:.3e}")
    return errors


def weight_errors(weights, s0) -> list[str]:
    """Every weight is Hermitian and positive semidefinite."""
    w = np.asarray(weights, dtype=complex)
    if w.shape[0] == 0:
        return []
    slack = WEIGHT_TOL * max(1.0, _spectral_norm(np.asarray(s0, dtype=complex)))
    errors = []
    skew = np.abs(w - w.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    for i in np.flatnonzero(skew > slack):
        errors.append(f"weight {i} is not Hermitian (skew {skew[i]:.3e})")
    lowest = np.linalg.eigvalsh(0.5 * (w + w.conj().transpose(0, 2, 1)))[:, 0]
    for i in np.flatnonzero(lowest < -slack):
        errors.append(f"weight {i} has eigenvalue {lowest[i]:.3e}")
    return errors


def support_errors(positions, a: float, b: float) -> list[str]:
    """Every atom is a finite point of [a, b]."""
    x = np.asarray(positions, dtype=float)
    bad = ~(np.isfinite(x) & (x >= a) & (x <= b))
    return [f"atom {i} at {x[i]!r} lies outside [{a}, {b}]" for i in np.flatnonzero(bad)]


def solution_errors(positions, weights, a: float, b: float, moments) -> list[str]:
    """All checks a solution of the problem (a, b, moments) must pass."""
    return (support_errors(positions, a, b)
            + weight_errors(weights, moments[0])
            + moment_errors(positions, weights, moments))


def _distance(pos_1, w_1, pos_2, w_2, a, b, s0) -> float:
    """Largest relative difference between two atomic measures (inf if the
    atom counts differ)."""
    if len(pos_1) != len(pos_2):
        return np.inf
    if len(pos_1) == 0:
        return 0.0
    scale = max(1.0, _spectral_norm(np.asarray(s0, dtype=complex)))
    return max(float(np.abs(np.asarray(pos_1) - np.asarray(pos_2)).max()) / (b - a),
               float(np.abs(np.asarray(w_1) - np.asarray(w_2)).max()) / scale)


def same_measure_errors(pos, w, ref_pos, ref_w, a, b, s0) -> list[str]:
    """The solution of a determinate problem reproduces its generating measure."""
    dist = _distance(pos, w, ref_pos, ref_w, a, b, s0)
    if dist <= SAME_TOL:
        return []
    return [f"determinate solution differs from the generating measure by {dist:.3e}"]


def distinct_errors(pos, w, prev_pos, prev_w, a, b, s0) -> list[str]:
    """Two different extension parameters give two different measures."""
    dist = _distance(pos, w, prev_pos, prev_w, a, b, s0)
    if dist > DISTINCT_TOL:
        return []
    return [f"consecutive parameters give the same measure (distance {dist:.3e})"]


def _pairs(rows) -> np.ndarray:
    m = np.asarray(rows, dtype=float)
    return m[..., 0] + 1j * m[..., 1]


def read_problem_json(text: str):
    """(a, b, moments) of a problem file, parsed with the json module only."""
    doc = json.loads(text)
    return float(doc["a"]), float(doc["b"]), _pairs(doc["moments"])


def read_measure_json(text: str):
    """(a, b, positions, weights) of a measure file, parsed with json only."""
    doc = json.loads(text)
    n = int(doc["N"])
    atoms = doc["atoms"]
    positions = np.array([float(atom["x"]) for atom in atoms])
    weights = (np.stack([_pairs(atom["W"]) for atom in atoms])
               if atoms else np.zeros((0, n, n), dtype=complex))
    return float(doc["a"]), float(doc["b"]), positions, weights
