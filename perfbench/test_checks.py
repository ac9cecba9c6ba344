"""Each output check rejects a perturbed output and accepts the genuine one.

Run from the root of the checkout:  python3 -m pytest perfbench -q
"""

import json
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

A, B = -1.0, 2.0


def genuine(seed=0, n=2, atoms=5, l=6):
    """Atoms, weights and moments of a random measure, with plain numpy."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(A, B, atoms))
    g = rng.standard_normal((atoms, n, n)) + 1j * rng.standard_normal((atoms, n, n))
    w = np.einsum("iba,ibc->iac", g.conj(), g)
    moments = np.array([sum(x[i] ** k * w[i] for i in range(atoms)) for k in range(l + 1)])
    return x, w, moments


def test_genuine_solution_passes():
    x, w, s = genuine()
    assert checks.solution_errors(x, w, A, B, s) == []


def test_scaled_weight_fails_moment_check():
    x, w, s = genuine()
    w[2] *= 1 + 1e-6
    assert checks.moment_errors(x, w, s)


def test_moved_atom_fails_moment_check():
    x, w, s = genuine()
    x[1] += 1e-6
    assert checks.moment_errors(x, w, s)


def test_atom_outside_interval_fails_support_check():
    x, w, s = genuine()
    x[-1] = B + 1e-9
    assert checks.support_errors(x, A, B)
    x[-1] = np.nan
    assert checks.support_errors(x, A, B)


def test_indefinite_weight_fails_weight_check():
    x, w, s = genuine()
    lowest = np.linalg.eigvalsh(w[1])[0]
    w[1] -= (lowest + 1e-6) * np.eye(w.shape[1])
    assert checks.weight_errors(w, s[0])


def test_non_hermitian_weight_fails_weight_check():
    x, w, s = genuine()
    w[0, 0, 1] += 1e-6
    assert checks.weight_errors(w, s[0])


def test_other_measure_fails_determinate_check():
    x, w, s = genuine(atoms=3)
    assert checks.same_measure_errors(x, w, x, w, A, B, s[0]) == []
    assert checks.same_measure_errors(x + 1e-5, w, x, w, A, B, s[0])
    assert checks.same_measure_errors(x, w * (1 + 1e-4), x, w, A, B, s[0])
    assert checks.same_measure_errors(x[:2], w[:2], x, w, A, B, s[0])


def test_repeated_measure_fails_family_check():
    x, w, s = genuine()
    assert checks.distinct_errors(x, w, x, w, A, B, s[0])
    assert checks.distinct_errors(x, w, x + 1e-3, w, A, B, s[0]) == []


def _pairs(m):
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def test_measure_file_is_parsed_with_json_only():
    x, w, s = genuine()
    doc = {"a": A, "b": B, "N": 2,
           "atoms": [{"x": float(xi), "W": _pairs(wi)} for xi, wi in zip(x, w)]}
    a, b, pos, weights = checks.read_measure_json(json.dumps(doc))
    assert (a, b) == (A, B)
    assert checks.solution_errors(pos, weights, a, b, s) == []
    doc["atoms"][3]["W"][0][0][0] *= 1 + 1e-6
    _, _, pos, weights = checks.read_measure_json(json.dumps(doc))
    assert checks.solution_errors(pos, weights, A, B, s)


def test_problem_file_is_parsed_with_json_only():
    _, _, s = genuine()
    doc = {"a": A, "b": B, "N": 2, "moments": [_pairs(m) for m in s]}
    a, b, moments = checks.read_problem_json(json.dumps(doc))
    assert (a, b) == (A, B)
    np.testing.assert_array_equal(moments, s)


# -- the workloads apply the checks to the program's real outputs ----------

def _scaled_first_weight(measure):
    """A copy of the measure's arrays with one weight scaled by 1 + 1e-6."""
    weights = np.array(measure.weights)
    weights[0] *= 1 + 1e-6
    return type("Perturbed", (), {"positions": measure.positions, "weights": weights})()


def test_population_rejects_perturbed_solution():
    wl = workloads.Population(0, 3, None)
    for pair in wl.cases:
        _, _, results = wl.run(pair, nullcontext)
        assert wl.errors(pair, results) == []
        (verdict, measure), other = results
        assert wl.errors(pair, [(verdict, _scaled_first_weight(measure)), other])
        assert wl.errors(pair, [(False, measure), other])


def test_population_rejects_wrong_determinate_solution():
    wl = workloads.Population(0, 40, None)
    pair = next(p for p in wl.cases if p[0][0].num_atoms == 1)
    _, _, results = wl.run(pair, nullcontext)
    assert wl.errors(pair, results) == []
    (verdict, measure), other = results
    # a one-atom solution placed 1e-4 away from the generating atom
    moved = type("Moved", (), {"positions": measure.positions + 1e-4,
                                "weights": measure.weights})()
    assert any("determinate" in e for e in wl.errors(pair, [(verdict, moved), other]))


def test_large_rejects_perturbed_solution():
    wl = workloads.Large(0, 1, None)
    seq = wl.cases[0]
    _, _, (verdict, measure) = wl.run(seq, nullcontext)
    assert wl.errors(seq, (verdict, measure)) == []
    assert wl.errors(seq, (verdict, _scaled_first_weight(measure)))


def test_family_rejects_repeated_solution():
    wl = workloads.Family(0, 2, None)
    k0, k1 = wl.cases
    _, _, first = wl.run(k0, nullcontext)
    assert wl.errors(k0, first) == []
    _, _, second = wl.run(k1, nullcontext)
    assert wl.errors(k1, second) == []
    assert wl.errors(k1, second)          # the same measure again
    assert wl.errors(k0, (first[0], _scaled_first_weight(first[1])))


def test_cli_rejects_perturbed_measure_file(tmp_path):
    wl = workloads.Cli(0, 1, str(tmp_path))
    case = wl.cases[0]
    _, _, result = wl.run(case, nullcontext)
    assert wl.errors(case, result) == []
    path = tmp_path / "measure.json"
    doc = json.loads(path.read_text())
    doc["atoms"][0]["x"] = 1.5          # outside [-1, 1]
    path.write_text(json.dumps(doc))
    assert any("outside" in e for e in wl.errors(case, result))


def test_cli_counts_nonzero_exit_as_failure(tmp_path):
    wl = workloads.Cli(0, 1, str(tmp_path))
    wl.cases[0] = (0, -1)               # gen rejects a negative l
    with pytest.raises(workloads.OperationFailed):
        wl.run(wl.cases[0], nullcontext)
