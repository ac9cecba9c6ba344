"""Shared random generators and reference implementations for the test suite.

Everything is driven by explicit numpy Generators so failures reproduce.
"""

import json

import numpy as np

from matmom.errors import ValidationError
from matmom.linalg import (
    NORM_SLACK,
    PSD_TOL,
    EigDecomposition,
    herm_part,
    psd_ok,
    rank_keep,
    require_hermitian,
)
from matmom.operator_model import GramSpace
from matmom.solvability import (
    CONSISTENCY_TOL,
    Condition,
    EvenCaseData,
    SolvabilityReport,
    _frobenius,
    _kernel_condition,
)


def random_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d.conj() / np.abs(d))


def random_unitaries(rng, n, count):
    """``count`` draws of :func:`random_unitary`, from one batched QR.

    Draws the same Ginibre matrices from ``rng`` in the same order, so the
    result equals ``count`` successive ``random_unitary`` calls.
    """
    z = rng.standard_normal((count, 2, n, n))
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d.conj() / np.abs(d))[:, None, :]


def random_hermitian(rng, n, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (g + g.conj().T)


def random_psd(rng, n, rank=None, lam_range=(1e-3, 10.0)):
    """PSD matrix with controlled spectrum (avoids ill-conditioned fixtures)."""
    if rank is None:
        rank = n
    lam = np.zeros(n)
    lam[:rank] = rng.uniform(*lam_range, size=rank)
    u = random_unitary(rng, n)
    return (u * lam) @ u.conj().T


def random_contraction(rng, n, spectrum_range=(-1.0, 1.0)):
    """Hermitian matrix with spectrum inside [-1, 1]."""
    u = random_unitary(rng, n)
    lam = rng.uniform(*spectrum_range, size=n)
    return (u * lam) @ u.conj().T


def random_contraction_column(rng, p, q):
    """Block column [P; Q] of a Hermitian contraction, P Hermitian p x p."""
    t = random_contraction(rng, p + q)
    return t[:p, :p], t[p:, :p]


def reference_hankel(seq, kind: str, k: int) -> np.ndarray:
    """Block-by-block assembly of a structured matrix of ``seq``: the
    reference for the block Hankel builders.

    ``kind`` is "gamma", "gamma_tilde", "h", "h_tilde" or "gamma_hat"; the
    scalar arithmetic of each block is the builders' own.
    """
    a, b, s, n = seq.a, seq.b, seq.moments, seq.N
    blocks, size = {
        "gamma": (lambda i, j: s[i + j], k + 1),
        "gamma_tilde": (lambda i, j: -a * b * s[i + j] + (a + b) * s[i + j + 1]
                        - s[i + j + 2], k),
        "h": (lambda i, j: -a * s[i + j] + s[i + j + 1], k + 1),
        "h_tilde": (lambda i, j: b * s[i + j] - s[i + j + 1], k + 1),
        "gamma_hat": (lambda i, j: s[i + j + 2], k),
    }[kind]
    out = np.zeros((size * n, size * n), dtype=complex)
    for i in range(size):
        for j in range(size):
            out[i * n : (i + 1) * n, j * n : (j + 1) * n] = blocks(i, j)
    return out


def _reference_gather(blocks, k):
    n = blocks.shape[-1]
    idx = np.arange(k)
    return blocks[np.add.outer(idx, idx)].transpose(0, 2, 1, 3).reshape(k * n, k * n)


def _reference_finite(blocks, name):
    if not np.isfinite(blocks).all():
        raise ValidationError(
            f"{name} contains non-finite entries: a combination of the moments overflows")
    return blocks


def _reference_gamma_tilde(seq, k):
    a, b, s = seq.a, seq.b, seq._stack[: 2 * k + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = -a * b * s[:-2] + (a + b) * s[1:-1] - s[2:]
    return _reference_gather(_reference_finite(blocks, "GammaTilde"), k)


def _reference_psd_condition(name, w):
    if w.size == 0:
        return Condition(name, True, "psd", np.inf, PSD_TOL, 0.0)
    w_min = float(w.min())
    scale = max(1.0, float(np.abs(w).max()))
    return Condition(name, bool(psd_ok(w)), "psd", w_min / scale, PSD_TOL, w_min)


def _reference_residual_condition(name, residual, scale, tol):
    if scale <= 0.0:
        rel = 0.0 if residual == 0.0 else np.inf
    else:
        rel = residual / scale
    return Condition(name, rel <= tol, "residual", rel, tol, residual)


def _reference_range_solve(dec, rhs):
    w, v = dec
    kept = rank_keep(w)
    coeff = v.conj().T @ rhs
    ck = coeff[kept]
    residual = _frobenius(coeff[~kept])
    quad = herm_part(ck.conj().T @ (ck / w[kept][:, None]))
    return residual, quad


def _reference_coordinates(space, rhs):
    """Residual and coordinates Z, conj(Z) = pinv(X^T) rhs, of the X
    system on the Gram vectors X of ``space``: a solve at full rank, the
    kept eigenvectors V = X^T / sqrt(w) otherwise."""
    x = space.vectors
    if x.shape[0] == x.shape[1]:
        return 0.0, np.linalg.solve(x.T, rhs).conj()
    w = space.spectrum[rank_keep(space.spectrum)]
    v = x.T / np.sqrt(w)
    coeff = v.conj().T @ rhs
    return _frobenius(rhs - v @ coeff), (coeff / np.sqrt(w)[:, None]).conj()


def reference_gram_space(seq, gamma) -> GramSpace:
    """The Gram space of the moment matrix ``gamma`` decided on its spectrum
    alone, with no certificate: ``eigvalsh`` decides, ``eigh`` when it
    drops an eigenvalue, and a spectrum that keeps every eigenvalue takes
    the upper Cholesky factor of conj(gamma).  The reference for
    ``gram_space_from_eig``, whose certificate must pick the same vectors,
    bit for bit, and whose deferred spectrum must be this one."""
    w = np.linalg.eigvalsh(gamma)
    keep = rank_keep(w)
    if not keep.all():
        w, v = np.linalg.eigh(gamma)
        keep = rank_keep(w)
    if keep.all():
        vectors = np.linalg.cholesky(gamma).T
    else:
        vectors = np.sqrt(w[keep])[:, None] * v[:, keep].T
    return GramSpace(a=seq.a, b=seq.b, N=seq.N, d=gamma.shape[0] // seq.N - 1,
                     vectors=vectors, gram=gamma, decided_spectrum=w)


def _reference_report(case, conditions, diagnostics, **kwargs) -> SolvabilityReport:
    """The verdict as the theorem gives it: solvable iff every condition of
    the pair passed; the diagnostics decide nothing."""
    failed = tuple(c.name for c in conditions if not c.passed)
    return SolvabilityReport(solvable=not failed, case=case, conditions=conditions,
                             failed_conditions=failed, diagnostics=diagnostics, **kwargs)


def reference_check_odd(seq) -> SolvabilityReport:
    """``check_odd`` with one ``eigvalsh`` per condition and no
    certificate, the Hankel matrices gathered one at a time and every
    combination scanned for overflow on its own: the reference for
    ``check_odd``'s report, bit for bit once every number of it is read,
    and for its exceptions."""
    d = seq.l // 2
    space = reference_gram_space(seq, _reference_gather(seq._stack, d + 1))
    conditions = (
        _reference_psd_condition("Gamma PSD", space.spectrum),
        _reference_psd_condition("GammaTilde PSD",
                                 np.linalg.eigvalsh(_reference_gamma_tilde(seq, d))),
    )
    return _reference_report("odd", conditions, (_kernel_condition(space),), space=space)


def reference_check_even(seq) -> SolvabilityReport:
    """``check_even`` with every interval-weighted combination formed where
    it is used, the H pair built and factored one matrix at a time, no
    certificate, and each overflow scanned and named on its own: the
    reference for ``check_even``'s report, bit for bit once every number of
    it is read, and for its exceptions."""
    d = (seq.l - 1) // 2
    s = seq._stack
    a, b, n = seq.a, seq.b, seq.N
    space = reference_gram_space(seq, _reference_gather(s, d + 1))
    gtilde = _reference_gamma_tilde(seq, d)
    pair = s[: 2 * d + 2]
    with np.errstate(over="ignore", invalid="ignore"):
        h, h_tilde = -a * pair[:-1] + pair[1:], b * pair[:-1] - pair[1:]
    h = _reference_gather(_reference_finite(h, "H"), d + 1)
    h_tilde = _reference_gather(_reference_finite(h_tilde, "HTilde"), d + 1)
    conditions = (_reference_psd_condition("H PSD", np.linalg.eigvalsh(h)),
                  _reference_psd_condition("HTilde PSD", np.linalg.eigvalsh(h_tilde)))
    gtilde_dec = EigDecomposition(*np.linalg.eigh(gtilde))
    diagnostics = [_reference_psd_condition("GammaTilde PSD", gtilde_dec.eigenvalues)]
    even_case = None
    if all(c.passed for c in conditions):
        with np.errstate(over="ignore", invalid="ignore"):
            rhs_x = s[d + 1:].reshape(-1, n)
            res_x, coords = _reference_coordinates(space, rhs_x)
            s_min = herm_part(coords.T @ coords.conj())
            _reference_finite(s_min, "S_min")
            rhs_y = _reference_finite((-a * b * s[d:2 * d] + (a + b) * s[d + 1:2 * d + 1]
                                       - s[d + 2:]).reshape(-1, n), "Y right side")
            res_y, y_quad = _reference_range_solve(gtilde_dec, rhs_y)
            _reference_finite(y_quad, "Y quadratic form")
            diagnostics += [
                _reference_residual_condition("X system consistent", res_x,
                                              _frobenius(rhs_x), CONSISTENCY_TOL),
                _reference_residual_condition("Y system consistent", res_y,
                                              _frobenius(rhs_y), CONSISTENCY_TOL),
            ]
            s_max = _reference_finite(herm_part(
                -a * b * s[2 * d] + (a + b) * s[2 * d + 1] - y_quad
            ), "S_max")
            width = EigDecomposition(*np.linalg.eigh(
                _reference_finite(s_max - s_min, "S_max - S_min")))
        even_case = EvenCaseData(S_min=s_min, S_max=s_max, width=width,
                                 next_coords=coords)
        ends = np.linalg.eigvalsh(np.stack((s_min, s_max)))
        scale = max(1.0, float(np.abs(ends).max()))
        rel_min = float(width.eigenvalues.min()) / scale
        diagnostics.append(Condition("S interval nonempty", rel_min >= -PSD_TOL,
                                     "psd", rel_min, PSD_TOL,
                                     float(width.eigenvalues.min())))
    return _reference_report("even", conditions, tuple(diagnostics), even_case=even_case,
                             space=space)


def reference_pair_verdict(seq) -> bool:
    """The theorem's verdict for l >= 1: Gamma_d and Gamma-tilde_d PSD when
    l = 2d, H_d and H-tilde_d PSD when l = 2d+1, each assembled block by
    block and judged by ``psd_ok`` on its ``eigvalsh``."""
    d = seq.l // 2
    kinds = ("gamma", "gamma_tilde") if seq.l % 2 == 0 else ("h", "h_tilde")
    return all(bool(psd_ok(np.linalg.eigvalsh(reference_hankel(seq, kind, d))))
               for kind in kinds)


def reference_check_psd(a, tol=PSD_TOL) -> bool:
    """True iff the Hermitian matrix ``a`` passes ``psd_ok`` at ``tol``: one
    matrix validated by ``require_hermitian`` and one ``eigvalsh``.  The
    reference for ``check_psd_stack``."""
    return bool(psd_ok(np.linalg.eigvalsh(require_hermitian(a)), tol))


def loewner_leq(a, b) -> bool:
    """Loewner order A <= B within the tests' slack: A and B are Hermitian
    within ``HERM_TOL`` and B - A is PSD within 1e-9."""
    return reference_check_psd(require_hermitian(b) - require_hermitian(a), 1e-9)


def defect_support_basis(interval) -> np.ndarray:
    """Orthonormal basis, in defect coordinates, of the range of the defect
    ``interval.C_R``, cut by ``rank_keep``."""
    w, v = np.linalg.eigh(interval.C_R)
    return v[:, rank_keep(w)]


def reference_completions(p, q):
    """X_min = Q (I + P)^+ Q* - I and X_max = I - Q (I - P)^+ Q*, with each
    pseudo-inverse formed as a p x p matrix from the eigendecomposition of P
    and cut by ``rank_keep``: the reference for ``extremal_completions``."""
    w, v = np.linalg.eigh(0.5 * (p + p.conj().T))

    def pinv(lam):
        keep = rank_keep(lam)
        vk = v[:, keep]
        return (vk / lam[keep]) @ vk.conj().T

    eye = np.eye(q.shape[0], dtype=complex)
    return (q @ pinv(1.0 + w) @ q.conj().T - eye,
            eye - q @ pinv(1.0 - w) @ q.conj().T)


def _assemble(p, q, x):
    return np.block([[p, q.conj().T], [q, x]])


def reference_contraction_guards(model) -> bool:
    """Whether the contraction column [P; Q] of ``model`` passes every test
    the solve path once made of it, at ``NORM_SLACK``: the column's spectral
    norm, I + P and I - P PSD, the spectral norms of both completions, and
    the defect X_max - X_min PSD.  The reference for the one contraction
    rule of ``extremal_completions`` and ``extremal_extensions``."""
    p, q = model.P, model.Q
    column = np.vstack([p, q])
    if column.size and np.linalg.norm(column, 2) > 1.0 + NORM_SLACK:
        return False
    w = np.linalg.eigvalsh(p) if p.size else np.zeros(0)
    if not (psd_ok(1.0 + w, NORM_SLACK) and psd_ok(1.0 - w, NORM_SLACK)):
        return False
    x_mu, x_m = reference_completions(p, q)
    for x in (x_mu, x_m):
        t = _assemble(p, q, x)
        if t.size and np.abs(np.linalg.eigvalsh(t)).max() > 1.0 + NORM_SLACK:
            return False
    defect = x_m - x_mu
    return bool(psd_ok(np.linalg.eigvalsh(0.5 * (defect + defect.conj().T))
                       if defect.size else np.zeros(0), NORM_SLACK))


def reference_dump(obj) -> str:
    """JSON text with floats in 17-significant-digit scientific notation,
    written value by value: the reference for the file writers."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return f"{float(obj):.16e}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {reference_dump(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(reference_dump(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def reference_pairs(m) -> list:
    """Row-major nested list of [re, im] pairs of a matrix."""
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def reference_problem_text(seq) -> str:
    return reference_dump({"a": seq.a, "b": seq.b, "N": seq.N,
                           "moments": [reference_pairs(s) for s in seq.moments]}) + "\n"


def reference_measure_text(measure) -> str:
    atoms = [{"x": float(x), "W": reference_pairs(w)}
             for x, w in zip(measure.positions, measure.weights)]
    return reference_dump({"a": measure.a, "b": measure.b, "N": measure.N,
                           "atoms": atoms}) + "\n"
