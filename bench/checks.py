"""Output checks: each turns a wrong answer of the program into a failure.

Every reference value here is computed in plain numpy from the benchmark's
own input matrix W, never by the program under test.  All comparisons are
relative, with tolerance REL_TOL.
"""

from __future__ import annotations

from collections import Counter
from math import comb, factorial

import numpy as np

from inputs import pairs

REL_TOL = 1e-9

#: Records per identity of ``verify --extended`` (1084 in all).
SUITE_RECORDS = {
    "closed_form": 150, "hodge_duality": 150, "contraction_adjoint": 30,
    "star_contraction": 30, "metric_injectivity": 37, "weitzenboeck_injectivity": 6,
    "contraction_orders": 150, "einstein_alternative": 75, "splitting": 150,
    "decomposition": 100, "constant_curvature": 35, "clifford_ad_rule": 3,
    "wedge_recovery": 3, "clifford_associativity": 5, "mid_degree": 12,
    "sectional_sum": 45, "adjoint_pairing": 15, "tachibana": 6, "kn_algebra": 5,
    "meyer_positivity": 20, "scalar_positivity": 30, "contracted_positivity": 27,
}

#: (identity, n, p) cells that fail by design: the order-p map has a kernel
#: at n = 2p, and criterion 4 asserts injectivity there anyway.
SUITE_EXPECTED_FAILURES = {("weitzenboeck_injectivity", 4, 2), ("weitzenboeck_injectivity", 6, 3)}


class WrongOutput(Exception):
    """The program exited normally but its output is not correct."""


def check_suite(rc: int, doc: dict | None) -> tuple[int, int]:
    """(records attempted, records failed) of one ``verify --extended`` run.

    A record fails when its verdict differs from the expected one: pass,
    except for SUITE_EXPECTED_FAILURES, which must fail.  Missing or
    surplus records per identity count as failed; an unreadable report or
    an exit status that disagrees with the verdicts fails every record.
    """
    attempted = sum(SUITE_RECORDS.values())
    if doc is None:
        return attempted, attempted
    records = doc["records"]
    if rc != (0 if all(r["passed"] for r in records) else 1):
        return attempted, attempted
    counts = Counter(r["identity"] for r in records)
    failed = sum(abs(counts[name] - want) for name, want in SUITE_RECORDS.items())
    failed += sum(c for name, c in counts.items() if name not in SUITE_RECORDS)
    for r in records:
        expect_fail = (r["identity"], r["n"], r["p"]) in SUITE_EXPECTED_FAILURES
        if r["passed"] == expect_fail:
            failed += 1
    return attempted, failed


# -- plain numpy references ---------------------------------------------------


def _close(name: str, got, want, scale: float) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise WrongOutput(f"{name}: shape {got.shape}, expected {want.shape}")
    err = float(np.max(np.abs(got - want), initial=0.0))
    if not err <= REL_TOL * scale:
        raise WrongOutput(f"{name}: off by {err:.3e} (limit {REL_TOL * scale:.3e})")


def riemann(W: np.ndarray, n: int) -> np.ndarray:
    """Antisymmetric 4-index array R[i,j,k,l] = w(e_i^e_j, e_k^e_l)."""
    P = pairs(n)
    R = np.zeros((n, n, n, n))
    i, j = P[:, 0][:, None], P[:, 1][:, None]
    k, l = P[:, 0][None, :], P[:, 1][None, :]
    R[i, j, k, l] = W
    R[j, i, k, l] = -W
    R[i, j, l, k] = -W
    R[j, i, l, k] = W
    return R


def ricci(W: np.ndarray, n: int) -> np.ndarray:
    """First contraction: Ric(a, b) = sum_m w(e_m^e_a, e_m^e_b)."""
    return np.einsum("mamb->ab", riemann(W, n))


def kn11(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Exterior product of two (1,1) forms as a (2,2) matrix."""
    P = pairs(n)
    i, j = P[:, 0], P[:, 1]
    return (a[np.ix_(i, i)] * b[np.ix_(j, j)] - a[np.ix_(i, j)] * b[np.ix_(j, i)]
            - a[np.ix_(j, i)] * b[np.ix_(i, j)] + a[np.ix_(j, j)] * b[np.ix_(i, i)])


def _components(doc: dict, n: int) -> np.ndarray:
    """w rebuilt from the reported parts: w2 + g.w1 + w0 g^2."""
    m = comb(n, 2)
    return (np.asarray(doc["omega2"]) + kn11(np.eye(n), np.asarray(doc["omega1"]), n)
            + 2.0 * doc["omega0"] * np.eye(m))


# -- per-command checks ---------------------------------------------------------


def check_decompose(doc: dict, W: np.ndarray, n: int) -> None:
    """Scalar / traceless-Ricci / Weyl parts of W, from the trace formulas."""
    scale = max(np.linalg.norm(W), 1.0)
    s = 2.0 * np.trace(W)
    _close("scalar_curvature", doc["scalar_curvature"], s, scale)
    _close("omega0", doc["omega0"], s / (2.0 * n * (n - 1)), scale)
    _close("omega1", doc["omega1"], (ricci(W, n) - (s / n) * np.eye(n)) / (n - 2), scale)
    _close("reassembled tensor", _components(doc, n), W, scale)
    _close("Ricci of omega2", ricci(np.asarray(doc["omega2"]), n), np.zeros((n, n)), scale)


def check_decompose_projected(doc: dict, W: np.ndarray, W_in: np.ndarray, n: int) -> None:
    """Parts of the Bianchi projection of W_in = W + perturbation.

    W lies in the Bianchi subspace, so the orthogonal projection P moves
    W_in by at most |W_in - W| and lands within that distance of W; it
    keeps the trace, since the part it removes lies in Lambda^4.
    """
    scale = max(np.linalg.norm(W_in), 1.0)
    _close("scalar_curvature", doc["scalar_curvature"], 2.0 * np.trace(W_in), scale)
    projected = _components(doc, n)
    limit = np.linalg.norm(W_in - W) + REL_TOL * scale
    for name, ref in (("input", W_in), ("unperturbed tensor", W)):
        dist = np.linalg.norm(projected - ref)
        if not dist <= limit:
            raise WrongOutput(f"projection is {dist:.3e} from the {name} (limit {limit:.3e})")
    _close("Ricci of omega2", ricci(np.asarray(doc["omega2"]), n), np.zeros((n, n)), scale)


def check_operator(doc: dict, W: np.ndarray, n: int, p: int) -> np.ndarray:
    """Order-p operator: symmetric, of size C(n,p), and with the trace of the
    full-contraction identity p! tr N_p = p (n-2)!/(n-p-1)! * 2 tr w.
    Returns the matrix."""
    N = np.asarray(doc["matrix"], dtype=float)
    m = comb(n, p)
    if N.shape != (m, m):
        raise WrongOutput(f"matrix: shape {N.shape}, expected {(m, m)}")
    norm = np.linalg.norm(N)
    _close("norm", doc["norm"], norm, max(norm, 1.0))
    _close("matrix symmetry", N, N.T, max(norm, 1.0))
    lhs = factorial(p) * np.trace(N)
    rhs = p * factorial(n - 2) / factorial(n - p - 1) * 2.0 * np.trace(W)
    _close("full contraction", lhs, rhs, factorial(p) * np.sqrt(m) * max(norm, 1.0))
    return N


def check_same_operator(formula: np.ndarray, definition: np.ndarray) -> None:
    """Closed form and commutator sum agree to REL_TOL relative."""
    err = np.linalg.norm(formula - definition)
    if not err <= REL_TOL * max(np.linalg.norm(definition), 1.0):
        raise WrongOutput(f"formula and definition differ by {err:.3e} (Frobenius)")


def _check_eigenvalues(name: str, got, matrix: np.ndarray) -> np.ndarray:
    want = np.linalg.eigvalsh(matrix)
    _close(name, got, want, max(float(np.max(np.abs(want), initial=0.0)), 1.0))
    return want


def check_spectrum(doc: dict, N: np.ndarray, samples: int) -> None:
    """Eigenvalues of N, and a minimum below every sampled sectional value."""
    eigs = _check_eigenvalues("eigenvalues", doc["eigenvalues"], N)
    scale = max(float(np.max(np.abs(eigs))), 1.0)
    _close("min_eigenvalue", doc["min_eigenvalue"], eigs[0], scale)
    if doc["sample_count"] != samples:
        raise WrongOutput(f"sample_count {doc['sample_count']}, expected {samples}")
    if not doc["min_eigenvalue"] <= doc["min_sampled_sectional"] + REL_TOL * scale:
        raise WrongOutput("min eigenvalue exceeds the min sampled sectional value")


def check_sectional(doc: dict, N: np.ndarray, samples: int) -> None:
    """Sampled values are Rayleigh quotients of N, so they lie in its spectrum's range."""
    values = np.asarray(doc["values"], dtype=float)
    if values.shape != (samples,):
        raise WrongOutput(f"{values.size} values, expected {samples}")
    eigs = np.linalg.eigvalsh(N)
    tol = REL_TOL * max(float(np.max(np.abs(eigs))), 1.0)
    if values.min() < eigs[0] - tol or values.max() > eigs[-1] + tol:
        raise WrongOutput("a sectional value lies outside the operator's spectrum")
    scale = max(float(np.max(np.abs(values))), 1.0)
    for stat in ("min", "max", "mean"):
        _close(stat, doc[stat], getattr(values, stat)(), scale)


def check_pcurvature(doc: dict, n: int, p: int) -> None:
    """Eigenvalues of the reported p-curvature matrix."""
    N = np.asarray(doc["matrix"], dtype=float)
    m = comb(n, p)
    if N.shape != (m, m):
        raise WrongOutput(f"matrix: shape {N.shape}, expected {(m, m)}")
    _check_eigenvalues("eigenvalues", doc["eigenvalues"], N)
