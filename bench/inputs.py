"""Seeded input files and the environment record of a benchmark run.

Curvature tensors are sums of exterior squares h.h of symmetric Gaussian
(1,1) forms, the same recipe as ``doubleforms.random_bianchi_22``, but
built here in plain numpy so that the inputs never depend on the program
under test:

    (h.h)(e_i^e_j, e_k^e_l) = 2 (h_ik h_jl - h_il h_jk).

Each square satisfies the first Bianchi identity, hence so does the sum.
Matrices use the program's basis order: 2-subsets of {1..n} in
lexicographic order.
"""

from __future__ import annotations

import itertools
import json
import os
import platform

import numpy as np


def pairs(n: int) -> np.ndarray:
    """0-based index pairs (i, j), i < j, in lexicographic order."""
    return np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64)


def random_curvature(rng: np.random.Generator, n: int) -> np.ndarray:
    """(2,2) coefficient matrix of a random algebraic curvature tensor."""
    P = pairs(n)
    i, j = P[:, 0], P[:, 1]
    W = np.zeros((len(P), len(P)))
    for _ in range(n * (n + 1) // 2 + 2):
        raw = rng.standard_normal((n, n))
        h = (raw + raw.T) / 2.0
        W += 2.0 * (h[np.ix_(i, i)] * h[np.ix_(j, j)] - h[np.ix_(i, j)] * h[np.ix_(j, i)])
    return (W + W.T) / 2.0


def non_bianchi_perturbation(rng: np.random.Generator, W: np.ndarray, size: float) -> np.ndarray:
    """W plus a symmetric Gaussian perturbation of relative Frobenius size."""
    raw = rng.standard_normal(W.shape)
    E = (raw + raw.T) / 2.0
    return W + (size * np.linalg.norm(W) / np.linalg.norm(E)) * E


def write_tensor(path: str, n: int, W: np.ndarray) -> None:
    """Write W in the program's tensor file format (upper triangle only)."""
    P = (pairs(n) + 1).tolist()
    entries = [
        {"ij": P[a], "kl": P[b], "value": float(W[a, b])}
        for a in range(len(P))
        for b in range(a, len(P))
        if W[a, b] != 0.0
    ]
    with open(path, "w") as fh:
        json.dump({"n": n, "entries": entries}, fh)


def environment() -> dict:
    """Interpreter, numpy, BLAS and CPU of this run."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.26 has no dict mode
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }
