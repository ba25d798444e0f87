"""Seeded verification suite for every identity the package implements.

Each identity is a generator of measurements: it sweeps (dimension, order,
seed) cells and yields, per cell, the residual, its note and the pinned
`Check` that judges it.  One loop, `_run_identity`, turns an identity's
measurements into records.  All randomness derives from the configured
base seed and the identity's name, so two runs with the same configuration
produce identical reports; wall-clock timings are kept out of the
canonical JSON serialization for that reason.

The sweeps over random curvature tensors draw the seeds of a cell (n, p)
in turn and evaluate them as one stack of coefficient matrices, shape
(seeds, C(n,2), C(n,2)): one call of the sampler, of the commutator-sum
oracle and of each closed form per stack (the private _*_stack kernels of
forms, weitzenboeck and random_tensors), where the per-form functions run
the same kernels on a stack of one.  The kernels gather member-major, so
their stacks are C-contiguous.  Each member adds its terms in the order a
stack of one would, and its norms and pairing sums are its own, taken
along the last axis of the flattened members by the kernels of
DoubleForm.norm and forms.inner (forms._norms and forms._pair_sums), so
every record is the one a per-seed loop gives.  A stack holds at most
_stack_size(n, p) seeds, which bounds its temporaries.  The
sampled trials of contraction_adjoint and star_contraction run the same
way, in blocks; these sizes, and those of metric_injectivity's unit
matrices, come from the one block budget, exterior._per_block.  The plane
checks take their minors in stacked determinants
(forms.plane_values), and the exhaustive Clifford checks multiply stacks
of basis elements in one clifford._mul_stack call each.

Every relative residual is _ratios' gap / max(scale, 1): on stacks (_rels),
on stacks of one and on the gaps an identity collects.  Every worst-of
reduction keeps a NaN (_largest, _smallest and contraction_orders' argmax
over its orders), so a NaN residual fails its record; the JSON report,
which cannot hold it, raises ValueError naming the identity.

The identities do not depend on each other, so `run_suite` runs them on
the usable CPUs: in workers forked from the caller with os.fork, one per
usable CPU up to one per selected identity (_in_workers).  The workers take
the identities one at a time from a pipe and send back each one's pickled
records, or the exception it raised, on a pipe of their own; the caller
puts the records back in `IDENTITIES` order, which keeps every report byte.
It runs them one after another in the calling process where there would be
one worker, where the platform cannot fork, and where the caller runs other
threads, since a forked child could inherit a lock one of them holds.
Every worker is reaped before `run_suite` returns or raises.  When an
identity raises, the workers run the others to their end, and the error of
the first failing identity in `IDENTITIES` order goes up; a worker that
dies without its records is such an error too.  Only an interrupted caller
kills its workers.  Each identity's timing is its own wall time in the
process that ran it, so the timings can add up to more than the run's.

The workers start warm.  This module loads numpy.random, so the parent
holds it before it forks and no worker imports it in its first task.  On
glibc each worker keeps the memory it frees (_keep_freed_heap), where it
would otherwise fault the kernels' temporaries in again on every call.
Where the C library has no mallopt, and in the calling process, which a
library must not retune, the allocator is left as it is.

The JSON report is written in pieces, one per record
(VerificationReport.json_pieces), so that the caller never holds its whole
text; the pieces join to the bytes of json.dumps with indent=2.

Most residuals are relative and "smaller is better"; rank checks record a
singular-value ratio and positivity checks record a smallest eigenvalue.
Their checks pass at or above the tolerance, and their records carry a
lower-bound flag (kept out of the JSON; the notes still say "pass when >").
"""

from __future__ import annotations

import json
import operator
import os
import pickle
import select
import signal
import sys
import threading
import time
import zlib
from dataclasses import asdict, dataclass, field
from functools import partial
from math import comb, factorial, isfinite
from itertools import combinations, permutations
from typing import Callable, Iterator

import numpy as np
from numpy.random import SeedSequence, default_rng

from .exterior import AlgebraContext, _as_int, _is_int, _per_block, subset_masks
from . import clifford as cl
from .forms import (
    CurvatureTensor,
    DoubleForm,
    _contract_stack,
    _member_table,
    _metric_stack,
    _norm,
    _norms,
    _pair_sums,
    _star_stack,
    contract,
    contract_iter,
    kn_product,
    metric_power,
    metric_product,
    plane_values,
)
from .random_tensors import (
    _curvature_stack,
    _factors,
    conformally_flat,
    constant_curvature,
    positive_operator_perturbation,
    random_bianchi_22,
    random_form,
    weyl_part_tensor,
)
from .tensorio import bianchi_projector
from . import weitzenboeck as wz

__all__ = ["SuiteConfig", "IdentityRecord", "VerificationReport", "run_suite", "IDENTITIES"]

# Tolerances pinned per identity; "config" means the configurable main
# relative tolerance (default 1e-9).
_TOL_ADJOINT = 1e-10
_TOL_RATIO = 1e-10
_TOL_EXACT = 1e-12
_TOL_SPREAD_WITNESS = 1e-3


@dataclass(frozen=True)
class SuiteConfig:
    """The suite's parameters, checked when built, so that no bad value
    reaches a run or the report.  The counts, dimensions and base seed take
    the package's integer rule (exterior._as_int) and a numpy integer is
    stored as int, as is an integer tolerance."""

    n_min: int = 4
    n_max: int = 6
    seeds: int = 10
    trials: int = 100
    tolerance: float = 1e-9
    extended: bool = False
    base_seed: int = 42
    identities: tuple[str, ...] | None = None

    def _top(self) -> int:
        """The largest dimension the run sweeps: --extended reaches 8."""
        return max(8, self.n_max) if self.extended else self.n_max

    def dimensions(self) -> list[int]:
        return list(range(self.n_min, self._top() + 1))

    def __post_init__(self) -> None:
        for name, lo in (("n_min", None), ("n_max", None), ("seeds", 1), ("trials", 1), ("base_seed", None)):
            object.__setattr__(self, name, _as_int(getattr(self, name), name, lo))
        if _is_int(self.tolerance):
            object.__setattr__(self, "tolerance", int(self.tolerance))
        elif not isinstance(self.tolerance, float):
            raise ValueError(f"tolerance must be a real number, got {self.tolerance!r}")
        if not isinstance(self.extended, bool):
            raise ValueError(f"extended must be True or False, got {self.extended!r}")
        if self.identities is not None and (not isinstance(self.identities, (tuple, list))
                                            or not all(isinstance(name, str) for name in self.identities)):
            raise ValueError(f"identities must be a tuple or list of names, got {self.identities!r}")
        if not 4 <= self.n_min <= 10 or not 4 <= self.n_max <= 10:
            raise ValueError(f"dimension range must lie within [4, 10], got [{self.n_min}, {self.n_max}]")
        if not self.dimensions():
            raise ValueError(f"empty dimension range [{self.n_min}, {self._top()}]")
        if not 0 < self.tolerance < float("inf"):
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance}")
        if not 0 <= self.base_seed < 2 ** 32:
            raise ValueError(f"base seed must lie in [0, 2**32), got {self.base_seed}")
        if self.identities is not None:
            if not self.identities:  # None selects every identity; an empty suite would pass vacuously
                raise ValueError("identities must name at least one identity, got an empty selection")
            unknown = set(self.identities) - set(IDENTITIES)
            if unknown:
                raise ValueError(f"unknown identities: {sorted(unknown)}")


@dataclass(frozen=True)
class Check:
    """How a residual is judged: compare(residual, tolerance), where a
    tolerance of None means the configured one.  lower_bound marks the
    checks a residual passes by staying above its tolerance."""

    tolerance: float | None
    compare: Callable[[float, float], bool] = operator.le
    lower_bound: bool = False

    def judge(self, residual: float, cfg: SuiteConfig) -> tuple[float, bool]:
        tol = cfg.tolerance if self.tolerance is None else self.tolerance
        return tol, bool(self.compare(residual, tol))


MAIN = Check(None)
ADJOINT = Check(_TOL_ADJOINT)
EXACT = Check(_TOL_EXACT)
RATIO = Check(_TOL_RATIO, operator.ge, lower_bound=True)
POSITIVE = Check(0.0, operator.gt, lower_bound=True)
WITNESS = Check(_TOL_SPREAD_WITNESS, operator.gt, lower_bound=True)
# a positivity chain whose hypothesis fails asserts nothing
VACUOUS = Check(0.0, lambda residual, tol: True, lower_bound=True)
# the fitted-factor diagnostic reports a failure that other records show
FITTED = Check(0.0, lambda residual, tol: False)

#: One cell's measurement: (n, p, seed, residual, note, check).
Measurement = tuple[int, int | None, int, float, str, Check]


@dataclass
class IdentityRecord:
    identity: str
    n: int
    p: int | None
    seed: int
    residual: float
    tolerance: float
    passed: bool
    note: str = ""
    lower_bound: bool = False  # passes above its tolerance; not serialized


def worst_text(records: list[IdentityRecord]) -> str:
    """The worst residual of a group: the largest among records that pass
    at or below their tolerance, the smallest among lower-bound records."""
    below = [r.residual for r in records if not r.lower_bound]
    above = [r.residual for r in records if r.lower_bound]
    parts = [f"{float(np.max(below)):.3e}"] if below else []
    if above:
        parts.append(f"{float(np.min(above)):.3e}" + (" (lower bound)" if below else ""))
    return "worst=" + ", ".join(parts)


@dataclass
class VerificationReport:
    config: dict
    records: list[IdentityRecord]
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def summary(self) -> dict:
        by_id: dict[str, dict] = {}
        for r in self.records:
            cell = by_id.setdefault(r.identity, {"records": 0, "failures": 0})
            cell["records"] += 1
            if not r.passed:
                cell["failures"] += 1
        return {
            "total": len(self.records),
            "failures": sum(1 for r in self.records if not r.passed),
            "passed": self.passed,
            "identities": by_id,
        }

    def json_pieces(self) -> Iterator[str]:
        """The canonical JSON report, json.dumps(doc, indent=2,
        sort_keys=True, allow_nan=False) and a newline, in pieces: the
        config, then one piece per record, then the summary.  ValueError
        names the first record whose residual is not finite, which JSON
        cannot hold, before the first piece."""
        bad = next((r for r in self.records if not isfinite(r.residual)), None)
        if bad is not None:
            raise ValueError(f"identity {bad.identity} has a non-finite residual {bad.residual} "
                             f"at n={bad.n}, p={bad.p}, seed={bad.seed}")

        def text(value, indent: str) -> str:  # value as it reads at that depth of the document
            return json.dumps(value, indent=2, sort_keys=True, allow_nan=False).replace("\n", indent)

        yield '{\n  "config": ' + text(self.config, "\n  ") + ',\n  "records": ['
        sep = "\n    "
        # timings are excluded so equal seeds give byte-identical reports;
        # the fields are read directly, as asdict would deep-copy each record
        for r in self.records:
            yield sep + text({"identity": r.identity, "n": r.n, "p": r.p, "seed": r.seed, "residual": r.residual,
                              "tolerance": r.tolerance, "passed": r.passed, "note": r.note}, "\n    ")
            sep = ",\n    "
        yield ("]" if sep == "\n    " else "\n  ]") + ',\n  "summary": ' + text(self.summary(), "\n  ") + "\n}\n"

    def to_json(self) -> str:
        """The canonical JSON report, json_pieces joined."""
        return "".join(self.json_pieces())

    def human_lines(self) -> list[str]:
        lines = []
        for name in IDENTITIES:
            recs = [r for r in self.records if r.identity == name]
            if not recs:
                continue
            bad = [r for r in recs if not r.passed]
            status = "PASS" if not bad else f"FAIL ({len(bad)}/{len(recs)})"
            timing = self.timings.get(name)
            suffix = f"  [{timing:.2f}s]" if timing is not None else ""
            lines.append(f"{name:28s} {status:10s} records={len(recs):4d} {worst_text(recs)}{suffix}")
            for r in bad[:5]:
                lines.append(
                    f"    FAIL n={r.n} p={r.p} seed={r.seed} residual={r.residual:.6e} "
                    f"tol={r.tolerance:.1e} {r.note}"
                )
        lines.append(f"suite: {'PASS' if self.passed else 'FAIL'} "
                     f"({len(self.records)} records, {sum(1 for r in self.records if not r.passed)} failures)")
        return lines


def _seedseq(cfg: SuiteConfig, identity: str, *key: int) -> SeedSequence:
    entropy = [cfg.base_seed, zlib.crc32(identity.encode())]
    entropy.extend(int(k) & 0xFFFFFFFF for k in key)
    return SeedSequence(entropy)


def _rng(cfg: SuiteConfig, identity: str, *key: int) -> np.random.Generator:
    return default_rng(_seedseq(cfg, identity, *key))


def _ratios(gaps: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """The suite's one relative residual, gaps / max(scales, 1) member by
    member; a NaN stays NaN, and inf / inf reads NaN without a warning."""
    with np.errstate(invalid="ignore"):
        return gaps / np.maximum(scales, 1.0)


def _rels(actual: np.ndarray, expected: np.ndarray) -> list[float]:
    """|actual - expected| / max(|expected|, 1) for each member of two stacks
    of coefficient matrices, with the norm of DoubleForm.norm (_norms)."""
    return _ratios(_norms(actual - expected), _norms(expected)).tolist()


def _largest(values) -> float:
    """The largest of values and 0.0, NaN when any value is NaN: max() drops
    a NaN that does not come first, which would let a NaN residual pass."""
    return float(np.max(values, initial=0.0))


def _smallest(values) -> float:
    """The smallest of values, NaN when any value is NaN (see _largest)."""
    return float(np.min(values))


def _cells(cfg: SuiteConfig) -> Iterator[tuple[int, int, AlgebraContext]]:
    """(n, p, context) over 2 <= p <= n-2 of the configured dimensions."""
    for n in cfg.dimensions():
        ctx = AlgebraContext(n)
        yield from ((n, p, ctx) for p in range(2, n - 1))


def _draws(cfg: SuiteConfig, identity: str, ctx: AlgebraContext, keys) -> np.ndarray:
    """random_bianchi_22 of the seed sequence of each key, as one stack of
    checked coefficient matrices (members, C(n,2), C(n,2))."""
    return _curvature_stack(_factors([_seedseq(cfg, identity, *key) for key in keys], ctx.n), ctx)


def _stack_size(n: int, p: int, contracted: bool = False) -> int:
    """Members of one stack at (n, p): _per_block of the most terms a member
    gathers in the oracle, C(n,p) (p(n-p))^2, and for a contracted identity
    in each contraction from degree p down, C(n,k)^2 (n-k) from degree k+1
    to k, so that the stacked kernels' temporaries stay small."""
    chain = [comb(n, k) ** 2 * (n - k) for k in range(p)] if contracted else []
    return _per_block(max([comb(n, p) * (p * (n - p)) ** 2, *chain]))


def _sweep(cfg: SuiteConfig, identity: str, seeds: int,
           contracted: bool = False) -> Iterator[tuple[int, int, int, np.ndarray]]:
    """(n, p, t, stack of random curvature tensors for the seeds t, t+1, ...):
    each cell's seeds in stacks of at most _stack_size(n, p, contracted)."""
    for n, p, ctx in _cells(cfg):
        step = _stack_size(n, p, contracted)
        for t in range(0, seeds, step):
            yield n, p, t, _draws(cfg, identity, ctx, [(n, p, s) for s in range(t, min(seeds, t + step))])


def _min_eig(form: DoubleForm) -> float:
    return float(wz.jacobi_eigenvalues(form.coeffs)[0])


def _ratio(matrix: np.ndarray, note: str) -> tuple[float, str, Check]:
    """Smallest over largest singular value, with its note and check."""
    sv = np.linalg.svd(matrix, compute_uv=False)
    ratio = float(sv[-1] / sv[0]) if sv.size and sv[0] > 0 else 0.0
    return ratio, note + "; singular value ratio (pass when >= tolerance)", RATIO


def _trials(cfg: SuiteConfig, identity: str, degrees, terms,
            residuals) -> Iterator[tuple[int, int, float]]:
    """(n, p, largest of cfg.trials residuals, NaN if any is NaN) for
    0 <= p < n.

    A trial draws one square coefficient matrix per degree of degrees(p),
    in turn, and terms(n, p) is the most terms one trial gathers in one
    kernel call.  A block of trials, _per_block(terms(n, p)) of them, draws
    its numbers in one call and splits them by columns, which gives each
    trial the numbers of its own draws; residuals(n, p, *stacks) returns
    the block's residuals in trial order.
    """
    for n in cfg.dimensions():
        for p in range(0, n):
            rng = _rng(cfg, identity, n, p)
            dims = [comb(n, d) for d in degrees(p)]
            ends = np.cumsum([d * d for d in dims])
            width = int(ends[-1])
            block = _per_block(terms(n, p))
            maxima = []
            for start in range(0, cfg.trials, block):
                raw = rng.standard_normal((min(block, cfg.trials - start), width))
                stacks = [x.reshape(-1, d, d) for x, d in zip(np.split(raw, ends[:-1], axis=1), dims)]
                maxima.append(_largest(residuals(n, p, *stacks)))
            yield n, p, _largest(maxima)


def _positive_scalar(w: CurvatureTensor) -> tuple[CurvatureTensor, float]:
    """w with its sign flipped if needed to meet the positive-scalar hypothesis, and its scalar."""
    s = contract_iter(w.form, 2).scalar()
    return (CurvatureTensor(-1.0 * w.form), -s) if s < 0 else (w, s)


# -- identities -------------------------------------------------------------


def _run_closed_form(cfg: SuiteConfig) -> Iterator[Measurement]:
    for n, p, t, W in _sweep(cfg, "closed_form", cfg.seeds):
        residuals = _rels(wz._formula_stack(W, n, p), wz._definition_stack(W, n, p))
        yield from ((n, p, seed, r, "", MAIN) for seed, r in enumerate(residuals, t))


def _run_hodge_duality(cfg: SuiteConfig) -> Iterator[Measurement]:
    for n, p, t, W in _sweep(cfg, "hodge_duality", cfg.seeds):
        dual = _star_stack(wz._definition_stack(W, n, p), n, p, p)
        note = "self-dual cell" if n == 2 * p else ""
        for seed, r in enumerate(_rels(dual, wz._definition_stack(W, n, n - p)), t):
            yield n, p, seed, r, note, MAIN


def _run_contraction_adjoint(cfg: SuiteConfig) -> Iterator[Measurement]:
    # <g.w1, w2> by the metric-power gather against <w1, c w2> by the contraction scatter
    def terms(n, p):  # the product and the contraction each gather n C(n-1,p)^2 per pair
        return n * comb(n - 1, p) ** 2

    def residuals(n, p, W1, W2):
        lifted, lowered = _metric_stack(1, W1, n, p, p), _contract_stack(W2, n, p + 1, p + 1)
        gaps = np.abs(_pair_sums(lifted, W2) - _pair_sums(W1, lowered))
        return _ratios(gaps, _norms(W1) * _norms(W2))

    for n, p, worst in _trials(cfg, "contraction_adjoint", lambda p: (p, p + 1), terms, residuals):
        yield n, p, 0, worst, f"max over {cfg.trials} pairs", ADJOINT


def _run_star_contraction(cfg: SuiteConfig) -> Iterator[Measurement]:
    # g.w against *c*w
    def terms(n, p):  # the two stars, and the contraction and the product
        return max(comb(n, p) ** 2, comb(n, p + 1) ** 2, n * comb(n - 1, p) ** 2)

    def residuals(n, p, W):
        q = n - p
        back = _star_stack(_contract_stack(_star_stack(W, n, p, p), n, q, q), n, q - 1, q - 1)
        return _ratios(_norms(_metric_stack(1, W, n, p, p) - back), _norms(W))

    for n, p, worst in _trials(cfg, "star_contraction", lambda p: (p,), terms, residuals):
        yield n, p, 0, worst, f"max over {cfg.trials} forms", ADJOINT


def _run_metric_injectivity(cfg: SuiteConfig) -> Iterator[Measurement]:
    for n in [n for n in cfg.dimensions() if n <= 6]:
        ctx = AlgebraContext(n)
        for p in range(0, n // 2 + 1):
            dim = ctx.dim(p)
            for k in range(0, n - 2 * p + 1):
                # the unit matrices in blocks, each block's images one stacked product
                cols = np.empty((dim * dim, ctx.dim(p + k) ** 2))
                step = _per_block(cols.shape[1])
                for start in range(0, len(cols), step):
                    units = np.zeros((min(step, len(cols) - start), dim * dim))
                    units[:, start:start + len(units)] = np.eye(len(units))
                    images = _metric_stack(k, units.reshape(-1, dim, dim), n, p, p)
                    cols[start:start + len(units)] = images.reshape(len(units), -1)
                yield n, p, k, *_ratio(cols.T, f"multiplication by g^{k}")


def _bianchi_basis(n: int) -> np.ndarray:
    """Orthonormal basis (as columns) of the symmetric Bianchi (2,2) subspace."""
    u, s, _ = np.linalg.svd(bianchi_projector(n))
    return u[:, s > 0.5]


def _run_weitzenboeck_injectivity(cfg: SuiteConfig) -> Iterator[Measurement]:
    for n in [n for n in cfg.dimensions() if n <= 6]:
        ctx = AlgebraContext(n)
        dim = ctx.dim(2)
        basis = _bianchi_basis(n)
        members = basis.T.reshape(-1, dim, dim)
        for p in range(2, n - 1):
            cols = wz._formula_stack(members, n, p).reshape(len(members), -1)
            note = f"order-{p} map on the {basis.shape[1]}-dim Bianchi space"
            if n == 2 * p:
                # the splitting coefficient (n-2p) kills g.h for traceless h
                # here, so the map genuinely has a kernel at n = 2p
                note += "; n = 2p cell where the traceless-Ricci block maps to zero"
            yield n, p, 0, *_ratio(cols.T, note)


def _run_contraction_orders(cfg: SuiteConfig) -> Iterator[Measurement]:
    factors, failures, cells = [], 0, 0
    for n, p, first, W in _sweep(cfg, "contraction_orders", cfg.seeds, contracted=True):
        lhs, orders = wz._definition_stack(W, n, p), []
        for k in range(0, p + 1):
            # the k-fold contraction of the oracle, one contraction on from k - 1
            if k:
                lhs = _contract_stack(lhs, n, p - k + 1, p - k + 1)
            rhs = wz._contraction_rhs_stack(W, n, p, k)
            orders.append(_rels(lhs, rhs))
            for m, r in enumerate(orders[-1]):
                if not MAIN.judge(r, cfg)[1] and (denom := float(np.sum(rhs[m] * rhs[m]))) > 0:
                    factors.append(float(np.sum(lhs[m] * rhs[m])) / denom)
        rels = np.array(orders)  # (orders, members); argmax takes the first NaN, else the first largest
        for m, k in enumerate(np.argmax(rels, axis=0).tolist()):
            worst = float(rels[k, m])
            cells += 1
            failures += not MAIN.judge(worst, cfg)[1]
            yield n, p, first + m, worst, f"worst at k={k}" if worst else "", MAIN
    if failures and failures >= max(2, cells // 2) and factors:
        arr = np.asarray(factors)
        if np.max(np.abs(arr - arr.mean())) <= 1e-3 * max(abs(arr.mean()), 1e-12):
            yield 0, None, -1, float(arr.mean()), (
                f"systematic mismatch: oracle contraction = {arr.mean():.9f} x closed form "
                f"across {failures} failing cells"), FITTED


def _run_einstein_alternative(cfg: SuiteConfig) -> Iterator[Measurement]:
    for n, p, t, W in _sweep(cfg, "einstein_alternative", min(cfg.seeds, 5)):
        residuals = _rels(wz._einstein_rhs_stack(W, n, p), wz._contraction_rhs_stack(W, n, p, p - 1))
        yield from ((n, p, seed, r, "", ADJOINT) for seed, r in enumerate(residuals, t))


def _run_splitting(cfg: SuiteConfig) -> Iterator[Measurement]:
    for n, p, t, W in _sweep(cfg, "splitting", cfg.seeds):
        split = wz._split_stack(*wz._decompose_stack(W, n), n, p)
        residuals = _rels(split, wz._definition_stack(W, n, p))
        yield from ((n, p, seed, r, "", MAIN) for seed, r in enumerate(residuals, t))


def _run_decomposition(cfg: SuiteConfig) -> Iterator[Measurement]:
    for n in cfg.dimensions():
        W = _draws(cfg, "decomposition", AlgebraContext(n), [(n, 0, t) for t in range(cfg.seeds)])
        omega2, omega1, omega0 = wz._decompose_stack(W, n)
        rebuilt = omega2 + _metric_stack(1, omega1, n, 1, 1) + wz._times_metric_power(2, omega0, n)
        traces = np.maximum(_norms(_contract_stack(omega2, n, 2, 2)),
                            np.abs(_contract_stack(omega1, n, 1, 1)[:, 0, 0]))
        norms = _norms(W)
        reassembly, trace_free = _ratios(_norms(W - rebuilt), norms), _ratios(traces, norms)
        for t in range(len(W)):
            yield n, None, t, float(reassembly[t]), "reassembly", MAIN
            yield n, None, t, float(trace_free[t]), "trace-free parts", ADJOINT


def _run_constant_curvature(cfg: SuiteConfig) -> Iterator[Measurement]:
    for n in range(4, 9):  # pinned range, independent of the sweep dimensions
        ctx = AlgebraContext(n)
        w = constant_curvature(1.0, ctx)
        for p in range(0, n + 1):
            npdef, expected = wz.np_definition(w, p), (p * (n - p) / factorial(p)) * metric_power(p, ctx)
            r = _rels(npdef.coeffs[None], expected.coeffs[None])[0]
            note = "unit-curvature closed form"
            if 1 <= p <= n - 1:
                target = p * factorial(n) / factorial(n - p - 1)
                r = _largest([r, _ratios(abs(contract_iter(npdef, p).scalar() - target), abs(target))])
                note += " and full contraction"
            yield n, p, 0, r, note, EXACT


def _run_clifford_ad_rule(cfg: SuiteConfig) -> Iterator[Measurement]:
    for n in (4, 5, 6):  # exhaustive at the pinned dimensions
        units = np.eye(2 ** n)  # the basis element of each subset, by mask
        pairs = subset_masks(n, 2)
        low = pairs & -pairs  # e_i of each pair (i, j), and e_j = pair - e_i
        phi = cl._mul_stack(units[low], units[pairs - low], n)
        # every pair with every subset S: ad_{e_i.e_j} e_S against 2 e_i.e_j.e_S
        # where exactly one of i, j lies in S, and 0 elsewhere
        phis, psis = np.repeat(phi, len(units), axis=0), np.tile(units, (len(pairs), 1))
        left = cl._mul_stack(phis, psis, n)
        overlap = pairs[:, None] & np.arange(len(units))
        single = ((overlap != 0) & (overlap != pairs[:, None])).ravel()
        want = np.where(single[:, None], 2.0 * left, 0.0)
        worst = _largest(np.linalg.norm(left - cl._mul_stack(psis, phis, n) - want, axis=1))
        yield n, None, 0, worst, "exhaustive over pairs and subsets", EXACT


def _run_wedge_recovery(cfg: SuiteConfig) -> Iterator[Measurement]:
    for n in (4, 5, 6):
        units = np.eye(2 ** n)  # the basis element of each subset, by mask
        gaps = []
        for p in range(1, 5):
            perms = list(permutations(range(p)))
            # the generators e_i of every subset I, as masks, in the order of each permutation
            gens = (1 << _member_table(n, p))[:, perms].reshape(-1, p)
            prod = units[gens[:, 0]]
            for a in range(1, p):
                prod = cl._mul_stack(prod, units[gens[:, a]], n)
            prod = prod.reshape(-1, len(perms), len(units))
            acc = np.zeros((len(prod), len(units)))
            for k, perm in enumerate(perms):
                acc = acc + (-1) ** sum(a > b for a, b in combinations(perm, 2)) * prod[:, k]
            gap = (1.0 / factorial(p)) * acc - units[gens[::len(perms)].sum(axis=1)]
            gaps.append(_largest(np.linalg.norm(gap, axis=1)))
        yield n, None, 0, _largest(gaps), "antisymmetrized products, p <= 4", EXACT


def _run_clifford_associativity(cfg: SuiteConfig) -> Iterator[Measurement]:
    dims = cfg.dimensions()
    per_cell = max(1, (max(cfg.trials, 100) + len(dims) - 1) // len(dims))
    for n in dims:
        ctx = AlgebraContext(n)
        rng = _rng(cfg, "clifford_associativity", n)
        gaps, scales = [], []
        for _ in range(per_cell):
            a, b, c = (cl.CliffordElement(rng.standard_normal(2 ** n), ctx) for _ in range(3))
            lhs = cl.clifford_mul(cl.clifford_mul(a, b), c)
            rhs = cl.clifford_mul(a, cl.clifford_mul(b, c))
            gaps.append((lhs - rhs).norm())
            scales.append(a.norm() * b.norm() * c.norm())
        worst = _largest(_ratios(np.array(gaps), np.array(scales)))
        yield n, None, 0, worst, f"{per_cell} random triples", EXACT


_MID_DEGREE_CELLS = ((6, 2), (7, 3), (8, 2), (8, 4))


def _run_mid_degree(cfg: SuiteConfig) -> Iterator[Measurement]:
    for n, p in _MID_DEGREE_CELLS:  # every even n+p with a comparable order, n <= 8
        ctx = AlgebraContext(n)
        instances = [
            ("generic", random_bianchi_22(_seedseq(cfg, "mid_degree", n, p, 0), ctx)),
            ("conformally flat", conformally_flat(_seedseq(cfg, "mid_degree", n, p, 1), ctx)),
            ("pure Weyl", weyl_part_tensor(_seedseq(cfg, "mid_degree", n, p, 2), ctx)),
        ]
        for t, (label, w) in enumerate(instances):
            rhs, lhs = wz.np_midpoint_formula(w, p), wz.np_definition(w, (n + p) // 2)
            yield n, p, t, _rels(rhs.coeffs[None], lhs.coeffs[None])[0], label, MAIN


def _run_sectional_sum(cfg: SuiteConfig) -> Iterator[Measurement]:
    for n, p, first, W in _sweep(cfg, "sectional_sum", min(cfg.seeds, 3)):
        ctx = AlgebraContext(n)
        for t, (w, image) in enumerate(zip(W, wz._definition_stack(W, n, p)), first):
            rng = _rng(cfg, "sectional_sum", n, p, t)
            frames = wz.sample_frames(rng, n, n, 5)
            lhs = plane_values(image, frames[:, :, :p], ctx)
            # the value on e_1..e_p is the sum over the 2-planes e_i ^ e_j, i < p <= j
            pairs = [(i, j) for i in range(p) for j in range(p, n)]
            planes = frames[:, :, pairs].transpose(0, 2, 1, 3).reshape(-1, n, 2)
            rhs = plane_values(w, planes, ctx).reshape(5, -1).sum(-1)
            yield n, p, t, _largest(_ratios(np.abs(lhs - rhs), np.abs(rhs))), "5 random planes", MAIN


def _run_adjoint_pairing(cfg: SuiteConfig) -> Iterator[Measurement]:
    for n, p, ctx in _cells(cfg):
        rng = _rng(cfg, "adjoint_pairing", n, p)  # one stream for every draw of the cell
        maxima, step = [], _stack_size(n, p, contracted=True)
        for start in range(0, 20, step):
            # each pair's draws in turn, as random_bianchi_22 and random_form take them
            factors, raw = [], np.empty((min(step, 20 - start), ctx.dim(p), ctx.dim(p)))
            for draw in raw:
                factors.append(_factors([rng], n)[0])
                draw[:] = rng.standard_normal(draw.shape)
            A = _curvature_stack(np.array(factors), ctx)
            B = (raw + raw.transpose(0, 2, 1)) / 2.0
            lhs, rhs = _pair_sums(wz._definition_stack(A, n, p), B), _pair_sums(A, wz._adjoint_stack(B, n, p))
            maxima.append(_largest(_ratios(np.abs(lhs - rhs), _norms(A) * _norms(B))))
        yield n, p, 0, _largest(maxima), "20 random pairs", MAIN


def _run_tachibana(cfg: SuiteConfig) -> Iterator[Measurement]:
    for n in [n for n in cfg.dimensions() if n % 2 == 0]:
        p, ctx = n // 2, AlgebraContext(n)
        rng = _rng(cfg, "tachibana", n, p)  # one stream for both records
        # conformally flat with n = 2p: sectional values must be constant
        w = conformally_flat(_seedseq(cfg, "tachibana", n, p, 0), ctx)
        values = plane_values(wz.np_definition(w, p).coeffs, wz.sample_frames(rng, n, p, 20), ctx)
        spread = float(_ratios(values.max() - values.min(), np.abs(values).max()))
        yield n, p, 0, spread, "conformally flat, n = 2p", MAIN
        # witness: a unit-norm tensor with Weyl part must show visible spread
        witness = weyl_part_tensor(_seedseq(cfg, "tachibana", n, p, 1), ctx)
        wform = witness.form / max(witness.form.norm(), 1e-12)
        values = plane_values(wz.np_definition(wform, p).coeffs, wz.sample_frames(rng, n, p, 40), ctx)
        note = "Weyl witness; sectional spread (pass when > tolerance)"
        yield n, p, 1, float(values.max() - values.min()), note, WITNESS


def _run_kn_algebra(cfg: SuiteConfig) -> Iterator[Measurement]:
    for n in cfg.dimensions():
        ctx = AlgebraContext(n)
        rng = _rng(cfg, "kn_algebra", n)
        gaps, scales = [], []
        for degrees in ((1, 1, 1), (1, 1, 2), (1, 2, 1)):
            if sum(degrees) > n:
                continue
            for _ in range(5):
                a, b, c = (random_form(rng, d, d, ctx, symmetric=True) for d in degrees)
                ab = kn_product(a, b)
                assoc = kn_product(ab, c) - kn_product(a, kn_product(b, c))
                gaps += [(ab - kn_product(b, a)).norm(), assoc.norm()]
                scales += [a.norm() * b.norm(), a.norm() * b.norm() * c.norm()]
        # the grade-2 part of the Clifford product of vectors is a ^ b: an
        # independent sign rule for the shuffle table of the (1,0) x (1,0) product
        a, b = rng.standard_normal((2, n))
        wedge = kn_product(DoubleForm(1, 0, a[:, None], ctx), DoubleForm(1, 0, b[:, None], ctx))
        clifford = cl.clifford_mul(cl.from_vector(ctx, a), cl.from_vector(ctx, b))
        gaps.append(_norm(wedge.coeffs[:, 0] - clifford.coeffs[subset_masks(n, 2)]))
        scales.append(_norm(a) * _norm(b))
        worst = _largest(_ratios(np.array(gaps), np.array(scales)))
        yield n, None, 0, worst, "commutativity and associativity", EXACT


def _run_meyer_positivity(cfg: SuiteConfig) -> Iterator[Measurement]:
    dims = cfg.dimensions()
    counts = [20 // len(dims) + (1 if i < 20 % len(dims) else 0) for i in range(len(dims))]
    for n, count in zip(dims, counts):
        ctx = AlgebraContext(n)
        for t in range(count):
            w = positive_operator_perturbation(_seedseq(cfg, "meyer_positivity", n, 0, t), ctx)
            smallest = _smallest([_min_eig(wz.np_definition(w, p)) for p in range(2, n - 1)])
            note = f"input operator min eig {_min_eig(w.form):.3f}; smallest N_p eig (pass when > 0)"
            yield n, None, t, smallest, note, POSITIVE


def _run_scalar_positivity(cfg: SuiteConfig) -> Iterator[Measurement]:
    for n in cfg.dimensions():
        ctx = AlgebraContext(n)
        for t in range(5):
            w, s = _positive_scalar(random_bianchi_22(_seedseq(cfg, "scalar_positivity", n, 0, t), ctx))
            worst = _smallest([contract_iter(wz.np_definition(w, p), p).scalar() for p in range(1, n)])
            note = f"scalar {s:.3f} > 0; smallest c^p(N_p), 1 <= p <= n-1 (pass when > 0)"
            yield n, None, t, worst, note, POSITIVE
        # positivity chain: a positive operator instance must have positive scalar
        w = positive_operator_perturbation(_seedseq(cfg, "scalar_positivity", n, 1), ctx)
        smallest = _smallest([_min_eig(wz.np_definition(w, p)) for p in range(2, n - 1)])
        note = f"min N_p eig {smallest:.3f}; scalar must follow positive (pass when > 0)"
        # only a hypothesis shown to fail (not a NaN one) makes the chain vacuous
        check = VACUOUS if smallest <= 0.0 else POSITIVE
        yield n, None, 99, contract_iter(w.form, 2).scalar(), note, check


def _run_contracted_positivity(cfg: SuiteConfig) -> Iterator[Measurement]:
    # case 1: n = 2p + 2 with positive scalar curvature
    for n in [n for n in cfg.dimensions() if n % 2 == 0 and n >= 6]:
        p, ctx = n // 2 - 1, AlgebraContext(n)
        for t in range(5):
            w, _ = _positive_scalar(random_bianchi_22(_seedseq(cfg, "contracted_positivity", n, p, t), ctx))
            note = "case 1: n=2p+2, positive scalar; min eig (pass when > 0)"
            yield n, p, t, _min_eig(contract_iter(wz.np_definition(w, p), p - 1)), note, POSITIVE
    # case 2: n <= 2p + 2 with positive Einstein tensor; case 3: n >= 2p + 2
    # with positive Ricci tensor.  A draw that misses the hypothesis asserts nothing.
    cases = ((1000, "case 2: n<=2p+2, Einstein", lambda n, p: n <= 2 * p + 2, wz.einstein_tensor),
             (2000, "case 3: n>=2p+2, Ricci", lambda n, p: n >= 2 * p + 2, lambda w: contract(w.form)))
    for key, label, applies, hypothesis in cases:
        for n, p, ctx in _cells(cfg):
            if not applies(n, p):
                continue
            h = random_form(_rng(cfg, "contracted_positivity", n, p, key), 1, 1, ctx, symmetric=True)
            shifted = DoubleForm(1, 1, np.eye(n) + 0.15 * h.coeffs, ctx)
            w = CurvatureTensor(metric_product(1, shifted).symmetrized())
            hyp_min = _min_eig(hypothesis(w))
            if hyp_min > 0:
                note = f"{label} min eig {hyp_min:.3f} > 0; min eig (pass when > 0)"
                yield n, p, key, _min_eig(contract_iter(wz.np_definition(w, p), p - 1)), note, POSITIVE


#: Every identity in report order, keyed by its generator's name.
IDENTITIES: dict[str, Callable[[SuiteConfig], Iterator[Measurement]]] = {
    run.__name__.removeprefix("_run_"): run for run in (
        _run_closed_form, _run_hodge_duality, _run_contraction_adjoint, _run_star_contraction,
        _run_metric_injectivity, _run_weitzenboeck_injectivity, _run_contraction_orders,
        _run_einstein_alternative, _run_splitting, _run_decomposition, _run_constant_curvature,
        _run_clifford_ad_rule, _run_wedge_recovery, _run_clifford_associativity, _run_mid_degree,
        _run_sectional_sum, _run_adjoint_pairing, _run_tachibana, _run_kn_algebra,
        _run_meyer_positivity, _run_scalar_positivity, _run_contracted_positivity)
}


def _run_identity(name: str, cfg: SuiteConfig) -> tuple[list[IdentityRecord], float]:
    """One identity's records and its wall time in the process that ran it."""
    start = time.perf_counter()
    records = []
    for n, p, seed, residual, note, check in IDENTITIES[name](cfg):
        tol, passed = check.judge(residual, cfg)
        records.append(IdentityRecord(name, n, p, seed, residual, tol, passed, note, check.lower_bound))
    return records, time.perf_counter() - start


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# glibc's mallopt parameters M_TRIM_THRESHOLD (-1) and M_MMAP_THRESHOLD (-3),
# and the values each forked worker sets.  The suite's blocked kernels
# allocate and free 0.5-2 MB temporaries on every call; by default glibc
# serves them from fresh mmaps and returns them to the system, so the next
# call faults the same pages in again.  Below 4 MB they come from the heap,
# and up to 64 MB of freed heap stays in the worker.  Both are set: either
# one alone turns off glibc's dynamic threshold and made the suite slower.
_TRIM_THRESHOLD = (-1, 64 << 20)
_MMAP_THRESHOLD = (-3, 4 << 20)


def _keep_freed_heap() -> None:
    """Called first in each forked worker: it keeps the memory it frees (glibc's
    mallopt); it does nothing where the C library has no mallopt."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # no C library to load, or not glibc's
        return
    mallopt(*_TRIM_THRESHOLD)
    mallopt(*_MMAP_THRESHOLD)


def _in_workers(run: Callable, tasks: list, workers: int) -> list:
    """run(task) of each task, in the order of tasks, from workers forked
    from this process; see the module docstring.

    The parent writes the task indices, one byte each, to one pipe before
    it forks, so each worker takes the next index until the pipe is empty.
    A worker sends back each task's result, or the exception it raised, as
    one length-prefixed pickle on a pipe of its own, and leaves through
    os._exit.  The parent drains every worker's pipe, reaps every worker on
    every path, and kills the workers only when it is itself interrupted.
    It then raises the error of the first task in order that raised or
    whose worker ended without its result, else returns the results.
    """
    for stream in (sys.stdout, sys.stderr):  # a child must not write the parent's buffered text again
        stream.flush()
    queue, ready = os.pipe()
    os.write(ready, bytes(range(len(tasks))))  # at most len(IDENTITIES) bytes, within one pipe buffer
    os.close(ready)
    pids, received = {}, {}  # by the parent's end of each worker's pipe
    running, statuses, poller = set(), [], select.poll()
    try:
        for _ in range(workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _worker(run, tasks, queue, write, [read, *pids])
            os.close(write)
            pids[read], received[read] = pid, bytearray()
            running.add(read)
            poller.register(read, select.POLLIN)
        while running:
            for fd, _ in poller.poll():
                chunk = os.read(fd, 1 << 16)
                received[fd] += chunk
                if not chunk:  # the worker has exited, or is about to
                    poller.unregister(fd)
                    running.discard(fd)
    finally:
        os.close(queue)
        for fd, pid in pids.items():
            os.close(fd)
            if fd in running:  # interrupted: the worker may still run a task
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    results = dict(item for fd in pids for item in _frames(received[fd]))
    for index, task in enumerate(tasks):
        if index not in results:
            ends = ", ".join(_ending(status) for status in statuses if status)
            raise RuntimeError(f"a suite worker ended ({ends}) before it returned the records of {task}")
        ok, value = results[index]
        if not ok:
            raise value
    return [results[index][1] for index in range(len(tasks))]


def _worker(run: Callable, tasks: list, queue: int, out: int, parents: list[int]) -> None:
    """A forked worker's life: it closes the pipe ends that belong to the
    parent (parents), then runs the task of each index it takes from queue
    and writes its result, or its exception, to out.  It never returns to
    the caller's code."""
    code = 1
    try:
        for fd in parents:
            os.close(fd)
        _keep_freed_heap()
        while taken := os.read(queue, 1):
            index = taken[0]
            try:
                frame = pickle.dumps((index, (True, run(tasks[index]))), pickle.HIGHEST_PROTOCOL)
            except Exception as exc:  # the parent raises it; the other tasks run on
                frame = pickle.dumps((index, (False, exc)), pickle.HIGHEST_PROTOCOL)
            frame = memoryview(len(frame).to_bytes(8, "little") + frame)
            while frame:
                frame = frame[os.write(out, frame):]
        code = 0
    finally:
        os._exit(code)


def _frames(data: bytearray) -> Iterator:
    """The complete length-prefixed pickles of data, in order; a worker that
    died while it wrote leaves a truncated last frame, which is skipped."""
    at = 0
    while at + 8 <= len(data) and (end := at + 8 + int.from_bytes(data[at:at + 8], "little")) <= len(data):
        yield pickle.loads(data[at + 8:end])
        at = end


def _ending(status: int) -> str:
    """How a reaped process ended, from its wait status."""
    code = os.waitstatus_to_exitcode(status)
    return f"killed by signal {-code}" if code < 0 else f"exit code {code}"


def run_suite(config: SuiteConfig | None = None) -> VerificationReport:
    """Run the configured identities and collect a deterministic report."""
    cfg = config or SuiteConfig()
    chosen = cfg.identities or tuple(IDENTITIES)
    selected = [name for name in IDENTITIES if name in chosen]
    run = partial(_run_identity, cfg=cfg)
    workers = min(_usable_cpus(), len(selected))
    # a forked child could inherit a lock that another thread holds
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() != 1:
        results = list(map(run, selected))
    else:
        results = _in_workers(run, selected, workers)
    return VerificationReport(config={**asdict(cfg), "identities": sorted(set(chosen))},
                              records=[r for records, _ in results for r in records],
                              timings={name: seconds for name, (_, seconds) in zip(selected, results)})
