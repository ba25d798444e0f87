"""Seeded verification suite for every identity the package implements.

Each identity is a runner that sweeps (dimension, order, seed) cells,
measures a residual and compares it against its pinned tolerance.  All
randomness derives from the configured base seed, so two runs with the
same configuration produce identical reports; wall-clock timings are kept
out of the canonical JSON serialization for that reason.

Most residuals are relative and "smaller is better"; rank checks record a
singular-value ratio and positivity checks record a smallest eigenvalue,
both flagged in the record note as "pass when >= / > tolerance".
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import asdict, dataclass, field
from math import factorial
from itertools import permutations

import numpy as np

from .exterior import AlgebraContext, subsets
from . import clifford as cl
from .forms import (
    CurvatureTensor,
    DoubleForm,
    contract,
    contract_iter,
    decomposable_coefficients,
    inner,
    kn_product,
    metric_power,
    metric_product,
    orthonormalize,
    sectional,
    star,
)
from .random_tensors import (
    conformally_flat,
    constant_curvature,
    positive_operator_perturbation,
    random_bianchi_22,
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
    n_min: int = 4
    n_max: int = 6
    seeds: int = 10
    trials: int = 100
    tolerance: float = 1e-9
    extended: bool = False
    base_seed: int = 42
    identities: tuple[str, ...] | None = None

    def dimensions(self) -> list[int]:
        hi = 8 if self.extended else self.n_max
        return list(range(self.n_min, hi + 1))

    def validate(self) -> None:
        if not 4 <= self.n_min <= 8 or not 4 <= self.n_max <= 8:
            raise ValueError(f"dimension range must lie within [4, 8], got [{self.n_min}, {self.n_max}]")
        if not self.dimensions():
            raise ValueError(f"empty dimension range [{self.n_min}, {self.n_max}]")
        if self.seeds < 1:
            raise ValueError(f"seed count must be >= 1, got {self.seeds}")
        if self.trials < 1:
            raise ValueError(f"trial count must be >= 1, got {self.trials}")
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.identities is not None:
            unknown = set(self.identities) - set(IDENTITIES)
            if unknown:
                raise ValueError(f"unknown identities: {sorted(unknown)}")


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


def worst_text(records: list[IdentityRecord]) -> str:
    """The worst residual of a group: the largest among records that pass
    when <= tolerance, the smallest among those whose note says they pass
    when >= / > it."""
    below = [r.residual for r in records if "(pass when >" not in r.note]
    above = [r.residual for r in records if "(pass when >" in r.note]
    parts = [f"{max(below):.3e}"] if below else []
    if above:
        parts.append(f"{min(above):.3e}" + (" (lower bound)" if below else ""))
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

    def to_json(self) -> str:
        # timings are excluded so equal seeds give byte-identical reports
        doc = {
            "config": self.config,
            "records": [asdict(r) for r in self.records],
            "summary": self.summary(),
        }
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"

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


def _seedseq(cfg: SuiteConfig, identity: str, *key: int) -> np.random.SeedSequence:
    entropy = [cfg.base_seed & 0xFFFFFFFF, zlib.crc32(identity.encode())]
    entropy.extend(int(k) & 0xFFFFFFFF for k in key)
    return np.random.SeedSequence(entropy)


def _rng(cfg: SuiteConfig, identity: str, *key: int) -> np.random.Generator:
    return np.random.default_rng(_seedseq(cfg, identity, *key))


def _rel(actual: DoubleForm, expected: DoubleForm, floor: float = 1.0) -> float:
    return (actual - expected).norm() / max(expected.norm(), floor)


def _sweep_cells(cfg: SuiteConfig) -> list[tuple[int, int]]:
    return [(n, p) for n in cfg.dimensions() for p in range(2, n - 1)]


# -- identity runners -------------------------------------------------------


def _run_closed_form(cfg: SuiteConfig) -> list[IdentityRecord]:
    out = []
    for n, p in _sweep_cells(cfg):
        ctx = AlgebraContext(n)
        for t in range(cfg.seeds):
            w = random_bianchi_22(_seedseq(cfg, "closed_form", n, p, t), ctx)
            oracle = wz.np_definition(w, p)
            r = _rel(wz.np_formula(w, p), oracle)
            out.append(IdentityRecord("closed_form", n, p, t, r, cfg.tolerance, r <= cfg.tolerance))
    return out


def _run_hodge_duality(cfg: SuiteConfig) -> list[IdentityRecord]:
    out = []
    for n, p in _sweep_cells(cfg):
        ctx = AlgebraContext(n)
        for t in range(cfg.seeds):
            w = random_bianchi_22(_seedseq(cfg, "hodge_duality", n, p, t), ctx)
            dual = wz.np_definition(w, n - p)
            r = _rel(star(wz.np_definition(w, p)), dual)
            note = "self-dual cell" if n == 2 * p else ""
            out.append(IdentityRecord("hodge_duality", n, p, t, r, cfg.tolerance, r <= cfg.tolerance, note))
    return out


def _run_contraction_adjoint(cfg: SuiteConfig) -> list[IdentityRecord]:
    out = []
    for n in cfg.dimensions():
        ctx = AlgebraContext(n)
        for p in range(0, n):
            rng = _rng(cfg, "contraction_adjoint", n, p)
            worst = 0.0
            for _ in range(cfg.trials):
                w1 = DoubleForm(p, p, rng.standard_normal((ctx.dim(p), ctx.dim(p))), ctx)
                w2 = DoubleForm(p + 1, p + 1, rng.standard_normal((ctx.dim(p + 1), ctx.dim(p + 1))), ctx)
                lhs = inner(metric_product(1, w1), w2)
                rhs = inner(w1, contract(w2))
                worst = max(worst, abs(lhs - rhs) / max(w1.norm() * w2.norm(), 1.0))
            out.append(IdentityRecord("contraction_adjoint", n, p, 0, worst, _TOL_ADJOINT,
                                      worst <= _TOL_ADJOINT, f"max over {cfg.trials} pairs"))
    return out


def _run_star_contraction(cfg: SuiteConfig) -> list[IdentityRecord]:
    out = []
    for n in cfg.dimensions():
        ctx = AlgebraContext(n)
        for p in range(0, n):
            rng = _rng(cfg, "star_contraction", n, p)
            worst = 0.0
            for _ in range(cfg.trials):
                w = DoubleForm(p, p, rng.standard_normal((ctx.dim(p), ctx.dim(p))), ctx)
                lhs = metric_product(1, w)
                rhs = star(contract(star(w)))
                worst = max(worst, (lhs - rhs).norm() / max(w.norm(), 1.0))
            out.append(IdentityRecord("star_contraction", n, p, 0, worst, _TOL_ADJOINT,
                                      worst <= _TOL_ADJOINT, f"max over {cfg.trials} forms"))
    return out


def _ratio_record(identity: str, n: int, p: int | None, seed: int, matrix: np.ndarray,
                  note: str) -> IdentityRecord:
    sv = np.linalg.svd(matrix, compute_uv=False)
    ratio = float(sv[-1] / sv[0]) if sv.size and sv[0] > 0 else 0.0
    return IdentityRecord(identity, n, p, seed, ratio, _TOL_RATIO, ratio >= _TOL_RATIO,
                          note + "; singular value ratio (pass when >= tolerance)")


def _run_metric_injectivity(cfg: SuiteConfig) -> list[IdentityRecord]:
    out = []
    for n in [n for n in cfg.dimensions() if n <= 6]:
        ctx = AlgebraContext(n)
        for p in range(0, n // 2 + 1):
            dim = ctx.dim(p)
            for k in range(0, n - 2 * p + 1):
                cols = []
                for a in range(dim):
                    for b in range(dim):
                        e = np.zeros((dim, dim))
                        e[a, b] = 1.0
                        cols.append(metric_product(k, DoubleForm(p, p, e, ctx)).coeffs.reshape(-1))
                out.append(_ratio_record("metric_injectivity", n, p, k, np.array(cols).T,
                                         f"multiplication by g^{k}"))
    return out


def _bianchi_basis(n: int) -> np.ndarray:
    """Orthonormal basis (as columns) of the symmetric Bianchi (2,2) subspace."""
    P = bianchi_projector(n)
    u, s, _ = np.linalg.svd(P)
    return u[:, s > 0.5]


def _run_weitzenboeck_injectivity(cfg: SuiteConfig) -> list[IdentityRecord]:
    out = []
    for n in [n for n in cfg.dimensions() if n <= 6]:
        ctx = AlgebraContext(n)
        dim = ctx.dim(2)
        basis = _bianchi_basis(n)
        for p in range(2, n - 1):
            cols = []
            for col in basis.T:
                w = DoubleForm(2, 2, col.reshape(dim, dim), ctx)
                cols.append(wz.np_formula(w, p).coeffs.reshape(-1))
            note = f"order-{p} map on the {basis.shape[1]}-dim Bianchi space"
            if n == 2 * p:
                # the splitting coefficient (n-2p) kills g.h for traceless h
                # here, so the map genuinely has a kernel at n = 2p
                note += "; n = 2p cell where the traceless-Ricci block maps to zero"
            out.append(_ratio_record("weitzenboeck_injectivity", n, p, 0, np.array(cols).T, note))
    return out


def _run_contraction_orders(cfg: SuiteConfig) -> list[IdentityRecord]:
    out = []
    factors = []
    for n, p in _sweep_cells(cfg):
        ctx = AlgebraContext(n)
        for t in range(cfg.seeds):
            w = random_bianchi_22(_seedseq(cfg, "contraction_orders", n, p, t), ctx)
            oracle_p = wz.np_definition(w, p)
            worst = 0.0
            worst_note = ""
            for k in range(0, p + 1):
                lhs = contract_iter(oracle_p, k)
                rhs = wz.np_contraction_rhs(w, p, k)
                r = _rel(lhs, rhs)
                if r > worst:
                    worst = r
                    worst_note = f"worst at k={k}"
                if r > cfg.tolerance:
                    denom = inner(rhs, rhs)
                    if denom > 0:
                        factors.append(inner(lhs, rhs) / denom)
            out.append(IdentityRecord("contraction_orders", n, p, t, worst, cfg.tolerance,
                                      worst <= cfg.tolerance, worst_note))
    failures = [r for r in out if not r.passed]
    if failures and len(failures) >= max(2, len(out) // 2) and factors:
        arr = np.asarray(factors)
        if np.max(np.abs(arr - arr.mean())) <= 1e-3 * max(abs(arr.mean()), 1e-12):
            out.append(IdentityRecord(
                "contraction_orders", 0, None, -1, float(arr.mean()), 0.0, False,
                f"systematic mismatch: oracle contraction = {arr.mean():.9f} x closed form "
                f"across {len(failures)} failing cells"))
    return out


def _run_einstein_alternative(cfg: SuiteConfig) -> list[IdentityRecord]:
    out = []
    for n, p in _sweep_cells(cfg):
        ctx = AlgebraContext(n)
        for t in range(min(cfg.seeds, 5)):
            w = random_bianchi_22(_seedseq(cfg, "einstein_alternative", n, p, t), ctx)
            rhs_ricci = wz.np_contraction_rhs(w, p, p - 1)
            rhs_einstein = wz.np_contraction_einstein_rhs(w, p)
            r = _rel(rhs_einstein, rhs_ricci)
            out.append(IdentityRecord("einstein_alternative", n, p, t, r, _TOL_ADJOINT,
                                      r <= _TOL_ADJOINT))
    return out


def _run_splitting(cfg: SuiteConfig) -> list[IdentityRecord]:
    out = []
    for n, p in _sweep_cells(cfg):
        ctx = AlgebraContext(n)
        for t in range(cfg.seeds):
            w = random_bianchi_22(_seedseq(cfg, "splitting", n, p, t), ctx)
            comps = wz.decompose_22(w)
            r = _rel(wz.np_split(comps, p), wz.np_definition(w, p))
            out.append(IdentityRecord("splitting", n, p, t, r, cfg.tolerance, r <= cfg.tolerance))
    return out


def _run_decomposition(cfg: SuiteConfig) -> list[IdentityRecord]:
    out = []
    for n in cfg.dimensions():
        ctx = AlgebraContext(n)
        for t in range(cfg.seeds):
            w = random_bianchi_22(_seedseq(cfg, "decomposition", n, 0, t), ctx)
            comps = wz.decompose_22(w)
            rebuilt = comps.omega2 + metric_product(1, comps.omega1) + comps.omega0 * metric_power(2, ctx)
            scale = max(w.form.norm(), 1.0)
            r1 = (w.form - rebuilt).norm() / scale
            out.append(IdentityRecord("decomposition", n, None, t, r1, cfg.tolerance,
                                      r1 <= cfg.tolerance, "reassembly"))
            r2 = max(contract(comps.omega2).norm(), abs(contract(comps.omega1).scalar())) / scale
            out.append(IdentityRecord("decomposition", n, None, t, r2, _TOL_ADJOINT,
                                      r2 <= _TOL_ADJOINT, "trace-free parts"))
    return out


def _run_constant_curvature(cfg: SuiteConfig) -> list[IdentityRecord]:
    out = []
    for n in range(4, 9):  # pinned range, independent of the sweep dimensions
        ctx = AlgebraContext(n)
        w = constant_curvature(1.0, ctx)
        for p in range(0, n + 1):
            npdef = wz.np_definition(w, p)
            expected = (p * (n - p) / factorial(p)) * metric_power(p, ctx)
            r = _rel(npdef, expected)
            note = "unit-curvature closed form"
            if 1 <= p <= n - 1:
                value = contract_iter(npdef, p).scalar()
                target = p * factorial(n) / factorial(n - p - 1)
                r = max(r, abs(value - target) / max(abs(target), 1.0))
                note += " and full contraction"
            out.append(IdentityRecord("constant_curvature", n, p, 0, r, _TOL_EXACT,
                                      r <= _TOL_EXACT, note))
    return out


def _run_clifford_ad_rule(cfg: SuiteConfig) -> list[IdentityRecord]:
    out = []
    for n in (4, 5, 6):  # exhaustive at the pinned dimensions
        ctx = AlgebraContext(n)
        worst = 0.0
        for (i, j) in subsets(n, 2):
            phi = cl.clifford_mul(cl.basis_vector(ctx, i), cl.basis_vector(ctx, j))
            for size in range(0, n + 1):
                for S in subsets(n, size):
                    psi = cl.basis_element(ctx, S)
                    got = cl.ad(phi, psi)
                    overlap = len({i, j} & set(S))
                    want = 2.0 * cl.clifford_mul(phi, psi) if overlap == 1 else cl.zero_element(ctx)
                    worst = max(worst, (got - want).norm())
        out.append(IdentityRecord("clifford_ad_rule", n, None, 0, worst, _TOL_EXACT,
                                  worst <= _TOL_EXACT, "exhaustive over pairs and subsets"))
    return out


def _run_wedge_recovery(cfg: SuiteConfig) -> list[IdentityRecord]:
    out = []
    for n in (4, 5, 6):
        ctx = AlgebraContext(n)
        worst = 0.0
        for p in range(1, 5):
            for I in subsets(n, p):
                acc = cl.zero_element(ctx)
                for perm in permutations(range(p)):
                    sign = _perm_sign(perm)
                    prod = cl.basis_vector(ctx, I[perm[0]])
                    for a in perm[1:]:
                        prod = cl.clifford_mul(prod, cl.basis_vector(ctx, I[a]))
                    acc = acc + sign * prod
                got = (1.0 / factorial(p)) * acc
                worst = max(worst, (got - cl.basis_element(ctx, I)).norm())
        out.append(IdentityRecord("wedge_recovery", n, None, 0, worst, _TOL_EXACT,
                                  worst <= _TOL_EXACT, "antisymmetrized products, p <= 4"))
    return out


def _perm_sign(perm) -> int:
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


def _run_clifford_associativity(cfg: SuiteConfig) -> list[IdentityRecord]:
    out = []
    dims = cfg.dimensions()
    per_cell = max(1, (max(cfg.trials, 100) + len(dims) - 1) // len(dims))
    for n in dims:
        ctx = AlgebraContext(n)
        rng = _rng(cfg, "clifford_associativity", n)
        worst = 0.0
        for _ in range(per_cell):
            a = cl.CliffordElement(rng.standard_normal(2 ** n), ctx)
            b = cl.CliffordElement(rng.standard_normal(2 ** n), ctx)
            c = cl.CliffordElement(rng.standard_normal(2 ** n), ctx)
            lhs = cl.clifford_mul(cl.clifford_mul(a, b), c)
            rhs = cl.clifford_mul(a, cl.clifford_mul(b, c))
            worst = max(worst, (lhs - rhs).norm() / max(a.norm() * b.norm() * c.norm(), 1.0))
        out.append(IdentityRecord("clifford_associativity", n, None, 0, worst, _TOL_EXACT,
                                  worst <= _TOL_EXACT, f"{per_cell} random triples"))
    return out


_MID_DEGREE_CELLS = ((6, 2), (7, 3), (8, 2), (8, 4))


def _run_mid_degree(cfg: SuiteConfig) -> list[IdentityRecord]:
    out = []
    for n, p in _MID_DEGREE_CELLS:  # every even n+p with a comparable order, n <= 8
        ctx = AlgebraContext(n)
        instances = [
            ("generic", random_bianchi_22(_seedseq(cfg, "mid_degree", n, p, 0), ctx)),
            ("conformally flat", conformally_flat(_seedseq(cfg, "mid_degree", n, p, 1), ctx)),
            ("pure Weyl", weyl_part_tensor(_seedseq(cfg, "mid_degree", n, p, 2), ctx)),
        ]
        for t, (label, w) in enumerate(instances):
            lhs, rhs = wz.np_midpoint_formula(w, p)
            r = _rel(rhs, lhs)
            out.append(IdentityRecord("mid_degree", n, p, t, r, cfg.tolerance,
                                      r <= cfg.tolerance, label))
    return out


def _run_sectional_sum(cfg: SuiteConfig) -> list[IdentityRecord]:
    out = []
    for n, p in _sweep_cells(cfg):
        ctx = AlgebraContext(n)
        for t in range(min(cfg.seeds, 3)):
            w = random_bianchi_22(_seedseq(cfg, "sectional_sum", n, p, t), ctx)
            npdef = wz.np_definition(w, p)
            rng = _rng(cfg, "sectional_sum", n, p, t)
            worst = 0.0
            for _ in range(5):
                frame = orthonormalize(rng.standard_normal((n, n)))
                plane = [frame[:, i] for i in range(p)]
                lhs = sectional(npdef, plane)
                rhs = 0.0
                for i in range(p):
                    for j in range(p, n):
                        v = decomposable_coefficients(frame[:, [i, j]], ctx)
                        rhs += float(v @ w.form.coeffs @ v)
                worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
            out.append(IdentityRecord("sectional_sum", n, p, t, worst, cfg.tolerance,
                                      worst <= cfg.tolerance, "5 random planes"))
    return out


def _run_adjoint_pairing(cfg: SuiteConfig) -> list[IdentityRecord]:
    out = []
    for n, p in _sweep_cells(cfg):
        ctx = AlgebraContext(n)
        rng_seed = _seedseq(cfg, "adjoint_pairing", n, p)
        rng = np.random.default_rng(rng_seed)
        worst = 0.0
        for t in range(20):
            alpha = random_bianchi_22(rng, ctx)
            raw = rng.standard_normal((ctx.dim(p), ctx.dim(p)))
            beta = DoubleForm(p, p, (raw + raw.T) / 2.0, ctx)
            lhs = inner(wz.np_definition(alpha, p), beta)
            rhs = inner(alpha.form, wz.np_adjoint(beta, p))
            worst = max(worst, abs(lhs - rhs) / max(alpha.form.norm() * beta.norm(), 1.0))
        out.append(IdentityRecord("adjoint_pairing", n, p, 0, worst, cfg.tolerance,
                                  worst <= cfg.tolerance, "20 random pairs"))
    return out


def _run_tachibana(cfg: SuiteConfig) -> list[IdentityRecord]:
    out = []
    cells = [(n, n // 2) for n in cfg.dimensions() if n % 2 == 0]
    for n, p in cells:
        ctx = AlgebraContext(n)
        rng = _rng(cfg, "tachibana", n, p)
        # conformally flat with n = 2p: sectional values must be constant
        w = conformally_flat(_seedseq(cfg, "tachibana", n, p, 0), ctx)
        npdef = wz.np_definition(w, p)
        values = []
        for _ in range(20):
            F = wz.sample_plane(rng, n, p)
            values.append(sectional(npdef, [F[:, i] for i in range(p)]))
        spread = (max(values) - min(values)) / max(max(abs(v) for v in values), 1.0)
        out.append(IdentityRecord("tachibana", n, p, 0, spread, cfg.tolerance,
                                  spread <= cfg.tolerance, "conformally flat, n = 2p"))
        # witness: a unit-norm tensor with Weyl part must show visible spread
        witness = weyl_part_tensor(_seedseq(cfg, "tachibana", n, p, 1), ctx)
        wform = witness.form / max(witness.form.norm(), 1e-12)
        npw = wz.np_definition(wform, p)
        values = []
        for _ in range(40):
            F = wz.sample_plane(rng, n, p)
            values.append(sectional(npw, [F[:, i] for i in range(p)]))
        spread = max(values) - min(values)
        out.append(IdentityRecord("tachibana", n, p, 1, spread, _TOL_SPREAD_WITNESS,
                                  spread > _TOL_SPREAD_WITNESS,
                                  "Weyl witness; sectional spread (pass when > tolerance)"))
    return out


def _run_kn_algebra(cfg: SuiteConfig) -> list[IdentityRecord]:
    out = []
    degree_combos = (((1, 1), (1, 1), (1, 1)), ((1, 1), (1, 1), (2, 2)), ((1, 1), (2, 2), (1, 1)))
    for n in cfg.dimensions():
        ctx = AlgebraContext(n)
        rng = _rng(cfg, "kn_algebra", n)
        worst = 0.0
        for degrees in degree_combos:
            if sum(d[0] for d in degrees) > n:
                continue
            for _ in range(5):
                forms = []
                for (dp, dq) in degrees:
                    raw = rng.standard_normal((ctx.dim(dp), ctx.dim(dq)))
                    forms.append(DoubleForm(dp, dq, (raw + raw.T) / 2.0, ctx))
                a, b, c = forms
                scale = max(a.norm() * b.norm(), 1.0)
                worst = max(worst, (kn_product(a, b) - kn_product(b, a)).norm() / scale)
                scale3 = max(a.norm() * b.norm() * c.norm(), 1.0)
                assoc = (kn_product(kn_product(a, b), c) - kn_product(a, kn_product(b, c))).norm()
                worst = max(worst, assoc / scale3)
        out.append(IdentityRecord("kn_algebra", n, None, 0, worst, _TOL_EXACT,
                                  worst <= _TOL_EXACT, "commutativity and associativity"))
    return out


def _run_meyer_positivity(cfg: SuiteConfig) -> list[IdentityRecord]:
    out = []
    dims = cfg.dimensions()
    total = 20
    counts = [total // len(dims) + (1 if i < total % len(dims) else 0) for i in range(len(dims))]
    for n, count in zip(dims, counts):
        ctx = AlgebraContext(n)
        for t in range(count):
            w = positive_operator_perturbation(_seedseq(cfg, "meyer_positivity", n, 0, t), ctx)
            op_min = float(wz.jacobi_eigenvalues(w.form.coeffs)[0])
            min_eig = np.inf
            for p in range(2, n - 1):
                eigs = wz.jacobi_eigenvalues(wz.np_definition(w, p).coeffs)
                min_eig = min(min_eig, float(eigs[0]))
            out.append(IdentityRecord(
                "meyer_positivity", n, None, t, float(min_eig), 0.0, min_eig > 0.0,
                f"input operator min eig {op_min:.3f}; smallest N_p eig (pass when > 0)"))
    return out


def _run_scalar_positivity(cfg: SuiteConfig) -> list[IdentityRecord]:
    out = []
    for n in cfg.dimensions():
        ctx = AlgebraContext(n)
        for t in range(5):
            w = random_bianchi_22(_seedseq(cfg, "scalar_positivity", n, 0, t), ctx)
            s = contract_iter(w.form, 2).scalar()
            if s < 0:  # flip the sign to satisfy the positive-scalar hypothesis
                w = CurvatureTensor(-1.0 * w.form)
                s = -s
            worst = np.inf
            for p in range(1, n):
                value = contract_iter(wz.np_definition(w, p), p).scalar()
                worst = min(worst, value)
            out.append(IdentityRecord(
                "scalar_positivity", n, None, t, float(worst), 0.0, worst > 0.0,
                f"scalar {s:.3f} > 0; smallest c^p(N_p), 1 <= p <= n-1 (pass when > 0)"))
        # positivity chain: a positive operator instance must have positive scalar
        w = positive_operator_perturbation(_seedseq(cfg, "scalar_positivity", n, 1), ctx)
        min_eig = np.inf
        for p in range(2, n - 1):
            min_eig = min(min_eig, float(wz.jacobi_eigenvalues(wz.np_definition(w, p).coeffs)[0]))
        s = contract_iter(w.form, 2).scalar()
        chained = s > 0.0 if min_eig > 0.0 else True
        out.append(IdentityRecord(
            "scalar_positivity", n, None, 99, float(s), 0.0, chained,
            f"min N_p eig {min_eig:.3f}; scalar must follow positive (pass when > 0)"))
    return out


def _scaled_identity_shift(h: DoubleForm, scale: float) -> DoubleForm:
    return DoubleForm(1, 1, np.eye(h.ctx.n) + scale * h.coeffs, h.ctx)


def _run_contracted_positivity(cfg: SuiteConfig) -> list[IdentityRecord]:
    out = []
    dims = cfg.dimensions()

    def min_eig_c_pminus1(w, p):
        form = contract_iter(wz.np_definition(w, p), p - 1)
        return float(wz.jacobi_eigenvalues(form.coeffs)[0])

    # case 1: n = 2p + 2 with positive scalar curvature
    for n in dims:
        if (n - 2) % 2 != 0:
            continue
        p = (n - 2) // 2
        if not 2 <= p <= n - 2:
            continue
        ctx = AlgebraContext(n)
        for t in range(5):
            w = random_bianchi_22(_seedseq(cfg, "contracted_positivity", n, p, t), ctx)
            if contract_iter(w.form, 2).scalar() < 0:
                w = CurvatureTensor(-1.0 * w.form)
            value = min_eig_c_pminus1(w, p)
            out.append(IdentityRecord(
                "contracted_positivity", n, p, t, value, 0.0, value > 0.0,
                "case 1: n=2p+2, positive scalar; min eig (pass when > 0)"))
    # case 2: n <= 2p + 2 with positive Einstein tensor
    for n in dims:
        ctx = AlgebraContext(n)
        for p in range(2, n - 1):
            if n > 2 * p + 2:
                continue
            rng = _rng(cfg, "contracted_positivity", n, p, 1000)
            raw = rng.standard_normal((n, n))
            h = _scaled_identity_shift(DoubleForm(1, 1, (raw + raw.T) / 2.0, ctx), 0.15)
            w = CurvatureTensor(metric_product(1, h).symmetrized())
            emin = float(wz.jacobi_eigenvalues(wz.einstein_tensor(w).coeffs)[0])
            if emin <= 0:
                continue  # hypothesis not met for this draw; nothing to assert
            value = min_eig_c_pminus1(w, p)
            out.append(IdentityRecord(
                "contracted_positivity", n, p, 1000, value, 0.0, value > 0.0,
                f"case 2: n<=2p+2, Einstein min eig {emin:.3f} > 0; min eig (pass when > 0)"))
    # case 3: n >= 2p + 2 with positive Ricci tensor
    for n in dims:
        ctx = AlgebraContext(n)
        for p in range(2, n - 1):
            if n < 2 * p + 2:
                continue
            rng = _rng(cfg, "contracted_positivity", n, p, 2000)
            raw = rng.standard_normal((n, n))
            h = _scaled_identity_shift(DoubleForm(1, 1, (raw + raw.T) / 2.0, ctx), 0.15)
            w = CurvatureTensor(metric_product(1, h).symmetrized())
            ricci_min = float(wz.jacobi_eigenvalues(contract(w.form).coeffs)[0])
            if ricci_min <= 0:
                continue
            value = min_eig_c_pminus1(w, p)
            out.append(IdentityRecord(
                "contracted_positivity", n, p, 2000, value, 0.0, value > 0.0,
                f"case 3: n>=2p+2, Ricci min eig {ricci_min:.3f} > 0; min eig (pass when > 0)"))
    return out


IDENTITIES: dict[str, object] = {
    "closed_form": _run_closed_form,
    "hodge_duality": _run_hodge_duality,
    "contraction_adjoint": _run_contraction_adjoint,
    "star_contraction": _run_star_contraction,
    "metric_injectivity": _run_metric_injectivity,
    "weitzenboeck_injectivity": _run_weitzenboeck_injectivity,
    "contraction_orders": _run_contraction_orders,
    "einstein_alternative": _run_einstein_alternative,
    "splitting": _run_splitting,
    "decomposition": _run_decomposition,
    "constant_curvature": _run_constant_curvature,
    "clifford_ad_rule": _run_clifford_ad_rule,
    "wedge_recovery": _run_wedge_recovery,
    "clifford_associativity": _run_clifford_associativity,
    "mid_degree": _run_mid_degree,
    "sectional_sum": _run_sectional_sum,
    "adjoint_pairing": _run_adjoint_pairing,
    "tachibana": _run_tachibana,
    "kn_algebra": _run_kn_algebra,
    "meyer_positivity": _run_meyer_positivity,
    "scalar_positivity": _run_scalar_positivity,
    "contracted_positivity": _run_contracted_positivity,
}


def run_suite(config: SuiteConfig | None = None) -> VerificationReport:
    """Run the configured identities and collect a deterministic report."""
    cfg = config or SuiteConfig()
    cfg.validate()
    selected = cfg.identities or tuple(IDENTITIES)
    records: list[IdentityRecord] = []
    timings: dict[str, float] = {}
    for name in IDENTITIES:
        if name not in selected:
            continue
        start = time.perf_counter()
        records.extend(IDENTITIES[name](cfg))
        timings[name] = time.perf_counter() - start
    cfg_doc = {
        "n_min": cfg.n_min,
        "n_max": cfg.n_max,
        "seeds": cfg.seeds,
        "trials": cfg.trials,
        "tolerance": cfg.tolerance,
        "extended": cfg.extended,
        "base_seed": cfg.base_seed,
        "identities": sorted(selected),
    }
    return VerificationReport(config=cfg_doc, records=records, timings=timings)
