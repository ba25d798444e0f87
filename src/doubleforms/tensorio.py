"""JSON file format for curvature tensors and general double forms.

A tensor file looks like

    {"n": 4,
     "entries": [{"ij": [1, 2], "kl": [1, 2], "value": 1.0}]}

with 1-based strictly increasing index pairs; unlisted entries are zero
and the (ij) <-> (kl) symmetry is enforced on load.  General (p,q) forms
written by save_form carry explicit "p" and "q" fields and index lists of
the matching lengths.

Loading rejects non-finite values and checks the first Bianchi identity
with the CurvatureTensor rule.  The default policy is to warn on stderr
and continue; "strict" rejects the file and "project" applies the
orthogonal projection onto the symmetric Bianchi subspace, which has a
closed form: symmetric (2,2) forms split as curvature tensors plus
4-forms, and the 4-form part is read off the Bianchi map.
"""

from __future__ import annotations

import json
import math
import sys
from functools import lru_cache

import numpy as np

from .exterior import AlgebraContext, subsets, _ranks
from .forms import BianchiViolation, CurvatureTensor, DoubleForm, bianchi_map

__all__ = ["load_tensor", "save_form", "bianchi_projector", "project_bianchi"]

_POLICIES = ("warn", "strict", "project")


def _parse_pair(raw, field: str, n: int, length: int) -> tuple[int, ...]:
    if not isinstance(raw, list) or len(raw) != length:
        raise ValueError(f"{field}: expected a list of {length} indices, got {raw!r}")
    try:
        idx = tuple(int(v) for v in raw)
    except (TypeError, ValueError):
        raise ValueError(f"{field}: indices must be integers, got {raw!r}") from None
    if any(not 1 <= v <= n for v in idx):
        raise ValueError(f"{field}: indices must lie in [1, {n}], got {list(idx)}")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError(f"{field}: indices must be strictly increasing, got {list(idx)}")
    return idx


def load_tensor(path, *, on_bianchi: str = "warn") -> CurvatureTensor:
    """Read a (2,2) curvature tensor, mirroring entries across the symmetry.

    on_bianchi selects how a violated first Bianchi identity is handled:
    "warn" (report on stderr, keep the tensor), "strict" (raise) or
    "project" (orthogonal projection onto the Bianchi subspace).
    """
    if on_bianchi not in _POLICIES:
        raise ValueError(f"on_bianchi must be one of {_POLICIES}, got {on_bianchi!r}")
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be an object")
    if "n" not in doc:
        raise ValueError(f"{path}: missing dimension field 'n'")
    n = doc["n"]
    if not isinstance(n, int):
        raise ValueError(f"{path}: 'n' must be an integer, got {n!r}")
    for d in ("p", "q"):
        if d in doc and doc[d] != 2:
            raise ValueError(f"{path}: curvature tensors must have {d} = 2, got {doc[d]}")
    ctx = AlgebraContext(n)
    ranks = _ranks(n, 2)
    dim = ctx.dim(2)
    mat = np.zeros((dim, dim))
    seen: dict[tuple[int, int], float] = {}
    entries = doc.get("entries", [])
    if not isinstance(entries, list):
        raise ValueError(f"{path}: 'entries' must be a list")
    for k, entry in enumerate(entries):
        where = f"{path}: entries[{k}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where}: expected an object, got {entry!r}")
        missing = {"ij", "kl", "value"} - set(entry)
        if missing:
            raise ValueError(f"{where}: missing fields {sorted(missing)}")
        ij = _parse_pair(entry["ij"], f"{where}.ij", n, 2)
        kl = _parse_pair(entry["kl"], f"{where}.kl", n, 2)
        try:
            value = float(entry["value"])
        except (TypeError, ValueError):
            raise ValueError(f"{where}.value: expected a number, got {entry['value']!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{where}.value: non-finite value {value!r}")
        a, b = ranks[ij], ranks[kl]
        key = (min(a, b), max(a, b))
        if key in seen and seen[key] != value:
            raise ValueError(
                f"{where}: conflicts with an earlier entry for the same "
                f"symmetric slot ({seen[key]!r} vs {value!r})"
            )
        seen[key] = value
        mat[a, b] = value
        mat[b, a] = value
    form = DoubleForm(2, 2, mat, ctx)
    try:
        return CurvatureTensor(form)
    except BianchiViolation as exc:
        if on_bianchi == "strict":
            raise ValueError(f"{path}: {exc}") from None
        if on_bianchi == "project":
            return CurvatureTensor(project_bianchi(form), bianchi_tol=1e-9)
        print(f"warning: {path}: {exc}; continuing", file=sys.stderr)
        return CurvatureTensor(form, bianchi_tol=float("inf"))


def _float_texts(values: np.ndarray):
    """A lookup from float64 arrays of values' entries to their JSON texts.

    The distinct bit patterns of values, so that -0.0 and 0.0 stay apart,
    are encoded once in one call of the C encoder, which raises ValueError
    on a non-finite value.  The lookup finds each entry's text by binary
    search among those patterns and returns an object array of strings.
    """
    if values.dtype != np.float64:
        raise TypeError(f"expected a float64 array, got {values.dtype}")
    keys = np.unique(values.view(np.int64))
    body = json.dumps(keys.view(np.float64).tolist(), allow_nan=False)[1:-1]
    texts = np.array(body.split(", "), dtype=object)
    return lambda part: texts[np.searchsorted(keys, part.view(np.int64))]


def save_form(form, path) -> None:
    """Write a double form (or curvature tensor) as a JSON entry list.

    The file holds the bytes of json.dump(doc, fh, indent=2, allow_nan=False)
    and a newline, where doc is {"n", "p", "q", "entries"} with one entry
    {"ij", "kl", "value"} per nonzero coefficient in row-major order.  It is
    written one matrix row at a time, encoding each distinct value once; a
    non-finite coefficient raises ValueError before the file is opened.
    """
    if isinstance(form, CurvatureTensor):
        form = form.form
    if not isinstance(form, DoubleForm):
        raise TypeError(f"expected DoubleForm or CurvatureTensor, got {type(form).__name__}")
    n, coeffs = form.ctx.n, form.coeffs
    value_texts = _float_texts(coeffs)

    def index_texts(d):
        return np.array([json.dumps(list(I), indent=2).replace("\n", "\n      ")
                         for I in subsets(n, d)], dtype=object)

    rows, cols = index_texts(form.p), index_texts(form.q)
    close = "\n    }"
    written = False
    with open(path, "w") as fh:
        fh.write(f'{{\n  "n": {n},\n  "p": {form.p},\n  "q": {form.q},\n  "entries": [')
        for a, row in enumerate(coeffs):
            nonzero = np.flatnonzero(row)
            if nonzero.size:
                head = '{\n      "ij": ' + rows[a] + ',\n      "kl": '
                tails = cols[nonzero] + ',\n      "value": ' + value_texts(row[nonzero])
                fh.write((",\n    " if written else "\n    ") + head
                         + (close + ",\n    " + head).join(tails) + close)
                written = True
        fh.write("\n  ]\n}\n" if written else "]\n}\n")


# -- projection onto the symmetric Bianchi subspace ------------------------


@lru_cache(maxsize=None)
def _four_form_table(n: int) -> np.ndarray:
    """Per 4-subset abcd, as rows: rank of abc, d - 1, ranks of ab, cd, ac, bd, ad, bc."""
    r2, r3 = _ranks(n, 2), _ranks(n, 3)
    rows = [
        (r3[(a, b, c)], d - 1, r2[(a, b)], r2[(c, d)], r2[(a, c)], r2[(b, d)], r2[(a, d)], r2[(b, c)])
        for a, b, c, d in subsets(n, 4)
    ]
    table = np.array(rows, dtype=np.int64).reshape(-1, 8).T
    table.setflags(write=False)
    return table


def project_bianchi(form: DoubleForm) -> DoubleForm:
    """Orthogonal projection of a (2,2) form onto the symmetric Bianchi subspace.

    Symmetric (2,2) forms split orthogonally into curvature tensors and
    the image of 4-forms under lambda(alpha)(xy, zw) = alpha_xyzw.  The
    Bianchi map kills the first part and has b(lambda(alpha))(abc; d) =
    -3 alpha_abcd, so the projection of the symmetric part s is
    s - lambda(alpha) with alpha_abcd = -b(s)(abc; d)/3.
    """
    if form.degree != (2, 2):
        raise ValueError(f"expected a (2,2) form, got {form.degree}")
    ctx = form.ctx
    sym = form.symmetrized()
    abc, d, ab, cd, ac, bd, ad, bc = _four_form_table(ctx.n)
    alpha = -bianchi_map(sym).coeffs[abc, d] / 3.0
    out = sym.coeffs.copy()
    for ij, kl, value in ((ab, cd, alpha), (ac, bd, -alpha), (ad, bc, alpha)):
        out[ij, kl] -= value
        out[kl, ij] -= value
    return DoubleForm(2, 2, out, ctx)


@lru_cache(maxsize=None)
def bianchi_projector(n: int) -> np.ndarray:
    """Matrix of project_bianchi on vectorized (2,2) coefficient matrices."""
    ctx = AlgebraContext(n)
    dim = ctx.dim(2)
    units = np.eye(dim * dim).reshape(-1, dim, dim)
    P = np.array([project_bianchi(DoubleForm(2, 2, e, ctx)).coeffs.reshape(-1) for e in units]).T
    P.setflags(write=False)
    return P
