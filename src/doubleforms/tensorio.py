"""JSON file format for curvature tensors and general double forms.

A tensor file looks like

    {"n": 4,
     "entries": [{"ij": [1, 2], "kl": [1, 2], "value": 1.0}]}

with 1-based strictly increasing index pairs; unlisted entries are zero
and the (ij) <-> (kl) symmetry is enforced on load.  General (p,q) forms
written by save_form carry explicit "p" and "q" fields and index lists of
the matching lengths.

Indices, "n" and the optional "p" and "q" must be JSON integers and values
JSON numbers; booleans are neither.  The entries are read and checked as whole arrays, and a bad
file is reported at its first bad entry, in file order.  Loading rejects
non-finite values and checks the first Bianchi identity with the
CurvatureTensor rule.  The default policy is to warn on stderr
and continue; "strict" rejects the file and "project" applies the
orthogonal projection onto the symmetric Bianchi subspace, which has a
closed form: symmetric (2,2) forms split as curvature tensors plus
4-forms, and the 4-form part is read off the Bianchi map.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from itertools import chain
from math import comb
from operator import itemgetter

import numpy as np

from .exterior import AlgebraContext, mask_ranks, subsets
from .forms import BianchiViolation, CurvatureTensor, DoubleForm, _member_table, bianchi_map

__all__ = ["load_tensor", "save_form", "bianchi_projector", "project_bianchi"]

_POLICIES = ("warn", "strict", "project")


#: The fields of every entry of a tensor file.
_FIELDS = frozenset({"ij", "kl", "value"})

#: The smallest integer that a float64 rounds to infinity.
_FLOAT_OVERFLOW = 2 ** 1024 - 2 ** 970


def _of_types(values: list, *kinds: type) -> np.ndarray:
    """Whether each of values has exactly one of the types kinds, so that
    a JSON boolean (a Python bool) is neither an integer nor a number."""
    test = frozenset(kinds).__contains__
    return np.fromiter(map(test, map(type, values)), dtype=bool, count=len(values))


def _standing_in(values: list, keep: np.ndarray, stand_in) -> list:
    """A copy of values with stand_in wherever keep is False."""
    values = list(values)
    for k in np.flatnonzero(~keep):
        values[k] = stand_in
    return values


def _raise_first(checks: list) -> None:
    """checks holds (failure mask over the entries, message for entry k)
    in the order one entry is checked.  Raise the message of the first
    failing check of the first entry that fails any, in file order."""
    failed = np.array([mask for mask, _ in checks], dtype=bool)
    bad = np.flatnonzero(failed.any(axis=0))
    if bad.size:
        k = int(bad[0])
        raise ValueError(checks[int(np.argmax(failed[:, k]))][1](k))


def _index_pairs(raws: list, field, n: int, checks: list) -> np.ndarray:
    """The index pairs raws as a (count, 2) array, with the checks that
    each is a list of two JSON integers in [1, n], strictly increasing,
    appended to checks.  A pair that fails a check reads (1, 2)."""
    lists = _of_types(raws, list)
    lengths = np.fromiter(map(len, _standing_in(raws, lists, ())), dtype=np.int64, count=len(raws))
    shaped = lengths == 2
    checks.append((~shaped, lambda k: f"{field(k)}: expected a list of 2 indices, got {raws[k]!r}"))
    flat = list(chain.from_iterable(_standing_in(raws, shaped, [1, 2])))
    integers = _of_types(flat, int)
    checks.append((~integers.reshape(-1, 2).all(axis=1),
                   lambda k: f"{field(k)}: indices must be integers, got {raws[k]!r}"))
    # compared as Python integers, which JSON does not bound
    flat = np.array(_standing_in(flat, integers, 1), dtype=object).reshape(-1, 2)
    inside = ((flat >= 1) & (flat <= n)).all(axis=1)
    checks.append((~inside, lambda k: f"{field(k)}: indices must lie in [1, {n}], got {raws[k]!r}"))
    pairs = np.where(inside[:, None], flat, [1, 2]).astype(np.int64)
    checks.append((pairs[:, 0] >= pairs[:, 1],
                   lambda k: f"{field(k)}: indices must be strictly increasing, got {raws[k]!r}"))
    return pairs


def _read_entries(entries: list, n: int, path) -> np.ndarray:
    """The symmetric (2,2) coefficient matrix that a file's entries list.

    Every check is made on the whole list at once; a fault raises
    ValueError for the first bad entry in file order, with the message of
    its first failing check.  Indices must be JSON integers and values JSON
    numbers (booleans are neither); an integer value too large for a
    float64 is the non-finite value it rounds to.
    """
    checks = []

    def where(k):
        return f"{path}: entries[{k}]"

    objects = _of_types(entries, dict)
    checks.append((~objects, lambda k: f"{where(k)}: expected an object, got {entries[k]!r}"))
    complete = objects & np.fromiter(map(_FIELDS.issubset, _standing_in(entries, objects, {})),
                                     dtype=bool, count=len(entries))
    checks.append((~complete,
                   lambda k: f"{where(k)}: missing fields {sorted(_FIELDS - set(entries[k]))}"))
    full = _standing_in(entries, complete, {"ij": [1, 2], "kl": [1, 2], "value": 0.0})
    ij = _index_pairs(list(map(itemgetter("ij"), full)), lambda k: f"{where(k)}.ij", n, checks)
    kl = _index_pairs(list(map(itemgetter("kl"), full)), lambda k: f"{where(k)}.kl", n, checks)
    raw = list(map(itemgetter("value"), full))
    numbers = _of_types(raw, int, float)
    checks.append((~numbers, lambda k: f"{where(k)}.value: expected a number, got {raw[k]!r}"))
    values = np.array(_standing_in(raw, numbers, 0.0), dtype=object)
    integers = np.flatnonzero(_of_types(raw, int))
    overflow = integers[np.abs(values[integers]) >= _FLOAT_OVERFLOW]
    values[overflow] = np.where(values[overflow] > 0, np.inf, -np.inf)
    values = values.astype(np.float64)
    checks.append((~np.isfinite(values),
                   lambda k: f"{where(k)}.value: non-finite value {float(values[k])!r}"))
    ranks = mask_ranks(n)
    a, b = (ranks[(1 << (pairs[:, 0] - 1)) | (1 << (pairs[:, 1] - 1))] for pairs in (ij, kl))
    dim = comb(n, 2)
    slots = np.minimum(a, b) * dim + np.maximum(a, b)
    # the entries of each symmetric slot together, in file order
    order = np.argsort(slots, kind="stable")
    slots, ordered = slots[order], values[order]
    starts = np.ones(len(slots), dtype=bool)
    starts[1:] = slots[1:] != slots[:-1]
    seen = np.empty(len(slots))  # the value of each entry's slot at its first entry
    seen[order] = ordered[starts][np.cumsum(starts) - 1]
    checks.append((values != seen, lambda k: (
        f"{where(k)}: conflicts with an earlier entry for the same "
        f"symmetric slot ({float(seen[k])!r} vs {float(values[k])!r})")))
    _raise_first(checks)
    # the last entry of a slot sets both of its cells (0.0 and -0.0 agree)
    ends = np.ones(len(slots), dtype=bool)
    ends[:-1] = starts[1:]
    mat = np.zeros((dim, dim))
    rows, cols = np.divmod(slots[ends], dim)
    mat[rows, cols] = ordered[ends]
    mat[cols, rows] = ordered[ends]
    return mat


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
    for d in ("n", "p", "q"):
        if d in doc and type(doc[d]) is not int:
            raise ValueError(f"{path}: '{d}' must be an integer, got {doc[d]!r}")
    for d in ("p", "q"):
        if doc.get(d, 2) != 2:
            raise ValueError(f"{path}: curvature tensors must have {d} = 2, got {doc[d]}")
    n = doc["n"]
    ctx = AlgebraContext(n)
    entries = doc.get("entries", [])
    if not isinstance(entries, list):
        raise ValueError(f"{path}: 'entries' must be a list")
    mat = _read_entries(entries, n, path)
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
    The patterns are the sorted array with repeats masked out: numpy 2's
    hash-based np.unique is several times slower and imports numpy.ma.
    """
    if values.dtype != np.float64:
        raise TypeError(f"expected a float64 array, got {values.dtype}")
    keys = np.sort(values.view(np.int64), axis=None)
    keys = np.concatenate((keys[:1], keys[1:][keys[1:] != keys[:-1]]))
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
    members = _member_table(n, 4)
    a, b, c, d = (1 << members).T
    ranks = mask_ranks(n)
    table = np.stack([ranks[a | b | c], members[:, 3],
                      *(ranks[x | y] for x, y in ((a, b), (c, d), (a, c), (b, d), (a, d), (b, c)))])
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
