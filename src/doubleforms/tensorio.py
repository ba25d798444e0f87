"""JSON file format for curvature tensors and general double forms.

A tensor file looks like

    {"n": 4,
     "entries": [{"ij": [1, 2], "kl": [1, 2], "value": 1.0}]}

with 1-based strictly increasing index pairs; unlisted entries are zero
and the (ij) <-> (kl) symmetry is enforced on load.  General (p,q) forms
written by save_form carry explicit "p" and "q" fields and index lists of
the matching lengths.

Indices, "n" and the optional "p" and "q" must be JSON integers and values
JSON numbers; booleans are neither.  The entries are checked one at a
time, and a bad file is reported at its first bad entry, in file order.
Loading rejects non-finite values and checks the first Bianchi identity
with the CurvatureTensor rule.  The default policy is to warn on stderr
and continue; "strict" rejects the file and "project" applies the
orthogonal projection onto the symmetric Bianchi subspace, which has a
closed form: symmetric (2,2) forms split as curvature tensors plus
4-forms, and the 4-form part is read off the Bianchi map.  The projection
is one kernel on stacks of coefficient matrices, _project_stack:
project_bianchi and the "project" policy run it on a stack of one, and
bianchi_projector on the stack of all unit matrices at once.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .exterior import AlgebraContext, cached_table, mask_ranks
from .forms import (BianchiViolation, CurvatureTensor, DoubleForm, _bianchi_scaled, _bianchi_stack,
                    _member_table, _norm, bianchi_residual)

__all__ = ["load_tensor", "save_form", "bianchi_projector", "project_bianchi"]

_POLICIES = ("warn", "strict", "project")


#: The fields of every entry of a tensor file.
_FIELDS = frozenset({"ij", "kl", "value"})


def _index_pair(raw, n: int, where: str, name: str) -> int:
    """The bit mask of the index pair raw, field name of the entry at where,
    checked to be two JSON integers in [1, n], strictly increasing."""
    if type(raw) is not list or len(raw) != 2:
        raise ValueError(f"{where}.{name}: expected a list of 2 indices, got {raw!r}")
    i, j = raw
    if type(i) is not int or type(j) is not int:
        raise ValueError(f"{where}.{name}: indices must be integers, got {raw!r}")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"{where}.{name}: indices must lie in [1, {n}], got {raw!r}")
    if i >= j:
        raise ValueError(f"{where}.{name}: indices must be strictly increasing, got {raw!r}")
    return (1 << (i - 1)) | (1 << (j - 1))


def _read_entries(entries: list, n: int, path) -> np.ndarray:
    """The symmetric (2,2) coefficient matrix that a file's entries list.

    The entries are checked one at a time, in file order; the first fault
    raises ValueError with the message of that entry's first failing check.
    Indices must be JSON integers and values JSON numbers (booleans are
    neither); an integer value too large for a float64 is the infinity it
    rounds to.  The last entry of a symmetric slot sets both of its cells.
    """
    ranks = mask_ranks(n).tolist()
    mat = np.zeros((math.comb(n, 2),) * 2)
    seen = {}  # the value of each symmetric slot at its first entry
    for k, entry in enumerate(entries):
        where = f"{path}: entries[{k}]"
        if type(entry) is not dict:
            raise ValueError(f"{where}: expected an object, got {entry!r}")
        if not _FIELDS.issubset(entry):
            raise ValueError(f"{where}: missing fields {sorted(_FIELDS - set(entry))}")
        a = ranks[_index_pair(entry["ij"], n, where, "ij")]
        b = ranks[_index_pair(entry["kl"], n, where, "kl")]
        raw = entry["value"]
        if type(raw) is not int and type(raw) is not float:
            raise ValueError(f"{where}.value: expected a number, got {raw!r}")
        try:
            value = float(raw)
        except OverflowError:
            value = math.inf if raw > 0 else -math.inf
        if not math.isfinite(value):
            raise ValueError(f"{where}.value: non-finite value {value!r}")
        first = seen.setdefault((a, b) if a <= b else (b, a), value)
        if first != value:  # 0.0 and -0.0 agree
            raise ValueError(f"{where}: conflicts with an earlier entry for the same "
                             f"symmetric slot ({first!r} vs {value!r})")
        mat[a, b] = mat[b, a] = value
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
    try:
        ctx = AlgebraContext(n)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
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
            return _projected(form, path)
        print(f"warning: {path}: {exc}; continuing", file=sys.stderr)
        return CurvatureTensor(form, bianchi_tol=float("inf"))


#: Fibonacci hashing's multiplier, 2**64 over the golden ratio, made odd
_HASH = np.uint64(0x9E3779B97F4A7C15)
#: at most 2**_SLOT_BITS int32 slots (8 MB), about 4 to 8 per distinct key below that
_SLOT_BITS = 21
#: the entries whose texts one lookup takes, at most, so that its temporaries stay small
_BLOCK = 1 << 16


def _float_texts(values: np.ndarray):
    """A lookup from float64 arrays of values' entries to their JSON texts.

    The distinct bit patterns of values, so that -0.0 and 0.0 stay apart,
    are encoded once in one call of the C encoder, which raises ValueError
    on a non-finite value.  The patterns are the sorted array with repeats
    masked out: numpy 2's hash-based np.unique is several times slower and
    imports numpy.ma.

    The lookup returns an object array of strings of its argument's shape.
    It finds each entry's pattern in a direct-address table of slots,
    indexed by the top bits of the pattern times an odd constant (uint64
    arrays wrap without a warning), and checks it there; the entries whose
    pattern lost its slot to another one are found by binary search, so
    every text is exact whatever the collisions.
    """
    if values.dtype != np.float64:
        raise TypeError(f"expected a float64 array, got {values.dtype}")
    keys = np.sort(values.view(np.int64), axis=None)
    keys = np.concatenate((keys[:1], keys[1:][keys[1:] != keys[:-1]]))
    body = json.dumps(keys.view(np.float64).tolist(), allow_nan=False)[1:-1]
    texts = np.array(body.split(", "), dtype=object)
    width = min(_SLOT_BITS, max(1, (4 * len(keys)).bit_length()))
    slots = np.zeros(1 << width, dtype=np.int32)

    def slot(bits):
        return ((bits.view(np.uint64) * _HASH) >> np.uint64(64 - width)).view(np.int64)

    slots[slot(keys)] = np.arange(len(keys), dtype=np.int32)

    def lookup(part):
        bits = part.view(np.int64)
        found = slots[slot(bits)]
        missed = np.flatnonzero(keys[found] != bits)
        if missed.size:
            flat = found.reshape(-1)
            flat[missed] = np.searchsorted(keys, bits.reshape(-1)[missed])
        return texts[found]

    return lookup


def save_form(form, path) -> None:
    """Write a double form (or curvature tensor) as a JSON entry list.

    The file holds the bytes of json.dump(doc, fh, indent=2, allow_nan=False)
    and a newline, where doc is {"n", "p", "q", "entries"} with one entry
    {"ij", "kl", "value"} per nonzero coefficient in row-major order.  It is
    written one matrix row at a time, encoding each distinct value once and
    looking up the texts of a block of rows' nonzero values in one call; a
    non-finite coefficient raises ValueError before the file is opened.
    """
    if isinstance(form, CurvatureTensor):
        form = form.form
    if not isinstance(form, DoubleForm):
        raise TypeError(f"expected DoubleForm or CurvatureTensor, got {type(form).__name__}")
    _write_form(form, path, _float_texts(form.coeffs))


def _write_form(form: DoubleForm, path, value_texts) -> None:
    """save_form's file, with value_texts the _float_texts lookup of the
    form's coefficients, so a caller that encoded them already passes its
    own lookup."""
    n, coeffs = form.ctx.n, form.coeffs

    def index_texts(d):
        # json.dumps(list(I), indent=2) at the depth of an entry's field
        return np.array(["[\n        " + ",\n        ".join(map(str, I)) + "\n      ]" if I else "[]"
                         for I in (_member_table(n, d) + 1).tolist()], dtype=object)

    heads = '{\n      "ij": ' + index_texts(form.p) + ',\n      "kl": '
    cols = index_texts(form.q) + ',\n      "value": '
    step = max(1, _BLOCK // max(1, coeffs.shape[1]))
    close = "\n    }"
    written = False
    with open(path, "w") as fh:
        fh.write(f'{{\n  "n": {n},\n  "p": {form.p},\n  "q": {form.q},\n  "entries": [')
        for start in range(0, len(coeffs), step):
            block = coeffs[start:start + step]
            r, c = np.nonzero(block)
            tails = (cols[c] + value_texts(block[r, c])).tolist()
            ends = np.cumsum(np.bincount(r, minlength=len(block))).tolist()
            for head, lo, hi in zip(heads[start:start + step].tolist(), [0, *ends], ends):
                if lo < hi:
                    fh.write((",\n    " if written else "\n    ") + head
                             + (close + ",\n    " + head).join(tails[lo:hi]) + close)
                    written = True
        fh.write("\n  ]\n}\n" if written else "]\n}\n")


# -- projection onto the symmetric Bianchi subspace ------------------------


@cached_table
def _four_form_table(n: int) -> np.ndarray:
    """Per 4-subset abcd, as rows: rank of abc, d - 1, ranks of ab, cd, ac, bd, ad, bc."""
    members = _member_table(n, 4)
    a, b, c, d = (1 << members).T
    ranks = mask_ranks(n)
    return np.stack([ranks[a | b | c], members[:, 3],
                     *(ranks[x | y] for x, y in ((a, b), (c, d), (a, c), (b, d), (a, d), (b, c)))])


def _project_stack(coeffs: np.ndarray, n: int) -> np.ndarray:
    """project_bianchi of each (2,2) matrix of a stack (members, C(n,2), C(n,2)),
    with one _bianchi_stack call; each member gets the bits of a stack of one."""
    out = (coeffs + coeffs.transpose(0, 2, 1)) / 2.0  # the symmetric part, projected in place
    abc, d, ab, cd, ac, bd, ad, bc = _four_form_table(n)
    alpha = -_bianchi_stack(out, n, 2, 2)[:, abc, d] / 3.0
    for ij, kl, value in ((ab, cd, alpha), (ac, bd, -alpha), (ad, bc, alpha)):
        out[:, ij, kl] -= value
        out[:, kl, ij] -= value
    return out


def project_bianchi(form: DoubleForm) -> DoubleForm:
    """Orthogonal projection of a (2,2) form onto the symmetric Bianchi subspace.

    Symmetric (2,2) forms split orthogonally into curvature tensors and
    the image of 4-forms under lambda(alpha)(xy, zw) = alpha_xyzw.  The
    Bianchi map kills the first part and has b(lambda(alpha))(abc; d) =
    -3 alpha_abcd, so the projection of the symmetric part s is
    s - lambda(alpha) with alpha_abcd = -b(s)(abc; d)/3.  One call of
    _project_stack on a stack of one.
    """
    if form.degree != (2, 2):
        raise ValueError(f"expected a (2,2) form, got {form.degree}")
    return DoubleForm(2, 2, _project_stack(form.coeffs[None], form.ctx.n)[0], form.ctx)


def _projected(form: DoubleForm, path) -> CurvatureTensor:
    """The curvature tensor project_bianchi makes of form, projected at the
    power-of-two scale of the CurvatureTensor check, so that entries near the
    float64 range stay finite.  Its rounding residual is judged against the
    input's norm: the projection of a pure 4-form is zero up to rounding."""
    scaled, (shift,) = _bianchi_scaled(form.coeffs[None])
    projected = DoubleForm(2, 2, _project_stack(scaled, form.ctx.n)[0], form.ctx)
    residual, limit = bianchi_residual(projected), 1e-9 * _norm(scaled[0])
    if not residual <= limit:
        raise BianchiViolation(f"{path}: first Bianchi identity violated after projection: "
                               f"residual {residual:.3e} exceeds {limit:.3e}")
    return CurvatureTensor(DoubleForm(2, 2, np.ldexp(projected.coeffs, shift), form.ctx),
                           bianchi_tol=float("inf"))


@cached_table
def bianchi_projector(n: int) -> np.ndarray:
    """Matrix of project_bianchi on vectorized (2,2) coefficient matrices,
    one _project_stack call on the stack of unit matrices."""
    dim = math.comb(n, 2)
    return _project_stack(np.eye(dim * dim).reshape(-1, dim, dim), n).reshape(dim * dim, -1).T
