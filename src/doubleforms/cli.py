"""Command-line interface.

Subcommands: verify (identity suite), weitzenboeck (compute the order-p
operator of a tensor file two ways), spectrum, decompose, sectional and
pcurvature.  Exit status is 0 on success, 1 when the verification suite
finds an identity failure, and 2 on usage or I/O problems and when an
array does not fit in memory (such as a huge --samples).

With --json the computing commands print the bytes of json.dumps(doc,
indent=2, sort_keys=True, allow_nan=False) and a newline.  Each doc is
flat: string keys, and values that are numbers, strings, None or 1-D/2-D
float64 arrays, written as nested lists.  The text is streamed to stdout
one matrix row at a time instead of being built whole; each array's
distinct values are encoded once.  Every number of the document is encoded
before the first byte is written, with or without --json, and before
weitzenboeck --output writes its file, so a non-finite result exits 2 with
one error line on stderr, which names its field (such as "matrix[3][7]" or
"norm"), nothing on stdout and no file; numpy's floating-point warnings
are silenced.  --project takes any symmetric input, a pure 4-form (whose
projection is zero) and entries near the float64 range included.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain

import numpy as np

from .exterior import _is_int, _per_block
from .forms import bianchi_residual, contract_iter, plane_values
from .tensorio import _float_texts, _text_row, _write_form, load_tensor
from . import weitzenboeck as wz

_USAGE_ERROR = 2


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doubleforms",
        description="Double-form calculus and Weitzenboeck curvature operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each option the user leaves out keeps its SuiteConfig default
    v = sub.add_parser("verify", help="run the numerical identity suite", argument_default=argparse.SUPPRESS)
    v.add_argument("--n-min", type=int, help="smallest dimension, in [4, 10]")
    v.add_argument("--n-max", type=int, help="largest dimension, in [4, 10]")
    v.add_argument("--seeds", type=int, help="random tensors per (n, p) cell")
    v.add_argument("--trials", type=int, help="random pairs per sampled check")
    v.add_argument("--tol", type=float, dest="tolerance", metavar="TOL",
                   help="main relative tolerance, finite and positive")
    v.add_argument("--extended", action="store_true", help="sweep up to n = 8, or to a larger --n-max")
    v.add_argument("--seed", type=int, dest="base_seed", metavar="SEED",
                   help="base seed for all randomness, in [0, 2**32)")
    v.add_argument("--json", action="store_true", default=False, help="emit the canonical JSON report")
    v.add_argument("--identity", action="append", dest="identities", metavar="NAME",
                   help="restrict to one identity (repeatable)")

    def add_io(p, with_p=True):
        p.add_argument("--input", required=True, help="tensor file (JSON)")
        if with_p:
            p.add_argument("--p", type=int, required=True, help="operator order")
        group = p.add_mutually_exclusive_group()
        group.add_argument("--strict", action="store_const", dest="on_bianchi", const="strict",
                           default="warn", help="reject files violating the first Bianchi identity")
        group.add_argument("--project", action="store_const", dest="on_bianchi", const="project",
                           help="project the input onto the Bianchi subspace")
        p.add_argument("--json", action="store_true")

    w = sub.add_parser("weitzenboeck", help="compute the order-p operator of a tensor")
    add_io(w)
    w.add_argument("--method", choices=("formula", "definition"), default="formula")
    w.add_argument("--output", help="write the resulting (p,p) form to this file")

    s = sub.add_parser("spectrum", help="eigenvalues and sampled sectional minima of the order-p operator")
    add_io(s)
    s.add_argument("--samples", type=_positive_int, default=100)
    s.add_argument("--seed", type=_seed, default=0)

    d = sub.add_parser("decompose", help="scalar / traceless-Ricci / Weyl split")
    add_io(d, with_p=False)

    sec = sub.add_parser("sectional", help="sampled sectional curvatures of the order-p operator")
    add_io(sec)
    sec.add_argument("--samples", type=_positive_int, default=100)
    sec.add_argument("--seed", type=_seed, default=0)

    pc = sub.add_parser("pcurvature", help="the p-curvature form *(g^(n-p-2) w / (n-p-2)!)")
    add_io(pc)
    return parser


def _pieces(doc: dict, texts: dict | None = None):
    """An iterator over the text of json.dumps(doc, indent=2, sort_keys=True,
    allow_nan=False) in pieces, for a flat document: string keys, and values
    that are numbers, strings, None or 1-D/2-D float64 arrays.  The distinct
    values of each array are encoded here, so every number is encoded, or
    found non-finite, before it returns.  A non-finite number raises the
    encoder's ValueError prefixed with its key, and in an array with [i][j]
    of its first non-finite entry in row-major order, as in "matrix[3][7]".
    texts, when given, maps keys to the _float_texts lookups of arrays
    encoded before, which are used as they are; the lookup of every other
    array is added to it."""
    texts = {} if texts is None else texts
    parts = []
    for key in sorted(doc):
        value = doc[key]
        try:
            if isinstance(value, np.ndarray):
                if key not in texts:
                    texts[key] = _float_texts(value)
                rows = _array_rows(value, texts[key])
            else:
                rows = (json.dumps(value, allow_nan=False),)
        except ValueError as exc:
            at = np.argwhere(~np.isfinite(value))[0] if isinstance(value, np.ndarray) else ()
            raise ValueError(f"{key}{''.join(f'[{i}]' for i in at)}: {exc}") from None
        parts += [(("{" if not parts else ",") + "\n  " + json.dumps(key) + ": ",), rows]
    parts.append(("\n}" if parts else "{}",))
    return chain.from_iterable(parts)


def _array_rows(values: np.ndarray, texts):
    """The JSON text of a 1-D or 2-D float64 array at a key of the document,
    as it would be a nested list, one piece per row.  The entries' texts are
    looked up in texts a block of whole rows (exterior._per_block) per call,
    and only as the pieces are taken, so a document planned but not written
    looks up none."""
    if values.ndim == 1:
        yield _text_row(texts(values), "\n  ")
        return
    step = _per_block(values.shape[1])
    sep = "["
    for start in range(0, len(values), step):
        for row in texts(values[start:start + step]):
            yield sep + "\n    " + _text_row(row, "\n    ")
            sep = ","
    yield "[]" if sep == "[" else "\n  ]"


def _emit(doc: dict, as_json: bool, lines, texts: dict | None = None) -> None:
    """Print doc as JSON or print lines.

    doc is planned (_pieces, with the array texts texts) in either case, so
    a non-finite number in it raises ValueError before anything is written.
    The JSON goes to stdout in the pieces _pieces gives, a matrix row at a
    time.
    """
    pieces = _pieces(doc, texts)
    if as_json:
        sys.stdout.writelines(pieces)
        sys.stdout.write("\n")
    else:
        for line in lines:
            print(line)


def _cmd_verify(args) -> int:
    # imported here, so the other commands never load the suite
    from .verify import SuiteConfig, run_suite

    given = {key: value for key, value in vars(args).items() if key not in ("command", "json")}
    report = run_suite(SuiteConfig(**given))
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        for line in report.human_lines():
            print(line)
    return 0 if report.passed else 1


def _cmd_weitzenboeck(args) -> int:
    tensor = load_tensor(args.input, on_bianchi=args.on_bianchi)
    n = tensor.n
    if args.method == "formula":
        form = wz.np_formula(tensor, args.p)
    else:
        form = wz.np_definition(tensor, args.p)
    doc = {
        "n": n,
        "p": args.p,
        "method": args.method,
        "norm": form.norm(),
        "bianchi_residual": bianchi_residual(form) if args.p >= 1 else 0.0,
        "matrix": form.coeffs,
    }
    texts = {}  # each array's values, encoded once for the file and stdout
    if args.output:
        _pieces(doc, texts)  # a non-finite number fails, named, before the file is written
        _write_form(form, args.output, texts["matrix"])
    lines = [
        f"order-{args.p} operator of {args.input} via {args.method}",
        f"  norm            {doc['norm']:.12g}",
        f"  bianchi residual {doc['bianchi_residual']:.3e}",
    ] + ([f"  written to      {args.output}"] if args.output else [])
    _emit(doc, args.json, lines, texts)
    return 0


def _cmd_spectrum(args) -> int:
    tensor = load_tensor(args.input, on_bianchi=args.on_bianchi)
    form = wz.np_definition(tensor, args.p)
    report = wz.spectrum(form, sample_planes=args.samples, seed=args.seed)
    doc = {
        "n": tensor.n,
        "p": args.p,
        "eigenvalues": report.eigenvalues,
        "min_eigenvalue": report.min_eigenvalue,
        "min_sampled_sectional": report.min_sampled_sectional,
        "sample_count": args.samples,
        "seed": args.seed,
    }
    lines = [
        f"spectrum of the order-{args.p} operator of {args.input}",
        f"  min eigenvalue        {report.min_eigenvalue:.12g}",
        f"  max eigenvalue        {report.eigenvalues[-1]:.12g}",
        f"  min sampled sectional {report.min_sampled_sectional:.12g} "
        f"({args.samples} planes, seed {args.seed})",
    ]
    _emit(doc, args.json, lines)
    return 0


def _cmd_decompose(args) -> int:
    tensor = load_tensor(args.input, on_bianchi=args.on_bianchi)
    comps = wz.decompose_22(tensor)
    scalar = contract_iter(tensor.form, 2).scalar()
    doc = {
        "n": tensor.n,
        "scalar_curvature": scalar,
        "omega0": comps.omega0,
        "omega1": comps.omega1.coeffs,
        "omega1_norm": comps.omega1.norm(),
        "omega2_norm": comps.omega2.norm(),
        "omega2": comps.omega2.coeffs,
    }
    lines = [
        f"decomposition of {args.input} (n={tensor.n})",
        f"  scalar part      {comps.omega0:.12g}  (scalar curvature {scalar:.12g})",
        f"  traceless Ricci  norm {comps.omega1.norm():.12g}",
        f"  Weyl part        norm {comps.omega2.norm():.12g}",
    ]
    _emit(doc, args.json, lines)
    return 0


def _cmd_sectional(args) -> int:
    tensor = load_tensor(args.input, on_bianchi=args.on_bianchi)
    form = wz.np_definition(tensor, args.p)
    frames = wz.sample_frames(np.random.default_rng(args.seed), tensor.n, args.p, args.samples)
    arr = plane_values(form.coeffs, frames, form.ctx)
    doc = {
        "n": tensor.n,
        "p": args.p,
        "samples": args.samples,
        "seed": args.seed,
        "min": float(arr.min()),
        "max": float(arr.max()),
        "mean": float(arr.mean()),
        "values": arr,
    }
    lines = [
        f"sectional curvature of the order-{args.p} operator of {args.input}",
        f"  {args.samples} planes, seed {args.seed}",
        f"  min {arr.min():.12g}   mean {arr.mean():.12g}   max {arr.max():.12g}",
    ]
    _emit(doc, args.json, lines)
    return 0


def _cmd_pcurvature(args) -> int:
    tensor = load_tensor(args.input, on_bianchi=args.on_bianchi)
    form = wz.p_curvature_form(tensor, args.p)
    norm = form.norm()
    # a form with a non-finite entry, or past the float range, has a
    # non-finite norm: it fails here, named as _emit names it, and never
    # reaches spectrum
    _pieces({"norm": norm})
    eigs = wz.spectrum(form, sample_planes=0).eigenvalues
    doc = {
        "n": tensor.n,
        "p": args.p,
        "norm": norm,
        "eigenvalues": eigs,
        "matrix": form.coeffs,
    }
    lines = [
        f"p-curvature form of {args.input} at p={args.p}",
        f"  norm {norm:.12g}",
        f"  eigenvalue range [{eigs[0]:.12g}, {eigs[-1]:.12g}]",
    ]
    _emit(doc, args.json, lines)
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "weitzenboeck": _cmd_weitzenboeck,
    "spectrum": _cmd_spectrum,
    "decompose": _cmd_decompose,
    "sectional": _cmd_sectional,
    "pcurvature": _cmd_pcurvature,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if _is_int(exc.code) else _USAGE_ERROR
    try:
        # an overflow or invalid operation leaves Infinity or NaN in the
        # result, which the command refuses with one error line; numpy's
        # warnings on the way there would only add lines to stderr
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except (OSError, ValueError, TypeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
