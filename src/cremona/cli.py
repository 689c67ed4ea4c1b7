"""Command-line interface.

Commands: reduce, curves, cartan, diagram, rays, orbit, nef-test,
region-r, verify.  Vectors are comma-separated integers (x_0,...,x_n).
Every integer on the command line, in a vector or an option, is
optional whitespace, an optional sign and ASCII digits; anything else
("1_0", non-ASCII digits) exits 2, and so does one past the
interpreter's digit limit for converting it.
Formats: text (default), json, csv, and dot for diagrams.

Exit codes: 0 success (and "nef"/"in cone" verdicts), 2 usage or
precondition errors (K-positive input, unsupported n, parse failures),
3 negative mathematical verdicts (not nef, not Coxeter, failed
verification).

``cartan``, ``diagram``, ``rays``, ``curves``, ``nef-test --method
curves``, ``orbit``, ``reduce`` and ``nef-test`` refuse (exit 2) work
past caps, POLYTOPE_MAX_N, CURVES_MAX_CLASSES, ORBIT_MAX_CLASSES and
weyl.REDUCE_MAX_STEPS (phi steps of a reduction; twice it bounds the
generators of a witness), rather than run for hours or fill memory.  A
class carries n + 1 integers and a phi step moves O(n) list entries, so
the class caps of ``curves`` and ``orbit`` shrink by 11/(n + 1) past
n = 10, and the step cap by 100/n past n = 100.

Only integer classes are handled.  Rays of the nef boundary with
irrational coordinates cannot be entered and are out of scope.

Bulk output is streamed: JSON is written as it is encoded, byte for
byte what ``json.dumps(obj, indent=2)`` gives, and every format reaches
stdout in batches of about 64 KiB.  ``curves --n 10 --max-degree 8
--format json`` (117,754 classes, 21.6 MB) peaks at about 37 MiB of RSS
and takes about 1.2 s on a 2-vCPU Linux machine with Python 3.11.7,
where one ``json.dumps`` of the whole document peaked at 260 MiB.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import re
import sys
from collections import Counter
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii

from . import curves, nef, polytopes, verify
from .lattice import LightConePosition, PicClass, _decimal, check_bound, pairing
from .serialize import (
    encode_cartan,
    encode_class,
    encode_ray,
    encode_reduction,
    encode_verdict,
)
from .weyl import ReductionResult, WeylWord, orbit, reduce_class

# The builders are looked up when a command runs: importing cli runs
# neither polytopes nor nef, so reduce and orbit never run them.
_POLYTOPES = {
    "p_tilde": lambda n: polytopes.build_P_tilde(n),
    "p": lambda n: polytopes.build_P(n),
    "p_minus": lambda n: polytopes.build_P_minus(n),
    "fundamental": lambda n: nef.fundamental_cone(n),
}


# Work caps: past them the polytope commands (``cartan``, ``diagram``,
# ``rays``), ``curves``, ``nef-test --method curves`` and ``orbit`` exit
# 2.  At n = 100 rays --polytope p_minus takes about 0.14 s (829 rays),
# of which the double description takes about 0.05 s, growing about 4x
# per doubling of n; cartan takes about 0.08 s, nearly all of it
# start-up (the interpreter alone about 0.04 s, then the modules cli
# and polytopes run), as the matrix itself takes about 2 ms
# (2-vCPU Linux machine, Python 3.11.7, no cached bytecode).  curves --n
# 10 --max-degree 8 gives 117,754 classes (22 MB of JSON), and degree 9
# would give 224,629.  For n <= 8 the walk over degrees ends with the
# classes (240 at n = 8), and from n = 9 on the class cap refuses every
# --max-degree from 20 at n = 9 (2 at n = 100): it is the one bound.
# nef-test --method curves builds no class (one sorted pairing per
# multiplicity multiset, about 0.3 ms at n = 10, degree 8), but it keeps
# the class cap: for large n the multisets grow without bound in the
# degree (16,358 at n = 100, degree 24; 61,082 at degree 28).  The
# orbit of the line class at n = 10 has 6,421 classes of degree <= 4
# and 23,521 of degree <= 5; weyl.orbit stops counting once it passes
# the cap, so the class cap alone bounds its work.  A printed class
# carries n + 1 integers, so past n = 10 _class_cap shrinks the caps of
# curves and orbit by 11/(n + 1): unscaled, curves --n 4000 --max-degree
# 0 --format json took 3.8 s and 138 MiB.
POLYTOPE_MAX_N = 100
CURVES_MAX_CLASSES = 150_000
ORBIT_MAX_CLASSES = 10_000

# One rule for every integer on the command line.  int() alone would also
# take "1_0" and non-ASCII digits such as "١٠".
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


def _int_option(text: str) -> int:
    """argparse type of the integer options."""
    if _INTEGER.fullmatch(text) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    try:
        return _decimal("int value", text)
    except ValueError as exc:  # argparse prints only an ArgumentTypeError's message
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_vector(text: str, n: int) -> PicClass:
    parts = text.split(",")
    if not all(map(_INTEGER.fullmatch, parts)):
        raise ValueError(f"vector must be comma-separated integers, got {text!r}")
    # PicClass refuses a wrong number of coordinates
    return PicClass(n=n, coords=tuple([_decimal("coordinate", part) for part in parts]))


def _format_word(w: WeylWord) -> str:
    """A reduction witness as text, read off its ints (WeylWord._ints)."""
    steps, sort = w._ints()
    it = iter(steps)
    sigmas = [f"sigma({i})" for i in range(max(sort, default=0) + 1)]  # one string per index
    parts = [f"phi({i},{j},{k})" for i, j, k in zip(it, it, it)]
    parts += map(sigmas.__getitem__, sort)
    return " ".join(parts) or "(identity)"


def _coords_str(v: PicClass) -> str:
    return ",".join(str(c) for c in v.coords)


# Streamed output: stdout is written in batches of about 64 KiB, since an
# unbuffered stdout (PYTHONUNBUFFERED) makes every write a system call.
_BATCH_CHARS = 1 << 16
_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.lru_cache(maxsize=16)
def _flat_list_encoder(pad: str):
    """The C encoder for a flat list of scalars, one item per line at pad."""
    return json.JSONEncoder(separators=(",\n" + pad, ": ")).encode


def _key_text(key) -> str:
    """A non-string dict key as the string json.dumps writes in its place."""
    if key is not None and not isinstance(key, (int, float)):
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return json.dumps(key)


class _Output:
    """The CLI's stdout: lines and JSON, written in batches.

    ``json(obj)`` writes exactly ``json.dumps(obj, indent=2)`` and a
    newline, without building the document: it writes the containers
    itself, encodes each flat list of scalars in one call to the C
    encoder, and takes any iterator where a list is expected, so a
    command can pass a generator instead of a list of dicts.
    sys.stdout is looked up when a batch is written, not at import, so
    that redirect_stdout and pytest's capsys see the output.
    """

    def __init__(self) -> None:
        self._buf = io.StringIO()
        self._write = self._buf.write

    def flush(self) -> None:
        if self._buf.tell():
            sys.stdout.write(self._buf.getvalue())
            self._buf.seek(0)
            self._buf.truncate()

    def _spill(self) -> None:
        if self._buf.tell() >= _BATCH_CHARS:
            self.flush()

    def line(self, text: str) -> None:
        self._write(text)
        self._write("\n")
        self._spill()

    def json(self, obj) -> None:
        self._value(obj, "")
        self.line("")

    def _value(self, obj, pad: str) -> None:
        write = self._write
        if type(obj) is int:
            write(int.__repr__(obj))
        elif isinstance(obj, str):
            write(encode_basestring_ascii(obj))
        elif isinstance(obj, dict):
            inner = pad + "  "
            sep = "{\n" + inner
            for key, value in obj.items():
                if not isinstance(key, str):
                    key = _key_text(key)
                write(sep + encode_basestring_ascii(key) + ": ")
                self._value(value, inner)
                sep = ",\n" + inner
            write("{}" if not obj else "\n" + pad + "}")
        elif isinstance(obj, (list, tuple)) and obj and set(map(type, obj)) <= _SCALARS:
            inner = pad + "  "
            text = _flat_list_encoder(inner)(obj)
            write("[\n" + inner + text[1:-1] + "\n" + pad + "]")
        elif isinstance(obj, (list, tuple, Iterator)):
            inner = pad + "  "
            sep = "[\n" + inner
            for item in obj:
                write(sep)
                self._value(item, inner)
                self._spill()
                sep = ",\n" + inner
            write("[]" if sep[0] == "[" else "\n" + pad + "]")  # "[]": no item
        else:  # None, a bool, a float, or a type json.dumps rejects
            write(json.dumps(obj))


# ---------------------------------------------------------------------------
# command handlers


def _cmd_reduce(args: argparse.Namespace, out: _Output) -> int:
    v = _parse_vector(args.vector, args.n)
    result = reduce_class(v)
    if args.format == "json":
        out.json(encode_reduction(result))
    else:
        out.line(f"status: {result.status}")
        out.line(f"reduced: {_coords_str(result.reduced)}")
        out.line(f"witness: {_format_word(result.witness)}")
        out.line(f"iterations: {result.iterations}")
        if result.violated is not None:
            out.line(f"violated: {_coords_str(result.violated)}")
    return 0 if result.status == ReductionResult.IN_CONE else 3


def _class_cap(cap: int, n: int) -> int:
    """``cap`` up to n = 10, past it scaled by the n + 1 integers a class
    carries, and never below one class."""
    return max(cap * 11 // max(n + 1, 11), 1)


def _check_curves_caps(n: int, max_degree: int, cap: int) -> None:
    """Refuse an enumeration of more than ``cap`` (-1)-classes.  The
    count adds one binomial product per S_n orbit, so its cost depends on
    the multiplicity multisets and not on n: under 1 ms at n = 14,
    degree 8 (91.8 M classes), and n = 149,999 is refused at degree 1."""
    if curves._count_minus_one(n, max_degree, cap) > cap:
        raise ValueError(f"--n {n} --max-degree {max_degree} gives more than {cap} classes")


def _cmd_curves(args: argparse.Namespace, out: _Output) -> int:
    _check_curves_caps(args.n, args.max_degree, _class_cap(CURVES_MAX_CLASSES, args.n))
    classes = curves.enumerate_minus_one(args.n, args.max_degree)
    if args.format == "json":
        out.json(
            {
                "n": args.n,
                "max_degree": args.max_degree,
                "count": len(classes),
                "classes": (encode_class(c) for c in classes),
            }
        )
    elif args.format == "csv":
        out.line("degree,multiplicities,coords")
        for c in classes:
            mults = " ".join(str(-x) for x in c.coords[1:])
            coords = " ".join(str(x) for x in c.coords)
            out.line(f"{c.coords[0]},{mults},{coords}")
    else:
        by_degree = Counter(c.coords[0] for c in classes)
        for d in sorted(by_degree):
            out.line(f"degree {d}: {by_degree[d]}")
        out.line(f"total: {len(classes)}")
    return 0


def _build_polytope(args: argparse.Namespace) -> polytopes.ConePolytope:
    check_bound("n", args.n, most=POLYTOPE_MAX_N)
    return _POLYTOPES[args.polytope](args.n)


def _cmd_cartan(args: argparse.Namespace, out: _Output) -> int:
    matrix = polytopes.cartan_matrix(_build_polytope(args))
    if args.format == "json":
        out.json(encode_cartan(matrix))
        return 0
    tokens = [[polytopes.render_cartan_entry(e) for e in row] for row in matrix]
    if args.format == "csv":
        for row in tokens:
            out.line(",".join(row))
        return 0
    width = max(len(t) for row in tokens for t in row)
    for row in tokens:
        out.line("  ".join(t.rjust(width) for t in row))
    return 0


def _cmd_diagram(args: argparse.Namespace, out: _Output) -> int:
    P = _build_polytope(args)
    check = polytopes.is_coxeter(P)
    if not check:
        for i, j, ang in check.offending:
            sys.stderr.write(
                f"not a Coxeter polytope: pair (v_{i}, v_{j}) has "
                f"cos^2 = {ang.cos2}, not a submultiple of pi\n"
            )
        return 3
    diagram = polytopes.coxeter_diagram(P)  # the angle pass kept on P
    out.line(diagram.to_dot() if args.format == "dot" else diagram.to_ascii())
    return 0


def _cmd_rays(args: argparse.Namespace, out: _Output) -> int:
    rays = polytopes.extremal_rays(_build_polytope(args))
    tags = [r.position.tag for r in rays]
    if args.format == "json":
        out.json(
            {
                "n": args.n,
                "polytope": args.polytope,
                "count": len(rays),
                "boundary": tags.count(LightConePosition.BOUNDARY),
                "rays": (encode_ray(r) for r in rays),
            }
        )
    elif args.format == "csv":
        out.line("coords,square,position")
        for r, tag in zip(rays, tags):
            coords = " ".join(str(x) for x in r.generator.coords)
            out.line(f"{coords},{pairing(r.generator, r.generator)},{tag}")
    else:
        for r, tag in zip(rays, tags):
            square = pairing(r.generator, r.generator)
            out.line(f"{_coords_str(r.generator)}  square={square}  {tag}")
        out.line(f"rays: {len(rays)}, boundary: {tags.count(LightConePosition.BOUNDARY)}")
    return 0


def _cmd_orbit(args: argparse.Namespace, out: _Output) -> int:
    v = _parse_vector(args.vector, args.n)
    if args.max_degree is None and args.max_count is None:
        raise ValueError("orbit needs --max-degree and/or --max-count")
    cap = _class_cap(ORBIT_MAX_CLASSES, args.n)
    if args.max_count is not None:
        check_bound("max_count", args.max_count, most=cap)  # orbit checks >= 1
    max_count = cap if args.max_count is None else args.max_count
    result = orbit(v, args.max_degree, max_count=max_count)
    if args.max_count is None and result.truncated:
        raise ValueError(
            f"the orbit within --max-degree {args.max_degree} has more than {cap} classes"
        )
    if args.format == "json":
        out.json(
            {
                "count": len(result.classes),
                "truncated": result.truncated,
                "classes": (encode_class(c) for c in result.classes),
            }
        )
    elif args.format == "csv":
        out.line("coords")
        for c in result.classes:
            out.line(" ".join(str(x) for x in c.coords))
    else:
        for c in result.classes:
            out.line(_coords_str(c))
        out.line(f"count: {len(result.classes)}, truncated: {result.truncated}")
    return 0


def _cmd_nef_test(args: argparse.Namespace, out: _Output) -> int:
    v = _parse_vector(args.vector, args.n)
    if args.method == "curves":
        max_degree = 6 if args.max_degree is None else args.max_degree
        _check_curves_caps(args.n, max_degree, CURVES_MAX_CLASSES)
        verdict = nef.curve_check(v, max_degree=max_degree)
    elif args.max_degree is not None:
        raise ValueError("--max-degree applies only with --method curves")
    else:
        verdict = nef.is_nef_K_nonpositive(v)
    if args.format == "json":
        out.json(encode_verdict(verdict))
    else:
        out.line(f"verdict: {verdict.verdict}")
        if verdict.method == nef.METHOD_REDUCTION:
            out.line(f"method: {verdict.method}")
        else:
            out.line(f"method: curve_check up to degree {verdict.max_degree}")
        if isinstance(verdict.witness, WeylWord):
            out.line(f"witness: {_format_word(verdict.witness)}")
        elif isinstance(verdict.witness, PicClass):
            out.line(f"witness: {_coords_str(verdict.witness)}")
    return 0 if verdict.verdict == nef.NEF else 3


def _cmd_region_r(args: argparse.Namespace, out: _Output) -> int:
    report = polytopes.verify_region_R(args.n)
    if args.format == "json":
        out.json(
            {
                "n": report.n,
                "rows": [
                    {
                        "triple": list(r.triple),
                        "point": [str(x) for x in r.point],
                        "is_vertex": r.is_vertex,
                        "f": str(r.f_value),
                    }
                    for r in report.rows
                ],
                "vertex_count": report.vertex_count,
                "max_f_at_vertices": str(report.max_f_at_vertices),
                "ok": report.ok(),
            }
        )
    else:
        for r in report.rows:
            point = "(" + ", ".join(str(x) for x in r.point) + ")"
            vertex = "vertex" if r.is_vertex else "not a vertex"
            f = f"  f={r.f_value}" if r.is_vertex else ""
            out.line(f"planes {r.triple}: {point}  {vertex}{f}")
        out.line(
            f"vertices: {report.vertex_count}, "
            f"max f at vertices: {report.max_f_at_vertices}"
        )
    return 0 if report.ok() else 3


def _cmd_verify(args: argparse.Namespace, out: _Output) -> int:
    report = verify.run_suite(suite=args.suite, seed=args.seed)
    if args.format == "json":
        # a row per check: its fields, in order, as keys
        out.json([{name: getattr(c, name) for name in c.__slots__} for c in report.checks])
    else:
        for c in report.checks:
            out.line(f"{c.status.upper():5s} {c.name}")
            if c.status == verify.FAIL:
                out.line(f"      claim:    {c.claim}")
                out.line(f"      expected: {c.expected}")
                out.line(f"      computed: {c.computed}")
            elif c.status == verify.XFAIL:
                out.line(f"      {c.claim}")
        failed = sum(1 for c in report.checks if c.status == verify.FAIL)
        xfailed = sum(1 for c in report.checks if c.status == verify.XFAIL)
        summary = f"{len(report.checks)} checks, {failed} failed"
        if xfailed:
            summary += f", {xfailed} expected failures (documented)"
        out.line(summary)
    return 0 if report.passed() else 3


# ---------------------------------------------------------------------------
# parser


def _add_common(sub: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    sub.add_argument("--n", type=_int_option, default=9, help="number of blown-up points")
    sub.add_argument("--format", choices=formats, default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cremona",
        description="Exact computations in the Picard lattice of blowups "
        "of the plane: group reduction, nef tests, (-1)-classes, cone "
        "geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a class into the fundamental cone")
    _add_common(p, ("text", "json"))
    p.add_argument("--vector", required=True, help="comma-separated x_0,...,x_n")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("curves", help="enumerate (-1)-classes up to a degree")
    _add_common(p, ("text", "json", "csv"))
    p.add_argument("--max-degree", type=_int_option, default=6)
    p.set_defaults(handler=_cmd_curves)

    p = sub.add_parser("cartan", help="exact Cartan matrix of a named polytope")
    _add_common(p, ("text", "json", "csv"))
    p.add_argument("--polytope", choices=sorted(_POLYTOPES), default="p")
    p.set_defaults(handler=_cmd_cartan)

    p = sub.add_parser("diagram", help="Coxeter diagram (DOT or ASCII)")
    _add_common(p, ("text", "dot"))
    p.add_argument("--polytope", choices=sorted(_POLYTOPES), default="p")
    p.set_defaults(handler=_cmd_diagram)

    p = sub.add_parser("rays", help="extremal rays with light-cone tags")
    _add_common(p, ("text", "json", "csv"))
    p.add_argument("--polytope", choices=sorted(_POLYTOPES), default="p")
    p.set_defaults(handler=_cmd_rays)

    p = sub.add_parser("orbit", help="bounded group orbit of a class")
    _add_common(p, ("text", "json", "csv"))
    p.add_argument("--vector", required=True)
    p.add_argument("--max-degree", type=_int_option, default=None)
    p.add_argument("--max-count", type=_int_option, default=None)
    p.set_defaults(handler=_cmd_orbit)

    p = sub.add_parser("nef-test", help="decide nef membership (K-nonpositive side)")
    _add_common(p, ("text", "json"))
    p.add_argument("--vector", required=True)
    p.add_argument("--method", choices=("reduction", "curves"), default="reduction")
    p.add_argument("--max-degree", type=_int_option, default=None,
                   help="bound for --method curves (default 6)")
    p.set_defaults(handler=_cmd_nef_test)

    p = sub.add_parser("region-r", help="triple intersections of the region-R planes")
    _add_common(p, ("text", "json"))
    p.set_defaults(handler=_cmd_region_r)

    p = sub.add_parser("verify", help="run the named verification checks")
    p.add_argument("--suite", choices=("paper", "quick"), default="paper")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--seed", type=_int_option, default=0)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out = _Output()
    try:
        try:
            check_bound("n", getattr(args, "n", 3), 3)  # every command with --n
            return args.handler(args, out)
        except ValueError as exc:  # includes KPositiveError and parse problems
            sys.stderr.write(f"error: {exc}\n")
            return 2
        finally:
            out.flush()
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (as `| head` does): exit 1 without
        # a traceback, and point stdout at os.devnull so that the flush at
        # interpreter shutdown has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
