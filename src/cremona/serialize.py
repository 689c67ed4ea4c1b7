"""JSON encoding/decoding for the library's result types.

Schemas (all stable, all round-trippable):

  class      {"n": int, "coords": [int|string, ...]}
  word       [{"phi": [i, j, k]} | {"sigma": i}, ...]
  reduction  {"status": "in_cone"|"not_nef", "reduced": class,
              "witness": word, "violated": class|null, "iterations": int}
  verdict    {"verdict": "nef"|"not_nef",
              "method": "reduction_exact" | "curve_check:<max_degree>",
              "witness": word | class | null}
  cartan     [[{"sign": -1|0|1, "cos2": "p/q"}, ...], ...]
  ray        {"coords": [...], "square": int|string, "position": tag,
              "forward": bool, "active_set": [int, ...]}

Integers whose magnitude reaches 2^53 are emitted as decimal strings so
that consumers reading JSON numbers as doubles never lose digits; the
decoders accept either form.

Decoding is strict: a float, a bool, a missing key or a wrong shape
raises ValueError rather than being coerced, so no value is ever
silently rounded on its way in.  A reduction's ``status`` and
``iterations`` and a verdict's ``verdict`` are written out but not
stored: the records derive them (``status`` from ``violated``,
``iterations`` from the phi steps of the witness, ``verdict`` from the
witness kind).  So a decoder reads the stored parts, builds the record,
and raises ValueError when a document's copy differs from the derived
value.  It also refuses a cartan matrix that is not square and
symmetric, a witness of the wrong kind for its method, a not-nef
witness of square >= 0 that is not effective (it certifies nothing), a
curve-check bound with a leading zero, and a reduction not at one
``n`` or whose ``reduced`` lies in the fundamental cone iff
``violated`` is set.
"""

from __future__ import annotations

import re

from . import nef, polytopes
from .lattice import PicClass, _decimal, check_bound, pairing
from .weyl import Generator, Phi, ReductionResult, Sigma, WeylWord, _reach

__all__ = [
    "encode_int",
    "decode_int",
    "encode_class",
    "decode_class",
    "encode_word",
    "decode_word",
    "encode_reduction",
    "decode_reduction",
    "encode_verdict",
    "decode_verdict",
    "encode_cartan",
    "decode_cartan",
    "encode_ray",
]

_SAFE = 1 << 53  # doubles represent integers exactly below this
_DECIMAL = re.compile(r"-?[0-9]+")


def encode_int(x: int) -> int | str:
    return x if -_SAFE < x < _SAFE else str(x)


def _encode_ints(xs: tuple[int, ...]) -> list:
    """encode_int of each of xs, with one range test for the usual case
    where all of them are safe."""
    if -_SAFE < min(xs) and max(xs) < _SAFE:
        return list(xs)
    return [encode_int(x) for x in xs]


def decode_int(x: int | str) -> int:
    """An exact integer from a JSON int (not a bool) or a decimal string."""
    if isinstance(x, str) and _DECIMAL.fullmatch(x):
        return _decimal("value", x)
    check_bound("value", x)
    return x


def _field(obj, schema: str, key: str, kind: type | tuple[type, ...]):
    """obj[key], checked to be a kind, with obj checked to be an object."""
    if not isinstance(obj, dict):
        raise ValueError(f"{schema} must be a JSON object, got {obj!r}")
    if key not in obj:
        raise ValueError(f"{schema} is missing {key!r}")
    value = obj[key]
    if kind is int:
        check_bound(f"{schema} {key!r}", value)
    elif not isinstance(value, kind):
        raise ValueError(f"{schema} {key!r} has the wrong type: {value!r}")
    return value


def encode_class(v: PicClass) -> dict:
    return {"n": v.n, "coords": _encode_ints(v.coords)}


def decode_class(obj: dict) -> PicClass:
    n = _field(obj, "class", "n", int)
    coords = _field(obj, "class", "coords", list)
    if not set(map(type, coords)) <= {int}:  # PicClass checks plain ints itself
        coords = [c if type(c) is int else decode_int(c) for c in coords]
    return PicClass(n, tuple(coords))


def _decode_generator(obj: dict) -> Generator:
    # Phi and Sigma refuse an index that is not an int themselves
    if isinstance(obj, dict) and len(obj) == 1:
        if "phi" in obj:
            idx = _field(obj, "generator", "phi", list)
            if len(idx) == 3:
                return Phi(*idx)
        elif "sigma" in obj:
            return Sigma(obj["sigma"])
    raise ValueError(f"generator must be {{'phi': [i, j, k]}} or {{'sigma': i}}, got {obj!r}")


def encode_word(w: WeylWord) -> list:
    ints = w._ints()
    if ints is None:
        return [{"phi": [g.i, g.j, g.k]} if type(g) is Phi else {"sigma": g.i} for g in w.gens]
    triples, sort = ints
    return [{"phi": [i, j, k]} for i, j, k in triples] + [{"sigma": i} for i in sort]


def decode_word(obj: list) -> WeylWord:
    if not isinstance(obj, list):
        raise ValueError(f"word must be a JSON list, got {obj!r}")
    return WeylWord(tuple(_decode_generator(g) for g in obj))


def encode_reduction(r: ReductionResult) -> dict:
    return {
        "status": r.status,
        "reduced": encode_class(r.reduced),
        "witness": encode_word(r.witness),
        "violated": encode_class(r.violated) if r.violated is not None else None,
        "iterations": r.iterations,
    }


def decode_reduction(obj: dict) -> ReductionResult:
    reduced = decode_class(_field(obj, "reduction", "reduced", dict))
    witness = decode_word(_field(obj, "reduction", "witness", list))
    violated = _field(obj, "reduction", "violated", (dict, type(None)))
    violated = decode_class(violated) if violated is not None else None
    # the whole document lives at one n
    n = reduced.n
    if violated is not None and violated.n != n:
        raise ValueError(f"reduction 'violated' has n={violated.n}, but 'reduced' has n={n}")
    for g in witness:
        if _reach(g) > n:
            raise ValueError(f"reduction 'witness' holds {g!r}, out of range for n={n}")
    result = ReductionResult(reduced, witness, violated)
    _check_derived(obj, "reduction", result, {"status": str, "iterations": int})
    if polytopes.membership(nef.fundamental_cone(n), reduced).contains != (violated is None):
        where = "outside" if violated is None else "in"
        raise ValueError(f"reduction is {result.status!r}, but 'reduced' is {where} the cone")
    return result


def _check_derived(obj: dict, schema: str, record, kinds: dict[str, type]) -> None:
    """Refuse a document whose copy of one of the record's derived
    fields, each of the given JSON kind, differs from the record's own."""
    for key, kind in kinds.items():
        stated, derived = _field(obj, schema, key, kind), getattr(record, key)
        if stated != derived:
            raise ValueError(
                f"{schema} {key!r} is {stated!r}, but its stored parts give {derived!r}"
            )


def encode_verdict(v: nef.NefVerdict) -> dict:
    method = (
        nef.METHOD_REDUCTION
        if v.max_degree is None
        else f"{nef.METHOD_CURVE_CHECK}:{v.max_degree}"
    )
    if v.witness is None:
        witness = None
    elif isinstance(v.witness, WeylWord):
        witness = encode_word(v.witness)
    else:
        witness = encode_class(v.witness)
    return {"verdict": v.verdict, "method": method, "witness": witness}


def decode_verdict(obj: dict) -> nef.NefVerdict:
    method = _field(obj, "verdict", "method", str)
    max_degree = None
    if method != nef.METHOD_REDUCTION:
        name, _, bound = method.partition(":")
        if name != nef.METHOD_CURVE_CHECK or not re.fullmatch(r"0|[1-9][0-9]*", bound):
            raise ValueError(f"unknown method {method!r}")
        max_degree = int(bound)
    w = _field(obj, "verdict", "witness", (list, dict, type(None)))
    if w is None:
        witness = None
    elif isinstance(w, list):
        witness = decode_word(w)
    else:
        witness = decode_class(w)
    # NefVerdict refuses a witness of the wrong kind for its method, and a
    # not-nef witness of square >= 0 that is not effective
    result = nef.NefVerdict(witness, max_degree)
    _check_derived(obj, "verdict", result, {"verdict": str})
    return result


def encode_cartan(matrix: tuple[tuple[polytopes.CartanEntry, ...], ...]) -> list:
    return [
        [{"sign": e.sign, "cos2": str(e.cos2)} for e in row] for row in matrix
    ]


def _decode_cartan_entry(obj: dict) -> polytopes.CartanEntry:
    sign = _field(obj, "cartan entry", "sign", int)
    cos2 = _field(obj, "cartan entry", "cos2", str)
    if sign not in (-1, 0, 1) or not re.fullmatch(r"[0-9]+(/[0-9]*[1-9][0-9]*)?", cos2):
        raise ValueError(f"malformed cartan entry {obj!r}")
    # imported here: fractions (and the decimal it imports) would cost
    # every reduce and nef-test process about 3 ms at start-up
    from fractions import Fraction

    value = Fraction(cos2)
    # sign is that of u.v, and cos2 = (u.v)^2 / (u^2 v^2): both vanish together
    if (sign == 0) != (value == 0):
        raise ValueError(f"cartan entry {obj!r}: sign must be 0 exactly when cos2 is 0")
    return polytopes.CartanEntry(sign=sign, cos2=value)


def decode_cartan(obj: list) -> tuple[tuple[polytopes.CartanEntry, ...], ...]:
    if not isinstance(obj, list) or not all(
        isinstance(row, list) and len(row) == len(obj) for row in obj
    ):
        raise ValueError(f"cartan matrix must be a square JSON list of lists, got {obj!r}")
    matrix = tuple(tuple(_decode_cartan_entry(e) for e in row) for row in obj)
    if tuple(zip(*matrix)) != matrix:
        raise ValueError(f"cartan matrix is not symmetric: {obj!r}")
    return matrix


def encode_ray(r: polytopes.Ray) -> dict:
    position = r.position
    return {
        "coords": _encode_ints(r.generator.coords),
        "square": encode_int(pairing(r.generator, r.generator)),
        "position": position.tag,
        "forward": position.forward,
        "active_set": list(r.active_set),
    }
