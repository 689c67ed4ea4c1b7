"""JSON encoding round trips, including past-2^53 integer safety."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cremona import weyl
from cremona.cli import _format_word, main
from cremona.lattice import PicClass, basis_vector, canonical_class, pairing
from cremona.nef import (
    METHOD_CURVE_CHECK,
    METHOD_REDUCTION,
    NEF,
    NOT_NEF,
    NefVerdict,
    check_certificate,
    curve_check,
    fundamental_cone,
    is_nef_K_nonpositive,
)
from cremona.polytopes import build_P, cartan_matrix, extremal_rays, membership
from cremona.serialize import (
    decode_cartan,
    decode_class,
    decode_int,
    decode_reduction,
    decode_verdict,
    decode_word,
    encode_cartan,
    encode_class,
    encode_int,
    encode_ray,
    encode_reduction,
    encode_verdict,
    encode_word,
)
from cremona.weyl import Phi, ReductionResult, Sigma, WeylWord, apply_word, reduce_class

BIG = 2**60 + 3
SRC = Path(__file__).resolve().parent.parent / "src"


def json_round(obj):
    return json.loads(json.dumps(obj))


class TestIntegers:
    def test_small_ints_stay_ints(self):
        assert encode_int(42) == 42
        assert encode_int(-(2**53) + 1) == -(2**53) + 1

    def test_big_ints_become_strings(self):
        assert encode_int(BIG) == str(BIG)
        assert encode_int(-BIG) == str(-BIG)

    def test_round_trip(self):
        for x in (0, 7, -7, 2**53, -(2**53), BIG, -BIG):
            assert decode_int(json_round(encode_int(x))) == x


class TestStrictDecoding:
    def test_float_coordinate_rejected(self):
        with pytest.raises(ValueError):
            decode_class({"n": 9, "coords": [1.5] + [0] * 9})
        with pytest.raises(ValueError):
            decode_class({"n": 1, "coords": [1.0, 0]})

    def test_bool_rejected(self):
        with pytest.raises(ValueError):
            decode_class({"n": True, "coords": [1, 0]})
        with pytest.raises(ValueError):
            decode_int(False)

    def test_decode_int_forms(self):
        assert decode_int(-12) == -12
        assert decode_int("-12") == -12
        for bad in ("1.0", "1e3", " 7", "1_000", "", "0x10", None, 2.0, [1]):
            with pytest.raises(ValueError):
                decode_int(bad)

    # decode_class's messages, frozen from the decoder that checked every
    # coordinate with decode_int before PicClass checked n and the length
    REFUSALS = {
        "bool coordinate": ([1, True, 0, 0], 3, "value must be an integer, got True"),
        "float coordinate": ([1, 0, 2.0, 0], 3, "value must be an integer, got 2.0"),
        "underscore": ([1, "1_0", 0, 0], 3, "value must be an integer, got '1_0'"),
        "plus sign": ([1, "+5", 0, 0], 3, "value must be an integer, got '+5'"),
        "arabic digit": ([1, "\u0663", 0, 0], 3, "value must be an integer, got '\u0663'"),
        "None coordinate": ([1, None, 0, 0], 3, "value must be an integer, got None"),
        "list coordinate": ([1, [1], 0, 0], 3, "value must be an integer, got [1]"),
        "too few coordinates": ([1, 0, 0], 3, "expected 4 coordinates for n=3, got 3"),
        "n = 0": ([1], 0, "n must be >= 1, got 0"),
        "n = True": ([1, 0], True, "class 'n' must be an integer, got True"),
        "a coordinate before n": ([1.5], 0, "value must be an integer, got 1.5"),
        "a coordinate before the length": ([True], 3, "value must be an integer, got True"),
        "the first bad coordinate": ([1, "x", None, 0], 3, "value must be an integer, got 'x'"),
    }

    @pytest.mark.parametrize("coords, n, message", REFUSALS.values(), ids=REFUSALS)
    def test_class_refusals_keep_their_messages(self, coords, n, message):
        with pytest.raises(ValueError) as exc:
            decode_class({"n": n, "coords": coords})
        assert type(exc.value) is ValueError and str(exc.value) == message

    def test_ints_and_decimal_strings_decode_alike(self):
        plain = decode_class({"n": 4, "coords": [5, -2, -1, 0, BIG]})
        assert decode_class({"n": 4, "coords": [5, "-2", -1, "0", str(BIG)]}) == plain
        assert plain.coords == (5, -2, -1, 0, BIG)
        assert all(type(c) is int for c in plain.coords)

    def test_a_decimal_past_the_digit_limit_names_the_value(self):
        limit = sys.get_int_max_str_digits()
        text = "1" * (limit + 1)
        message = f"^value has more than {limit} digits$"
        with pytest.raises(ValueError, match=message):
            decode_int(text)
        with pytest.raises(ValueError, match=message):
            decode_class({"n": 3, "coords": [text, 0, 0, 0]})
        assert decode_int("-" + "1" * limit) == -int("1" * limit)

    @pytest.mark.parametrize(
        "obj",
        [{"coords": [1, 0]}, {"n": 1}, [1, 0], None, {"n": 1, "coords": "10"}],
    )
    def test_malformed_class(self, obj):
        with pytest.raises(ValueError):
            decode_class(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            [{"phi": [1, 2]}],
            [{"phi": [1, 2, 3, 4]}],
            [{"phi": "123"}],
            [{"sigma": "1"}],
            [{"sigma": True}],
            [{"tau": 1}],
            [{"phi": [1, 2, 3], "sigma": 1}],
            [[1, 2, 3]],
            {"phi": [1, 2, 3]},
        ],
    )
    def test_malformed_word(self, obj):
        with pytest.raises(ValueError):
            decode_word(obj)

    @pytest.mark.parametrize(
        "obj, message",
        [
            ([{"phi": [1, True, 3]}], "Phi index must be an integer, got True"),
            ([{"phi": [1, 2, 3.0]}], "Phi index must be an integer, got 3.0"),
            ([{"sigma": 2.5}], "Sigma index must be an integer, got 2.5"),
            ([{"sigma": "1"}], "Sigma index must be an integer, got '1'"),
            ([{"sigma": None}], "Sigma index must be an integer, got None"),
            ([{"sigma": 0}], "Sigma index must be >= 1, got 0"),
        ],
    )
    def test_generator_indices_are_checked_by_the_generators(self, obj, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            decode_word(obj)


json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["n", "coords", "phi", "sigma", "status", "reduced", "witness",
                         "violated", "iterations", "verdict", "method", "sign", "cos2"]),
        inner,
        max_size=5,
    ),
    max_leaves=12,
)
DECODERS = (decode_int, decode_class, decode_word, decode_reduction, decode_verdict,
            decode_cartan)


class TestOneInversionTable:
    """A nef query builds its witness's inversion table once, for the cap
    check, and the sort word is spelled from it whenever it is read."""

    NEF_BASE = PicClass(12, (12, -3, -1, -4, -2, -1, -5, 0, -1, -2, -1, -3, -1))

    @pytest.mark.parametrize(
        "v, verdict",
        [
            (apply_word((Phi(1, 2, 7), Phi(3, 5, 9), Sigma(4)), NEF_BASE), NEF),
            (PicClass(9, (2, 0, -1, 0, 1, -1, 0, 0, 0, -1)), NOT_NEF),
        ],
        ids=[NEF, NOT_NEF],
    )
    def test_a_query_builds_one_table(self, monkeypatch, v, verdict):
        calls = []
        table = weyl._inversion_table
        monkeypatch.setattr(
            weyl, "_inversion_table", lambda *args: calls.append(args) or table(*args)
        )
        result = is_nef_K_nonpositive(decode_class(json_round(encode_class(v))))
        encoded = encode_verdict(result)
        assert result.verdict == verdict and len(calls) == 1
        if verdict == NEF:
            w = result.witness
            assert len(encoded["witness"]) == len(w.gens) == len(w)
            assert "phi" in encoded["witness"][0] and "sigma" in encoded["witness"][-1]
            assert _format_word(w).startswith("phi(")
            assert len(calls) == 1


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_decoders_raise_only_value_error(self, obj):
        for decode in DECODERS:
            try:
                decode(obj)
            except ValueError:
                pass

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["n", "coords"]),
        json_values,
        st.integers(1, 12).flatmap(
            lambda n: st.tuples(st.just(n), st.lists(st.integers(), min_size=n + 1, max_size=n + 1))
        ),
    )
    def test_one_bad_field_in_a_class(self, key, value, class_data):
        n, coords = class_data
        obj = {"n": n, "coords": coords, key: value}
        try:
            v = decode_class(obj)
        except ValueError:
            return
        assert all(type(c) is int for c in v.coords)  # never a coerced float


class TestClasses:
    def test_round_trip(self):
        v = PicClass(4, (3, -1, -1, 0, 2))
        assert decode_class(json_round(encode_class(v))) == v

    def test_big_coordinates_survive_json(self):
        v = PicClass(3, (BIG, -BIG, 1, 0))
        out = json_round(encode_class(v))
        assert decode_class(out) == v
        assert out["coords"][0] == str(BIG)

    @given(
        st.integers(1, 20).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(-(2**80), 2**80), min_size=n + 1, max_size=n + 1),
            )
        )
    )
    def test_hypothesis_round_trip(self, data):
        n, coords = data
        v = PicClass(n, tuple(coords))
        assert decode_class(json_round(encode_class(v))) == v


# generator indices of several kinds and signs, many of them refused
indices = st.integers(-3, 12) | st.integers(2**62, 2**66) | st.booleans() | st.floats()
# and index triples half of which Phi accepts
triples = st.tuples(indices, indices, indices) | st.lists(
    st.integers(1, 2**64), min_size=3, max_size=3, unique=True
).map(sorted)


def _built(make, *args):
    """make(*args), or None when the constructor refuses the arguments."""
    try:
        return make(*args)
    except ValueError:
        return None


class TestWords:
    def test_round_trip(self):
        w = WeylWord((Phi(1, 2, 3), Sigma(2), Phi(2, 4, 5), Sigma(1)))
        assert decode_word(json_round(encode_word(w))) == w

    @given(
        st.lists(
            st.integers(1, 30).map(Sigma)
            | st.lists(st.integers(1, 30), min_size=3, max_size=3, unique=True).map(
                lambda ijk: Phi(*sorted(ijk))
            ),
            max_size=20,
        )
    )
    def test_hypothesis_round_trip(self, gens):
        w = WeylWord(tuple(gens))
        assert decode_word(json_round(encode_word(w))) == w

    @given(
        st.lists(
            triples.map(lambda ijk: _built(Phi, *ijk))
            | indices.map(lambda i: _built(Sigma, i)),
            max_size=20,
        )
    )
    def test_every_word_the_constructors_accept_round_trips(self, gens):
        # indices of any type and sign; a generator its constructor
        # refuses drops out, and every other one survives the JSON
        w = WeylWord(tuple(g for g in gens if g is not None))
        assert decode_word(json_round(encode_word(w))) == w

    def test_empty_word(self):
        assert encode_word(WeylWord()) == []
        assert decode_word(json_round(encode_word(WeylWord()))) == WeylWord()

    def test_mixed_word_shape(self):
        w = WeylWord((Sigma(3), Phi(1, 2, 3), Phi(2, 4, 5), Sigma(1), Sigma(1)))
        assert encode_word(w) == [
            {"sigma": 3},
            {"phi": [1, 2, 3]},
            {"phi": [2, 4, 5]},
            {"sigma": 1},
            {"sigma": 1},
        ]
        assert decode_word(encode_word(w)) == w

    @given(
        st.lists(
            st.integers(1, 30).map(lambda i: {"sigma": i})
            | st.lists(st.integers(1, 30), min_size=3, max_size=3, unique=True).map(
                lambda ijk: {"phi": sorted(ijk)}
            ),
            max_size=20,
        )
    )
    def test_encodes_each_generator_in_order(self, items):
        # the expected JSON is drawn first and the word built from it
        w = WeylWord(
            tuple(Phi(*d["phi"]) if "phi" in d else Sigma(d["sigma"]) for d in items)
        )
        assert encode_word(w) == items
        assert decode_word(encode_word(w)) == w


class TestReduction:
    def test_in_cone_round_trip(self):
        res = reduce_class(PicClass(9, (2, -1, -1, -1, 0, 0, 0, 0, 0, 0)))
        back = decode_reduction(json_round(encode_reduction(res)))
        assert back == res

    def test_not_nef_round_trip(self):
        res = reduce_class(basis_vector(9, 1))
        back = decode_reduction(json_round(encode_reduction(res)))
        assert back == res
        assert back.violated is not None

    def test_status_must_fit_violated(self):
        in_cone = json_round(encode_reduction(reduce_class(basis_vector(9, 0))))
        in_cone["violated"] = encode_class(basis_vector(9, 1))
        not_nef = json_round(encode_reduction(reduce_class(basis_vector(9, 1))))
        not_nef["violated"] = None
        for doc in (in_cone, not_nef):
            with pytest.raises(ValueError, match="'status' is '.*', but its stored parts give"):
                decode_reduction(doc)

    def test_iterations_must_count_the_phi_steps(self):
        res = reduce_class(basis_vector(9, 0))
        assert res.iterations == 0 and not any(isinstance(g, Phi) for g in res.witness)
        doc = json_round(encode_reduction(res))
        doc["iterations"] = 7
        with pytest.raises(ValueError, match="'iterations' is 7, but its stored parts give 0"):
            decode_reduction(doc)

    def test_one_lattice_for_the_whole_document(self):
        # reduced at n = 9, violated at n = 4 and a generator past n = 9:
        # each part is well-formed, and status and iterations fit
        doc = json_round(encode_reduction(reduce_class(basis_vector(9, 1))))
        doc["violated"] = encode_class(basis_vector(4, 1))
        doc["witness"][0] = {"phi": [1, 2, 30]}
        doc["iterations"] = 1
        with pytest.raises(ValueError, match="n=4, but 'reduced' has n=9"):
            decode_reduction(doc)

    def test_reduced_must_fit_the_cone(self):
        # e_1 violates e_1 - e_2 >= 0, so it lies outside the cone
        in_cone = json_round(encode_reduction(reduce_class(basis_vector(9, 0))))
        in_cone["reduced"] = encode_class(basis_vector(9, 1))
        with pytest.raises(ValueError, match="'in_cone', but 'reduced' is outside the cone"):
            decode_reduction(in_cone)
        not_nef = json_round(encode_reduction(reduce_class(basis_vector(9, 1))))
        not_nef["reduced"] = encode_class(basis_vector(9, 0))
        with pytest.raises(ValueError, match="'not_nef', but 'reduced' is in the cone"):
            decode_reduction(not_nef)

    @pytest.mark.parametrize(
        "part, value, message",
        [
            ("violated", encode_class(basis_vector(4, 1)), "'violated' has n=4"),
            ("witness", [{"phi": [1, 2, 10]}], r"Phi\(1,2,10\), out of range for n=9"),
            ("witness", [{"sigma": 9}], r"Sigma\(9\), out of range for n=9"),
        ],
    )
    def test_each_part_must_live_at_n(self, part, value, message):
        doc = json_round(encode_reduction(reduce_class(basis_vector(9, 1))))
        doc[part] = value
        doc["iterations"] = sum("phi" in g for g in doc["witness"])
        with pytest.raises(ValueError, match=message):
            decode_reduction(doc)

    def test_needs_three_points(self):
        doc = {"status": "in_cone", "reduced": {"n": 2, "coords": [1, 0, 0]}, "witness": [],
               "violated": None, "iterations": 0}
        with pytest.raises(ValueError, match=r"^n must be >= 3, got 2$"):
            decode_reduction(doc)

    def test_a_large_document_decodes_in_linear_memory(self):
        # the identity reduction of (1; 0^n) at n = 60,000, a 180 KB
        # document: the cone test reads its inequalities in O(n), where a
        # dense cone would hold n^2 = 3.6e9 entries.  The child caps its
        # own address space at 1 GiB, so a quadratic decoder fails fast
        # instead of exhausting the machine's memory
        probe = (
            "import json, resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from cremona.lattice import PicClass\n"
            "from cremona.serialize import decode_reduction, encode_reduction\n"
            "from cremona.weyl import reduce_class\n"
            "v = PicClass(60_000, (1,) + (0,) * 60_000)\n"
            "text = json.dumps(encode_reduction(reduce_class(v)))\n"
            "res = decode_reduction(json.loads(text))\n"
            "print(len(text), res.status, res.reduced == v)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=20,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "180111 in_cone True\n"


class TestVerdicts:
    @pytest.mark.parametrize("bound", ["007", "00", "01", "-1", "+1", " 1", "1.0", ""])
    def test_curve_check_bound_is_canonical(self, bound):
        doc = json_round(encode_verdict(curve_check(basis_vector(6, 0), max_degree=1)))
        doc["method"] = f"curve_check:{bound}"
        with pytest.raises(ValueError, match="unknown method"):
            decode_verdict(doc)

    @pytest.mark.parametrize(
        "n, vector, method",
        [
            (9, "1,0,0,0,0,0,0,0,0,0", "reduction"),
            (9, "0,1,0,0,0,0,0,0,0,0", "reduction"),
            (9, "6,-3,-2,-2,-2,-1,-1,-1,0,0", "reduction"),
            (6, "1,0,0,0,0,0,0", "curves:0"),
            (6, "1,0,0,0,0,0,0", "curves:6"),
            (9, "3,-1,-1,-1,-1,-1,-1,-1,-1,-1", "curves:10"),
            (6, "0,1,0,0,0,0,0", "curves:6"),
            (9, "5,-3,-1,-1,-1,-1,-1,-1,-1,-1", "curves:3"),
        ],
    )
    def test_cli_verdicts_are_byte_stable(self, capsys, n, vector, method):
        # decode then encode gives back the very bytes nef-test wrote
        argv = ["nef-test", "--n", str(n), "--vector", vector, "--format", "json"]
        if method != "reduction":
            argv += ["--method", "curves", "--max-degree", method.partition(":")[2]]
        code = main(argv)
        out = capsys.readouterr().out
        assert code == (3 if json.loads(out)["verdict"] == NOT_NEF else 0)
        again = json.dumps(encode_verdict(decode_verdict(json.loads(out))), indent=2) + "\n"
        assert again == out

    def test_reduction_method(self):
        res = is_nef_K_nonpositive(basis_vector(9, 0))
        out = json_round(encode_verdict(res))
        assert out["method"] == "reduction_exact"
        assert decode_verdict(out) == res

    def test_curve_method_embeds_degree(self):
        res = curve_check(basis_vector(6, 0), max_degree=4)
        out = json_round(encode_verdict(res))
        assert out["method"] == "curve_check:4"
        assert decode_verdict(out) == res

    def test_witness_shapes(self):
        # word witness -> list, class witness -> object, none -> null
        nef_word = json_round(encode_verdict(is_nef_K_nonpositive(basis_vector(9, 0))))
        assert isinstance(nef_word["witness"], list)
        not_nef = json_round(encode_verdict(is_nef_K_nonpositive(basis_vector(9, 1))))
        assert isinstance(not_nef["witness"], dict)
        clean = json_round(encode_verdict(curve_check(basis_vector(6, 0))))
        assert clean["witness"] is None
        for blob in (nef_word, not_nef, clean):
            assert decode_verdict(blob).verdict in ("nef", "not_nef")

    def test_nef_by_reduction_needs_a_word(self):
        doc = json_round(encode_verdict(is_nef_K_nonpositive(basis_vector(9, 0))))
        doc["witness"] = encode_class(basis_vector(9, 0))
        with pytest.raises(ValueError, match="'verdict' is 'nef', but its stored parts give"):
            decode_verdict(doc)

    def test_forged_not_nef_witness_is_refused(self):
        # -e_0 would certify the nef class e_0 as not nef: it pairs to -1
        # with it, but has square 1 and degree -1, so it is not effective;
        # NefVerdict refuses it, so the document is forged from a real one
        e0 = basis_vector(9, 0)
        doc = json_round(encode_verdict(is_nef_K_nonpositive(basis_vector(9, 1))))
        assert doc["verdict"] == NOT_NEF
        doc["witness"] = json_round(encode_class(-e0))
        with pytest.raises(ValueError, match="has square >= 0 and is not effective"):
            decode_verdict(doc)
        for max_degree in (0, 6):
            doc["method"] = f"{METHOD_CURVE_CHECK}:{max_degree}"
            with pytest.raises(ValueError, match="is not effective"):
                decode_verdict(doc)

    @pytest.mark.parametrize(
        "coords, verdict",
        [((10, -3, -3, -2, -2, -2, -1, -1, -1, 0), NEF), ((1,) + (0,) * 8 + (1,), NOT_NEF)],
    )
    def test_a_reduction_verdict_encodes_without_building_a_generator(self, coords, verdict):
        word = WeylWord((Phi(1, 2, 3), Sigma(4), Phi(2, 5, 7), Sigma(1), Phi(3, 8, 9)))
        v = apply_word(word, PicClass(9, coords))

        def counting(cls):
            return mock.patch.object(cls, "__init__", autospec=True, side_effect=cls.__init__)

        with counting(Phi) as phis, counting(Sigma) as sigmas:
            result = is_nef_K_nonpositive(v)
            json.dumps(encode_verdict(result))
            assert result.verdict == verdict and phis.call_count == sigmas.call_count == 0
            if verdict == NEF:  # reading the word's generators builds them
                assert reduce_class(v).witness.gens and phis.call_count and sigmas.call_count

    def test_not_nef_by_curve_check_needs_a_class(self):
        verdict = curve_check(basis_vector(6, 1), max_degree=4)
        assert verdict.verdict == "not_nef"
        doc = json_round(encode_verdict(verdict))
        doc["witness"] = encode_word(WeylWord((Phi(1, 2, 3),)))
        with pytest.raises(ValueError, match="max_degree=4 cannot have the witness"):
            decode_verdict(doc)


# K-nonpositive classes at n = 9..12: about one in six is nef, and most
# have v^2 >= 0, so the curve check reaches its scan
k_nonpositive = (
    st.integers(9, 12)
    .flatmap(
        lambda n: st.builds(
            lambda x0, tail: PicClass(n, (x0, *tail)),
            st.integers(0, 40),
            st.lists(st.integers(-12, 2), min_size=n, max_size=n),
        )
    )
    .filter(lambda v: not v.is_zero() and pairing(v, canonical_class(v.n)) <= 0)
)


class TestDerivedFields:
    """The records store only what they cannot derive; the derived fields
    keep the meanings they had as stored fields, and the documents round
    trip."""

    @settings(max_examples=150, deadline=None)
    @given(k_nonpositive)
    def test_reduction(self, v):
        r = reduce_class(v)
        assert decode_reduction(json_round(encode_reduction(r))) == r
        in_cone = bool(membership(fundamental_cone(v.n), r.reduced))
        assert (r.violated is None) is in_cone
        assert r.status == (ReductionResult.IN_CONE if in_cone else ReductionResult.NOT_NEF)
        if not in_cone:
            assert pairing(r.violated, v) < 0
        assert r.iterations == sum(type(g) is Phi for g in r.witness)

    @settings(max_examples=150, deadline=None)
    @given(k_nonpositive)
    def test_verdicts(self, v):
        exact = is_nef_K_nonpositive(v)
        bounded = curve_check(v, 6)
        for verdict in (exact, bounded):
            assert decode_verdict(json_round(encode_verdict(verdict))) == verdict
            assert verdict.verdict == (NOT_NEF if isinstance(verdict.witness, PicClass) else NEF)
        assert exact.method == METHOD_REDUCTION and exact.max_degree is None
        assert bounded.method == METHOD_CURVE_CHECK and bounded.max_degree == 6
        assert exact.verdict == (NEF if reduce_class(v).violated is None else NOT_NEF)
        assert isinstance(exact.witness, WeylWord if exact.is_nef() else PicClass)
        assert bounded.witness is None or isinstance(bounded.witness, PicClass)
        assert check_certificate(v, exact)


# a witness of every kind NefVerdict might be handed, and bounds of
# every type a caller might pass
any_witness = st.one_of(
    st.none(),
    st.lists(st.integers(1, 8).map(Sigma), max_size=4).map(lambda gens: WeylWord(tuple(gens))),
    st.lists(st.integers(-(2**60), 2**60), min_size=10, max_size=10).map(
        lambda coords: PicClass(9, tuple(coords))
    ),
)
any_bound = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 2**70), st.floats(allow_nan=False), st.text(max_size=3)
)


def certifies_some_class(w: PicClass) -> bool:
    """Square < 0 (the witness may be the input itself), or effective by
    Riemann-Roch: degree >= 0 and w^2 >= K.w."""
    square = pairing(w, w)
    return square < 0 or (w.coords[0] >= 0 and square >= pairing(canonical_class(w.n), w))


@settings(max_examples=300, deadline=None)
@given(any_witness, any_bound)
def test_every_verdict_the_constructor_accepts_round_trips(witness, max_degree):
    try:
        verdict = NefVerdict(witness, max_degree)
    except ValueError:
        return
    # the constructor takes no not-nef witness that certifies no class
    assert not isinstance(witness, PicClass) or certifies_some_class(witness)
    assert decode_verdict(json_round(encode_verdict(verdict))) == verdict


class TestCartan:
    def test_round_trip_exact(self):
        matrix = cartan_matrix(build_P(9))
        back = decode_cartan(json_round(encode_cartan(matrix)))
        assert back == matrix
        # fractions go through as strings, never floats
        out = json_round(encode_cartan(matrix))
        assert out[8][9]["cos2"] == "1/2"

    def test_fraction_strings(self):
        matrix = cartan_matrix(build_P(9))
        out = encode_cartan(matrix)
        for row in out:
            for entry in row:
                assert isinstance(entry["cos2"], str)
                Fraction(entry["cos2"])  # parses

    @pytest.mark.parametrize(
        "entry",
        [{"sign": 0, "cos2": "1/4"}, {"sign": 1, "cos2": "0"}, {"sign": -1, "cos2": "0"}],
        ids=["zero_sign", "positive_sign", "negative_sign"],
    )
    def test_sign_is_zero_exactly_when_cos2_is(self, entry):
        with pytest.raises(ValueError, match="sign must be 0 exactly when cos2 is 0"):
            decode_cartan([[entry]])
        for good in ({"sign": 0, "cos2": "0"}, {"sign": 1, "cos2": "1/4"}, {"sign": -1, "cos2": "4"}):
            assert decode_cartan([[good]])[0][0].sign == good["sign"]

    @pytest.mark.parametrize(
        "entry",
        [{"sign": 2, "cos2": "1/4"}, {"sign": 1, "cos2": "1.5"}, {"sign": 1, "cos2": "-1/4"},
         {"sign": 1, "cos2": "1/0"}],
        ids=["sign_2", "decimal_point", "negative", "zero_denominator"],
    )
    def test_malformed_entry_raises(self, entry):
        with pytest.raises(ValueError, match=f"^malformed cartan entry {re.escape(repr(entry))}$"):
            decode_cartan([[entry]])

    E = {"sign": 1, "cos2": "1/4"}
    Z = {"sign": 0, "cos2": "0"}

    @pytest.mark.parametrize("matrix", [[[E, E], [E]], [[E], [E]], [[E, E]]],
                             ids=["ragged", "tall", "wide"])
    def test_matrix_must_be_square(self, matrix):
        with pytest.raises(ValueError, match="^cartan matrix must be a square JSON list of lists"):
            decode_cartan(matrix)

    def test_matrix_must_be_symmetric(self):
        with pytest.raises(ValueError, match="^cartan matrix is not symmetric"):
            decode_cartan([[self.Z, self.E], [self.Z, self.Z]])
        assert decode_cartan([[self.Z, self.E], [self.E, self.Z]])[0][1].cos2 == Fraction(1, 4)
        assert decode_cartan([]) == ()


class TestRays:
    def test_shape(self):
        ray = extremal_rays(build_P(9))[0]
        out = json_round(encode_ray(ray))
        assert set(out) == {"coords", "square", "position", "forward", "active_set"}
        assert out["position"] in ("interior", "boundary", "outside")
        assert isinstance(out["active_set"], list)
        back = PicClass(9, tuple(decode_int(c) for c in out["coords"]))
        assert back == ray.generator
