"""Every entry point that takes an integer argument checks it through
``lattice.check_bound``: a float or a bool is refused as not an integer,
and a value one step outside the function's range as out of it, each
with ValueError and one message form."""

import pytest

from cremona import verify
from cremona.curves import enumerate_minus_one
from cremona.lattice import (
    PicClass,
    anticanonical_class,
    basis_vector,
    canonical_class,
    check_bound,
)
from cremona.nef import curve_check, fundamental_cone
from cremona.polytopes import (
    ConePolytope,
    build_P,
    build_P_minus,
    build_P_tilde,
    verify_region_R,
    verify_vertex_formulas,
    vertex_formula_families,
)
from cremona.weyl import all_generators, reduce_class


def _class_at(n):
    """A class at n, for the functions that read n off their argument.
    The public constructor refuses a float or bool n with TypeError
    first, so this builds through _trusted, and the function's own check
    is the one that answers."""
    return PicClass._trusted(n, (1,) + (0,) * int(n))


# (call, name, least, most): the call takes the checked value
RANGES = {
    "canonical_class": (canonical_class, "n", 3, None),
    "anticanonical_class": (anticanonical_class, "n", 3, None),
    "basis_vector n": (lambda n: basis_vector(n, 0), "n", 1, None),
    "basis_vector i": (lambda i: basis_vector(3, i), "basis index", 0, 3),
    "enumerate_minus_one n": (lambda n: enumerate_minus_one(n, 2), "n", 3, None),
    "enumerate_minus_one d": (lambda d: enumerate_minus_one(3, d), "max_degree", 0, None),
    "fundamental_cone": (fundamental_cone, "n", 3, None),
    "curve_check": (lambda n: curve_check(_class_at(n)), "n", 3, None),
    "ConePolytope": (lambda n: ConePolytope(n, ()), "n", 1, None),
    "build_P_tilde": (build_P_tilde, "n", 3, None),
    "build_P": (build_P, "n", 3, None),
    "build_P_minus": (build_P_minus, "n", 10, None),
    "vertex_formula_families": (vertex_formula_families, "n", 10, None),
    "verify_region_R": (verify_region_R, "n", 10, None),
    "verify_vertex_formulas": (verify_vertex_formulas, "n", 10, 100),
    "reduce_class": (lambda n: reduce_class(_class_at(n)), "n", 3, None),
    "all_generators": (all_generators, "n", 1, None),
    "run_suite seed": (lambda seed: verify.run_suite("quick", seed=seed), "seed", None, None),
}


def _cases():
    for label, (call, name, least, most) in RANGES.items():
        typical = float(10 if least is None else least)
        refusals = [(typical, f"{name} must be an integer, got {typical!r}"),
                    (True, f"{name} must be an integer, got True")]
        if least is not None:
            refusals.append((least - 1, f"{name} must be >= {least}, got {least - 1}"))
        if most is not None:
            refusals.append((most + 1, f"{name} must be <= {most}, got {most + 1}"))
        for value, message in refusals:
            yield pytest.param(call, value, message, id=f"{label}={value!r}")


CASES = list(_cases())


@pytest.mark.parametrize("call, value, message", CASES)
def test_refused_with_the_check_bound_message(call, value, message):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == message


class TestCheckBound:
    @pytest.mark.parametrize("value", [3, 4, 5])
    def test_admits_the_range_ends(self, value):
        check_bound("x", value, 3, 5)

    @pytest.mark.parametrize("value, message", [
        (2, "x must be >= 3, got 2"),
        (6, "x must be <= 5, got 6"),
        (False, "x must be an integer, got False"),
        (4.0, "x must be an integer, got 4.0"),
        ("4", "x must be an integer, got '4'"),
    ])
    def test_refuses(self, value, message):
        with pytest.raises(ValueError) as info:
            check_bound("x", value, 3, 5)
        assert str(info.value) == message

    def test_no_bound_admits_any_int(self):
        for value in (-(10**30), 0, 10**30):
            check_bound("x", value)

