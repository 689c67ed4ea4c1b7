"""Every refused argument raises ValueError, with one message form for
each kind of refusal.  An integer argument, the coordinates of a
PicClass included, is checked through ``lattice.check_bound``: a float
or a bool is refused as not an integer, and a value one step outside the
function's range as out of it.  A sequence argument goes through
``lattice.as_tuple``, which refuses one that is not iterable, and a
class, cone, verdict or Cartan entry argument through
``lattice.check_class``, which refuses anything but a PicClass, a
ConePolytope, a NefVerdict or an AngleClass respectively.  (An item of a word that is not a Phi or a Sigma gets
WeylWord's refusal wherever it is applied; test_weyl.py checks that.)
A walk over the package's export table calls every public function
with each argument made wrong in turn.  The last tests parse the
package: they keep TypeError to the two places that follow Python's own
conventions, and an isinstance refusal to the places that own one."""

import ast
import inspect
from pathlib import Path

import pytest

import cremona
from cremona import verify
from cremona.curves import enumerate_minus_one, orbit
from cremona.lattice import (
    PicClass,
    anticanonical_class,
    as_tuple,
    basis_vector,
    canonical_class,
    check_bound,
    check_class,
    degree,
    light_cone_position,
    pairing,
)
from cremona.nef import (
    NefVerdict,
    check_certificate,
    curve_check,
    fundamental_cone,
    is_nef_K_nonpositive,
)
from cremona.polytopes import (
    ConePolytope,
    Halfspace,
    boundary_rays,
    build_P,
    build_P_minus,
    build_P_tilde,
    cartan_matrix,
    coxeter_diagram,
    extremal_rays,
    finite_volume,
    gram_matrix,
    is_coxeter,
    is_implied,
    membership,
    redundant_constraints,
    render_cartan_entry,
    verify_region_R,
    verify_vertex_formulas,
    vertex_formula_families,
)
from cremona.weyl import (
    Phi,
    Sigma,
    WeylWord,
    all_generators,
    apply_word,
    fixed_hyperplane_normal,
    reduce_class,
    sort_coordinates,
)


# (call, name, least, most): the call takes the checked value
RANGES = {
    "PicClass n": (lambda n: PicClass(n, (1, 0)), "n", 1, None),
    "PicClass coordinate": (lambda c: PicClass(2, (1, 0, c)), "coordinate", None, None),
    "canonical_class": (canonical_class, "n", 3, None),
    "anticanonical_class": (anticanonical_class, "n", 3, None),
    "basis_vector n": (lambda n: basis_vector(n, 0), "n", 1, None),
    "basis_vector i": (lambda i: basis_vector(3, i), "basis index", 0, 3),
    "enumerate_minus_one n": (lambda n: enumerate_minus_one(n, 2), "n", 3, None),
    "enumerate_minus_one d": (lambda d: enumerate_minus_one(3, d), "max_degree", 0, None),
    "fundamental_cone": (fundamental_cone, "n", 3, None),
    # these two read n off a class, and a class refuses a float or bool n
    # with the same message
    "curve_check": (lambda n: curve_check(basis_vector(n, 0)), "n", 3, None),
    "reduce_class": (lambda n: reduce_class(basis_vector(n, 0)), "n", 3, None),
    "ConePolytope": (lambda n: ConePolytope(n, ()), "n", 1, None),
    "build_P_tilde": (build_P_tilde, "n", 3, None),
    "build_P": (build_P, "n", 3, None),
    "build_P_minus": (build_P_minus, "n", 10, None),
    "vertex_formula_families": (vertex_formula_families, "n", 10, None),
    "verify_region_R": (verify_region_R, "n", 10, None),
    "verify_vertex_formulas": (verify_vertex_formulas, "n", 10, 100),
    "fixed_hyperplane_normal": (
        lambda n: fixed_hyperplane_normal(Sigma(1), n), "n", None, None
    ),
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


# (call, message): a sequence argument that is not iterable
NOT_ITERABLE = {
    "PicClass coords": (lambda: PicClass(3, 5), "coords must be iterable, got 5"),
    "ConePolytope halfspaces": (lambda: ConePolytope(9, 5), "halfspaces must be iterable, got 5"),
    "WeylWord gens": (lambda: WeylWord(5), "gens must be iterable, got 5"),
    "apply_word": (lambda: apply_word(5, basis_vector(3, 0)), "word must be iterable, got 5"),
    "as_tuple": (lambda: as_tuple("x", None), "x must be iterable, got None"),
}


@pytest.mark.parametrize("call, message", NOT_ITERABLE.values(), ids=NOT_ITERABLE)
def test_a_non_iterable_sequence_is_refused(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# (call, message): a class argument that is not a PicClass
NOT_A_CLASS = {
    "pairing u": (lambda: pairing(5, basis_vector(3, 0)), "u must be a PicClass, got 5"),
    "pairing v": (lambda: pairing(basis_vector(3, 0), 5), "v must be a PicClass, got 5"),
    "reduce_class": (lambda: reduce_class((1, 0, 0, 0)), "v must be a PicClass, got (1, 0, 0, 0)"),
    "apply_word": (lambda: apply_word([], (1, 0, 0, 0)), "v must be a PicClass, got (1, 0, 0, 0)"),
    "membership": (lambda: membership(build_P(3), [1, 0, 0, 0]),
                   "v must be a PicClass, got [1, 0, 0, 0]"),
    "is_nef_K_nonpositive": (lambda: is_nef_K_nonpositive(None), "v must be a PicClass, got None"),
    "orbit": (lambda: orbit(5, max_count=1), "v must be a PicClass, got 5"),
    "sort_coordinates": (lambda: sort_coordinates((1, 0, 0, 0)),
                         "v must be a PicClass, got (1, 0, 0, 0)"),
    "curve_check": (lambda: curve_check(5, 3), "v must be a PicClass, got 5"),
    "light_cone_position": (lambda: light_cone_position(5), "v must be a PicClass, got 5"),
    "degree": (lambda: degree(5), "v must be a PicClass, got 5"),
    "is_implied normal": (lambda: is_implied(build_P(3), 5), "normal must be a PicClass, got 5"),
    "check_certificate v": (lambda: check_certificate(5, NefVerdict(basis_vector(3, 1))),
                            "v must be a PicClass, got 5"),
    "check_class": (lambda: check_class("x", "e0"), "x must be a PicClass, got 'e0'"),
}


@pytest.mark.parametrize("call, message", NOT_A_CLASS.values(), ids=NOT_A_CLASS)
def test_an_argument_that_is_not_a_class_is_refused(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# (call, message): a cone, verdict or Cartan entry argument of the wrong kind
NOT_A_CONE = {
    "membership": (lambda: membership(5, basis_vector(3, 0)), "P must be a ConePolytope, got 5"),
    "gram_matrix": (lambda: gram_matrix(None), "P must be a ConePolytope, got None"),
    "cartan_matrix": (lambda: cartan_matrix(None), "P must be a ConePolytope, got None"),
    "is_coxeter": (lambda: is_coxeter(None), "P must be a ConePolytope, got None"),
    "coxeter_diagram": (lambda: coxeter_diagram(None), "P must be a ConePolytope, got None"),
    "extremal_rays": (lambda: extremal_rays(5), "P must be a ConePolytope, got 5"),
    "boundary_rays": (lambda: boundary_rays(5), "P must be a ConePolytope, got 5"),
    "finite_volume": (lambda: finite_volume(None), "P must be a ConePolytope, got None"),
    "is_implied": (lambda: is_implied(5, basis_vector(3, 0)), "P must be a ConePolytope, got 5"),
    "redundant_constraints": (lambda: redundant_constraints(5), "P must be a ConePolytope, got 5"),
    "check_class cone": (lambda: check_class("x", "P", ConePolytope),
                         "x must be a ConePolytope, got 'P'"),
    "check_certificate verdict": (lambda: check_certificate(basis_vector(3, 0), None),
                                  "verdict must be a NefVerdict, got None"),
    "render_cartan_entry": (lambda: render_cartan_entry(Sigma(1)),
                            "entry must be an AngleClass, got Sigma(1)"),
}


@pytest.mark.parametrize("call, message", NOT_A_CONE.values(), ids=NOT_A_CONE)
def test_a_cone_or_verdict_of_the_wrong_kind_is_refused(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# Every public function of the export table, with small valid arguments
# for each of its parameters: n <= 10, max_degree <= 3, the quick suite.
_v = PicClass(3, (3, -1, -1, 0))
_P = build_P(3)
VALID = {
    "pairing": {"u": basis_vector(3, 0), "v": basis_vector(3, 1)},
    "basis_vector": {"n": 3, "i": 1},
    "canonical_class": {"n": 3},
    "anticanonical_class": {"n": 3},
    "degree": {"v": _v},
    "light_cone_position": {"v": _v},
    "apply_generator": {"g": Phi(1, 2, 3), "v": _v},
    "apply_word": {"w": WeylWord((Phi(1, 2, 3), Sigma(1))), "v": _v},
    "fixed_hyperplane_normal": {"g": Sigma(1), "n": 3},
    "sort_coordinates": {"v": _v},
    "reduce_class": {"v": _v},
    "all_generators": {"n": 3},
    "orbit": {"v": basis_vector(3, 1), "max_degree": 2, "max_count": 10},
    "is_minus_one_class": {"v": basis_vector(3, 1)},
    "enumerate_minus_one": {"n": 3, "max_degree": 2},
    "decompose_inequality": {"c": PicClass(3, (1, -1, -1, 0))},
    "build_P_tilde": {"n": 3},
    "build_P": {"n": 3},
    "build_P_minus": {"n": 10},
    "membership": {"P": _P, "v": _v},
    "gram_matrix": {"P": _P},
    "classify_angle": {"u": Halfspace(basis_vector(3, 1)), "v": PicClass(3, (0, 1, -1, 0))},
    "cartan_matrix": {"P": _P},
    "render_cartan_entry": {"entry": cartan_matrix(_P)[0][1]},
    "is_coxeter": {"P": _P},
    "coxeter_diagram": {"P": _P},
    "extremal_rays": {"P": _P},
    "boundary_rays": {"P": _P},
    "finite_volume": {"P": _P},
    "is_implied": {"P": _P, "normal": basis_vector(3, 3)},
    "redundant_constraints": {"P": _P},
    "vertex_formula_families": {"n": 10},
    "verify_vertex_formulas": {"n": 10},
    "verify_region_R": {"n": 10},
    "fundamental_cone": {"n": 3},
    "is_nef_K_nonpositive": {"v": _v},
    "curve_check": {"v": _v, "max_degree": 3},
    "check_certificate": {"v": _v, "verdict": is_nef_K_nonpositive(_v)},
    "run_suite": {"suite": "quick", "seed": 0},
    "check_names": {"suite": "quick"},
}

# (function, parameter) -> the exception other than ValueError that a
# wrong value there may raise, with the reason.  Empty: every public
# function refuses each wrong argument with ValueError.
NOT_VALUE_ERROR: dict[tuple[str, str], type] = {}


def _public_functions():
    return {
        name: getattr(cremona, name)
        for names in cremona._EXPORTS.values()
        for name in names
        if inspect.isfunction(getattr(cremona, name))
    }


def test_the_walk_names_every_parameter_of_every_public_function():
    functions = _public_functions()
    assert functions.keys() == VALID.keys()
    for name, function in functions.items():
        assert list(inspect.signature(function).parameters) == list(VALID[name]), name


@pytest.mark.parametrize("name", VALID)
def test_a_wrong_argument_raises_value_error_or_nothing(name):
    function = getattr(cremona, name)
    function(**VALID[name])
    for parameter, good in VALID[name].items():
        # a record of another kind than the valid argument: a class for a generator or word
        record = basis_vector(3, 1) if isinstance(good, (Phi, Sigma, WeylWord)) else Sigma(1)
        for bad in (None, 5, record):
            try:
                function(**{**VALID[name], parameter: bad})
            except ValueError:
                pass
            except Exception as error:
                allowed = NOT_VALUE_ERROR.get((name, parameter))
                assert allowed is not None and isinstance(error, allowed), (parameter, bad, error)


class TestAsTuple:
    def test_a_tuple_is_returned_itself(self):
        items = (1, 2, 3)
        assert as_tuple("x", items) is items

    @pytest.mark.parametrize(
        "items", [[1, 2, 3], range(1, 4), iter([1, 2, 3]), dict.fromkeys([1, 2, 3])]
    )
    def test_an_iterable_becomes_a_tuple_of_its_items(self, items):
        assert as_tuple("x", items) == (1, 2, 3)


SRC = Path(__file__).resolve().parent.parent / "src" / "cremona"

# The only home of a TypeError the package raises: Python's arity
# convention for a record's fields.  Every other refused argument is a
# ValueError.
TYPE_ERROR_HOMES = {"lattice.py Record.__init__"}


def _type_error_raises(path):
    """Where the module at ``path`` raises TypeError or defines a
    subclass of it, as "file scope" strings, scope being the dotted
    name of the enclosing classes and functions."""
    found = []

    def names_type_error(node):
        return isinstance(node, ast.Name) and node.id == "TypeError"

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
                if isinstance(child, ast.ClassDef) and any(map(names_type_error, child.bases)):
                    found.append(f"{path.name} {'.'.join(inner)}")
            elif isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if names_type_error(exc):
                    found.append(f"{path.name} {'.'.join(scope)}")
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return found


def test_type_error_is_raised_only_at_its_home():
    found = [place for path in sorted(SRC.glob("*.py")) for place in _type_error_raises(path)]
    # equality, not a subset: the walk must find the home it allows
    assert set(found) == TYPE_ERROR_HOMES, found


# Where a refusal tests isinstance itself, as "module.scope": the kind
# rules, check_bound and check_class, and the checks that own their
# message (a verdict's witness, a cone's items and the JSON shapes).
# Any other argument of a record kind goes through check_class.
ISINSTANCE_REFUSALS = {
    "lattice.check_bound",
    "lattice.check_class",
    "nef.NefVerdict.__init__",
    "polytopes.ConePolytope.__init__",
    "serialize._field",
    "serialize.decode_cartan",
    "serialize.decode_word",
}


def _isinstance_refusals(path):
    """Each scope of the module at ``path`` with a ``raise ValueError``
    directly in the body of an ``if`` (or ``elif``) whose test calls isinstance."""
    found = set()

    def calls_isinstance(test):
        return any(
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
            for node in ast.walk(test)
        )

    def raises_value_error(statement):
        if not isinstance(statement, ast.Raise) or statement.exc is None:
            return False
        exc = statement.exc.func if isinstance(statement.exc, ast.Call) else statement.exc
        return isinstance(exc, ast.Name) and exc.id == "ValueError"

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            elif isinstance(child, ast.If) and calls_isinstance(child.test):
                if any(map(raises_value_error, child.body)):
                    found.add(f"{path.stem}.{'.'.join(scope)}")
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return found


def test_an_isinstance_refusal_lives_only_where_a_kind_rule_does():
    found = set().union(*map(_isinstance_refusals, sorted(SRC.glob("*.py"))))
    # equality, not a subset: the walk must find each place it allows
    assert found == ISINSTANCE_REFUSALS
