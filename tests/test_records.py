"""Value semantics of the public record types: equality and hashing by
value, immutability, copying and pickling, and a repr frozen from the
frozen dataclasses these types used to be."""

import copy
import importlib
import inspect
import pickle
from fractions import Fraction

import pytest

import cremona
from cremona.lattice import Record


def examples() -> dict[str, object]:
    """One instance of each public record type, built through its public
    constructor with a mix of positional, keyword and default arguments."""
    c = cremona
    v = c.PicClass(3, (1, -1, 0, 0))
    e3 = c.PicClass(n=3, coords=(0, 0, 0, 1))
    word = c.WeylWord((c.Phi(1, 2, 3), c.Sigma(2)))
    wall = c.Halfspace(c.PicClass(3, (0, 1, -1, 0)))
    angle = c.AngleClass(1, cos2=Fraction(1, 4))
    edge = c.DiagramEdge(0, 1, "plain", 3)
    check = c.CheckResult("rays_p9", "pass", "a claim", "10 rays", "10 rays")
    row = c.polytopes.RegionRRow((0, 1, 3), (Fraction(-1), Fraction(0), Fraction(0)), True,
                                 Fraction(1))
    return {
        "PicClass": v,
        "LightConePosition": c.LightConePosition("boundary", forward=True),
        "Phi": c.Phi(1, 2, 3),
        "Sigma": c.Sigma(i=2),
        "WeylWord": word,
        "ReductionResult": c.ReductionResult(v, word, violated=e3),
        "OrbitResult": c.OrbitResult((v, e3), truncated=False),
        "Decomposition": c.Decomposition((c.PicClass(3, (1, -1, -1, -1)),),
                                         c.PicClass(3, (1, -1, -1, 0))),
        "Halfspace": wall,
        "ConePolytope": c.ConePolytope(n=3, halfspaces=(wall,)),
        "MembershipResult": c.MembershipResult(wall.normal),
        "AngleClass": angle,
        "CoxeterCheck": c.CoxeterCheck(((0, 1, angle),)),
        "CoxeterDiagram": c.CoxeterDiagram(("v0", "v1"), (edge,)),
        "DiagramEdge": edge,
        "Ray": c.Ray(v, (0, 2)),
        "VertexFormulaReport": c.VertexFormulaReport(10, (v,), (v, e3)),
        "RegionRReport": c.RegionRReport(10, (row,)),
        "NefVerdict": c.NefVerdict(word),
        "CheckResult": check,
        "VerificationReport": c.VerificationReport(checks=(check,)),
    }


# repr(examples()[name]), frozen from the frozen dataclasses; a repr
# lists the stored fields only, so derived values are left out
FROZEN_REPR = {
    'AngleClass': 'AngleClass(sign=1, cos2=Fraction(1, 4))',
    'CheckResult': "CheckResult(name='rays_p9', status='pass', claim='a claim', expected='10 rays', computed='10 rays')",
    'ConePolytope': 'ConePolytope(n=3, halfspaces=(Halfspace(normal=PicClass(3, (0, 1, -1, 0))),))',
    'CoxeterCheck': 'CoxeterCheck(offending=((0, 1, AngleClass(sign=1, cos2=Fraction(1, 4))),))',
    'CoxeterDiagram': "CoxeterDiagram(labels=('v0', 'v1'), edges=(DiagramEdge(i=0, j=1, style='plain', m=3),))",
    'Decomposition': 'Decomposition(cubics=(PicClass(3, (1, -1, -1, -1)),), conic=PicClass(3, (1, -1, -1, 0)))',
    'DiagramEdge': "DiagramEdge(i=0, j=1, style='plain', m=3)",
    'Halfspace': 'Halfspace(normal=PicClass(3, (0, 1, -1, 0)))',
    'LightConePosition': "LightConePosition(tag='boundary', forward=True)",
    'MembershipResult': 'MembershipResult(violated=PicClass(3, (0, 1, -1, 0)))',
    'NefVerdict': "NefVerdict(witness=WeylWord(gens=(Phi(1,2,3), Sigma(2))), max_degree=None)",
    'OrbitResult': 'OrbitResult(classes=(PicClass(3, (1, -1, 0, 0)), PicClass(3, (0, 0, 0, 1))), truncated=False)',
    'Phi': 'Phi(1,2,3)',
    'PicClass': 'PicClass(3, (1, -1, 0, 0))',
    'Ray': 'Ray(generator=PicClass(3, (1, -1, 0, 0)), active_set=(0, 2))',
    'ReductionResult': "ReductionResult(reduced=PicClass(3, (1, -1, 0, 0)), witness=WeylWord(gens=(Phi(1,2,3), Sigma(2))), violated=PicClass(3, (0, 0, 0, 1)))",
    'RegionRReport': 'RegionRReport(n=10, rows=(RegionRRow(triple=(0, 1, 3), point=(Fraction(-1, 1), Fraction(0, 1), Fraction(0, 1)), is_vertex=True, f_value=Fraction(1, 1)),))',
    'Sigma': 'Sigma(2)',
    'VerificationReport': "VerificationReport(checks=(CheckResult(name='rays_p9', status='pass', claim='a claim', expected='10 rays', computed='10 rays'),))",
    'VertexFormulaReport': 'VertexFormulaReport(n=10, formula_rays=(PicClass(3, (1, -1, 0, 0)),), computed_rays=(PicClass(3, (1, -1, 0, 0)), PicClass(3, (0, 0, 0, 1))))',
    'WeylWord': 'WeylWord(gens=(Phi(1,2,3), Sigma(2)))',
}

# every class cremona exports, bar its exception; MinusOneClass is PicClass
# and CartanEntry is AngleClass
RECORD_TYPES = {
    value
    for value in (getattr(cremona, name) for name in cremona.__all__)
    if isinstance(value, type) and not issubclass(value, BaseException)
}


def test_every_public_record_type_has_an_example():
    assert {t.__name__ for t in RECORD_TYPES} == set(examples())
    for t in RECORD_TYPES:
        assert issubclass(t, Record)
        assert type(examples()[t.__name__]) is t


@pytest.mark.parametrize("name", sorted(examples()))
class TestRecord:
    def test_equal_and_hashed_by_value(self, name):
        a, b = examples()[name], examples()[name]
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_not_equal_to_a_tuple_of_its_values(self, name):
        a = examples()[name]
        values = tuple(getattr(a, field) for field in type(a).__slots__)
        assert a != values and values != a
        assert a != values[0]

    def test_assignment_and_deletion_raise(self, name):
        a = examples()[name]
        field = type(a).__slots__[0]
        before = getattr(a, field)
        with pytest.raises(AttributeError):
            setattr(a, field, before)
        with pytest.raises(AttributeError):
            delattr(a, field)
        with pytest.raises(AttributeError):
            a.not_a_field = 1
        assert getattr(a, field) is before
        assert not hasattr(a, "__dict__")

    def test_copies_and_pickles_are_equal(self, name):
        a = examples()[name]
        for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(b) is type(a)
            assert b == a and hash(b) == hash(a)
            assert repr(b) == repr(a)

    def test_repr_is_frozen(self, name):
        assert repr(examples()[name]) == FROZEN_REPR[name]


def test_records_of_different_types_are_unequal():
    assert cremona.MembershipResult(()) != cremona.CoxeterCheck(())
    assert cremona.Phi(1, 2, 3) != cremona.Sigma(1)


# the values each example derives, as its constructor used to store them
DERIVED = {
    "ReductionResult": {"status": "not_nef", "iterations": 1},
    "NefVerdict": {"verdict": "nef", "method": "reduction_exact"},
    "MembershipResult": {"contains": False},
    "CoxeterCheck": {"is_coxeter": False},
    "AngleClass": {"kind": "pi_over", "m": 3},
    "DiagramEdge": {"multiplicity": 1},
    "Ray": {"position": cremona.LightConePosition("boundary", forward=True)},
}


@pytest.mark.parametrize("name", sorted(DERIVED))
def test_derived_verdicts_are_read_only_properties(name):
    a = examples()[name]
    for field, value in DERIVED[name].items():
        assert field not in type(a).__slots__
        assert isinstance(getattr(type(a), field), property)
        assert getattr(a, field) == value
        with pytest.raises(AttributeError):
            setattr(a, field, value)


def package_records() -> dict[str, type]:
    """Every Record subclass the package defines, by qualified name."""
    for module in ("lattice", "weyl", "curves", "nef", "polytopes", "verify"):
        importlib.import_module(f"cremona.{module}")
    return {
        cls.__qualname__: cls
        for cls in Record.__subclasses__()
        if cls.__module__.startswith("cremona.")
    }


# the records whose constructor checks, coerces or defaults an argument,
# and the three that cone_audit builds hundreds of per cycle
OWN_CONSTRUCTOR = {
    "PicClass", "Phi", "Sigma", "WeylWord", "ReductionResult", "Halfspace",
    "ConePolytope", "NefVerdict", "Ray", "AngleClass", "DiagramEdge",
}
# the records that only store their fields, through Record's constructor
BASE_CONSTRUCTOR = {
    "LightConePosition", "OrbitResult", "Decomposition", "MembershipResult",
    "CoxeterCheck", "CoxeterDiagram", "VertexFormulaReport", "RegionRRow",
    "RegionRReport", "CheckResult", "VerificationReport",
}


def test_only_records_that_check_coerce_or_default_write_a_constructor():
    records = package_records()
    assert set(records) == OWN_CONSTRUCTOR | BASE_CONSTRUCTOR
    assert {name for name, cls in records.items() if "__init__" in vars(cls)} == OWN_CONSTRUCTOR
    for name in BASE_CONSTRUCTOR:
        assert records[name].__init__ is Record.__init__
        parameters = inspect.signature(records[name]).parameters.values()
        assert [(p.name, p.kind) for p in parameters] == [
            ("values", inspect.Parameter.VAR_POSITIONAL), ("named", inspect.Parameter.VAR_KEYWORD)]


@pytest.mark.parametrize("name", sorted(BASE_CONSTRUCTOR))
class TestBaseConstructor:
    @staticmethod
    def fields_and_values(name):
        cls = package_records()[name]
        fields = cls.__slots__
        return cls, fields, tuple(f"value of {field}" for field in fields)

    def test_positional_keyword_and_mixed_calls_agree(self, name):
        cls, fields, values = self.fields_and_values(name)
        named = dict(zip(fields, values))
        a = cls(*values)
        assert tuple(getattr(a, field) for field in fields) == values
        assert cls(**named) == a
        assert cls(**dict(reversed(named.items()))) == a
        assert cls(values[0], **dict(list(named.items())[1:])) == a

    def test_a_missing_field_raises(self, name):
        cls, fields, values = self.fields_and_values(name)
        with pytest.raises(TypeError, match=f"got no {fields[-1]}$"):
            cls(*values[:-1])
        with pytest.raises(TypeError, match=f"got no {fields[0]}$"):
            cls(**dict(list(zip(fields, values))[1:]))

    def test_an_unknown_field_raises(self, name):
        cls, fields, values = self.fields_and_values(name)
        with pytest.raises(TypeError, match="got unknown field colour$"):
            cls(*values, colour="red")
        with pytest.raises(TypeError, match=f"got {len(values) + 1} values by position$"):
            cls(*values, "one too many")

    def test_a_repeated_field_raises(self, name):
        cls, fields, values = self.fields_and_values(name)
        with pytest.raises(TypeError, match=f"got {fields[0]} twice$"):
            cls(*values, **{fields[0]: values[0]})

    def test_the_error_names_the_fields(self, name):
        cls, fields, values = self.fields_and_values(name)
        with pytest.raises(TypeError) as info:
            cls()
        assert str(info.value).startswith(f"{name}({', '.join(fields)}): got no {fields[0]}")
