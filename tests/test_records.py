"""Value semantics of the public record types: equality and hashing by
value, immutability, copying and pickling, and a repr frozen from the
frozen dataclasses these types used to be."""

import copy
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
    angle = c.AngleClass("pi_over", Fraction(1, 4), 1, m=3)
    edge = c.DiagramEdge(0, 1, "plain", 1, 3)
    check = c.CheckResult("rays_p9", "pass", "a claim", "10 rays", "10 rays")
    row = c.polytopes.RegionRRow((0, 1, 3), (Fraction(-1), Fraction(0), Fraction(0)), True,
                                 Fraction(1))
    return {
        "PicClass": v,
        "LightConePosition": c.LightConePosition("boundary", forward=True),
        "Phi": c.Phi(1, 2, 3),
        "Sigma": c.Sigma(i=2),
        "WeylWord": word,
        "ReductionResult": c.ReductionResult("not_nef", v, word, violated=e3, iterations=1),
        "OrbitResult": c.OrbitResult((v, e3), truncated=False),
        "Decomposition": c.Decomposition((c.PicClass(3, (1, -1, -1, -1)),),
                                         c.PicClass(3, (1, -1, -1, 0))),
        "Halfspace": wall,
        "ConePolytope": c.ConePolytope(n=3, halfspaces=(wall,)),
        "MembershipResult": c.MembershipResult(False, wall.normal),
        "AngleClass": angle,
        "CartanEntry": c.CartanEntry(sign=-1, cos2=Fraction(1, 2)),
        "CoxeterCheck": c.CoxeterCheck(False, ((0, 1, angle),)),
        "CoxeterDiagram": c.CoxeterDiagram(("v0", "v1"), (edge,)),
        "DiagramEdge": edge,
        "Ray": c.Ray(v, c.LightConePosition("boundary", True), (0, 2)),
        "VertexFormulaReport": c.VertexFormulaReport(10, 19, (v,), (v, e3), False, False),
        "RegionRReport": c.RegionRReport(10, (row,), True, 1, Fraction(1), True, True),
        "NefVerdict": c.NefVerdict("nef", "reduction_exact", word),
        "CheckResult": check,
        "VerificationReport": c.VerificationReport(checks=(check,)),
    }


# repr(examples()[name]), frozen from the frozen dataclasses
FROZEN_REPR = {
    'AngleClass': "AngleClass(kind='pi_over', cos2=Fraction(1, 4), sign=1, m=3)",
    'CartanEntry': 'CartanEntry(sign=-1, cos2=Fraction(1, 2))',
    'CheckResult': "CheckResult(name='rays_p9', status='pass', claim='a claim', expected='10 rays', computed='10 rays')",
    'ConePolytope': 'ConePolytope(n=3, halfspaces=(Halfspace(normal=PicClass(3, (0, 1, -1, 0))),))',
    'CoxeterCheck': "CoxeterCheck(is_coxeter=False, offending=((0, 1, AngleClass(kind='pi_over', cos2=Fraction(1, 4), sign=1, m=3)),))",
    'CoxeterDiagram': "CoxeterDiagram(labels=('v0', 'v1'), edges=(DiagramEdge(i=0, j=1, style='plain', multiplicity=1, m=3),))",
    'Decomposition': 'Decomposition(cubics=(PicClass(3, (1, -1, -1, -1)),), conic=PicClass(3, (1, -1, -1, 0)))',
    'DiagramEdge': "DiagramEdge(i=0, j=1, style='plain', multiplicity=1, m=3)",
    'Halfspace': 'Halfspace(normal=PicClass(3, (0, 1, -1, 0)))',
    'LightConePosition': "LightConePosition(tag='boundary', forward=True)",
    'MembershipResult': 'MembershipResult(contains=False, violated=PicClass(3, (0, 1, -1, 0)))',
    'NefVerdict': "NefVerdict(verdict='nef', method='reduction_exact', witness=WeylWord(gens=(Phi(1,2,3), Sigma(2))), max_degree=None)",
    'OrbitResult': 'OrbitResult(classes=(PicClass(3, (1, -1, 0, 0)), PicClass(3, (0, 0, 0, 1))), truncated=False)',
    'Phi': 'Phi(1,2,3)',
    'PicClass': 'PicClass(3, (1, -1, 0, 0))',
    'Ray': "Ray(generator=PicClass(3, (1, -1, 0, 0)), position=LightConePosition(tag='boundary', forward=True), active_set=(0, 2))",
    'ReductionResult': "ReductionResult(status='not_nef', reduced=PicClass(3, (1, -1, 0, 0)), witness=WeylWord(gens=(Phi(1,2,3), Sigma(2))), violated=PicClass(3, (0, 0, 0, 1)), iterations=1)",
    'RegionRReport': 'RegionRReport(n=10, rows=(RegionRRow(triple=(0, 1, 3), point=(Fraction(-1, 1), Fraction(0, 1), Fraction(0, 1)), is_vertex=True, f_value=Fraction(1, 1)),), all_triples_meet=True, vertex_count=1, max_f_at_vertices=Fraction(1, 1), f_le_1_at_vertices=True, f_lt_1_when_xn_negative=True)',
    'Sigma': 'Sigma(2)',
    'VerificationReport': "VerificationReport(checks=(CheckResult(name='rays_p9', status='pass', claim='a claim', expected='10 rays', computed='10 rays'),))",
    'VertexFormulaReport': 'VertexFormulaReport(n=10, expected_count=19, formula_rays=(PicClass(3, (1, -1, 0, 0)),), computed_rays=(PicClass(3, (1, -1, 0, 0)), PicClass(3, (0, 0, 0, 1))), count_ok=False, sets_equal=False)',
    'WeylWord': 'WeylWord(gens=(Phi(1,2,3), Sigma(2)))',
}

# every class cremona exports, bar its exception; MinusOneClass is PicClass
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
    assert cremona.MembershipResult(True, ()) != cremona.CoxeterCheck(True, ())
    assert cremona.Phi(1, 2, 3) != cremona.Sigma(1)
