"""Exact arithmetic in the lattice Z^{1,n} with the Minkowski pairing.

The lattice models the Picard group of the plane blown up at n points:
basis e_0 (line class) and e_1, ..., e_n (exceptional classes), with
e_0^2 = 1, e_i^2 = -1 and all mixed products zero.  Everything here is
integer arithmetic; no fractions and no floats.
"""

from __future__ import annotations

from operator import add, attrgetter, mul, sub

from . import _EXPORTS

__all__ = [*_EXPORTS["lattice"]]


def check_bound(name: str, value, least: int | None = None, most: int | None = None) -> None:
    """The package's one rule for an integer argument: ValueError unless
    ``value`` is an int but not a bool, in ``least``..``most`` where given."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be <= {most}, got {value}")


def as_tuple(name: str, items) -> tuple:
    """The package's one rule for a sequence argument: ``items`` if a
    tuple, else a tuple of its items; ValueError if it is not iterable."""
    try:
        iter(items)
    except TypeError:
        raise ValueError(f"{name} must be iterable, got {items!r}") from None
    return tuple(items)  # a tuple itself, not a copy, when it is one


# Record refuses assignment, so a constructor sets its fields through
# object's own __setattr__, bound once here.
set_field = object.__setattr__


class Record:
    """Base of the package's immutable value types.

    A subclass names its fields in ``__slots__``, in constructor order.
    A record that only stores its fields takes this class's constructor,
    which accepts them by position or by name; a subclass that checks,
    coerces or defaults an argument writes its own ``__init__`` and sets
    each field through ``set_field``.  Instances compare equal when they
    have the same class and equal fields, hash as the tuple of their
    fields, and have the repr ``Name(field=value, ...)`` unless the class
    writes its own.  Assigning or deleting an attribute raises
    AttributeError, and an instance has no ``__dict__``.  ``copy`` and
    ``pickle`` rebuild an instance by calling its class with its fields.
    """

    __slots__ = ()

    def __init__(self, *values, **named) -> None:
        fields = self.__slots__
        if named or len(values) != len(fields):
            given = dict(zip(fields, values))
            problems = [f"{len(values)} values by position"] if len(values) > len(fields) else []
            problems += [f"{name} twice" for name in named if name in given]
            problems += [f"unknown field {name}" for name in named if name not in fields]
            given.update(named)
            problems += [f"no {name}" for name in fields if name not in given]
            if problems:
                raise TypeError(
                    f"{self.__class__.__qualname__}({', '.join(fields)}): got {'; '.join(problems)}"
                )
            values = [given[name] for name in fields]
        for name, value in zip(fields, values):
            set_field(self, name, value)

    @classmethod
    def _trusted(cls, *values):
        """Build from the fields, in ``__slots__`` order, without the
        class's own checks: that they hold is the caller's promise."""
        obj = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            set_field(obj, name, value)
        return obj

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        # attrgetter of one name gives the bare value, not a 1-tuple
        cls._values = property(get if len(cls.__slots__) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(
            [f"{name}={value!r}" for name, value in zip(self.__slots__, self._values)]
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values


class PicClass(Record):
    """An integer vector (x_0, x_1, ..., x_n) in Z^{1,n}.

    ``n`` is the number of blown-up points; ``coords`` has length n+1.
    Instances are immutable and hashable, so they can be collected in
    sets and used as dict keys.

    The public constructor refuses bad input with ValueError; the
    library's own arithmetic builds results with :meth:`_trusted`, whose
    invariants already hold.
    """

    __slots__ = ("n", "coords")

    def __init__(self, n: int, coords: tuple[int, ...]) -> None:
        set_field(self, "n", n)
        set_field(self, "coords", coords)
        self.__post_init__()

    @classmethod
    def _trusted(cls, n: int, coords: tuple[int, ...]) -> "PicClass":
        """Record._trusted with the fields set directly, as the arithmetic
        builds every result through it: ``n >= 1`` and ``coords`` a tuple
        of n + 1 ints are the caller's promise."""
        obj = object.__new__(cls)
        set_field(obj, "n", n)
        set_field(obj, "coords", coords)
        return obj

    def __post_init__(self) -> None:
        n = self.n
        check_bound("n", n, 1)
        coords = as_tuple("coords", self.coords)
        if len(coords) != n + 1:
            raise ValueError(f"expected {n + 1} coordinates for n={n}, got {len(coords)}")
        if not set(map(type, coords)) <= {int}:
            # an int subclass, or an item check_bound refuses
            for c in coords:
                check_bound("coordinate", c)
        set_field(self, "coords", coords)

    # -- vector space conveniences these types get used with constantly --

    def __add__(self, other: "PicClass") -> "PicClass":
        self._check_same_lattice(other)
        return PicClass._trusted(self.n, tuple(map(add, self.coords, other.coords)))

    def __sub__(self, other: "PicClass") -> "PicClass":
        self._check_same_lattice(other)
        return PicClass._trusted(self.n, tuple(map(sub, self.coords, other.coords)))

    def __neg__(self) -> "PicClass":
        return PicClass._trusted(self.n, tuple(-a for a in self.coords))

    def __mul__(self, k: int) -> "PicClass":
        if not isinstance(k, int):
            return NotImplemented
        return PicClass._trusted(self.n, tuple(k * a for a in self.coords))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _check_same_lattice(self, other: "PicClass") -> None:
        if self.n != other.n:
            raise ValueError(f"lattice rank mismatch: n={self.n} vs n={other.n}")

    def __repr__(self) -> str:
        return f"PicClass({self.n}, {self.coords})"


class LightConePosition(Record):
    """Where a vector sits relative to the light cone {v : v.v >= 0}:
    ``tag`` is "interior", "boundary" or "outside", and ``forward`` says
    whether x_0 > 0."""

    __slots__ = ("tag", "forward")

    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


def pairing(u: PicClass, v: PicClass) -> int:
    """The signature-(1,n) product u_0*v_0 - sum_{i>=1} u_i*v_i."""
    if u.n != v.n:
        raise ValueError(f"lattice rank mismatch: n={u.n} vs n={v.n}")
    uc, vc = u.coords, v.coords
    # the full Euclidean dot product counts u_0*v_0 with the wrong sign;
    # correcting for it here saves copying the tails
    return 2 * uc[0] * vc[0] - sum(map(mul, uc, vc))


def basis_vector(n: int, i: int) -> PicClass:
    """e_i in Z^{1,n}; i = 0 is the line class, i >= 1 the exceptional ones."""
    check_bound("n", n, 1)
    check_bound("basis index", i, 0, n)
    return PicClass._trusted(n, (0,) * i + (1,) + (0,) * (n - i))


def canonical_class(n: int) -> PicClass:
    """K = (-3, 1, ..., 1); K^2 = 9 - n."""
    check_bound("n", n, 3)
    return PicClass._trusted(n, (-3,) + (1,) * n)


def anticanonical_class(n: int) -> PicClass:
    """-K = (3, -1, ..., -1), the class the cone constructions actually use."""
    check_bound("n", n, 3)
    return PicClass._trusted(n, (3,) + (-1,) * n)


def degree(v: PicClass) -> int:
    """degree(v) = v . e_0 = x_0."""
    return v.coords[0]


def light_cone_position(v: PicClass) -> LightConePosition:
    if v.is_zero():
        raise ValueError("the zero vector has no light-cone position")
    square = pairing(v, v)
    if square > 0:
        tag = LightConePosition.INTERIOR
    elif square == 0:
        tag = LightConePosition.BOUNDARY
    else:
        tag = LightConePosition.OUTSIDE
    return LightConePosition(tag, v.coords[0] > 0)
