"""Exact arithmetic in the lattice Z^{1,n} with the Minkowski pairing.

The lattice models the Picard group of the plane blown up at n points:
basis e_0 (line class) and e_1, ..., e_n (exceptional classes), with
e_0^2 = 1, e_i^2 = -1 and all mixed products zero.  Everything here is
integer arithmetic; no fractions and no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul, sub

__all__ = [
    "PicClass",
    "LightConePosition",
    "pairing",
    "canonical_class",
    "anticanonical_class",
    "basis_vector",
    "degree",
    "light_cone_position",
]


@dataclass(frozen=True)
class PicClass:
    """An integer vector (x_0, x_1, ..., x_n) in Z^{1,n}.

    ``n`` is the number of blown-up points; ``coords`` has length n+1.
    Instances are immutable and hashable, so they can be collected in
    sets (orbits) and used as dict keys.

    The public constructor validates its input; the library's own
    arithmetic builds results with :meth:`_trusted`, whose invariants
    already hold.
    """

    n: int
    coords: tuple[int, ...]

    @classmethod
    def _trusted(cls, n: int, coords: tuple[int, ...]) -> "PicClass":
        """Build without validation: ``n >= 1`` and ``coords`` a tuple of
        n + 1 ints are the caller's promise."""
        obj = object.__new__(cls)
        # as the frozen dataclass's own __init__ does; writing through
        # obj.__dict__ instead would cost every instance a dict (+64 bytes)
        object.__setattr__(obj, "n", n)
        object.__setattr__(obj, "coords", coords)
        return obj

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not isinstance(self.coords, tuple):
            object.__setattr__(self, "coords", tuple(self.coords))
        if len(self.coords) != self.n + 1:
            raise ValueError(
                f"expected {self.n + 1} coordinates for n={self.n}, got {len(self.coords)}"
            )
        for c in self.coords:
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"coordinates must be exact integers, got {c!r}")

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


@dataclass(frozen=True)
class LightConePosition:
    """Where a vector sits relative to the light cone {v : v.v >= 0}."""

    tag: str  # "interior" | "boundary" | "outside"
    forward: bool  # x_0 > 0

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
    if not 0 <= i <= n:
        raise ValueError(f"basis index {i} out of range for n={n}")
    return PicClass(n, (0,) * i + (1,) + (0,) * (n - i))


def canonical_class(n: int) -> PicClass:
    """K = (-3, 1, ..., 1); K^2 = 9 - n."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return PicClass._trusted(n, (-3,) + (1,) * n)


def anticanonical_class(n: int) -> PicClass:
    """-K = (3, -1, ..., -1), the class the cone constructions actually use."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
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
