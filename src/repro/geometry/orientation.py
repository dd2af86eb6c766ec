"""The eight-element orientation group of Manhattan layout.

Riot lets the user rotate instances "by multiples of 90 degrees" and
mirror them; composed with each other these form the dihedral group
D4, which we represent as 2x2 integer matrices.  CIF expresses the
same group as sequences of ``R`` (rotate) and ``M`` (mirror) transform
elements; :meth:`Orientation.cif_elements` produces such a sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.point import Point

_VALID = {
    (1, 0, 0, 1),    # R0
    (0, -1, 1, 0),   # R90
    (-1, 0, 0, -1),  # R180
    (0, 1, -1, 0),   # R270
    (-1, 0, 0, 1),   # MX  (mirror in x: x -> -x)
    (1, 0, 0, -1),   # MY  (mirror in y: y -> -y)
    (0, 1, 1, 0),    # MX then R90
    (0, -1, -1, 0),  # MY then R90
}

_NAMES = {
    (1, 0, 0, 1): "R0",
    (0, -1, 1, 0): "R90",
    (-1, 0, 0, -1): "R180",
    (0, 1, -1, 0): "R270",
    (-1, 0, 0, 1): "MX",
    (1, 0, 0, -1): "MY",
    (0, 1, 1, 0): "MXR90",
    (0, -1, -1, 0): "MYR90",
}


@dataclass(frozen=True, slots=True)
class Orientation:
    """An element of the Manhattan orientation group.

    The matrix is ``[[a, b], [c, d]]`` applied as
    ``(x, y) -> (a*x + b*y, c*x + d*y)``.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if (self.a, self.b, self.c, self.d) not in _VALID:
            raise ValueError(
                f"({self.a},{self.b},{self.c},{self.d}) is not one of the 8 "
                "Manhattan orientations"
            )

    # -- the named elements (populated below the class) -----------------

    @property
    def name(self) -> str:
        return _NAMES[(self.a, self.b, self.c, self.d)]

    @classmethod
    def from_name(cls, name: str) -> "Orientation":
        for key, value in _NAMES.items():
            if value == name:
                return cls(*key)
        raise ValueError(f"unknown orientation name {name!r}")

    # -- group operations ------------------------------------------------

    def apply(self, p: Point) -> Point:
        return Point(self.a * p.x + self.b * p.y, self.c * p.x + self.d * p.y)

    def compose(self, other: "Orientation") -> "Orientation":
        """The orientation equal to applying ``other`` first, then self."""
        return Orientation(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Orientation":
        det = self.a * self.d - self.b * self.c  # always +1 or -1
        return Orientation(
            det * self.d, -det * self.b, -det * self.c, det * self.a
        )

    @property
    def swaps_axes(self) -> bool:
        """True for the four quarter turns (R90, R270, MXR90, MYR90),
        which map x onto y and y onto x."""
        return self.a == 0

    @property
    def is_mirror(self) -> bool:
        """True for the four reflections (determinant -1)."""
        return self.a * self.d - self.b * self.c == -1

    def rotated90(self) -> "Orientation":
        """This orientation followed by a further 90-degree CCW rotation."""
        return R90.compose(self)

    def mirrored_x(self) -> "Orientation":
        """This orientation followed by a mirror about the y axis (x -> -x)."""
        return MX.compose(self)

    def mirrored_y(self) -> "Orientation":
        """This orientation followed by a mirror about the x axis (y -> -y)."""
        return MY.compose(self)

    # -- CIF interchange ---------------------------------------------------

    def cif_elements(self) -> list[str]:
        """A CIF transform-element sequence realising this orientation.

        CIF's ``MX`` flips x, ``MY`` flips y, and ``R a b`` rotates so
        the +x axis points along the vector ``(a, b)``.  Elements apply
        left to right.
        """
        elements: list[str] = []
        work = self
        if work.is_mirror:
            elements.append("MX")
            work = work.compose(MX.inverse())
        if work == R90:
            elements.append("R 0 1")
        elif work == R180:
            elements.append("R -1 0")
        elif work == R270:
            elements.append("R 0 -1")
        return elements

    def __str__(self) -> str:
        return self.name


R0 = Orientation(1, 0, 0, 1)
R90 = Orientation(0, -1, 1, 0)
R180 = Orientation(-1, 0, 0, -1)
R270 = Orientation(0, 1, -1, 0)
MX = Orientation(-1, 0, 0, 1)
MY = Orientation(1, 0, 0, -1)
MXR90 = Orientation(0, 1, 1, 0)
MYR90 = Orientation(0, -1, -1, 0)

ALL_ORIENTATIONS = (R0, R90, R180, R270, MX, MY, MXR90, MYR90)
