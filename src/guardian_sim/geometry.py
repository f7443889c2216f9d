"""Planar geometry for the safe-zone protection game.

Everything lives in R^2. The safe zone and the zone of interest are
origin-centered disks; the defense margin measures how far from the origin
the attacker could still be intercepted, assuming both agents move at the
same unit speed.  A caller that holds the separation of the two agents
passes it as ``distance``.
"""
from __future__ import annotations

import math


class CoincidentAgentsError(ValueError):
    """Raised when a computation requires two distinct agent positions."""


class Vec2:
    """2-vector of finite floats; treat it as immutable.

    A plain slots class, not a frozen dataclass: the step loop builds about
    seven per step, and the dataclass's ``object.__setattr__`` path plus a
    ``__post_init__`` calling ``math.isfinite`` twice was the largest single
    cost of an episode.  Equality, hashing and repr are the dataclass's.

    The finiteness check is ``x - x or y - y``: the difference is 0.0
    (falsy) for a finite component and NaN (truthy) for a NaN or infinite
    one, so one subtraction per component does the work of ``isfinite``.
    """

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        if x - x or y - y:
            raise ValueError(f"non-finite component in Vec2({x!r}, {y!r})")
        self.x = x
        self.y = y

    def __repr__(self) -> str:
        return f"Vec2(x={self.x!r}, y={self.y!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.x, self.y) == (other.x, other.y)

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __add__(self, other: Vec2) -> Vec2:
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: Vec2) -> Vec2:
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> Vec2:
        return Vec2(-self.x, -self.y)

    def __mul__(self, s: float) -> Vec2:
        return Vec2(self.x * s, self.y * s)

    __rmul__ = __mul__

    def __truediv__(self, s: float) -> Vec2:
        return Vec2(self.x / s, self.y / s)

    def dot(self, other: Vec2) -> float:
        return self.x * other.x + self.y * other.y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def norm_sq(self) -> float:
        return self.x * self.x + self.y * self.y

    def distance_to(self, other: Vec2) -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def angle(self) -> float:
        return math.atan2(self.y, self.x)

    @staticmethod
    def from_polar(radius: float, angle: float) -> Vec2:
        return Vec2(radius * math.cos(angle), radius * math.sin(angle))


ORIGIN = Vec2(0.0, 0.0)


def _margin(xa: Vec2, xd: Vec2, what: str, distance: float | None) -> tuple[float, float]:
    """The margin formula and the separation it divides by."""
    separation = xa.distance_to(xd) if distance is None else distance
    if separation == 0.0:
        raise CoincidentAgentsError(f"{what} undefined for coincident agents")
    return (xa.norm_sq() - xd.norm_sq()) / (2.0 * separation), separation


def defense_margin(xa: Vec2, xd: Vec2, distance: float | None = None) -> float:
    """Signed distance from the origin to the set of points the attacker can
    reach before the defender.

    Positive when the defender is closer to the origin than the attacker
    (then it equals the distance to the perpendicular bisector of the
    attacker-defender segment); negative or zero otherwise.
    """
    return _margin(xa, xd, "defense margin", distance)[0]


def closest_safe_reachable_point(xa: Vec2, xd: Vec2, distance: float | None = None) -> Vec2:
    """Closest point to the origin that the attacker can reach no later than
    the defender (both at unit speed).

    That set is the closed half-plane on the attacker's side of the
    perpendicular bisector of the segment xa-xd.  If the origin itself lies
    in the half-plane (||xa|| <= ||xd||) the answer is the origin; otherwise
    it is the foot of the perpendicular from the origin onto the bisector.
    """
    rho, separation = _margin(xa, xd, "safe reachable set", distance)
    if rho <= 0.0:
        return ORIGIN
    return Vec2((xa.x - xd.x) / separation * rho, (xa.y - xd.y) / separation * rho)
