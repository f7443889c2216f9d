"""Planar geometry for the safe-zone protection game.

Everything lives in R^2. The safe zone and the zone of interest are
origin-centered disks; the defense margin measures how far from the origin
the attacker could still be intercepted, assuming both agents move at the
same unit speed.  A caller hands in the separation of the two agents it
holds, as ``distance``.

The scalar laws here and in `observation`, `strategies` and `engine` take and
return a vector as a plain ``(x, y)`` pair of floats (`Pair`), as their `lanes`
twins take a ``(2, N)`` array.  `Vec2` is the type of the API edges: the
starts an episode is given or samples, the CLI's points, `stability` and
`check`'s draws and grid oracle.
"""
from __future__ import annotations

import math


class CoincidentAgentsError(ValueError):
    """Raised when a computation requires two distinct agent positions."""


Pair = tuple[float, float]


class Vec2:
    """2-vector of finite floats, the type of the API edges; treat it as immutable.

    A plain slots class, not a frozen dataclass, whose equality and repr are
    the dataclass's.  The step loop builds none: the laws it calls work on
    `Pair`s, which need neither a constructor call nor a finiteness test
    (`engine.WorldConfig`'s bounds keep every coordinate finite).

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

    def __add__(self, other: Vec2) -> Vec2:
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: Vec2) -> Vec2:
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, s: float) -> Vec2:
        return Vec2(self.x * s, self.y * s)

    def __truediv__(self, s: float) -> Vec2:
        return Vec2(self.x / s, self.y / s)

    def dot(self, other: Vec2) -> float:
        return self.x * other.x + self.y * other.y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def distance_to(self, other: Vec2) -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    @staticmethod
    def from_polar(radius: float, angle: float) -> Vec2:
        return Vec2(radius * math.cos(angle), radius * math.sin(angle))


ORIGIN = (0.0, 0.0)


def _margin(xa: Pair, xd: Pair, what: str, distance: float) -> float:
    """The margin formula."""
    if distance == 0.0:
        raise CoincidentAgentsError(f"{what} undefined for coincident agents")
    (ax, ay), (dx, dy) = xa, xd
    return (ax * ax + ay * ay - (dx * dx + dy * dy)) / (2.0 * distance)


def defense_margin(xa: Pair, xd: Pair, distance: float) -> float:
    """Signed distance from the origin to the set of points the attacker can
    reach before the defender.

    Positive when the defender is closer to the origin than the attacker
    (then it equals the distance to the perpendicular bisector of the
    attacker-defender segment); negative or zero otherwise.
    """
    return _margin(xa, xd, "defense margin", distance)


def closest_safe_reachable_point(xa: Pair, xd: Pair, distance: float) -> Pair:
    """Closest point to the origin that the attacker can reach no later than
    the defender (both at unit speed).

    That set is the closed half-plane on the attacker's side of the
    perpendicular bisector of the segment xa-xd.  If the origin itself lies
    in the half-plane (||xa|| <= ||xd||) the answer is the origin; otherwise
    it is the foot of the perpendicular from the origin onto the bisector.
    """
    rho = _margin(xa, xd, "safe reachable set", distance)
    if rho <= 0.0:
        return ORIGIN
    return (xa[0] - xd[0]) / distance * rho, (xa[1] - xd[1]) / distance * rho
