"""Planar geometry primitives for floorplanning.

Wire lengths in on-chip routing follow the Manhattan metric (wires run
on orthogonal routing layers), so that is the distance this package
uses throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..exceptions import FloorplanError


@dataclass(frozen=True)
class Point:
    """A location on the die, in millimetres."""

    x: float
    y: float

    def manhattan(self, other: "Point") -> float:
        """Manhattan (L1) distance to ``other``.

        >>> Point(0.0, 0.0).manhattan(Point(3.0, 4.0))
        7.0
        """
        return abs(self.x - other.x) + abs(self.y - other.y)


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle: origin corner plus extent."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if self.w < 0 or self.h < 0:
            raise FloorplanError("rectangle extent must be >= 0, got %r x %r" % (self.w, self.h))

    @property
    def area(self) -> float:
        """Area in mm^2."""
        return self.w * self.h

    @property
    def center(self) -> Point:
        """Geometric center."""
        return Point(self.x + self.w / 2.0, self.y + self.h / 2.0)

    @property
    def x2(self) -> float:
        """Right edge."""
        return self.x + self.w

    @property
    def y2(self) -> float:
        """Top edge."""
        return self.y + self.h

    def contains(self, p: Point, tol: float = 1e-9) -> bool:
        """True when the point lies inside (or on the border of) self."""
        return (
            self.x - tol <= p.x <= self.x2 + tol
            and self.y - tol <= p.y <= self.y2 + tol
        )

    def contains_rect(self, other: "Rect", tol: float = 1e-9) -> bool:
        """True when ``other`` lies fully inside self."""
        return (
            self.x - tol <= other.x
            and self.y - tol <= other.y
            and other.x2 <= self.x2 + tol
            and other.y2 <= self.y2 + tol
        )

    def overlaps(self, other: "Rect", tol: float = 1e-9) -> bool:
        """True when the interiors of the rectangles intersect."""
        return (
            self.x + tol < other.x2
            and other.x + tol < self.x2
            and self.y + tol < other.y2
            and other.y + tol < self.y2
        )

    def clamp(self, p: Point) -> Point:
        """Closest point to ``p`` inside self."""
        return Point(min(max(p.x, self.x), self.x2), min(max(p.y, self.y), self.y2))

    def split_vertical(self, left_fraction: float) -> Tuple["Rect", "Rect"]:
        """Split into left/right rectangles at ``left_fraction`` of width."""
        if not 0.0 < left_fraction < 1.0:
            raise FloorplanError("split fraction must be in (0,1), got %r" % left_fraction)
        wl = self.w * left_fraction
        return (
            Rect(self.x, self.y, wl, self.h),
            Rect(self.x + wl, self.y, self.w - wl, self.h),
        )

    def split_horizontal(self, bottom_fraction: float) -> Tuple["Rect", "Rect"]:
        """Split into bottom/top rectangles at ``bottom_fraction`` of height."""
        if not 0.0 < bottom_fraction < 1.0:
            raise FloorplanError("split fraction must be in (0,1), got %r" % bottom_fraction)
        hb = self.h * bottom_fraction
        return (
            Rect(self.x, self.y, self.w, hb),
            Rect(self.x, self.y + hb, self.w, self.h - hb),
        )
