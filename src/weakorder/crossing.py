"""Crossing test shared by all arc flavors.

An arc from a up to b carries its interior points split into a left set
(points the curve passes above) and a right set (points it passes below).
Two arcs cross when they share an initial point, share a terminal point, or
their curves are forced to intersect: each curve passes on both sides of the
other at some point.  The combinatorial version of that statement only looks
at endpoint and side-set memberships, so it works unchanged for arcs on
[1..n], arcs on the integers, and translates of periodic arcs.

Sides are bitmasks measured from the arc's own start a (bit x - a for the
value x), so translating an arc moves only a and b, and testing it against
another arc costs a few shifts and ands of the masks: no set is rebuilt per
translate.
"""

from __future__ import annotations

from collections.abc import Iterable


def side_mask(a: int, side: Iterable[int]) -> int:
    """The values of ``side`` as a bitmask, bit x - a for the value x > a."""
    return sum(1 << (x - a) for x in side)


def tuples_cross(
    a: int,
    b: int,
    left: int,
    right: int,
    a2: int,
    b2: int,
    left2: int,
    right2: int,
) -> bool:
    """Return True if the two arcs (a,b,left,right) and (a2,b2,left2,right2)
    cross; each arc's sides are masks from its own start (side_mask)."""
    if a == a2 or b == b2:
        return True
    # both arcs in the frame of the lower start
    base = min(a, a2)
    s, s2 = a - base, a2 - base
    left, right, left2, right2 = left << s, right << s, left2 << s2, right2 << s2
    ends = 1 << s | 1 << (b - base)
    ends2 = 1 << s2 | 1 << (b2 - base)
    # First arc passes weakly right of the second somewhere, and weakly left
    # somewhere else: both must happen for the curves to be forced across.
    if not ((left | ends) & right2 or left & ends2):
        return False
    return bool((right | ends) & left2 or right & ends2)
