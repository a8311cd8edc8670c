"""Total orders of the integers with finitely many inversions.

These are the compact elements of the weak order on all total orders of Z:
each one rearranges a finite stretch of the number line and agrees with the
usual order outside it.  Joins close the union of inversion sets under the
chain rule exactly as in the finite case; meets keep the interior of the
intersection.  Walls, arcs, and canonical join representations all carry
over, with arcs allowed to sit anywhere on the line.

>>> t = finite_total_order([(0, 1)])
>>> lt_total(t, 1, 0)
True
>>> format_tot(join_tot([t, finite_total_order([(1, 2)])]))
'2,1,0'
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cmp_to_key
from itertools import combinations
from typing import Iterable

from .errors import Crossing, NotBiclosed, ParseError, PreconditionViolated
from .sn import Arc, _chain_closure, arc, arcs_cross, format_arc

ZArc = Arc

# ---------------------------------------------------------------------------
# the orders


@dataclass(frozen=True)
class FiniteTotalOrder:
    """A total order of Z given by its finite inversion set."""

    invs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for a, b in self.invs:
            if not a < b:
                raise ValueError(f"pair {(a, b)} is not increasing")


def _is_biclosed_z(pairs: frozenset[tuple[int, int]]) -> bool:
    by_left: dict[int, set[int]] = {}
    for a, b in pairs:
        by_left.setdefault(a, set()).add(b)
    # closed: (a,z) and (z,b) force (a,b)
    for a, z in pairs:
        for b in by_left.get(z, ()):
            if (a, b) not in pairs:
                return False
    # coclosed: an inversion (a,b) needs a witness at every middle value
    for a, b in pairs:
        for z in range(a + 1, b):
            if (a, z) not in pairs and (z, b) not in pairs:
                return False
    return True


def finite_total_order(pairs: Iterable[tuple[int, int]]) -> FiniteTotalOrder:
    """Build an order from its inversions, checking realizability.

    >>> finite_total_order([(1, 3)])
    Traceback (most recent call last):
        ...
    weakorder.errors.NotBiclosed: not an inversion set: [(1, 3)]
    """
    t = FiniteTotalOrder(frozenset(tuple(p) for p in pairs))
    if not _is_biclosed_z(t.invs):
        raise NotBiclosed(f"not an inversion set: {sorted(t.invs)}")
    return t


def standard_order() -> FiniteTotalOrder:
    return FiniteTotalOrder(frozenset())


def lt_total(t: FiniteTotalOrder, a: int, b: int) -> bool:
    """a comes strictly before b."""
    if a == b:
        return False
    if a < b:
        return (a, b) not in t.invs
    return (b, a) in t.invs


def support_window(t: FiniteTotalOrder) -> tuple[int, int] | None:
    """Smallest closed interval containing every inverted value, or None."""
    if not t.invs:
        return None
    return (min(a for a, _ in t.invs), max(b for _, b in t.invs))


def order_word(t: FiniteTotalOrder, lo: int, hi: int) -> tuple[int, ...]:
    """The values lo..hi listed in t's order; the window must be self-contained."""

    def cmp(a: int, b: int) -> int:
        return -1 if lt_total(t, a, b) else 1

    return tuple(sorted(range(lo, hi + 1), key=cmp_to_key(cmp)))


def format_tot(t: FiniteTotalOrder) -> str:
    window = support_window(t)
    if window is None:
        return "standard"
    return ",".join(str(v) for v in order_word(t, *window))


def invs_to_json(t: FiniteTotalOrder) -> str:
    return json.dumps(sorted([a, b] for a, b in t.invs))


def invs_from_json(text: str) -> FiniteTotalOrder:
    try:
        raw = json.loads(text)
        pairs = [(int(a), int(b)) for a, b in raw]
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad inversion JSON: {text!r}") from exc
    return finite_total_order(pairs)


# ---------------------------------------------------------------------------
# joins and meets


def join_tot(ts: Iterable[FiniteTotalOrder]) -> FiniteTotalOrder:
    union: set[tuple[int, int]] = set()
    for t in ts:
        union |= t.invs
    return finite_total_order(_chain_closure(union))


def meet_tot(ts: Iterable[FiniteTotalOrder]) -> FiniteTotalOrder:
    """Interior of the intersection: drop pairs reachable by chains outside it."""
    items = list(ts)
    if not items:
        raise ValueError("meet of no total orders is not representable")
    shared = set(items[0].invs)
    for t in items[1:]:
        shared &= t.invs
    kept = set()
    for a, b in shared:
        # (a,b) survives unless a chain a = z0 < ... < zk = b avoids shared
        reach = {a}
        frontier = [a]
        while frontier:
            z = frontier.pop()
            for w in range(z + 1, b + 1):
                if w not in reach and (z, w) not in shared:
                    reach.add(w)
                    frontier.append(w)
        if b not in reach:
            kept.add((a, b))
    return finite_total_order(kept)


def leq_tot(t1: FiniteTotalOrder, t2: FiniteTotalOrder) -> bool:
    return t1.invs <= t2.invs


# ---------------------------------------------------------------------------
# walls and arcs


def lower_walls_tot(t: FiniteTotalOrder) -> frozenset[tuple[int, int]]:
    """Inversions (a,b) with nothing strictly between b and a in the order."""
    window = support_window(t)
    if window is None:
        return frozenset()
    lo, hi = window
    walls = set()
    for a, b in t.invs:
        if not any(
            lt_total(t, b, z) and lt_total(t, z, a) for z in range(lo, hi + 1)
        ):
            walls.add((a, b))
    return frozenset(walls)


def lower_arcs_tot(t: FiniteTotalOrder) -> frozenset[Arc]:
    """One arc per lower wall; interior values ordered below b go left.

    >>> t = join_of_noncrossing_tot([arc(1, 5, [2], [3, 4]), arc(3, 4)])
    >>> format_tot(t)
    '2,5,1,4,3'
    """
    out = []
    for a, b in lower_walls_tot(t):
        left = frozenset(m for m in range(a + 1, b) if lt_total(t, m, b))
        right = frozenset(range(a + 1, b)) - left
        out.append(Arc(a, b, left, right))
    return frozenset(out)


def ji_from_arc_tot(x: Arc) -> FiniteTotalOrder:
    """The join-irreducible order ... l's, b, a, r's ...; everything else in place."""
    word = sorted(x.left) + [x.b, x.a] + sorted(x.right)
    position = {v: i for i, v in enumerate(word)}
    invs = frozenset(
        (u, v)
        for u, v in combinations(range(x.a, x.b + 1), 2)
        if position[v] < position[u]
    )
    return finite_total_order(invs)


def join_of_noncrossing_tot(arcs: Iterable[Arc]) -> FiniteTotalOrder:
    items = sorted(arcs, key=lambda x: (x.a, x.b, tuple(sorted(x.left))))
    for x, y in combinations(items, 2):
        if arcs_cross(x, y):
            raise Crossing(f"arcs cross: {format_arc(x)} and {format_arc(y)}")
    return join_tot([ji_from_arc_tot(x) for x in items])


def canonical_join_rep_tot(t: FiniteTotalOrder) -> frozenset[Arc]:
    """Lower arcs form the canonical join representation of a compact order."""
    return lower_arcs_tot(t)


def _swap_values_tot(t: FiniteTotalOrder, x: int, y: int) -> FiniteTotalOrder:
    lo = min(x, y, *(a for a, _ in t.invs), *(b for _, b in t.invs)) if t.invs else min(x, y)
    hi = max(x, y, *(a for a, _ in t.invs), *(b for _, b in t.invs)) if t.invs else max(x, y)
    sub = {x: y, y: x}
    word = [sub.get(v, v) for v in order_word(t, lo, hi)]
    position = {v: i for i, v in enumerate(word)}
    invs = frozenset(
        (u, v)
        for u, v in combinations(range(lo, hi + 1), 2)
        if position[v] < position[u]
    )
    return finite_total_order(invs)


def find_cover_below(
    low: FiniteTotalOrder, high: FiniteTotalOrder, pair: tuple[int, int]
) -> FiniteTotalOrder:
    """An order T with low <= T covered by high, found inside the interval [b,a].

    The chosen swap is the difference pair (x,y) whose order interval from y
    up to x is smallest; minimality forces y and x to be adjacent, so the swap
    removes exactly one inversion.
    """
    a, b = pair
    if not a < b:
        raise PreconditionViolated(f"pair {(a, b)} is not increasing")
    if not leq_tot(low, high):
        raise PreconditionViolated("lower order is not below upper order")
    window = support_window(high)
    if window is None or (a, b) not in high.invs or (a, b) in low.invs:
        raise PreconditionViolated(
            f"pair {(a, b)} must be inverted above and not below"
        )
    lo, hi = window
    between = [z for z in range(lo, hi + 1) if lt_total(high, b, z) and lt_total(high, z, a)]
    segment = set(between) | {a, b}

    def interval_size(x: int, y: int) -> int:
        return 2 + sum(
            1 for z in range(lo, hi + 1) if lt_total(high, y, z) and lt_total(high, z, x)
        )

    candidates = sorted(
        (
            (interval_size(x, y), x, y)
            for x, y in high.invs - low.invs
            if x in segment and y in segment
        ),
    )
    _, x, y = candidates[0]
    return _swap_values_tot(high, x, y)
