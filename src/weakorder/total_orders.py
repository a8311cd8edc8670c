"""Total orders of the integers with finitely many inversions.

These are the compact elements of the weak order on all total orders of Z:
each one rearranges a finite stretch of the number line and agrees with the
usual order outside it.  Joins close the union of inversion sets under the
chain rule exactly as in the finite case; meets keep the interior of the
intersection.  Walls, arcs, and canonical join representations all carry
over, with arcs allowed to sit anywhere on the line.

An order is stored only as its inversion set.  The set splits into runs,
maximal windows covered by overlapping inverted spans [a, b]; values outside
every run keep their place.  ``finite_total_order`` certifies each run with
``sn.word_from_inversions``, joins close run by run with ``sn.closure`` and
meets take ``sn.interior`` run by run, and walls and arcs are read off each
run's order word, so the work grows with the pairs and not with the distance
between them.

>>> t = finite_total_order([(0, 1)])
>>> order_word(t, -1, 2)
(-1, 1, 0, 2)
>>> format_tot(join_tot([t, finite_total_order([(1, 2)])]))
'2,1,0'
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .errors import NotBiclosed, ParseError, PreconditionViolated
from .sn import (
    Arc,
    _sort_by_inversions,
    arc,
    arc_word,
    closure,
    interior,
    noncrossing,
    word_arcs,
    word_from_inversions,
    word_inversions,
    word_walls,
)

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


def finite_total_order(pairs: Iterable[tuple[int, int]]) -> FiniteTotalOrder:
    """Build an order from its inversions, checking realizability.

    >>> finite_total_order([(1, 3)])
    Traceback (most recent call last):
        ...
    weakorder.errors.NotBiclosed: not an inversion set: [(1, 3)]
    """
    t = FiniteTotalOrder(frozenset(tuple(p) for p in pairs))
    try:
        for lo, hi, inside in _runs(t.invs):
            # in a coclosed set each z between a pair (a, b) shares a pair
            # with a or b, so the pairs of a realizable run connect its
            # hi - lo + 1 values and number at least hi - lo; a wider run is
            # refused before its word is built
            if hi - lo > len(inside):
                raise NotBiclosed
            word_from_inversions(range(lo, hi + 1), inside)
    except NotBiclosed:
        raise NotBiclosed(f"not an inversion set: {sorted(t.invs)}") from None
    return t


def _runs(
    pairs: Iterable[tuple[int, int]],
) -> list[tuple[int, int, frozenset[tuple[int, int]]]]:
    """Maximal windows (lo, hi) covered by overlapping spans [a, b] of the
    pairs, each with the pairs inside it; no pair joins two runs."""
    runs: list[list] = []
    for a, b in sorted(pairs):
        if not runs or a > runs[-1][1]:
            runs.append([a, b, set()])
        runs[-1][1] = max(runs[-1][1], b)
        runs[-1][2].add((a, b))
    return [(lo, hi, frozenset(inside)) for lo, hi, inside in runs]


def _run_words(t: FiniteTotalOrder) -> list[tuple[int, ...]]:
    return [_sort_by_inversions(range(lo, hi + 1), inside) for lo, hi, inside in _runs(t.invs)]


def standard_order() -> FiniteTotalOrder:
    return FiniteTotalOrder(frozenset())


def support_window(t: FiniteTotalOrder) -> tuple[int, int] | None:
    """Smallest closed interval containing every inverted value, or None."""
    if not t.invs:
        return None
    return (min(a for a, _ in t.invs), max(b for _, b in t.invs))


def order_word(t: FiniteTotalOrder, lo: int, hi: int) -> tuple[int, ...]:
    """The values lo..hi listed in t's order."""
    return _sort_by_inversions(range(lo, hi + 1), t.invs)


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
    """Closure of the union, taken run by run: a chain that forces a pair
    (a, c) stays inside [a, c], so inside one run, and steps only through
    the ends of the run's pairs."""
    union = frozenset().union(*(t.invs for t in ts))
    closed = [closure({v for pair in inside for v in pair}, inside) for *_, inside in _runs(union)]
    return finite_total_order(frozenset().union(*closed))


def meet_tot(ts: Iterable[FiniteTotalOrder]) -> FiniteTotalOrder:
    """Interior of the intersection, taken run by run: a chain that removes a
    pair (a, b) stays inside [a, b], so inside its run."""
    items = list(ts)
    if not items:
        raise ValueError("meet of no total orders is not representable")
    shared = frozenset.intersection(*(t.invs for t in items))
    kept = [interior(range(lo, hi + 1), inside) for lo, hi, inside in _runs(shared)]
    return finite_total_order(frozenset().union(*kept))


def leq_tot(t1: FiniteTotalOrder, t2: FiniteTotalOrder) -> bool:
    return t1.invs <= t2.invs


# ---------------------------------------------------------------------------
# walls and arcs


def lower_walls_tot(t: FiniteTotalOrder) -> frozenset[tuple[int, int]]:
    """Inversions (a,b) with nothing strictly between b and a in the order."""
    return frozenset().union(*(word_walls(word) for word in _run_words(t)))


def lower_arcs_tot(t: FiniteTotalOrder) -> frozenset[Arc]:
    """One arc per lower wall; interior values ordered below b go left.

    >>> t = join_of_noncrossing_tot([arc(1, 5, [2], [3, 4]), arc(3, 4)])
    >>> format_tot(t)
    '2,5,1,4,3'
    """
    return frozenset().union(*(word_arcs(word, word_walls(word)) for word in _run_words(t)))


def ji_from_arc_tot(x: Arc) -> FiniteTotalOrder:
    """The join-irreducible order ... l's, b, a, r's ...; everything else in place."""
    return finite_total_order(word_inversions(arc_word(x)))


def join_of_noncrossing_tot(arcs: Iterable[Arc]) -> FiniteTotalOrder:
    return join_tot([ji_from_arc_tot(x) for x in noncrossing(arcs)])


def canonical_join_rep_tot(t: FiniteTotalOrder) -> frozenset[Arc]:
    """Lower arcs form the canonical join representation of a compact order."""
    return lower_arcs_tot(t)


def find_cover_below(
    low: FiniteTotalOrder, high: FiniteTotalOrder, pair: tuple[int, int]
) -> FiniteTotalOrder:
    """An order T with low <= T covered by high, found inside the interval [b,a].

    The chosen swap is the difference pair (x,y) whose order interval from y
    up to x is smallest; minimality forces y and x to be adjacent, so the swap
    removes exactly the inversion (x,y).
    """
    a, b = pair
    if not a < b:
        raise PreconditionViolated(f"pair {(a, b)} is not increasing")
    if not leq_tot(low, high):
        raise PreconditionViolated("lower order is not below upper order")
    if (a, b) not in high.invs or (a, b) in low.invs:
        raise PreconditionViolated(
            f"pair {(a, b)} must be inverted above and not below"
        )
    # every value between b and a in high's order is inverted with a or b,
    # so it lies in the run of (a, b)
    at = {v: k for k, v in enumerate(next(w for w in _run_words(high) if a in w))}
    # y before x in high for every difference pair (x, y); the interval from
    # y up to x holds at[x] - at[y] + 1 values
    _, x, y = min(
        (at[x] - at[y], x, y)
        for x, y in high.invs - low.invs
        if x in at and at[b] <= at[y] and at[x] <= at[a]
    )
    return finite_total_order(high.invs - {(x, y)})
