"""Weak order on the symmetric group, with arcs.

A permutation of [1..n] is identified with its inversion set, the pairs
(a, b) with a < b whose order the permutation reverses.  Containment of
inversion sets is the weak order.  Joins close the union of inversion sets
under the chain rule ((a,b) and (b,c) force (a,c)); meets keep the interior
of the intersection, the largest subset whose complement is closed.

Each cover relation removes a single inversion, its wall.  Decorating a
lower wall (a, b) with the positions of the values strictly between a and b
(left or right of the adjacent pair) gives an arc, and the arcs of all lower
walls form the canonical join representation of the permutation: the unique
irredundant join representation that every other one refines.  Collections
of pairwise non-crossing arcs correspond bijectively to permutations this
way.

Words are the one primitive, here and for the total orders of Z and the
lattice lab: ``word_inversions`` reads the inversion set off any word of
distinct integers, ``word_from_inversions`` sorts values back into the word
and certifies the round trip, ``closure`` and ``interior`` give a join's and
a meet's pair set from one top-down pass over the values, and ``word_walls``
and ``word_arcs`` read walls and arcs off adjacent entries.

>>> p = perm_of([2, 1, 3])
>>> sorted(inversions(p))
[(1, 2)]
>>> format_perm(join_sn([perm_of([2, 1, 3]), perm_of([1, 3, 2])]))
'321'
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from itertools import combinations
from typing import Iterable, Sequence

from .crossing import side_mask, tuples_cross
from .errors import (
    Crossing,
    MixedSizes,
    NotBiclosed,
    OutOfRange,
    ParseError,
    TooLarge,
)

# The most values an arc, a drawing or a size given alone may span: each is
# written value by value, and a few digits can ask for millions of them.
MAX_SPAN = 10_000

# ---------------------------------------------------------------------------
# permutations


@dataclass(frozen=True)
class Permutation:
    """A permutation of [1..n] in one-line notation."""

    n: int
    one_line: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n != len(self.one_line) or sorted(self.one_line) != list(
            range(1, self.n + 1)
        ):
            raise ValueError(f"not a permutation of [1..{self.n}]: {self.one_line}")


def perm_of(values: Iterable[int]) -> Permutation:
    word = tuple(values)
    return Permutation(len(word), word)


def swap_values(p: Permutation, a: int, b: int) -> Permutation:
    """Apply the transposition of the values a and b to the one-line word."""
    sub = {a: b, b: a}
    return Permutation(p.n, tuple(sub.get(v, v) for v in p.one_line))


def parse_perm(text: str) -> Permutation:
    """Parse one-line notation: a digit string, or comma-separated values.

    >>> parse_perm("51423").one_line
    (5, 1, 4, 2, 3)
    """
    text = text.strip()
    if not text:
        raise ParseError("empty permutation")
    try:
        if "," in text:
            word = tuple(int(part) for part in text.split(","))
        else:
            word = tuple(int(ch) for ch in text)
    except ValueError as exc:
        raise ParseError(f"bad permutation text: {text!r}") from exc
    try:
        return perm_of(word)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_perm(p: Permutation) -> str:
    if p.n <= 9:
        return "".join(str(v) for v in p.one_line)
    return ",".join(str(v) for v in p.one_line)


# ---------------------------------------------------------------------------
# inversion sets


def word_inversions(word: Sequence[int]) -> frozenset[tuple[int, int]]:
    """Pairs (a, b), a < b, with b placed left of a; any distinct integers.

    >>> sorted(word_inversions((0, 2, -1)))
    [(-1, 0), (-1, 2)]
    """
    return frozenset((v, u) for i, u in enumerate(word) for v in word[i + 1 :] if v < u)


def _sort_by_inversions(
    values: Iterable[int], pairs: frozenset[tuple[int, int]]
) -> tuple[int, ...]:
    # values in the order the pairs describe; no check that they describe one

    def earlier(a: int, b: int) -> int:
        if a < b:
            return 1 if (a, b) in pairs else -1
        return -1 if (b, a) in pairs else 1

    return tuple(sorted(values, key=cmp_to_key(earlier)))


def word_from_inversions(
    values: Iterable[int], pairs: frozenset[tuple[int, int]]
) -> tuple[int, ...]:
    """The ordering of ``values`` whose inversion set is ``pairs``.

    Sorts by the order the pairs describe, then certifies the round trip:
    raises NotBiclosed when no ordering has that inversion set, i.e. when the
    set is not closed, its complement is not closed, or a pair leaves
    ``values``.
    """
    word = _sort_by_inversions(values, pairs)
    if word_inversions(word) != pairs:
        raise NotBiclosed(f"not an inversion set: {sorted(pairs)}")
    return word


def _reach(ordered: Sequence[int], pairs: frozenset[tuple[int, int]], inside: bool) -> list[int]:
    # reach[k]: bitmask of the positions m that a chain ordered[k] < z1 < ...
    # < ordered[m] reaches, each step a pair in ``pairs`` (inside) or a pair
    # of ``ordered`` not in it; built from the top down
    reach = [0] * len(ordered)
    for k in range(len(ordered) - 2, -1, -1):
        a = ordered[k]
        for m in range(k + 1, len(ordered)):
            if ((a, ordered[m]) in pairs) == inside:
                reach[k] |= reach[m] | 1 << m
    return reach


def closure(
    values: Iterable[int], pairs: frozenset[tuple[int, int]]
) -> frozenset[tuple[int, int]]:
    """Close ``pairs`` (pairs of ``values``) under the chain rule: (a, b) and
    (b, c) force (a, c), so (a, b) is in when a chain a < z1 < ... < b of the
    pairs joins them.

    >>> sorted(closure(range(1, 4), frozenset({(1, 2), (2, 3)})))
    [(1, 2), (1, 3), (2, 3)]
    """
    ordered = sorted(values)
    reach = _reach(ordered, pairs, True)
    return frozenset(
        (a, ordered[m])
        for k, a in enumerate(ordered)
        for m in range(k + 1, len(ordered))
        if reach[k] >> m & 1
    )


def interior(
    values: Iterable[int], pairs: frozenset[tuple[int, int]]
) -> frozenset[tuple[int, int]]:
    """The largest subset of ``pairs`` whose complement among the pairs of
    ``values`` is chain-closed: all pairs minus the closure of the rest, i.e.
    the pairs (a, b) that no chain a < z1 < ... < b of other pairs joins."""
    ordered = sorted(values)
    at = {v: k for k, v in enumerate(ordered)}
    reach = _reach(ordered, pairs, False)
    return frozenset((a, b) for a, b in pairs if not reach[at[a]] >> at[b] & 1)


def inversions(p: Permutation) -> frozenset[tuple[int, int]]:
    """The inversion set N(p): pairs (a, b), a < b, with b left of a.

    >>> sorted(inversions(parse_perm("51423")))
    [(1, 5), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]
    """
    return word_inversions(p.one_line)


def _common_n(items: Sequence, n: int | None) -> int:
    # The one size shared by the items (anything with an ``n``) and n.  With
    # no items, n alone sets the size of the answer, so it is bounded.
    sizes = {x.n for x in items}
    if n is not None:
        sizes.add(n)
    if len(sizes) > 1:
        raise MixedSizes(f"mixed sizes {sorted(sizes)}")
    if not sizes:
        raise ValueError("empty input needs an explicit n")
    size = sizes.pop()
    if not items and size > MAX_SPAN:
        raise TooLarge(f"size {size} with no input (limit {MAX_SPAN})")
    return size


def join_sn(perms: Iterable[Permutation], n: int | None = None) -> Permutation:
    """Least upper bound; the empty join is the identity."""
    items = list(perms)
    values = range(1, _common_n(items, n) + 1)
    if not items:
        return Permutation(len(values), tuple(values))
    union = frozenset().union(*map(inversions, items))
    return Permutation(len(values), word_from_inversions(values, closure(values, union)))


def meet_sn(perms: Iterable[Permutation], n: int | None = None) -> Permutation:
    """Greatest lower bound; the empty meet is the full reversal."""
    items = list(perms)
    values = range(1, _common_n(items, n) + 1)
    if not items:
        return Permutation(len(values), tuple(values[::-1]))
    shared = frozenset(combinations(values, 2)).intersection(*map(inversions, items))
    return Permutation(len(values), word_from_inversions(values, interior(values, shared)))


def leq_sn(p: Permutation, q: Permutation) -> bool:
    if p.n != q.n:
        raise MixedSizes(f"mixed sizes {p.n} and {q.n}")
    return inversions(p) <= inversions(q)


# ---------------------------------------------------------------------------
# walls and arcs


def word_walls(word: Sequence[int], upper: bool = False) -> frozenset[tuple[int, int]]:
    """Adjacent pairs (a, b), a < b, of a word: the descents (b immediately
    left of a), or with ``upper`` the ascents (a immediately left of b)."""
    return frozenset(
        (min(u, v), max(u, v)) for u, v in zip(word, word[1:]) if (u < v) == upper
    )


def lower_walls_sn(p: Permutation) -> frozenset[tuple[int, int]]:
    """Pairs (a, b), a < b, with a placed immediately right of b.

    Removing such a pair from the inversion set is exactly a downward cover.
    """
    return word_walls(p.one_line)


def upper_walls_sn(p: Permutation) -> frozenset[tuple[int, int]]:
    """Pairs (a, b), a < b, with a placed immediately left of b (upward covers)."""
    return word_walls(p.one_line, upper=True)


@dataclass(frozen=True)
class Arc:
    """An arc from a up to b; interior values split into left and right sets."""

    a: int
    b: int
    left: frozenset[int]
    right: frozenset[int]

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError(f"need a < b, got ({self.a}, {self.b})")
        both = self.left | self.right  # linear in the sides, not in the span
        inside = all(self.a < x < self.b for x in both)
        if not inside or not len(both) == len(self.left) + len(self.right) == self.b - self.a - 1:
            raise ValueError(
                f"sides must partition ({self.a}, {self.b}): {self.left}, {self.right}"
            )


def arc(a: int, b: int, left: Iterable[int] = (), right: Iterable[int] = ()) -> Arc:
    return Arc(a, b, frozenset(left), frozenset(right))


def format_arc(x: Arc) -> str:
    l = " ".join(str(v) for v in sorted(x.left))
    r = " ".join(str(v) for v in sorted(x.right))
    return f"({x.a},{x.b}|{l}|{r})"


def parse_arc(text: str) -> Arc:
    """Parse '(a,b|l1 l2 ...|r1 r2 ...)'."""
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ParseError(f"bad arc text: {text!r}")
    fields = body[1:-1].split("|")
    if len(fields) != 3:
        raise ParseError(f"bad arc text: {text!r}")
    try:
        a_txt, b_txt = fields[0].split(",")
        left = [int(v) for v in fields[1].split()] if fields[1].strip() else []
        right = [int(v) for v in fields[2].split()] if fields[2].strip() else []
        parsed = arc(int(a_txt), int(b_txt), left, right)
    except ValueError as exc:
        raise ParseError(f"bad arc text: {text!r}") from exc
    return parsed


def word_arcs(word: Sequence[int], walls: Iterable[tuple[int, int]]) -> frozenset[Arc]:
    """One arc per wall (a, b) of the word: the values strictly between a and
    b that sit left of the adjacent pair go left, the others right."""
    where = {v: i for i, v in enumerate(word)}
    out = []
    for a, b in walls:
        cut = min(where[a], where[b])
        left = frozenset(m for m in range(a + 1, b) if where[m] < cut)
        out.append(Arc(a, b, left, frozenset(range(a + 1, b)) - left))
    return frozenset(out)


def lower_arcs_sn(p: Permutation) -> frozenset[Arc]:
    """Arcs of the lower walls; the interior values left of the wall pair go left.

    >>> sorted(format_arc(a) for a in lower_arcs_sn(parse_perm("25143")))
    ['(1,5|2|3 4)', '(3,4||)']
    """
    return word_arcs(p.one_line, word_walls(p.one_line))


def upper_arcs_sn(p: Permutation) -> frozenset[Arc]:
    """Arcs of the upper walls, decorated the same way."""
    return word_arcs(p.one_line, word_walls(p.one_line, upper=True))


def canonical_join_rep_sn(p: Permutation) -> frozenset[Arc]:
    """The canonical join representation of p, as its set of lower arcs."""
    return lower_arcs_sn(p)


def arcs_cross(x: Arc, y: Arc) -> bool:
    """True when the two arcs cannot be drawn disjointly (shared endpoint kinds count)."""
    return tuples_cross(
        x.a, x.b, side_mask(x.a, x.left), side_mask(x.a, x.right),
        y.a, y.b, side_mask(y.a, y.left), side_mask(y.a, y.right),
    )


def ji_from_arc_sn(x: Arc, n: int) -> Permutation:
    """The join-irreducible permutation whose single lower arc is ``x``.

    >>> format_perm(ji_from_arc_sn(arc(1, 4, [3], [2]), 4))
    '3412'
    """
    if not 1 <= x.a < x.b <= n:
        raise OutOfRange(f"arc {format_arc(x)} does not fit in [1..{n}]")
    return perm_of(list(range(1, x.a)) + arc_word(x) + list(range(x.b + 1, n + 1)))


def arc_word(x: Arc) -> list[int]:
    """The values a..b ordered left, b, a, right: the join-irreducible of x."""
    return sorted(x.left) + [x.b, x.a] + sorted(x.right)


def noncrossing(arcs: Iterable[Arc]) -> list[Arc]:
    """The arcs in a fixed order; Crossing when two of them cross."""
    items = sorted(arcs, key=_arc_key)
    for x, y in combinations(items, 2):
        if arcs_cross(x, y):
            raise Crossing(f"arcs cross: {format_arc(x)} and {format_arc(y)}")
    return items


def permutation_from_noncrossing(arcs: Iterable[Arc], n: int) -> Permutation:
    """Inverse of the lower-arc map on non-crossing collections."""
    return join_sn([ji_from_arc_sn(x, n) for x in noncrossing(arcs)], n=n)


def _arc_key(x: Arc) -> tuple:
    # the one order for arcs of both kinds: the ends and the left side fix the right
    return (x.a, x.b, tuple(sorted(x.left)))
