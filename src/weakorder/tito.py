"""Translation-invariant total orders of the integers with period n.

A total order on the integers is translation-invariant when x before y
implies x + n before y + n.  Such an order splits the integers into a
finite sequence of convex blocks; each block covers a set of residue
classes mod n, is order-isomorphic to the integers, and is either waxing
(x before x + n) or waning (x + n before x).  A block of size k is
written as a window of k consecutive entries, and the whole order as the
left-to-right concatenation of its block windows, waning blocks marked
with '~': "[2,1,3][~0]".

An inversion is a class of pairs <a,b>, a < b, b before a, up to
translating both entries by n.  Containment of inversion sets is a
complete lattice order.  An order is determined by its shift sets
V[i][j] = {d : <i, j + dn> is an inversion}, one integer interval per pair
of residues.  Every computed order leaves through one certified decoder
that reads the windows off closed shift sets: joins, flips and the
join-irreducibles of wrapped arcs.  Meets go through the order-reversing
involution.

>>> t = parse_windows("[2,1]", 2)
>>> lt_tito(t, 2, 1)
True
>>> format_windows(join_tito([t, parse_windows("[0,3]", 2)]))
'[~2,1]'
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, cmp_to_key
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, Sequence

from .crossing import side_mask, tuples_cross
from .errors import (
    Crossing,
    InconsistentEncoding,
    InvalidWindows,
    NotAWall,
    NotWidelyGenerated,
    NotWrapped,
    ParseError,
    TooLarge,
)
from .sn import _arc_key, _common_n

WAXING = "waxing"
WANING = "waning"

# The most values an arc or a drawing may span: both are written value by
# value, and a window of a few digits can have a wall spanning millions.
MAX_SPAN = 10_000


def _check_span(what: str, span: int) -> None:
    if span > MAX_SPAN:
        raise TooLarge(f"{what} spans {span} values (limit {MAX_SPAN})")


def residue(x: int, n: int) -> int:
    """The representative of x mod n lying in [1..n]."""
    return (x - 1) % n + 1


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True, order=True)
class ReflectionIndex:
    """A pair <a,b>, a < b, up to translating both entries by n.

    The stored representative keeps a in [1..n].  The index is imaginary
    when a and b share a residue class, real otherwise.
    """

    a: int
    b: int

    def __post_init__(self) -> None:
        if not 1 <= self.a < self.b:
            raise ValueError(f"need 1 <= a < b, got <{self.a},{self.b}>")

    def __str__(self) -> str:
        return format_reflection_index(self)


def reflection_index(a: int, b: int, n: int) -> ReflectionIndex:
    """The canonical representative of the class of <a,b>."""
    if a >= b:
        raise ValueError(f"need a < b, got <{a},{b}>")
    shift = residue(a, n) - a
    return ReflectionIndex(a + shift, b + shift)


def is_imaginary_index(ri: ReflectionIndex, n: int) -> bool:
    return (ri.b - ri.a) % n == 0


def format_reflection_index(ri: ReflectionIndex) -> str:
    return f"<{ri.a},{ri.b}>"


def parse_reflection_index(text: str, n: int) -> ReflectionIndex:
    m = re.fullmatch(r"\s*<\s*(-?\d+)\s*,\s*(-?\d+)\s*>\s*", text)
    if not m:
        raise ParseError(f"expected '<a,b>', got {text!r}")
    a, b = int(m.group(1)), int(m.group(2))
    if a >= b:
        raise ParseError(f"need a < b in {text!r}")
    return reflection_index(a, b, n)


@dataclass(frozen=True)
class Block:
    """One block: a direction and a window of consecutive entries."""

    direction: str
    window: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.direction not in (WAXING, WANING):
            raise InvalidWindows(f"unknown direction {self.direction!r}")
        if not self.window:
            raise InvalidWindows("empty block")

    @property
    def size(self) -> int:
        return len(self.window)


@dataclass(frozen=True)
class Tito:
    """A translation-invariant total order, stored block by block.

    Construction validates that every residue class appears in exactly
    one window; the functions in this module return values in canonical
    window form (see normalize_tito).
    """

    n: int
    blocks: tuple[Block, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidWindows(f"period must be positive, got {self.n}")
        seen: set[int] = set()
        for blk in self.blocks:
            for e in blk.window:
                r = residue(e, self.n)
                if r in seen:
                    raise InvalidWindows(f"residue class of {e} repeated")
                seen.add(r)
        if len(seen) != self.n:
            missing = sorted(set(range(1, self.n + 1)) - seen)
            raise InvalidWindows(f"residue classes {missing} missing")

    @cached_property
    def _placements(self) -> dict[int, tuple[int, str, int, int]]:
        # residue r -> (block index, direction, block size, place of r, see
        # _locate); kept in the instance dict, so eq and hash use the fields
        out = {}
        for bi, blk in enumerate(self.blocks):
            k, step = blk.size, 1 if blk.direction == WANING else -1
            for p, e in enumerate(blk.window):
                out[residue(e, self.n)] = (bi, blk.direction, k, p + step * ((e - 1) // self.n) * k)
        return out

    def __str__(self) -> str:
        return format_windows(self)


@dataclass(frozen=True)
class WrappedArc:
    """An arc <a,b,L,R> up to translating everything by n.

    The stored representative keeps a in [1..n]; left and right split the
    integers strictly between a and b.  Whether the translate family is
    non-crossing is a separate check (is_wrapped_arc).
    """

    a: int
    b: int
    left: frozenset[int]
    right: frozenset[int]

    def __post_init__(self) -> None:
        if not 1 <= self.a < self.b:
            raise ValueError(f"need 1 <= a < b, got <{self.a},{self.b}>")
        both = self.left | self.right  # linear in the sides, not in the span
        inside = all(self.a < x < self.b for x in both)
        if not inside or not len(both) == len(self.left) + len(self.right) == self.b - self.a - 1:
            raise ValueError(
                f"left/right must split ({self.a},{self.b}) exclusively"
            )

    @cached_property
    def _sides(self) -> tuple[int, int]:
        # left and right as bitmasks from a (crossing.side_mask); kept in the
        # instance dict, so eq and hash use the fields
        return side_mask(self.a, self.left), side_mask(self.a, self.right)

    def __str__(self) -> str:
        return format_wrapped_arc(self)


def wrapped_arc(
    a: int, b: int, left: Iterable[int], right: Iterable[int], n: int
) -> WrappedArc:
    """The canonical representative of the class of (a, b, left, right)."""
    shift = residue(a, n) - a
    return WrappedArc(
        a + shift,
        b + shift,
        frozenset(x + shift for x in left),
        frozenset(x + shift for x in right),
    )


def format_wrapped_arc(w: WrappedArc) -> str:
    lefts = " ".join(str(x) for x in sorted(w.left))
    rights = " ".join(str(x) for x in sorted(w.right))
    return f"<{w.a},{w.b}|{lefts}|{rights}>"


def parse_wrapped_arc(text: str, n: int) -> WrappedArc:
    m = re.fullmatch(
        r"\s*<\s*(-?\d+)\s*,\s*(-?\d+)\s*\|([^|<>]*)\|([^|<>]*)>\s*", text
    )
    if not m:
        raise ParseError(f"expected '<a,b|l1 l2|r1 r2>', got {text!r}")
    a, b = int(m.group(1)), int(m.group(2))
    left = frozenset(int(p) for p in m.group(3).split())
    right = frozenset(int(p) for p in m.group(4).split())
    if a >= b:
        raise ParseError(f"need a < b in {text!r}")
    try:
        return wrapped_arc(a, b, left, right, n)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# window notation


def parse_windows(text: str, n: int) -> Tito:
    """Parse window notation like "[2,1,3][~0]" and normalize.

    >>> format_windows(parse_windows("[3,6,5][~-64]", 4))
    '[2,1,3][~4]'
    """
    s = text.strip()
    if not s:
        raise ParseError("empty window notation")
    blocks: list[Block] = []
    i = 0
    while i < len(s):
        if s[i] != "[":
            raise ParseError(f"expected '[' at index {i} of {text!r}")
        j = s.find("]", i)
        if j < 0:
            raise ParseError(f"unclosed '[' in {text!r}")
        body = s[i + 1 : j].strip()
        direction = WAXING
        if body.startswith("~"):
            direction = WANING
            body = body[1:].strip()
        if not body:
            raise InvalidWindows(f"empty block in {text!r}")
        entries = []
        for part in body.split(","):
            part = part.strip()
            if not re.fullmatch(r"-?\d+", part):
                raise ParseError(f"bad integer {part!r} in {text!r}")
            entries.append(int(part))
        blocks.append(Block(direction, tuple(entries)))
        i = j + 1
        while i < len(s) and s[i].isspace():
            i += 1
    return normalize_tito(Tito(n, tuple(blocks)))


def format_windows(t: Tito) -> str:
    out = []
    for blk in t.blocks:
        mark = "~" if blk.direction == WANING else ""
        out.append("[" + mark + ",".join(str(e) for e in blk.window) + "]")
    return "".join(out)


def normalize_tito(t: Tito) -> Tito:
    """Slide every window to the representative with canonical entry sum.

    Sliding a waxing window one step moves its first entry x to the end as
    x + n (a waning window moves its last entry x to the front as x + n), so
    each step adds n to the entry sum and k steps add n to every entry.  For
    a block of size k there is exactly one window with sum in
    [k(k+1)/2, k(k+1)/2 + n - 1], reached by one rotation plus a shift by a
    multiple of n; a single block covering all residues lands on the window
    whose sum is n(n+1)/2, the usual normalization for affine permutations.
    """
    n = t.n
    blocks = []
    for blk in t.blocks:
        k = blk.size
        # a waning window slides like the reversed waxing window
        w = blk.window if blk.direction == WAXING else blk.window[::-1]
        steps = (k * (k + 1) // 2 + n - 1 - sum(w)) // n
        q, r = divmod(steps, k)
        # tuples from lists: one built from a generator is resized from a guessed
        # length, and CPython keeps it on a free list after it dies
        w = tuple([x + q * n for x in w[r:] + tuple([x + n for x in w[:r]])])
        blocks.append(Block(blk.direction, w if blk.direction == WAXING else w[::-1]))
    return Tito(n, tuple(blocks))


def standard_tito(n: int) -> Tito:
    """The usual order of the integers: one waxing block [1,...,n]."""
    return Tito(n, (Block(WAXING, tuple(range(1, n + 1))),))


def reversal_tito(n: int) -> Tito:
    """The reversed order of the integers: one waning block [~n,...,1]."""
    return Tito(n, (Block(WANING, tuple(range(n, 0, -1))),))


def all_titos(n: int, lo: int, hi: int) -> list[Tito]:
    """Every canonical-form order whose window entries all lie in [lo, hi]."""
    per_residue = {
        r: [v for v in range(lo, hi + 1) if residue(v, n) == r]
        for r in range(1, n + 1)
    }
    out: list[Tito] = []
    for parts in _ordered_set_partitions(tuple(range(1, n + 1))):
        window_choices = []
        for part in parts:
            k = len(part)
            smin = k * (k + 1) // 2
            choices = []
            for order in permutations(part):
                for values in product(*(per_residue[r] for r in order)):
                    if smin <= sum(values) <= smin + n - 1:
                        choices.append(tuple(values))
            window_choices.append(choices)
        for windows in product(*window_choices):
            for dirs in product((WAXING, WANING), repeat=len(parts)):
                out.append(
                    Tito(
                        n,
                        tuple(
                            Block(d, w) for d, w in zip(dirs, windows)
                        ),
                    )
                )
    return out


def _ordered_set_partitions(
    items: tuple[int, ...],
) -> Iterable[tuple[tuple[int, ...], ...]]:
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for mask in range(2 ** len(rest)):
        head = (first,) + tuple(r for i, r in enumerate(rest) if mask >> i & 1)
        tail = tuple(r for i, r in enumerate(rest) if not mask >> i & 1)
        for more in _ordered_set_partitions(tail):
            yield (head,) + more
            for k in range(len(more)):
                yield more[: k + 1] + (head,) + more[k + 1 :]


# ---------------------------------------------------------------------------
# comparisons


def _locate(t: Tito, x: int) -> tuple[int, int]:
    # (block index, place in the block), which sorts like the order: x + n
    # is k places right of x in a waxing block of size k, k left in a waning one
    bi, direction, k, p = t._placements[residue(x, t.n)]
    u = (x - 1) // t.n
    return bi, p + u * k if direction == WAXING else p - u * k


def lt_tito(t: Tito, a: int, b: int) -> bool:
    """True when a comes strictly before b in the order.

    >>> lt_tito(parse_windows("[1,0,3,2]", 4), 1, 0)
    True
    >>> lt_tito(parse_windows("[~1][2]", 2), 3, 2)
    True
    """
    return _locate(t, a) < _locate(t, b)


def inversion_contains(t: Tito, ri: ReflectionIndex) -> bool:
    """True when <a,b> is an inversion of t, i.e. b comes before a."""
    return lt_tito(t, ri.b, ri.a)


def inversion_indices_upto(t: Tito, bound: int) -> frozenset[ReflectionIndex]:
    """All inversions <a,b> with a in [1..n] and b - a <= bound."""
    out = set()
    for a in range(1, t.n + 1):
        for b in range(a + 1, a + bound + 1):
            if lt_tito(t, b, a):
                out.add(ReflectionIndex(a, b))
    return frozenset(out)


# ---------------------------------------------------------------------------
# shift sets

# For residues i, j in [1..n] the shift set V[i][j] is {d : <i, j + dn> is
# an inversion}, over the d with j + dn > i (d >= 0 when j > i, else d >= 1).
# In a waxing block these are the d up to a threshold, a finite interval; in
# a waning block the d from a threshold on, a tail; across blocks nothing or
# the whole tail.  So V = (lo, hi), two (n+1) x (n+1) lists, 1-indexed, with
# hi = INF for a tail and (INF, -INF) for the empty set: min and max take
# the hull of a union, and lo2 <= lo1 and hi1 <= hi2 decides inclusion.

INF = math.inf
Shifts = tuple[list[list[float]], list[list[float]]]


def _no_shifts(n: int) -> Shifts:
    return [[INF] * (n + 1) for _ in range(n + 1)], [[-INF] * (n + 1) for _ in range(n + 1)]


def _shifts_within(V: Shifts, W: Shifts, n: int, diagonal: bool = True) -> bool:
    """True when each V[i][j] lies inside W[i][j]; diagonal=False skips V[r][r]."""
    (lo1, hi1), (lo2, hi2) = V, W
    cells = [(i, j) for i, j in product(range(1, n + 1), repeat=2) if diagonal or i != j]
    return all(lo2[i][j] <= lo1[i][j] and hi1[i][j] <= hi2[i][j] for i, j in cells)


def _shift_of(x: int, y: int, n: int) -> tuple[int, int, int]:
    # <x, y> as a residue pair with shift: y - (x - i) = j + dn.
    i, j = residue(x, n), residue(y, n)
    return i, j, (y - x - (j - i)) // n


def _valid_sets(t: Tito) -> Shifts:
    # read off the places of the classes; V[r][r] falls under the same-block
    # rule (theta = 0 < 1 when waxing, the tail [1, oo) when waning)
    n, pl = t.n, t._placements
    V = _no_shifts(n)
    for i in range(1, n + 1):
        bi, di, k, pi = pl[i]
        lo, hi = V[0][i], V[1][i]
        for j in range(1, n + 1):
            bj, _, _, pj = pl[j]
            tmin = 0 if j > i else 1
            if bi != bj:
                if bi > bj:
                    lo[j], hi[j] = tmin, INF
            elif di == WAXING:
                theta = (pi - pj) // k
                if theta >= tmin:
                    lo[j], hi[j] = tmin, theta
            else:
                lo[j], hi[j] = max((pj - pi) // k + 1, tmin), INF
    return V


def _close(V: Shifts, n: int) -> None:
    """Close V in place under the chain rule and the waning promotion.

    Chain rule: <i, j+dn> and <j, l+en> force <i, l+(d+e)n>, so V[i][l]
    absorbs V[i][j] + V[j][l].  Promotion: a nonempty V[r][r] means r's
    class wanes, which forces every imaginary shift: V[r][r] = [1, oo).

    One pass suffices.  Intervals under "hull of union" and "sum" form a
    closed semiring (the sum distributes over the hull of any family), so
    the least chain-closed matrix above V holds in V[i][l] the hull of the
    shift totals of all walks from i to l.  Floyd-Warshall in Kleene's form
    builds it over the pivot k: a walk with inner residues at most k splits
    at its visits to k into a walk into k, cycles at k and a walk out of k,
    all with inner residues below k, hence the update V[i][l] |= V[i][k] +
    star(V[k][k]) + V[k][l].  A cycle has total shift >= 1 (a sum keeps
    d >= 1 when l <= i), so the star, the hull of 0 and all multiples of
    V[k][k], is [0, oo) if V[k][k] is nonempty and {0} if not; updating in
    place only repeats it.  A nonempty V[r][r] is then a tail, and so are
    the nonempty V[i][r] and V[r][l] (go round the cycle again), so the
    post-pass V[r][r] = [1, oo) gives the chain rule nothing new.  Both
    steps add only what the rules force: the result is the least closed
    matrix above V, reached without an iteration count.  Hulls lose
    nothing, as the shift sets of a periodic order are intervals closed
    under both rules: one containing V's contains each hull on the way.
    """
    LO, HI = V
    for k in range(1, n + 1):
        lo_k, hi_k = LO[k], HI[k]
        cycle = lo_k[k] <= hi_k[k]
        out = [l for l in range(1, n + 1) if lo_k[l] != INF]
        for i in range(1, n + 1):
            lo_i, hi_i = LO[i], HI[i]
            lo_ik = lo_i[k]
            if lo_ik == INF:
                continue
            hi_ik = INF if cycle else hi_i[k]
            for l in out:
                s = lo_ik + lo_k[l]
                if s < lo_i[l]:
                    lo_i[l] = s
                s = hi_ik + hi_k[l]
                if s > hi_i[l]:
                    hi_i[l] = s
    for r in range(1, n + 1):
        if LO[r][r] != INF:
            LO[r][r], HI[r][r] = 1, INF


def _tito_from_valid_sets(V: Shifts, n: int) -> Tito:
    """The order whose shift sets are V; InconsistentEncoding when none is.

    Classes r and s share a block when V[r][s] and V[s][r] are both finite
    (a waxing block) or both tails (a waning block).  A block comes before
    each class outside it whose shift set towards the block is a tail, so
    blocks are ranked by how many classes they come before.  The window of
    a block with least class r0 runs from r0 up to, not including, the next
    translate r0 + n (waxing) or r0 - n (waning): one translate per class,
    placed by the threshold that V[r0][r] and V[r][r0] record.  The result
    is certified by recomputing its shift sets.
    """
    LO, HI = V

    def before(x: int, y: int) -> bool:
        if x > y:
            return not before(y, x)
        i, j, d = _shift_of(x, y, n)
        return not LO[i][j] <= d <= HI[i][j]

    ranked = []
    rest = list(range(1, n + 1))
    while rest:
        r0 = rest[0]
        members = [r for r in rest if (HI[r0][r] == INF) == (HI[r][r0] == INF)]
        rest = [r for r in rest if r not in members]
        window = [r0]
        for r in members[1:]:
            # the translate r + dn that lies between r0 and its successor r0 +- n
            if HI[r0][r] == INF:
                # waning, r + dn before r0 iff d >= theta: V[r0][r] = [max(theta, 0), oo)
                # and V[r][r0] = [max(1 - theta, 1), oo), so d = theta - 1
                d = LO[r0][r] - LO[r][r0]
            else:
                # waxing, r + dn before r0 iff d <= theta: V[r0][r] = [0, theta] and
                # V[r][r0] = [1, -theta - 1], either possibly empty; d = theta + 1
                d = max(HI[r0][r], -1) + 1 - max(HI[r][r0], 0)
            window.append(r + d * n)
        window.sort(key=cmp_to_key(lambda x, y: -1 if before(x, y) else 1))
        direction = WAXING if LO[r0][r0] == INF else WANING
        ahead = sum(HI[s][r0] == INF for s in range(1, n + 1) if s not in members)
        ranked.append((ahead, Block(direction, tuple(window))))
    ranked.sort(key=lambda pair: -pair[0])
    t = normalize_tito(Tito(n, tuple([blk for _, blk in ranked])))
    if _valid_sets(t) != V:
        raise InconsistentEncoding(
            f"shift sets describe no periodic order; {format_windows(t)} has others"
        )
    return t


def _hulls(shifts: Iterable[tuple[int, int, int]], n: int) -> Shifts:
    """The matrix holding in V[i][j] the hull of the d of the (i, j, d) given."""
    V = lo, hi = _no_shifts(n)
    for i, j, d in shifts:
        lo[i][j], hi[i][j] = min(lo[i][j], d), max(hi[i][j], d)
    return V


def _order_of_pairs(pairs: Iterable[tuple[int, int]], n: int) -> Tito:
    """The least order inverting every pair (x, y), x < y.  The shift sets
    of each such order are closed intervals, so they hold the closure of
    the pairs' hulls; when that closure decodes, its order is the least."""
    V = _hulls((_shift_of(x, y, n) for x, y in pairs), n)
    _close(V, n)
    return _tito_from_valid_sets(V, n)


# ---------------------------------------------------------------------------
# lattice operations


def join_tito(ts: Sequence[Tito], n: int | None = None) -> Tito:
    """Least upper bound: close the union of the inversion sets.

    >>> format_windows(join_tito([parse_windows("[2,1]", 2), parse_windows("[0,3]", 2)]))
    '[~2,1]'
    """
    size = _common_n(ts, n)
    if not ts:
        return standard_tito(size)
    V = _valid_sets(ts[0])
    for W in map(_valid_sets, ts[1:]):
        for bound, other, hull in zip(V, W, (min, max)):
            bound[:] = [list(map(hull, row, more)) for row, more in zip(bound, other)]
    _close(V, size)
    return _tito_from_valid_sets(V, size)


def reverse_tito(t: Tito) -> Tito:
    """The same order read right to left; inversions become non-inversions."""
    turn = {WAXING: WANING, WANING: WAXING}
    blocks = [Block(turn[blk.direction], blk.window[::-1]) for blk in reversed(t.blocks)]
    return normalize_tito(Tito(t.n, tuple(blocks)))


def meet_tito(ts: Sequence[Tito], n: int | None = None) -> Tito:
    """Greatest lower bound, computed through the reversing involution."""
    size = _common_n(ts, n)
    return reverse_tito(join_tito([reverse_tito(t) for t in ts], size))


def leq_tito(t1: Tito, t2: Tito) -> bool:
    """Containment of inversion sets, decided on the shift sets."""
    size = _common_n([t1, t2], None)
    return _shifts_within(_valid_sets(t1), _valid_sets(t2), size)


# ---------------------------------------------------------------------------
# walls, covers, arcs


def lower_walls_tito(t: Tito) -> frozenset[ReflectionIndex]:
    """Inversions <a,b> with b immediately before a; at most n of them.

    >>> sorted(str(w) for w in lower_walls_tito(parse_windows("[~2,1]", 2)))
    ['<1,2>', '<2,3>']
    """
    walls = set()
    for blk in t.blocks:
        w = blk.window
        wrap = w[0] + t.n if blk.direction == WAXING else w[0] - t.n
        for u, v in zip(w, w[1:] + (wrap,)):
            if u > v:
                walls.add(reflection_index(v, u, t.n))
    return frozenset(walls)


def flip_tito(t: Tito, w: ReflectionIndex) -> Tito:
    """The cover below t obtained by undoing the wall w.

    A real wall <a,b> joins neighbours of one block: b is the last
    translate of its class before a, so its shift d is an end of V[i][j],
    the threshold of a waxing block or the start of a waning tail, and
    dropping d takes out exactly w's class.  The imaginary wall <a,a+n> of
    a waning singleton [~a] takes out every <a,a+dn>: V[a][a] empties.
    """
    w = reflection_index(w.a, w.b, t.n)
    if w not in lower_walls_tito(t):
        raise NotAWall(f"{w} is not a lower wall of {format_windows(t)}")
    V = lo, hi = _valid_sets(t)
    i, j, d = _shift_of(w.a, w.b, t.n)
    if i == j or lo[i][j] == hi[i][j]:
        lo[i][j], hi[i][j] = INF, -INF
    elif d == lo[i][j]:
        lo[i][j] = d + 1
    else:
        hi[i][j] = d - 1
    return _tito_from_valid_sets(V, t.n)


def _crosses_translate(w1: WrappedArc, w2: WrappedArc, shifts: Iterable[int]) -> bool:
    # w1 against the translates of w2 by each shift; the side masks are
    # measured from the arcs' starts, so they serve every translate
    return any(
        tuples_cross(w1.a, w1.b, *w1._sides, w2.a + s, w2.b + s, *w2._sides) for s in shifts
    )


def is_wrapped_arc(p: WrappedArc, n: int) -> bool:
    """True when no two translates of the arc cross each other; only shifts
    k n below the span b - a can make the arc meet a translate."""
    return not _crosses_translate(p, p, range(n, p.b - p.a, n))


def wrapped_cross(w1: WrappedArc, w2: WrappedArc, n: int) -> bool:
    """True when some translate of w1 crosses some translate of w2.

    Offsets that pull the spans apart leave the arcs with no common value,
    so only k n within [a1 - b2, b1 - a2] needs checking; for w1 == w2 the
    k = 0 term is the arc against itself and is skipped.
    """
    lo = -((w2.b - w1.a) // n)
    hi = (w1.b - w2.a) // n
    return _crosses_translate(
        w1, w2, (k * n for k in range(lo, hi + 1) if k or w1 != w2)
    )


def lower_wrapped_arcs(t: Tito) -> frozenset[WrappedArc]:
    """One arc per lower wall, recording which side each bypassed value takes.

    >>> sorted(str(a) for a in lower_wrapped_arcs(parse_windows("[2][~1]", 2)))
    ['<1,3|2|>']
    """
    arcs = set()
    for w in lower_walls_tito(t):
        _check_span(f"wall {w}", w.b - w.a)
        left = frozenset(x for x in range(w.a + 1, w.b) if lt_tito(t, x, w.b))
        right = frozenset(range(w.a + 1, w.b)) - left
        arcs.add(WrappedArc(w.a, w.b, left, right))
    return frozenset(arcs)


def _arc_pairs(p: WrappedArc, n: int) -> Iterator[tuple[int, int]]:
    # the pairs that the arc word left, b, a, right inverts: <a,b>, <a,l>,
    # <r,b> and <r,l> for r < l.  Within one residue class the shift of
    # <r,l> falls as r rises, so the farthest and the nearest r below l
    # give the hull of the class: n pairs per l, not one per r.
    yield p.a, p.b
    ends: dict[int, list[int]] = {}  # residue -> [farthest, nearest] r so far
    for x in range(p.a + 1, p.b):
        if x in p.right:
            yield x, p.b
            ends.setdefault(x % n, [x, x])[1] = x
        else:
            yield p.a, x
            for far, near in ends.values():
                yield far, x
                yield near, x


def ji_from_wrapped_arc(p: WrappedArc, n: int) -> Tito:
    """The unique element j(p) with p as its only lower arc.

    Any order with the lower arc p puts left before b, b just before a
    and right after a, so it inverts the pairs of _arc_pairs; their
    closure decodes to the least order m inverting them (_order_of_pairs),
    and m <= j(p).  The wall <a,b> of p is in m and not in j(p)'s one
    lower cover c, so m is not below c.  Were m < j(p), then m v c = j(p)
    as j(p) covers c, and j(p) would not be join-irreducible; so m = j(p).
    A closure that decodes to no order raises InconsistentEncoding, never
    a wrong answer.
    """
    if not is_wrapped_arc(p, n):
        raise NotWrapped(f"{format_wrapped_arc(p)} crosses its own translates")
    return _order_of_pairs(_arc_pairs(p, n), n)


def is_widely_generated_tito(t: Tito) -> bool:
    """True when no two consecutive blocks are both waxing."""
    return all(
        not (x.direction == WAXING and y.direction == WAXING)
        for x, y in zip(t.blocks, t.blocks[1:])
    )


def canonical_join_rep_tito(t: Tito) -> frozenset[WrappedArc]:
    """The lower arcs, as the canonical join representation of t."""
    if not is_widely_generated_tito(t):
        raise NotWidelyGenerated(
            f"{format_windows(t)} has two consecutive waxing blocks"
        )
    return lower_wrapped_arcs(t)


def join_of_cyclic_collection(arcs: Iterable[WrappedArc], n: int) -> Tito:
    """Join of the irreducibles of a pairwise non-crossing set of arcs.

    An order lies above every j(p) exactly when it inverts every arc's
    pairs (see ji_from_wrapped_arc), so the join is the least order
    inverting all of them: one closure, with no order built per arc.
    """
    items = sorted(arcs, key=_arc_key)
    for w in items:
        if wrapped_cross(w, w, n):
            raise Crossing(f"{format_wrapped_arc(w)} crosses its own translates")
    for w1, w2 in combinations(items, 2):
        if wrapped_cross(w1, w2, n):
            raise Crossing(
                f"{format_wrapped_arc(w1)} crosses {format_wrapped_arc(w2)}"
            )
    return _order_of_pairs((pair for w in items for pair in _arc_pairs(w, n)), n)
