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
V[i][j] = {d : <i, j + dn> is an inversion}, one per pair of residues;
a join closes the union of the inputs' shift sets under the chain rule
and reads the windows straight off the closed sets.  Meets go through
the order-reversing involution.

>>> t = parse_windows("[2,1]", 2)
>>> lt_tito(t, 2, 1)
True
>>> format_windows(join_tito([t, parse_windows("[0,3]", 2)]))
'[~2,1]'
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cmp_to_key
from itertools import combinations, permutations, product
from typing import Iterable, Mapping, Sequence

from .crossing import tuples_cross
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
from .intervals import ZSet
from .sn import _common_n

WAXING = "waxing"
WANING = "waning"


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
        interior = set(range(self.a + 1, self.b))
        if self.left | self.right != interior or self.left & self.right:
            raise ValueError(
                f"left/right must split ({self.a},{self.b}) exclusively"
            )

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
        w = tuple(x + q * n for x in w[r:] + tuple(x + n for x in w[:r]))
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


def _placements(t: Tito) -> dict[int, tuple[int, str, int, int, int]]:
    # residue -> (block index, direction, block size, window index, entry)
    out: dict[int, tuple[int, str, int, int, int]] = {}
    for bi, blk in enumerate(t.blocks):
        for p, e in enumerate(blk.window):
            out[residue(e, t.n)] = (bi, blk.direction, blk.size, p, e)
    return out


def _locate(pl: Mapping[int, tuple[int, str, int, int, int]], x: int, n: int):
    bi, direction, k, p, e = pl[residue(x, n)]
    u = (x - e) // n
    pos = p + u * k if direction == WAXING else p - u * k
    return bi, pos


def lt_tito(t: Tito, a: int, b: int) -> bool:
    """True when a comes strictly before b in the order.

    >>> lt_tito(parse_windows("[1,0,3,2]", 4), 1, 0)
    True
    >>> lt_tito(parse_windows("[~1][2]", 2), 3, 2)
    True
    """
    if a == b:
        return False
    pl = _placements(t)
    ba, pa = _locate(pl, a, t.n)
    bb, pb = _locate(pl, b, t.n)
    if ba != bb:
        return ba < bb
    return pa < pb


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
# an inversion}, over the shifts with j + dn > i (d >= 0 when j > i, d >= 1
# otherwise).  Within a waxing block the translates j + dn that come before
# i are those with d up to a threshold, so V[i][j] is a finite interval,
# possibly empty; within a waning block they are those with d from a
# threshold on, so V[i][j] is a tail.  Across blocks V[i][j] is empty when
# i's block comes first and the whole tail otherwise, and V[r][r] is a tail
# exactly when r's block wanes.  A join closes the union of the inputs'
# shift sets under the chain rule (_close) and reads the windows straight
# off the closed matrix (_tito_from_valid_sets).


def _t_min(i: int, j: int) -> int:
    # Least shift d with j + dn > i when j's class is sampled at j.
    return 0 if j > i else 1


def _shift_of(x: int, y: int, n: int) -> tuple[int, int, int]:
    # <x, y> as a residue pair with shift: y - (x - i) = j + dn.
    i, j = residue(x, n), residue(y, n)
    return i, j, (y - x - (j - i)) // n


def _valid_sets(t: Tito) -> list[list[ZSet]]:
    # V[i][j] = {d : <i, j + dn> is an inversion of t}, 1-indexed.
    n = t.n
    pl = _placements(t)
    V = [[ZSet.empty()] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        bi, di, ki, _, _ = pl[i]
        _, pos_i = _locate(pl, i, n)
        for j in range(1, n + 1):
            bj = pl[j][0]
            tmin = _t_min(i, j)
            if i == j:
                V[i][j] = ZSet.upset(1) if di == WANING else ZSet.empty()
            elif bi != bj:
                V[i][j] = ZSet.empty() if bi < bj else ZSet.upset(tmin)
            else:
                _, pos_j = _locate(pl, j, n)
                if di == WAXING:
                    theta = (pos_i - pos_j) // ki
                    V[i][j] = ZSet.interval(tmin, theta)
                else:
                    theta = (pos_j - pos_i) // ki + 1
                    V[i][j] = ZSet.upset(max(theta, tmin))
    return V


def _close(V: list[list[ZSet]], n: int) -> None:
    # Chain rule: <i, j+dn> and <j, l+en> force <i, l+(d+e)n>, so V[i][l]
    # absorbs the sumset V[i][j] + V[j][l].  A nonempty diagonal entry means
    # the class is waning in the result, which forces the whole tail of
    # imaginary shifts at once; promoting eagerly is also what makes the
    # fixpoint terminate when thresholds would otherwise creep around a
    # cycle forever.
    def promote() -> bool:
        hit = False
        full = ZSet.upset(1)
        for r in range(1, n + 1):
            if not V[r][r].is_empty and V[r][r] != full:
                V[r][r] = full
                hit = True
        return hit

    promote()
    sweeps = 64 * (n + 2) * (n + 2) + _span_bound(V, n)
    for _ in range(sweeps):
        changed = False
        for j in range(1, n + 1):
            for i in range(1, n + 1):
                if V[i][j].is_empty:
                    continue
                for l in range(1, n + 1):
                    if V[j][l].is_empty:
                        continue
                    s = V[i][j].sumset(V[j][l])
                    if not s.issubset(V[i][l]):
                        V[i][l] = V[i][l].union(s)
                        changed = True
        if promote():
            changed = True
        if not changed:
            return
    raise TooLarge(f"shift-set closure for n = {n} still changing after {sweeps} sweeps")


def _span_bound(V: list[list[ZSet]], n: int) -> int:
    spread = 0
    for row in V[1:]:
        for s in row[1:]:
            for lo, hi in s.parts:
                spread += abs(lo) + (abs(hi) if hi is not None else 0)
    return 8 * (spread + n)


def _tito_from_valid_sets(V: list[list[ZSet]], n: int) -> Tito:
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

    def before(x: int, y: int) -> bool:
        if x > y:
            return not before(y, x)
        i, j, d = _shift_of(x, y, n)
        return d not in V[i][j]

    ranked = []
    rest = list(range(1, n + 1))
    while rest:
        r0 = rest[0]
        members = [r for r in rest if V[r0][r].is_finite == V[r][r0].is_finite]
        rest = [r for r in rest if r not in members]
        window = [r0]
        for r in members[1:]:
            a, b = V[r0][r], V[r][r0]
            # the translate r + dn that lies between r0 and its successor r0 +- n
            if not a.is_finite:
                # waning, r + dn before r0 iff d >= theta: a = [max(theta, 0), oo)
                # and b = [max(1 - theta, 1), oo), so d = theta - 1
                d = a.min() - b.min()
            elif not a.is_empty:
                # waxing, r + dn before r0 iff d <= theta: a = [0, theta] and
                # b = [1, -theta - 1], so d = theta + 1
                d = a.max() + 1
            elif not b.is_empty:
                d = -b.max()
            else:
                d = 0  # theta = -1
            window.append(r + d * n)
        window.sort(key=cmp_to_key(lambda x, y: -1 if before(x, y) else 1))
        direction = WAXING if V[r0][r0].is_empty else WANING
        ahead = sum(not V[s][r0].is_finite for s in range(1, n + 1) if s not in members)
        ranked.append((ahead, Block(direction, tuple(window))))
    ranked.sort(key=lambda pair: -pair[0])
    t = normalize_tito(Tito(n, tuple(blk for _, blk in ranked)))
    if _valid_sets(t) != V:
        raise InconsistentEncoding(
            f"shift sets describe no periodic order; {format_windows(t)} has others"
        )
    return t


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
    V = [[ZSet.empty()] * (size + 1) for _ in range(size + 1)]
    for t in ts:
        W = _valid_sets(t)
        for i in range(1, size + 1):
            for j in range(1, size + 1):
                V[i][j] = V[i][j].union(W[i][j])
    _close(V, size)
    return _tito_from_valid_sets(V, size)


def reverse_tito(t: Tito) -> Tito:
    """The same order read right to left; inversions become non-inversions."""
    blocks = tuple(
        Block(
            WANING if blk.direction == WAXING else WAXING,
            tuple(reversed(blk.window)),
        )
        for blk in reversed(t.blocks)
    )
    return normalize_tito(Tito(t.n, blocks))


def meet_tito(ts: Sequence[Tito], n: int | None = None) -> Tito:
    """Greatest lower bound, computed through the reversing involution."""
    size = _common_n(ts, n)
    return reverse_tito(join_tito([reverse_tito(t) for t in ts], size))


def leq_tito(t1: Tito, t2: Tito) -> bool:
    """Containment of inversion sets, decided on the finite encodings."""
    size = _common_n([t1, t2], None)
    V1, V2 = _valid_sets(t1), _valid_sets(t2)
    return all(
        V1[i][j].issubset(V2[i][j])
        for i in range(1, size + 1)
        for j in range(1, size + 1)
    )


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

    A real wall swaps the two residue classes throughout; the imaginary
    wall <a,a+n> turns the waning block [~a] back to waxing.
    """
    w = reflection_index(w.a, w.b, t.n)
    if w not in lower_walls_tito(t):
        raise NotAWall(f"{w} is not a lower wall of {format_windows(t)}")
    n = t.n
    blocks = []
    for blk in t.blocks:
        win = blk.window
        k = blk.size
        hit = None
        for p in range(k - 1):
            if win[p] > win[p + 1] and reflection_index(win[p + 1], win[p], n) == w:
                hit = p
                break
        else:
            wrap = win[0] + n if blk.direction == WAXING else win[0] - n
            if win[-1] > wrap and reflection_index(wrap, win[-1], n) == w:
                hit = k - 1
        if hit is None:
            blocks.append(blk)
        elif hit < k - 1:
            nw = win[:hit] + (win[hit + 1], win[hit]) + win[hit + 2 :]
            blocks.append(Block(blk.direction, nw))
        elif k == 1:
            # the wall is imaginary: the waning singleton becomes waxing
            blocks.append(Block(WAXING, win))
        elif blk.direction == WAXING:
            blocks.append(Block(WAXING, (win[-1] - n,) + win[1:-1] + (win[0] + n,)))
        else:
            blocks.append(Block(WANING, (win[-1] + n,) + win[1:-1] + (win[0] - n,)))
    return normalize_tito(Tito(n, tuple(blocks)))


def _crosses_translate(w1: WrappedArc, w2: WrappedArc, shift: int) -> bool:
    # w1 against the translate of w2 by shift
    moved = [frozenset(x + shift for x in side) for side in (w2.left, w2.right)]
    return tuples_cross(w1.a, w1.b, w1.left, w1.right, w2.a + shift, w2.b + shift, *moved)


def is_wrapped_arc(p: WrappedArc, n: int) -> bool:
    """True when no two translates of the arc cross each other; only shifts
    k n below the span b - a can make the arc meet a translate."""
    return not any(_crosses_translate(p, p, k * n) for k in range(1, (p.b - p.a - 1) // n + 1))


def wrapped_cross(w1: WrappedArc, w2: WrappedArc, n: int) -> bool:
    """True when some translate of w1 crosses some translate of w2.

    Offsets that pull the spans apart leave the arcs with no common value,
    so only k n within [a1 - b2, b1 - a2] needs checking; for w1 == w2 the
    k = 0 term is the arc against itself and is skipped.
    """
    lo = -((w2.b - w1.a) // n)
    hi = (w1.b - w2.a) // n
    return any(
        _crosses_translate(w1, w2, k * n) for k in range(lo, hi + 1) if k or w1 != w2
    )


def lower_wrapped_arcs(t: Tito) -> frozenset[WrappedArc]:
    """One arc per lower wall, recording which side each bypassed value takes.

    >>> sorted(str(a) for a in lower_wrapped_arcs(parse_windows("[2][~1]", 2)))
    ['<1,3|2|>']
    """
    arcs = set()
    for w in lower_walls_tito(t):
        left = frozenset(x for x in range(w.a + 1, w.b) if lt_tito(t, x, w.b))
        right = frozenset(range(w.a + 1, w.b)) - left
        arcs.add(WrappedArc(w.a, w.b, left, right))
    return frozenset(arcs)


def ji_from_wrapped_arc(p: WrappedArc, n: int) -> Tito:
    """The unique element with p as its only lower arc.

    The window splits into cases by how far the arc wraps: less than one
    full period, exactly one, or more than one with a + n bypassed right
    or left.
    """
    if not is_wrapped_arc(p, n):
        raise NotWrapped(f"{format_wrapped_arc(p)} crosses its own translates")
    a, b = p.a, p.b
    lefts, rights = sorted(p.left), sorted(p.right)
    if b - a < n:
        window = lefts + [b, a] + rights + list(range(b + 1, n + a))
        return normalize_tito(Tito(n, (Block(WAXING, tuple(window)),)))
    if b - a == n:
        blocks = []
        if lefts:
            blocks.append(Block(WAXING, tuple(lefts)))
        blocks.append(Block(WANING, (a,)))
        if rights:
            blocks.append(Block(WAXING, tuple(rights)))
        return normalize_tito(Tito(n, tuple(blocks)))
    ra, rb = residue(a, n), residue(b, n)
    if a + n in p.right:
        cs = []
        for x in range(1, n + 1):
            if x in (ra, rb):
                continue
            lx = [e for e in p.left if residue(e, n) == x]
            below = a - 1 - (a - 1 - x) % n
            cs.append(max(lx) if lx else below)
        window = sorted(cs) + [b, a]
        return normalize_tito(Tito(n, (Block(WAXING, tuple(window)),)))
    ells, cs, rs = [], [], []
    for x in range(1, n + 1):
        if x in (ra, rb):
            continue
        lx = [e for e in p.left if residue(e, n) == x]
        rx = [e for e in p.right if residue(e, n) == x]
        if lx and rx:
            # the central block wanes, so the translates of the window
            # entry that precede b are those at or above it: min, not max
            cs.append(min(lx))
        elif lx:
            ells.append(max(lx))
        else:
            # the span exceeds n, so every other class meets left or right
            rs.append(min(rx))
    blocks = []
    if ells:
        blocks.append(Block(WAXING, tuple(sorted(ells))))
    blocks.append(Block(WANING, tuple(sorted(cs) + [b, a])))
    if rs:
        blocks.append(Block(WAXING, tuple(sorted(rs))))
    return normalize_tito(Tito(n, tuple(blocks)))


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
    """Join of the irreducibles of a pairwise non-crossing set of arcs."""
    items = sorted(
        arcs, key=lambda w: (w.a, w.b, tuple(sorted(w.left)))
    )
    for w in items:
        if wrapped_cross(w, w, n):
            raise Crossing(f"{format_wrapped_arc(w)} crosses its own translates")
    for w1, w2 in combinations(items, 2):
        if wrapped_cross(w1, w2, n):
            raise Crossing(
                f"{format_wrapped_arc(w1)} crosses {format_wrapped_arc(w2)}"
            )
    return join_tito([ji_from_wrapped_arc(w, n) for w in items], n)
