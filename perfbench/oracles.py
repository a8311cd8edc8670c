"""Answer checks that share no code with the package's closures.

Every check works from the plain data of a result (one-line words, window
entries, inversion pairs, poset labels and matrices) and recomputes the
answer by another route: reachability in a DAG held as integer bitmasks,
brute force over S_n, chain reachability inside a span of the integers,
and enumeration of window words.

An inversion set over a sorted list of values is held as "rows": rows[i]
has bit j set when (values[i], values[j]), i < j, is an inversion.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

import numpy as np


# ---------------------------------------------------------------------------
# inversion rows over a finite set of integers


def rows_of_word(word, values: list[int]) -> list[int]:
    """Rows of the order that lists ``word`` left to right; values outside
    the word keep their natural place, so they invert nothing."""
    index = {v: k for k, v in enumerate(values)}
    rows = [0] * len(values)
    seen = 0
    for v in word:
        i = index[v]
        # larger values listed before v
        rows[i] = seen >> (i + 1) << (i + 1)
        seen |= 1 << i
    return rows


def rows_of_pairs(pairs, values: list[int]) -> list[int]:
    index = {v: k for k, v in enumerate(values)}
    rows = [0] * len(values)
    for a, b in pairs:
        rows[index[a]] |= 1 << index[b]
    return rows


def _reach(edges: list[int]) -> list[int]:
    # Edges only go up, so one sweep from the top closes everything.
    reach = [0] * len(edges)
    for i in range(len(edges) - 1, -1, -1):
        mask = edges[i]
        todo = mask
        while todo:
            low = todo & -todo
            mask |= reach[low.bit_length() - 1]
            todo ^= low
        reach[i] = mask
    return reach


def join_rows(inputs: list[list[int]]) -> list[int]:
    """The join: everything an increasing chain of input inversions reaches."""
    return _reach([_or(col) for col in zip(*inputs)])


def meet_rows(inputs: list[list[int]]) -> list[int]:
    """The meet: shared inversions that no chain of non-shared pairs joins."""
    size = len(inputs[0])
    shared = [_and(col) for col in zip(*inputs)]
    upper = [((1 << size) - 1) & ~((1 << (i + 1)) - 1) for i in range(size)]
    reach = _reach([u & ~s for u, s in zip(upper, shared)])
    return [s & ~r for s, r in zip(shared, reach)]


def rows_leq(r1: list[int], r2: list[int], keep: int = -1) -> bool:
    return all(a & ~b & keep == 0 for a, b in zip(r1, r2))


def _or(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


def _and(masks) -> int:
    out = -1
    for m in masks:
        out &= m
    return out


# ---------------------------------------------------------------------------
# brute force over S_n


def brute_join_sn(words: list[tuple[int, ...]], n: int) -> tuple[int, ...] | None:
    """The least permutation above every input, found by search over S_n;
    None when no upper bound lies below all the others."""
    union = _or(word_mask(w) for w in words)
    uppers = [(m, w) for w in permutations(range(1, n + 1)) if union & ~(m := word_mask(w)) == 0]
    least_mask, least = min(uppers, key=lambda x: bin(x[0]).count("1"))
    return least if all(least_mask & ~m == 0 for m, _ in uppers) else None


def brute_meet_sn(words: list[tuple[int, ...]], n: int) -> tuple[int, ...] | None:
    """Dual of brute_join_sn."""
    flip = [tuple(n + 1 - v for v in w) for w in words]
    top = brute_join_sn(flip, n)
    return None if top is None else tuple(n + 1 - v for v in top)


def descents(word) -> int:
    return sum(1 for u, v in zip(word, word[1:]) if u > v)


# ---------------------------------------------------------------------------
# periodic orders, read off their block windows


def tito_keys(blocks, n: int, lo: int, hi: int) -> dict[int, tuple[int, int]]:
    """Sort key (block, position) of each integer in [lo, hi].

    ``blocks`` lists (waxing, window) pairs left to right.  Within a block
    of size k the translate x + un of a window entry x sits u k places later
    when the block waxes and u k places earlier when it wanes.
    """
    place = {}
    for bi, (waxing, window) in enumerate(blocks):
        for p, e in enumerate(window):
            place[(e - 1) % n] = (bi, waxing, len(window), p, e)
    keys = {}
    for x in range(lo, hi + 1):
        bi, waxing, k, p, e = place[(x - 1) % n]
        u = (x - e) // n
        keys[x] = (bi, p + u * k if waxing else p - u * k)
    return keys


def tito_blocks(t) -> list[tuple[bool, tuple[int, ...]]]:
    return [(blk.direction == "waxing", tuple(blk.window)) for blk in t.blocks]


def tito_rows(t, span: int) -> list[int]:
    """rows[r - 1] has bit d set when <r, r + d> is an inversion, 1 <= d <= span."""
    n = t.n
    keys = tito_keys(tito_blocks(t), n, 1, n + span)
    rows = []
    for r in range(1, n + 1):
        kr = keys[r]
        mask = 0
        for d in range(1, span + 1):
            if keys[r + d] < kr:
                mask |= 1 << d
        rows.append(mask)
    return rows


def lower_walls(t, span: int) -> list[tuple[int, int]]:
    """Inversions <x, x + d> of t, 1 <= x <= n, in which x + d comes right
    before x in t's order: an element's lower walls, read off the windows.

    Two integers are neighbours when they share a block and their places
    differ by one.  The place before x's lies within ``span`` of x.
    """
    n = t.n
    keys = tito_keys(tito_blocks(t), n, 1 - span, n + span)
    at = {key: x for x, key in keys.items()}
    walls = []
    for x in range(1, n + 1):
        block, place = keys[x]
        y = at[(block, place - 1)]
        if y > x:
            walls.append((x, y - x))
    return walls


def tito_span(ts, n: int) -> int:
    """A span inside which two of these orders differ if they differ at
    all: every threshold is bounded by the spread of the window entries."""
    entries = [e for t in ts for blk in t.blocks for e in blk.window]
    return max(entries) - min(entries) + 3 * n


def chain_rows(inputs: list[list[int]], n: int, span: int, co: bool) -> list[int]:
    """Inversions <a, a + d> that increasing chains inside [a, a + span]
    force, in the layout of tito_rows.

    With co false an edge is an inversion of some input, and the join has
    exactly the reachable pairs.  With co true an edge is a non-inversion
    of some input, and the meet keeps exactly the pairs no chain reaches.
    """
    full = (1 << (span + 1)) - 2
    edge = [0] * n
    for rows in inputs:
        for r in range(n):
            edge[r] |= (full & ~rows[r]) if co else rows[r]
    out = []
    for a in range(1, n + 1):
        reach = 1
        for q in range(span):
            if reach >> q & 1:
                reach |= (edge[(a + q - 1) % n] << q) & (full | 1)
        reach &= full
        out.append(full & ~reach if co else reach)
    return out


def real_mask(n: int, span: int) -> int:
    """Bits d of the real inversions; d a multiple of n is imaginary."""
    return sum(1 << d for d in range(1, span + 1) if d % n)


def widely_generated(t) -> bool:
    dirs = [blk.direction for blk in t.blocks]
    return not any(x == y == "waxing" for x, y in zip(dirs, dirs[1:]))


def tito_words(n: int, a: int, b: int) -> set[tuple[int, ...]]:
    """Every ordering of [a, b] that some periodic order of period n induces.

    Enumerates block sequences whose windows have the canonical entry sum.
    Entries more than a window width beyond [a, b] only push thresholds past
    the window, which repeats words already seen.
    """
    lo, hi = a - n - (b - a), b + n + (b - a)
    choices = {
        r: [v for v in range(lo, hi + 1) if (v - r) % n == 0] for r in range(1, n + 1)
    }
    values = list(range(a, b + 1))
    words = set()
    for parts in _ordered_partitions(tuple(range(1, n + 1))):
        per_block = []
        for part in parts:
            k = len(part)
            smin = k * (k + 1) // 2
            per_block.append([
                window
                for order in permutations(part)
                for window in product(*(choices[r] for r in order))
                if smin <= sum(window) < smin + n
            ])
        for windows in product(*per_block):
            for dirs in product((True, False), repeat=len(parts)):
                keys = tito_keys(list(zip(dirs, windows)), n, a, b)
                words.add(tuple(sorted(values, key=keys.__getitem__)))
    return words


def _ordered_partitions(items: tuple[int, ...]):
    if not items:
        yield ()
        return
    for k in range(1, len(items) + 1):
        for head in combinations(items, k):
            rest = tuple(x for x in items if x not in head)
            for more in _ordered_partitions(rest):
                yield (head,) + more


# ---------------------------------------------------------------------------
# finite posets given by labels


def containment_matrix(masks: list[int]) -> np.ndarray:
    """leq[i, j] when every inversion of i is one of j."""
    size = len(masks)
    m = np.empty((size, size), dtype=bool)
    for i, x in enumerate(masks):
        m[i] = [x & ~y == 0 for y in masks]
    return m


def covers(leq: np.ndarray) -> set[tuple[int, int]]:
    """Pairs (i, j), i strictly below j with nothing between, from up-sets
    held as integer bitmasks, so the check needs far less memory than the
    poset's own tables."""
    up = [
        int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") & ~(1 << i)
        for i, row in enumerate(leq)
    ]
    out = set()
    for i, mask in enumerate(up):
        above = 0
        todo = mask
        while todo:
            low = todo & -todo
            above |= up[low.bit_length() - 1]
            todo ^= low
        cov = mask & ~above
        while cov:
            low = cov & -cov
            out.add((i, low.bit_length() - 1))
            cov ^= low
    return out


def word_mask(word) -> int:
    """Inversions of a word over its own sorted values, as one bitmask."""
    values = sorted(word)
    return _or(r << (k * len(values)) for k, r in enumerate(rows_of_word(word, values)))
