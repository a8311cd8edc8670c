"""Shared generators and independent oracles for the test suite.

The join oracle never calls the fixpoint it is checking: an inversion of a
join must be reachable by an increasing chain of inversions of the inputs
(the chain rule applied inside the span), and conversely.  The meet oracle
is its dual through complements.
"""

from __future__ import annotations

import random
from itertools import combinations

from weakorder.tito import (
    WAXING,
    WANING,
    Block,
    Tito,
    WrappedArc,
    inversion_contains,
    is_wrapped_arc,
    normalize_tito,
    reflection_index,
    wrapped_cross,
)


def random_tito(rng: random.Random, n: int, lo: int, hi: int) -> Tito:
    """A random order in canonical window form (see random_windows)."""
    return normalize_tito(random_windows(rng, n, lo, hi))


def random_windows(rng: random.Random, n: int, lo: int, hi: int) -> Tito:
    """A random order: residues split into blocks, directions and window
    entries in [lo, hi] drawn independently, windows left as drawn."""
    residues = list(range(1, n + 1))
    rng.shuffle(residues)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
    pieces = []
    prev = 0
    for cut in cuts + [n]:
        pieces.append(residues[prev:cut])
        prev = cut
    blocks = []
    for piece in pieces:
        window = []
        for r in piece:
            values = [v for v in range(lo, hi + 1) if (v - r) % n == 0]
            window.append(rng.choice(values))
        blocks.append(Block(rng.choice((WAXING, WANING)), tuple(window)))
    return Tito(n, tuple(blocks))


def _table(cache: dict, t: Tito, span: int) -> list[list[bool]]:
    # row[r][d]: whether <r, r + d> is an inversion of t, for the residues r
    # in [1..n] and 1 <= d <= span; inversions are translation invariant, so
    # this answers <u, u + d> for every u with residue r.  Index 0 is unused.
    key = (t, span)
    if key not in cache:
        cache[key] = [[]] + [
            [False] + [inversion_contains(t, reflection_index(r, r + d, t.n)) for d in range(1, span + 1)]
            for r in range(1, t.n + 1)
        ]
    return cache[key]


def _chain_ends(
    cache: dict, ts: tuple[Tito, ...], span: int, edge_in: str
) -> list[list[bool]]:
    # reach[a][k]: an increasing chain a = c0 < c1 < ... < a + k exists; an
    # edge (u, v) is admissible when (u, v) is an inversion of some input
    # ("union") or a non-inversion of some input ("co-union", the meet dual).
    # One pass from each a finds every chain end up to a + span.
    n = ts[0].n
    want = edge_in == "union"
    rows = [_table(cache, t, span) for t in ts]
    ok = [[]] + [
        [any(row[r][d] == want for row in rows) for d in range(span + 1)]
        for r in range(1, n + 1)
    ]
    reach: list[list[bool]] = [[]]
    for a in range(1, n + 1):
        ends = [True] + [False] * span
        for k in range(1, span + 1):
            ends[k] = any(ends[j] and ok[(a + j - 1) % n + 1][k - j] for j in range(k))
        reach.append(ends)
    return reach


def check_join_oracle(
    cache: dict, inputs: tuple[Tito, ...], joined: Tito, span: int
) -> list[str]:
    """Every inversion of the join within the span must be chain-derivable
    from the inputs' inversions, and conversely; the join must also be an
    upper bound (checked separately with leq)."""
    n = joined.n
    reach = _chain_ends(cache, inputs, span, "union")
    actual = _table(cache, joined, span)
    failures = []
    for a in range(1, n + 1):
        for d in range(1, span + 1):
            if reach[a][d] != actual[a][d]:
                failures.append(f"<{a},{a + d}>: chain={reach[a][d]} join={actual[a][d]}")
    return failures


def check_meet_oracle(
    cache: dict, inputs: tuple[Tito, ...], met: Tito, span: int
) -> list[str]:
    """An inversion survives the meet exactly when no increasing chain of
    co-inversions of the inputs connects its endpoints."""
    n = met.n
    reach = _chain_ends(cache, inputs, span, "co-union")
    actual = _table(cache, met, span)
    failures = []
    for a in range(1, n + 1):
        for d in range(1, span + 1):
            if reach[a][d] == actual[a][d]:
                failures.append(f"<{a},{a + d}>: survives={not reach[a][d]} meet={actual[a][d]}")
    return failures


def random_wrapped_arc(
    rng: random.Random, n: int, case: int, max_span: int
) -> WrappedArc:
    """A random wrapped arc in one of the four shape classes: span below n,
    exactly n, above n with a + n on the right, above n with a + n on the
    left."""
    while True:
        a = rng.randint(1, n)
        if case == 1:
            if n == 1:
                raise ValueError("no spans below the period for n = 1")
            b = a + rng.randint(1, n - 1)
        elif case == 2:
            b = a + n
        else:
            if max_span <= n + 1:
                raise ValueError("span range above the period is empty")
            b = a + rng.randint(n + 1, max_span)
        interior = list(range(a + 1, b))
        for _ in range(300):
            left, right = set(), set()
            for x in interior:
                (left if rng.random() < 0.5 else right).add(x)
            if case == 3 and a + n in interior:
                right.add(a + n)
                left.discard(a + n)
            if case == 4:
                if a + n not in interior:
                    break
                left.add(a + n)
                right.discard(a + n)
            arc = WrappedArc(a, b, frozenset(left), frozenset(right))
            if is_wrapped_arc(arc, n):
                return arc


def random_noncrossing_collection(
    rng: random.Random, n: int, max_span: int, max_size: int
) -> frozenset[WrappedArc]:
    """A pairwise non-crossing set of wrapped arcs with left ends in [1, n]."""
    target = rng.randint(1, max_size)
    chosen: list[WrappedArc] = []
    for _ in range(400):
        if len(chosen) == target:
            break
        a = rng.randint(1, n)
        b = a + rng.randint(1, max_span)
        interior = list(range(a + 1, b))
        left = frozenset(x for x in interior if rng.random() < 0.5)
        arc = WrappedArc(a, b, left, frozenset(interior) - left)
        if not is_wrapped_arc(arc, n):
            continue
        if any(arc == c or wrapped_cross(arc, c, n) for c in chosen):
            continue
        chosen.append(arc)
    return frozenset(chosen)


def all_label_partitions(values: list[int]) -> list[tuple[frozenset[int], frozenset[int]]]:
    out = []
    for k in range(len(values) + 1):
        for left in combinations(values, k):
            lset = frozenset(left)
            out.append((lset, frozenset(values) - lset))
    return out
