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


def _member(cache: dict, t: Tito, a: int, b: int) -> bool:
    key = (t, a, b)
    if key not in cache:
        cache[key] = inversion_contains(t, reflection_index(a, b, t.n))
    return cache[key]


def _chain_exists(
    cache: dict, ts: tuple[Tito, ...], a: int, b: int, edge_in: str
) -> bool:
    # Increasing chain a = c0 < c1 < ... < b inside [a, b]; an edge (u, v)
    # is admissible when (u, v) is an inversion of some input ("union") or
    # a non-inversion of some input ("co-union", the meet dual).
    reach = {a}
    for v in range(a + 1, b + 1):
        for u in sorted(reach):
            if edge_in == "union":
                ok = any(_member(cache, t, u, v) for t in ts)
            else:
                ok = any(not _member(cache, t, u, v) for t in ts)
            if ok:
                reach.add(v)
                break
    return b in reach


def check_join_oracle(
    cache: dict, inputs: tuple[Tito, ...], joined: Tito, span: int
) -> list[str]:
    """Every inversion of the join within the span must be chain-derivable
    from the inputs' inversions, and conversely; the join must also be an
    upper bound (checked separately with leq)."""
    n = joined.n
    failures = []
    for a in range(1, n + 1):
        for b in range(a + 1, a + span + 1):
            expected = _chain_exists(cache, inputs, a, b, "union")
            actual = _member(cache, joined, a, b)
            if expected != actual:
                failures.append(f"<{a},{b}>: chain={expected} join={actual}")
    return failures


def check_meet_oracle(
    cache: dict, inputs: tuple[Tito, ...], met: Tito, span: int
) -> list[str]:
    """An inversion survives the meet exactly when no increasing chain of
    co-inversions of the inputs connects its endpoints."""
    n = met.n
    failures = []
    for a in range(1, n + 1):
        for b in range(a + 1, a + span + 1):
            expected = not _chain_exists(cache, inputs, a, b, "co-union")
            actual = _member(cache, met, a, b)
            if expected != actual:
                failures.append(f"<{a},{b}>: survives={expected} meet={actual}")
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
