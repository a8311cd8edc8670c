"""Shared generators and independent oracles for the test suite.

The join oracle never calls the fixpoint it is checking: an inversion of a
join must be reachable by an increasing chain of inversions of the inputs
(the chain rule applied inside the span), and conversely.  The meet oracle
is its dual through complements.  The lattice laws are checked the same way
for every kind of order, on hypothesis-drawn triples.

Two reference implementations live here because only the tests use them:
Reading's arc-ideal description of the congruences of the weak order on
S_n (``arc_ideal``, ``congruence_pi_down``), checked against the lab's
brute-force congruence closure, and ``all_titos``, every periodic order
whose windows lie in a range of integers.  ``poset_from_pairs`` builds the
small posets the lab tests start from.  ``tito_quotient_by_filter`` is the
reference for the lab's window quotients: it tries every ordering of the
window, where the lab grows words and prunes prefixes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, compress, permutations, product
from typing import Iterable, Sequence

import numpy as np
from hypothesis import strategies as st

from weakorder.errors import MixedSizes, WeakorderError
from weakorder.lattices import FinitePoset, _bool_square, finite_poset
from weakorder.sn import Arc, Permutation, _arc_key, format_arc, lower_arcs_sn, swap_values
from weakorder.tito import (
    WAXING,
    WANING,
    Block,
    Tito,
    WrappedArc,
    _close,
    _hulls,
    _shift_of,
    _tito_from_valid_sets,
    is_wrapped_arc,
    lt_tito,
    normalize_tito,
    residue,
    wrapped_cross,
)


def assert_lattice_laws(join, meet, leq, x, y, z) -> None:
    """join and meet (each of a list) are commutative, associative,
    idempotent and absorptive, and leq(a, b) holds exactly when a v b = b."""
    assert join([x, y]) == join([y, x]) and meet([x, y]) == meet([y, x])
    assert join([join([x, y]), z]) == join([x, join([y, z])]) == join([x, y, z])
    assert meet([meet([x, y]), z]) == meet([x, meet([y, z])]) == meet([x, y, z])
    assert join([x, x]) == x == meet([x, x])
    assert join([x, meet([x, y])]) == x == meet([x, join([x, y])])
    for low, high in ((x, y), (y, x), (x, join([x, z])), (meet([y, z]), y)):
        assert leq(low, high) == (join([low, high]) == high)


@st.composite
def tito_triples(draw, max_n: int = 5):
    """A period n and three orders of period n, windows within 2n of [1..n]."""
    n = draw(st.integers(1, max_n))

    def one():
        residues = draw(st.permutations(range(1, n + 1)))
        cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
        blocks = []
        for start, stop in zip([0] + cuts, cuts + [n]):
            window = tuple(r + n * draw(st.integers(-2, 2)) for r in residues[start:stop])
            blocks.append(Block(draw(st.sampled_from((WAXING, WANING))), window))
        return normalize_tito(Tito(n, tuple(blocks)))

    return n, one(), one(), one()


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
            [False] + [lt_tito(t, r + d, r) for d in range(1, span + 1)]
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


# ---------------------------------------------------------------------------
# congruences of the weak order on S_n as subarc-closed sets of arcs


class NotIdeal(WeakorderError):
    """An arc set is not closed under passing to subarcs."""


def is_subarc(x: Arc, y: Arc) -> bool:
    """True when ``x`` is the restriction of ``y`` to the span [x.a, x.b].

    Since side sets partition the interior, asking for x.left <= y.left and
    x.right <= y.right pins x to the exact restriction of y.
    """
    return y.a <= x.a < x.b <= y.b and x.left <= y.left and x.right <= y.right


def all_arcs(n: int) -> frozenset[Arc]:
    """Every arc on [1..n]; these index the join-irreducibles."""
    out = []
    for a in range(1, n):
        for b in range(a + 1, n + 1):
            interior = list(range(a + 1, b))
            for bits in range(1 << len(interior)):
                left = frozenset(
                    m for k, m in enumerate(interior) if bits >> k & 1
                )
                out.append(Arc(a, b, left, frozenset(interior) - left))
    return frozenset(out)


def subarcs_of(x: Arc) -> frozenset[Arc]:
    """All restrictions of ``x`` to subspans (including ``x`` itself)."""
    out = []
    for a2 in range(x.a, x.b):
        for b2 in range(a2 + 1, x.b + 1):
            left = frozenset(m for m in x.left if a2 < m < b2)
            right = frozenset(m for m in x.right if a2 < m < b2)
            out.append(Arc(a2, b2, left, right))
    return frozenset(out)


@dataclass(frozen=True)
class ArcIdeal:
    """A subarc-closed set of arcs: the uncontracted arcs of a congruence."""

    n: int
    arcs: frozenset[Arc]

    def __post_init__(self) -> None:
        for x in self.arcs:
            if not 1 <= x.a < x.b <= self.n:
                raise ValueError(f"arc {format_arc(x)} does not fit in [1..{self.n}]")


def is_subarc_closed(ideal: ArcIdeal) -> bool:
    return all(subarcs_of(x) <= ideal.arcs for x in ideal.arcs)


def arc_ideal(n: int, arcs: Iterable[Arc]) -> ArcIdeal:
    """Build an ArcIdeal, checking subarc-closure."""
    ideal = ArcIdeal(n, frozenset(arcs))
    if not is_subarc_closed(ideal):
        raise NotIdeal("arc set is not closed under subarcs")
    return ideal


def congruence_pi_down(ideal: ArcIdeal, p: Permutation) -> Permutation:
    """Bottom of the congruence class of p, for the congruence keeping ``ideal``.

    Walks down: as long as some lower wall carries a contracted arc, removing
    that wall stays in the class.  The result has all its lower arcs
    uncontracted, which characterizes the class minimum.
    """
    if p.n != ideal.n:
        raise MixedSizes(f"mixed sizes {p.n} and {ideal.n}")
    if not is_subarc_closed(ideal):
        raise NotIdeal("arc set is not closed under subarcs")
    current = p
    while True:
        contracted = sorted(
            (x for x in lower_arcs_sn(current) if x not in ideal.arcs), key=_arc_key
        )
        if not contracted:
            return current
        x = contracted[0]
        current = swap_values(current, x.a, x.b)


# ---------------------------------------------------------------------------
# every periodic order with windows in a range


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
# finite posets


def poset_from_pairs(
    elements: Sequence[str], pairs: Iterable[tuple[str, str]]
) -> FinitePoset:
    """Poset generated by relations x <= y; closed reflexively and transitively."""
    labels = tuple(elements)
    idx = {v: i for i, v in enumerate(labels)}
    n = len(labels)
    m = np.eye(n, dtype=bool)
    for x, y in pairs:
        m[idx[x], idx[y]] = True
    while True:
        closure = m | _bool_square(m)
        if (closure == m).all():
            return finite_poset(labels, m)
        m = closure


# ---------------------------------------------------------------------------
# window quotients of the periodic orders, by filtering every ordering


def tito_quotient_by_filter(n: int, a: int, b: int) -> tuple[list[tuple[int, ...]], list[Tito]]:
    """The words of [a, b] that the period-n window quotient keeps, in
    ``permutations`` order, with the minimal order of each class.

    Every ordering of the window is tried: its forced shifts' hulls, and then
    their closure, must hold the shift of no pair the word keeps in order.
    """
    values = range(a, b + 1)
    pairs = list(combinations(values, 2))
    shifts = [_shift_of(x, y, n) for x, y in pairs]
    words, reps = [], []
    for word in permutations(values):
        at = {v: k for k, v in enumerate(word)}
        inverted = [at[y] < at[x] for x, y in pairs]
        V = _hulls(compress(shifts, inverted), n)
        if _forces_more(V, shifts, inverted):
            continue
        _close(V, n)
        if _forces_more(V, shifts, inverted):
            continue
        words.append(word)
        reps.append(_tito_from_valid_sets(V, n))
    return words, reps


def _forces_more(V, shifts, inverted) -> bool:
    # some window pair's shift lies in V exactly when the word keeps it in order
    lo, hi = V
    return any((lo[i][j] <= d <= hi[i][j]) != inv for inv, (i, j, d) in zip(inverted, shifts))
