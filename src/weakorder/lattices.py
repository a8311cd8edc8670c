"""Finite posets and lattices: checks, semidistributivity, canonical join
representations, congruences, and quotients.

The brute-force machinery here serves as the oracle for the structural
operations elsewhere in the package: weak order posets built from scratch,
congruences generated by collapsing chosen pairs, and the finite quotients of
the infinite lattices (orderings of an integer window).

Posets of orderings (S_n and the window quotients) are built by
``_word_poset`` from the inversion sets ``sn.word_inversions`` reads off
their words.  The join and meet tables come from one routine,
``_least_bounds``, run on the order matrix and on its transpose: one sweep
over the down-sets in reverse linear extension leaves the one candidate
bound in each cell, and one count product of the up-sets decides at once
which candidates are least.  Each FinitePoset caches the tables, as int16,
so the lattice check, semidistributivity, canonical join representations
and congruences build each table once per poset.  The cover matrix comes
from the one boolean square that also checks transitivity, so the
irreducibles, the semidistributivity checks, the JSON and DOT output and
the CLI's cover count cost no further product.

The window quotients of the periodic orders keep the words whose forced
inversions force nothing more inside the window.  ``_window_words`` grows
them one value at a time and drops a prefix as soon as it fails, so the
orderings of the window are never all listed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations, permutations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    NotACongruence,
    NotALattice,
    PreconditionViolated,
    TooLarge,
)
from .sn import Permutation, format_perm, word_inversions
from .tito import (
    Shifts,
    Tito,
    _close,
    _locate,
    _no_shifts,
    _shift_of,
    _tito_from_valid_sets,
)

MAX_POSET = 10_000


# ---------------------------------------------------------------------------
# posets


@dataclass(frozen=True, eq=False)
class FinitePoset:
    """A finite poset: labels plus a reflexive/antisymmetric/transitive matrix.

    ``leq[i, j]`` holds when ``elements[i] <= elements[j]``, and
    ``covers[i, j]`` when ``elements[j]`` covers ``elements[i]``; both are
    read-only.
    """

    elements: tuple[str, ...]
    leq: np.ndarray
    covers: np.ndarray

    @cached_property
    def joins(self) -> tuple[np.ndarray | None, str | None]:
        """The join table, or None and the first pair without a join."""
        return _least_bounds(self, self.leq, "upper", "least")

    @cached_property
    def meets(self) -> tuple[np.ndarray | None, str | None]:
        """The meet table: least bounds of the reversed order."""
        return _least_bounds(self, self.leq.T, "lower", "greatest")

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise KeyError(f"no element {label!r}") from None

    def leq_labels(self, x: str, y: str) -> bool:
        return bool(self.leq[self.index(x), self.index(y)])

    def __len__(self) -> int:
        return len(self.elements)


def finite_poset(elements: Sequence[str], leq: np.ndarray) -> FinitePoset:
    """Validate and wrap an explicit order matrix."""
    labels = tuple(elements)
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate labels")
    m = np.asarray(leq, dtype=bool)
    n = len(labels)
    if m.shape != (n, n):
        raise ValueError(f"matrix shape {m.shape} does not match {n} elements")
    if not m.diagonal().all():
        raise ValueError("order is not reflexive")
    strict = m & ~np.eye(n, dtype=bool)
    if (strict & strict.T).any():
        raise ValueError("order is not antisymmetric")
    # With antisymmetry, m is transitive exactly when two strict steps land
    # in strict; the same square leaves the covers, the strict pairs that no
    # two steps reach.
    two_steps = _bool_square(strict)
    if (two_steps & ~strict).any():
        raise ValueError("order is not transitive")
    covers = strict & ~two_steps
    m = m.copy()
    for table in (m, covers):
        table.setflags(write=False)
    return FinitePoset(labels, m, covers)


def _bool_square(m: np.ndarray) -> np.ndarray:
    # m @ m over booleans, counted in float32 so that BLAS does the work;
    # exact, as a count is at most MAX_POSET < 2**24
    f = m.astype(np.float32)
    return (f @ f) > 0


def poset_to_json(p: FinitePoset) -> str:
    covers = sorted(
        [p.elements[i], p.elements[j]] for i, j in zip(*np.nonzero(p.covers))
    )
    return json.dumps({"elements": list(p.elements), "covers": covers}, indent=1)


# ---------------------------------------------------------------------------
# lattice checks


@dataclass(frozen=True, eq=False)
class LatticeReport:
    """Outcome of check_lattice: a witness when the poset is not a lattice;
    the tables are the poset's cached ``joins`` and ``meets``."""

    is_lattice: bool
    witness: str | None


def _least_bounds(
    p: FinitePoset, leq: np.ndarray, bound: str, least: str
) -> tuple[np.ndarray | None, str | None]:
    # Least upper bounds under ``leq`` (the meets of the reversed order when
    # given leq.T), or None and the first pair (i <= j, row-major) that has
    # none.  Sweeping the elements k in reverse linear extension and writing
    # k on the pairs of k's down-set leaves in each cell the common upper
    # bound that comes first in the extension: the one candidate for least.
    # It is least exactly when every common upper bound lies above it, that
    # is when |up(i) & up(j)| equals the size of its own up-set.
    n = len(p)
    table = np.full((n, n), -1, dtype=np.int16)  # MAX_POSET < 2**15
    for k in np.argsort(leq.sum(axis=0), kind="stable")[::-1]:
        down = np.flatnonzero(leq[:, k])
        table[np.ix_(down, down)] = k
    # counts in float32, exact as in _bool_square; a cell with no bound
    # holds -1 and a count of 0, which no up-set size matches
    f = leq.astype(np.float32)
    common = f @ f.T
    del f
    is_least = common == leq.sum(axis=1, dtype=np.float32)[table]
    if not is_least.all():
        # the matrix is symmetric, so its first failing cell has i <= j
        i, j = divmod(int(np.argmin(is_least)), n)
        kind = f"{least} {bound}" if table[i, j] >= 0 else bound
        return None, f"no {kind} bound for {p.elements[i]!r}, {p.elements[j]!r}"
    # cached on the poset and shared by every caller, so read-only like leq
    table.setflags(write=False)
    return table, None


def check_lattice(p: FinitePoset) -> LatticeReport:
    """Verify every pair has a least upper and greatest lower bound."""
    if len(p) > MAX_POSET:
        raise TooLarge(f"{len(p)} elements (limit {MAX_POSET})")
    witness = p.joins[1] or p.meets[1]
    return LatticeReport(witness is None, witness)


def _tables(p: FinitePoset) -> tuple[np.ndarray, np.ndarray]:
    report = check_lattice(p)
    if not report.is_lattice:
        raise NotALattice(report.witness)
    return p.joins[0], p.meets[0]


def join_irreducibles_fin(p: FinitePoset) -> frozenset[str]:
    """Elements with exactly one lower cover."""
    _tables(p)
    below = p.covers.sum(axis=0)
    return frozenset(p.elements[i] for i in range(len(p)) if below[i] == 1)


def canonical_join_rep_fin(p: FinitePoset, x: str) -> frozenset[str] | None:
    """The canonical join representation of x, or None when x has none.

    For each lower cover y of x the candidate joinand is the least z with
    z v y = x; when some cover admits no least such z, no join representation
    of x refines all others.
    """
    join, meet = _tables(p)
    xi = p.index(x)
    joinands: set[int] = set()
    for yi in np.nonzero(p.covers[:, xi])[0]:
        least = reduce(lambda m, z: meet[m, z], np.nonzero(join[:, yi] == xi)[0])
        if join[least, yi] != xi:
            return None
        joinands.add(int(least))
    items = sorted(joinands)
    for a, b in combinations(items, 2):
        if p.leq[a, b] or p.leq[b, a]:
            raise NotALattice(
                f"joinands {p.elements[a]!r}, {p.elements[b]!r} of {x!r} are comparable"
            )
    return frozenset(p.elements[i] for i in items)


def _kappa_exists(leq: np.ndarray, meet: np.ndarray, covers: np.ndarray) -> bool:
    # A finite lattice is meet-semidistributive exactly when every
    # join-irreducible j, with lower cover j_*, has a greatest element
    # kappa(j) of K(j) = {x : j ^ x = j_*} (Freese, Jezek & Nation, "Free
    # Lattices", section 2.6; Reading, Speyer & Thomas, "The fundamental
    # theorem of finite semidistributive lattices", 2021).  A greatest element
    # of K(j) has more elements below it than any other member, so the member
    # with the largest down-set is the one candidate.  Given leq.T, the join
    # table and covers.T, the same test is the join-semidistributive dual.
    down = leq.sum(axis=0)
    for j in np.nonzero(covers.sum(axis=0) == 1)[0]:
        k = meet[j] == covers[:, j].argmax()
        if not leq[k, np.argmax(np.where(k, down, -1))].all():
            return False
    return True


def is_join_semidistributive_fin(p: FinitePoset) -> bool:
    """x v y = x v z implies x v (y ^ z) = x v y: checked as the dual kappa
    criterion, a least element of {x : m v x = m^*} for every
    meet-irreducible m with upper cover m^*."""
    join, _ = _tables(p)
    return _kappa_exists(p.leq.T, join, p.covers.T)


def is_meet_semidistributive_fin(p: FinitePoset) -> bool:
    """x ^ y = x ^ z implies x ^ (y v z) = x ^ y: checked as the kappa
    criterion, a greatest element of {x : j ^ x = j_*} for every
    join-irreducible j with lower cover j_*."""
    _, meet = _tables(p)
    return _kappa_exists(p.leq, meet, p.covers)


# ---------------------------------------------------------------------------
# congruences


@dataclass(frozen=True, eq=False)
class Partition:
    """An equivalence relation on a poset's labels, as label -> class id."""

    class_of: Mapping[str, int]

    def blocks(self) -> frozenset[frozenset[str]]:
        by_id: dict[int, set[str]] = {}
        for label, cid in self.class_of.items():
            by_id.setdefault(cid, set()).add(label)
        return frozenset(frozenset(block) for block in by_id.values())


def _class_ids(p: FinitePoset, part: Partition) -> np.ndarray:
    if set(part.class_of) != set(p.elements):
        raise ValueError("partition does not cover exactly the poset elements")
    return np.array([part.class_of[label] for label in p.elements], dtype=int)


def _class_bottoms(p: FinitePoset, part: Partition) -> tuple[np.ndarray, str | None]:
    # The bottom of each element's class, checked against the order-theoretic
    # characterization of a lattice congruence: every class is an interval,
    # and the maps to the bottom and to the top of the class preserve order.
    _tables(p)
    ids = _class_ids(p, part)
    n = len(p)
    down = np.empty(n, dtype=int)
    up = np.empty(n, dtype=int)
    for cid in np.unique(ids):
        members = np.nonzero(ids == cid)[0]
        inside = p.leq[np.ix_(members, members)]
        bottoms = members[inside.sum(axis=1) == len(members)]
        tops = members[inside.sum(axis=0) == len(members)]
        if len(bottoms) != 1 or len(tops) != 1:
            return down, f"class of {p.elements[members[0]]!r} is not an interval"
        lo, hi = bottoms[0], tops[0]
        span = np.nonzero(p.leq[lo] & p.leq[:, hi])[0]
        if not (ids[span] == cid).all():
            return down, f"class of {p.elements[lo]!r} is not an interval"
        down[members] = lo
        up[members] = hi
    for i in range(n):
        above = np.nonzero(p.leq[i])[0]
        if not p.leq[down[i], down[above]].all():
            return down, "bottom-of-class map is not order-preserving"
        if not p.leq[up[i], up[above]].all():
            return down, "top-of-class map is not order-preserving"
    return down, None


def congruence_failure(p: FinitePoset, part: Partition) -> str | None:
    """None when ``part`` is a lattice congruence, else the violated condition:
    a class that is not an interval, or a class-bottom or class-top map that
    is not order-preserving."""
    return _class_bottoms(p, part)[1]


def quotient_lattice(p: FinitePoset, part: Partition) -> FinitePoset:
    """The quotient lattice; classes are labeled by their bottom elements."""
    down, failure = _class_bottoms(p, part)
    if failure is not None:
        raise NotACongruence(failure)
    order = np.unique(down)
    return finite_poset([p.elements[i] for i in order], p.leq[np.ix_(order, order)])


def congruence_generated_by(
    p: FinitePoset, pairs: Iterable[tuple[str, str]]
) -> Partition:
    """Smallest lattice congruence identifying each given pair.

    Closes under transitivity and under joining/meeting both sides with every
    element; this is the brute-force oracle that the arc ideals in the tests'
    ``gen.py`` are checked against.
    """
    join, meet = _tables(p)
    n = len(p)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    work: list[tuple[int, int]] = [
        (p.index(a), p.index(b)) for a, b in pairs
    ]
    while work:
        a, b = work.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[ra] = rb
        for z in range(n):
            ja, jb = join[a, z], join[b, z]
            if find(ja) != find(jb):
                work.append((int(ja), int(jb)))
            ma, mb = meet[a, z], meet[b, z]
            if find(ma) != find(mb):
                work.append((int(ma), int(mb)))
    roots = sorted({find(i) for i in range(n)})
    renumber = {r: k for k, r in enumerate(roots)}
    part = Partition(
        {label: renumber[find(i)] for i, label in enumerate(p.elements)}
    )
    failure = congruence_failure(p, part)
    if failure is not None:
        raise NotACongruence(f"closure produced a non-congruence: {failure}")
    return part


# ---------------------------------------------------------------------------
# weak order posets and window quotients


def _word_poset(
    values: Sequence[int], words: Sequence[Sequence[int]], labels: Sequence[str]
) -> FinitePoset:
    """Orderings of ``values`` under containment of their inversion sets."""
    bit = {pair: 1 << k for k, pair in enumerate(combinations(values, 2))}
    masks = np.array([sum(bit[p] for p in word_inversions(w)) for w in words], dtype=np.int64)
    # one column at a time, so no temporary is larger than the boolean matrix
    leq = np.empty((len(masks), len(masks)), dtype=bool)
    for j, mask in enumerate(masks):
        leq[:, j] = (masks & ~mask) == 0
    return finite_poset(labels, leq)


def weak_order_poset(n: int) -> FinitePoset:
    """The weak order on all permutations of [1..n], by inversion containment."""
    if n > 7:
        raise TooLarge(f"weak order on S_{n} has {n}! elements")
    if n < 1:
        raise PreconditionViolated("need n >= 1")
    words = list(permutations(range(1, n + 1)))
    return _word_poset(range(1, n + 1), words, [format_perm(Permutation(n, w)) for w in words])


def window_word_label(word: Sequence[int]) -> str:
    return ",".join(str(v) for v in word)


def tot_quotient(a: int, b: int) -> FinitePoset:
    """The weak order on the orderings of the integer window [a, b].

    This is the quotient of the weak order on total orders of the integers by
    the congruence that only remembers which pairs inside [a, b] are inverted;
    it is isomorphic to the weak order on S_{b-a+1}.
    """
    values = _window(a, b)
    words = list(permutations(values))
    return _word_poset(values, words, [window_word_label(w) for w in words])


def _window(a: int, b: int) -> range:
    if a >= b:
        raise PreconditionViolated(f"need a < b, got [{a}, {b}]")
    if b - a + 1 > 7:
        raise TooLarge(f"window [{a}, {b}] has {b - a + 1}! orderings")
    return range(a, b + 1)


# ---------------------------------------------------------------------------
# finite quotients of the order on translation-invariant total orders


@dataclass(frozen=True, eq=False)
class TitoQuotient:
    """A cofinite quotient: orderings of an integer window that extend to a
    translation-invariant total order, each carrying the minimal order that
    induces it."""

    n: int
    a: int
    b: int
    poset: FinitePoset
    reps: Mapping[str, Tito]


def tito_window_word(t: Tito, a: int, b: int) -> tuple[int, ...]:
    """The integers of [a, b] listed bottom-up in the order given by t."""
    return tuple(sorted(range(a, b + 1), key=lambda x: _locate(t, x)))


def _holds_any(V: Shifts, shifts: Iterable[tuple[int, int, int]]) -> bool:
    lo, hi = V
    return any(lo[i][j] <= d <= hi[i][j] for i, j, d in shifts)


def _with_shift(V: Shifts, i: int, j: int, d: int) -> Shifts:
    # V with d added to the hull of V[i][j]; row i is copied, and the other
    # rows are shared with V, which no caller writes to
    lo, hi = V[0][:], V[1][:]
    lo[i], hi[i] = lo[i][:], hi[i][:]
    lo[i][j], hi[i][j] = min(lo[i][j], d), max(hi[i][j], d)
    return lo, hi


def _window_words(values: range, n: int) -> list[tuple[tuple[int, ...], Shifts, list]]:
    # The words of ``values`` whose forced shifts' hull holds the shift of no
    # pair the word keeps in order, each with that hull and its kept shifts.
    # Words grow by one value v at a time: placed at p, v comes before the
    # entries from p on, which inverts their pairs with v and keeps the rest.
    shift = {(x, y): _shift_of(x, y, n) for x, y in combinations(values, 2)}
    grown = [((values[0],), _no_shifts(n), [])]
    for v in values[1:]:
        level = []
        for word, V, kept in grown:
            for p in range(len(word), -1, -1):
                if p < len(word):
                    V = _with_shift(V, *shift[word[p], v])
                    # V only grows as p falls and the prefix's kept pairs
                    # stay kept, so no smaller p can pass either
                    if _holds_any(V, kept):
                        break
                more = [shift[x, v] for x in word[:p]]
                if not _holds_any(V, more):
                    level.append((word[:p] + (v,) + word[p:], V, kept + more))
        grown = level
    grown.sort(key=lambda item: item[0])
    return grown


def tito_quotient(n: int, a: int, b: int) -> TitoQuotient:
    """The quotient by the congruence remembering the inversions inside
    [a, b].

    An ordering of the window is kept when the inversions it forces, closed
    under the shift fixpoint, force nothing further inside the window; the
    closure then decodes to the minimal order of the class, and any order
    inducing the word sits above it.  Classes are ordered by containment of
    their window inversions, which agrees with the order on the minimal
    representatives.  Seeding the closure with hulls only adds, and the
    minimal order's shift sets are intervals, so the words kept and their
    closures are exact.

    The words are grown by placing a, a+1, ..., b one value at a time, and a
    prefix is dropped as soon as the hull of its forced shifts holds a pair
    that it keeps in order.  That is sound because hulls and closures only
    grow as inversions are added, while the pairs a prefix has placed stay
    placed: every word that extends the prefix fails the same test.  Words
    that survive to full length are closed, rechecked and decoded; they are
    listed in the order of ``itertools.permutations`` of the window.
    """
    values = _window(a, b)
    if n < 1:
        raise PreconditionViolated("need n >= 1")
    if n > 7:
        raise TooLarge(f"period {n} (limit 7)")
    words: list[tuple[int, ...]] = []
    reps: dict[str, Tito] = {}
    for word, (lo, hi), kept in _window_words(values, n):
        V = [row[:] for row in lo], [row[:] for row in hi]
        _close(V, n)
        if _holds_any(V, kept):
            continue
        words.append(word)
        reps[window_word_label(word)] = _tito_from_valid_sets(V, n)
    return TitoQuotient(n, a, b, _word_poset(values, words, list(reps)), reps)
