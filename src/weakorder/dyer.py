"""Biclosed sets of positive roots, finite and affine type A.

For S_n the positive roots are e_b - e_a with 1 <= a < b <= n; a set of
them is biclosed when both it and its complement are closed under the
relation (a,b) + (b,c) = (a,c).  The biclosed sets are exactly the
inversion sets of permutations.

For the affine group the real roots correspond to translation classes of
pairs <a,b> with a and b in different residue classes mod n, and the
extended weak order is the quotient of the order on translation-invariant
total orders that forgets the imaginary (same-residue) inversions.  Two
orders map to the same element exactly when they differ by reversing
blocks of size 1, so each class has a canonical representative with every
size-1 block waxing.

>>> from weakorder.tito import parse_windows
>>> d = dyer_normal_form(parse_windows("[~1][2]", 2))
>>> format_dyer_element(d)
'dyer:[1][2]'
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import MixedSizes, OutOfRange, TooLarge
from .sn import _common_n
from .tito import (
    Tito,
    _shifts_within,
    _valid_sets,
    join_tito,
    meet_tito,
    normalize_tito,
    parse_windows,
    format_windows,
    WANING,
    WAXING,
    Block,
)

MAX_ENUM_N = 6


# ---------------------------------------------------------------------------
# finite type A


@dataclass(frozen=True)
class RootSetFin:
    """A set of positive roots of S_n, each named by its pair (a, b)."""

    n: int
    roots: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for a, b in self.roots:
            if not 1 <= a < b <= self.n:
                raise OutOfRange(f"root {(a, b)} outside [1..{self.n}]")


def root_set_fin(n: int, roots: Iterable[tuple[int, int]] = ()) -> RootSetFin:
    return RootSetFin(n, frozenset(tuple(r) for r in roots))


def is_closed_fin(x: RootSetFin) -> bool:
    """(a,b) and (b,c) present force (a,c); the only additive relations."""
    roots = x.roots
    return all(
        (a, c) in roots for a, b in roots for b2, c in roots if b2 == b
    )


def is_coclosed_fin(x: RootSetFin) -> bool:
    complement = frozenset(combinations(range(1, x.n + 1), 2)) - x.roots
    return is_closed_fin(RootSetFin(x.n, complement))


def is_biclosed_fin(x: RootSetFin) -> bool:
    """
    >>> is_biclosed_fin(root_set_fin(3, [(1, 2), (2, 3), (1, 3)]))
    True
    >>> is_biclosed_fin(root_set_fin(3, [(1, 2), (2, 3)]))
    False
    """
    return is_closed_fin(x) and is_coclosed_fin(x)


def enumerate_biclosed_fin(n: int) -> list[RootSetFin]:
    """All biclosed subsets, smallest first; there are n! of them.

    >>> len(enumerate_biclosed_fin(3))
    6
    """
    if n > MAX_ENUM_N:
        raise TooLarge(f"enumeration over 2^{n * (n - 1) // 2} subsets; n <= {MAX_ENUM_N}")
    universe = sorted(combinations(range(1, n + 1), 2))
    found = []
    for mask in range(1 << len(universe)):
        picked = frozenset(r for i, r in enumerate(universe) if mask >> i & 1)
        x = RootSetFin(n, picked)
        if is_biclosed_fin(x):
            found.append(x)
    found.sort(key=lambda x: (len(x.roots), sorted(x.roots)))
    return found


def rootset_to_json(x: RootSetFin) -> str:
    return json.dumps(sorted([a, b] for a, b in x.roots))


# ---------------------------------------------------------------------------
# affine type A through representatives


@dataclass(frozen=True)
class DyerElement:
    """An element of the extended weak order, held by its minimal
    representative: the unique member of the class with no waning block of
    size 1."""

    n: int
    rep: Tito

    def __post_init__(self) -> None:
        if self.n != self.rep.n:
            raise MixedSizes(f"mixed periods [{self.n}, {self.rep.n}]")
        for block in self.rep.blocks:
            if block.size == 1 and block.direction == WANING:
                raise ValueError(f"representative has a waning size-1 block: {self.rep}")


def dyer_normal_form(t: Tito) -> DyerElement:
    """Reverse every waning size-1 block; the real inversions are untouched.

    >>> from weakorder.tito import parse_windows
    >>> format_dyer_element(dyer_normal_form(parse_windows("[~2,1]", 2)))
    'dyer:[~2,1]'
    """
    blocks = tuple(
        [Block(WAXING, b.window) if b.size == 1 and b.direction == WANING else b for b in t.blocks]
    )
    return DyerElement(t.n, normalize_tito(Tito(t.n, blocks)))


def format_dyer_element(d: DyerElement) -> str:
    return "dyer:" + format_windows(d.rep)


def parse_dyer_element(text: str, n: int) -> DyerElement:
    body = text[5:] if text.startswith("dyer:") else text
    return dyer_normal_form(parse_windows(body, n))


def dyer_leq(x: DyerElement, y: DyerElement) -> bool:
    """Containment of real inversions only; the diagonal is ignored.

    >>> from weakorder.tito import parse_windows
    >>> a = dyer_normal_form(parse_windows("[~1][2]", 2))
    >>> dyer_leq(dyer_normal_form(parse_windows("[1,2]", 2)), a)
    True
    """
    size = _common_n([x, y], None)
    return _shifts_within(_valid_sets(x.rep), _valid_sets(y.rep), size, diagonal=False)


def dyer_join(xs: Sequence[DyerElement], n: int | None = None) -> DyerElement:
    """Image of the join of any representatives; the projection is a
    complete lattice homomorphism, so the choice does not matter.

    >>> from weakorder.tito import parse_windows
    >>> a = dyer_normal_form(parse_windows("[2,1]", 2))
    >>> b = dyer_normal_form(parse_windows("[0,3]", 2))
    >>> format_dyer_element(dyer_join([a, b]))
    'dyer:[~2,1]'
    """
    size = _common_n(xs, n)
    return dyer_normal_form(join_tito([x.rep for x in xs], size))


def dyer_meet(xs: Sequence[DyerElement], n: int | None = None) -> DyerElement:
    size = _common_n(xs, n)
    return dyer_normal_form(meet_tito([x.rep for x in xs], size))
