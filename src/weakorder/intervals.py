"""Integer sets made of finitely many intervals, the last possibly unbounded.

The periodic-order fixpoint tracks, for each ordered pair of residues, the
set of shifts at which the pair is inverted.  Those sets start out as single
intervals (possibly with an infinite tail), and unions and sumsets of such
sets stay in the family "finitely many disjoint intervals, at most one
infinite tail", so that family is closed under everything the fixpoint does.
"""

from __future__ import annotations

from dataclasses import dataclass

# An interval is (lo, hi) with hi = None meaning +infinity.
_Interval = tuple[int, "int | None"]


def _normalize(parts: list[_Interval]) -> tuple[_Interval, ...]:
    live = [(lo, hi) for lo, hi in parts if hi is None or hi >= lo]
    live.sort(key=lambda p: p[0])
    merged: list[_Interval] = []
    for lo, hi in live:
        if merged:
            plo, phi = merged[-1]
            if phi is None:
                break
            if lo <= phi + 1:
                merged[-1] = (plo, None if hi is None else max(phi, hi))
                continue
        merged.append((lo, hi))
    return tuple(merged)


@dataclass(frozen=True)
class ZSet:
    """An immutable set of integers; ``parts`` are sorted disjoint intervals."""

    parts: tuple[_Interval, ...] = ()

    @staticmethod
    def empty() -> ZSet:
        return ZSet(())

    @staticmethod
    def interval(lo: int, hi: int) -> ZSet:
        """The finite interval [lo, hi]; empty when hi < lo."""
        return ZSet(_normalize([(lo, hi)]))

    @staticmethod
    def upset(lo: int) -> ZSet:
        """The infinite tail [lo, oo)."""
        return ZSet(((lo, None),))

    @property
    def is_empty(self) -> bool:
        return not self.parts

    @property
    def is_finite(self) -> bool:
        return all(hi is not None for _, hi in self.parts)

    def min(self) -> int:
        if not self.parts:
            raise ValueError("empty set has no minimum")
        return self.parts[0][0]

    def max(self) -> int:
        """Largest element; only defined for nonempty finite sets."""
        if not self.parts:
            raise ValueError("empty set has no maximum")
        hi = self.parts[-1][1]
        if hi is None:
            raise ValueError("unbounded set has no maximum")
        return hi

    def __contains__(self, m: int) -> bool:
        for lo, hi in self.parts:
            if m < lo:
                return False
            if hi is None or m <= hi:
                return True
        return False

    def union(self, other: ZSet) -> ZSet:
        return ZSet(_normalize(list(self.parts) + list(other.parts)))

    def sumset(self, other: ZSet) -> ZSet:
        """{x + y : x in self, y in other}."""
        if self.is_empty or other.is_empty:
            return ZSet.empty()
        out: list[_Interval] = []
        for lo1, hi1 in self.parts:
            for lo2, hi2 in other.parts:
                hi = None if hi1 is None or hi2 is None else hi1 + hi2
                out.append((lo1 + lo2, hi))
        return ZSet(_normalize(out))

    def issubset(self, other: ZSet) -> bool:
        # Parts are disjoint and non-adjacent, so each of our intervals must
        # land inside a single interval of the other set.
        for lo, hi in self.parts:
            ok = False
            for lo2, hi2 in other.parts:
                if lo2 <= lo and (hi2 is None or (hi is not None and hi <= hi2)):
                    ok = True
                    break
            if not ok:
                return False
        return True
