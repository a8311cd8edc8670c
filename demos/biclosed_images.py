"""Biclosed root subsets and the coarser order they induce.

Finitely many roots first: subsets of {(a,b) : a < b <= n} closed under
the chain rule in both directions are exactly the inversion sets of
permutations.  The periodic orders then map onto systems of such subsets,
one per span, and that map preserves joins and meets.
"""

from __future__ import annotations

import itertools
import math

from weakorder.dyer import (
    dyer_join,
    dyer_meet,
    dyer_normal_form,
    enumerate_biclosed_fin,
    format_dyer_element,
    is_biclosed_fin,
    root_set_fin,
)
from weakorder.sn import format_perm, inversions, parse_perm, perm_of
from weakorder.tito import join_tito, meet_tito, parse_windows

# Counting biclosed subsets recovers the factorials.
for n in range(1, 6):
    found = len(enumerate_biclosed_fin(n))
    print(f"n={n}: {found:4d} biclosed subsets, {math.factorial(n):4d} permutations")

# The bijection is concrete: a biclosed set is somebody's inversion set.
p = parse_perm("321")
x = root_set_fin(3, inversions(p))
print(format_perm(p), "has biclosed inversion set:", is_biclosed_fin(x))

# Dropping (1,3) breaks closure: (1,2) and (2,3) chain back to (1,3).
broken = root_set_fin(3, set(inversions(p)) - {(1, 3)})
print("without (1,3) still biclosed:", is_biclosed_fin(broken))

# A periodic order is flattened to its roots span by span.  Orders that
# differ only in block bookkeeping flatten to the same element.
n = 2
a = parse_windows("[2,1]", n)
b = parse_windows("[~1,2]", n)
da, db = dyer_normal_form(a), dyer_normal_form(b)
print("a ->", format_dyer_element(da))
print("b ->", format_dyer_element(db))

# Joins commute with the flattening.
j = dyer_join([da, db])
print("join downstairs:   ", format_dyer_element(j))
print("join upstairs then flatten:",
      format_dyer_element(dyer_normal_form(join_tito([a, b]))))
m = dyer_meet([da, db])
print("meet matches too:", m == dyer_normal_form(meet_tito([a, b])))

# The flattening is not injective: reversing a block that holds a single
# residue class reorders translates within one class, and pairs inside a
# class are invisible to root sets.
split = parse_windows("[1][2]", n)
rev = parse_windows("[~1][2]", n)
print("[1][2] and [~1][2] distinct upstairs:", split != rev)
print("but they flatten alike:",
      dyer_normal_form(split) == dyer_normal_form(rev))

# Sanity: the finite enumeration at n=3, written as permutation words.
words = []
for rs in enumerate_biclosed_fin(3):
    match = [
        w for w in ("123", "132", "213", "231", "312", "321")
        if set(inversions(parse_perm(w))) == set(rs.roots)
    ]
    words.append(match[0])
print("biclosed subsets at n=3 name:", " ".join(sorted(words)))
assert sorted(words) == sorted(
    format_perm(perm_of(vals)) for vals in itertools.permutations((1, 2, 3))
)
