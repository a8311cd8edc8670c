"""Tour of the weak order on permutations.

Permutations are compared by containment of their inversion sets; joins
close the union, meets are dual.  Walls are the adjacent inversions, and
each wall widens to an arc recording how the curve bypasses the values
in between.
"""

from __future__ import annotations

from weakorder.sn import (
    canonical_join_rep_sn,
    format_arc,
    format_perm,
    inversions,
    ji_from_arc_sn,
    join_sn,
    lower_arcs_sn,
    lower_walls_sn,
    meet_sn,
    parse_perm,
    swap_values,
    upper_walls_sn,
)

p = parse_perm("25143")
print("word      ", format_perm(p))
print("inversions", sorted(inversions(p)))

# Joins can create inversions neither input has: the closure supplies
# (1, 3) once (1, 2) and (2, 3) sit together.
x, y = parse_perm("213"), parse_perm("132")
print("join      ", format_perm(join_sn([x, y])), "from 213 and 132")
print("meet      ", format_perm(meet_sn([parse_perm("231"), parse_perm("312")])))

# Lower walls are covers downward; flipping one undoes a single descent.
print("lower walls", sorted(lower_walls_sn(p)))
print("upper walls", sorted(upper_walls_sn(p)))
a, b = sorted(lower_walls_sn(p))[0]
print("flip", (a, b), "->", format_perm(swap_values(p, a, b)))

# Each arc determines the smallest permutation with that arc as its only
# descent; the canonical join representation of p is its set of lower arcs.
for arc_ in sorted(lower_arcs_sn(p), key=lambda t: (t.a, t.b)):
    j = ji_from_arc_sn(arc_, 5)
    print("arc", format_arc(arc_), "-> irreducible", format_perm(j))
rep = canonical_join_rep_sn(p)
print("canonical joinands rebuild p:",
      format_perm(join_sn([ji_from_arc_sn(t, 5) for t in rep], 5)))
