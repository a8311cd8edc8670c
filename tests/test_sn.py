import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import assert_lattice_laws
from weakorder.errors import MixedSizes, NotBiclosed, NotIdeal, ParseError
from weakorder.sn import (
    all_arcs,
    all_pairs,
    arc,
    arc_ideal,
    arcs_cross,
    canonical_join_rep_sn,
    closure_pairs,
    congruence_pi_down,
    format_arc,
    format_perm,
    identity_perm,
    interior_pairs,
    inversions,
    is_subarc,
    ji_from_arc_sn,
    join_sn,
    leq_sn,
    lower_arcs_sn,
    lower_walls_sn,
    meet_sn,
    pairs_from_json,
    pairs_to_json,
    pairset,
    parse_arc,
    parse_perm,
    perm_of,
    permutation_from_inversions,
    permutation_from_noncrossing,
    reversal_perm,
    shard_cone,
    shard_contains,
    subarcs_of,
    swap_values,
    upper_arcs_sn,
    upper_walls_sn,
)


def test_parse_and_format():
    p = parse_perm("25143")
    assert p.one_line == (2, 5, 1, 4, 3)
    assert format_perm(p) == "25143"
    long = parse_perm("10,2,3,4,5,6,7,8,9,1")
    assert long.one_line[0] == 10
    with pytest.raises(ParseError):
        parse_perm("1213")
    with pytest.raises(ParseError):
        parse_perm("")


def test_inversions_of_51423():
    got = inversions(parse_perm("51423")).pairs
    assert got == {(1, 5), (4, 5), (2, 5), (3, 5), (2, 4), (3, 4)}


def test_closure_and_interior():
    ps = pairset(3, [(1, 2), (2, 3)])
    assert closure_pairs(ps).pairs == {(1, 2), (2, 3), (1, 3)}
    assert interior_pairs(pairset(3, [(1, 3)])).pairs == set()
    biclosed = pairset(3, [(1, 2), (1, 3)])
    assert interior_pairs(biclosed).pairs == biclosed.pairs
    # arbitrary pair sets against the definition: all pairs minus the
    # closure of the complement
    rng = random.Random(11)
    everything = all_pairs(6)
    for _ in range(300):
        ps = pairset(6, [p for p in sorted(everything) if rng.random() < 0.5])
        rest = closure_pairs(pairset(6, everything - ps.pairs)).pairs
        assert interior_pairs(ps).pairs == everything - rest


def test_permutation_from_inversions():
    for word in permutations(range(1, 5)):
        p = perm_of(word)
        assert permutation_from_inversions(inversions(p)) == p
    with pytest.raises(NotBiclosed):
        permutation_from_inversions(pairset(3, [(1, 3)]))


def test_join_meet_examples():
    assert format_perm(join_sn([parse_perm("213"), parse_perm("132")])) == "321"
    assert format_perm(meet_sn([parse_perm("231"), parse_perm("312")])) == "123"
    p = parse_perm("3142")
    assert join_sn([p]) == p and meet_sn([p]) == p
    assert format_perm(join_sn([], 3)) == "123"
    assert format_perm(meet_sn([], 3)) == "321"
    with pytest.raises(MixedSizes):
        join_sn([parse_perm("21"), parse_perm("123")])


def test_leq():
    assert leq_sn(identity_perm(4), parse_perm("4321"))
    assert leq_sn(parse_perm("213"), parse_perm("231"))
    assert not leq_sn(parse_perm("213"), parse_perm("132"))
    assert not leq_sn(parse_perm("132"), parse_perm("213"))


def test_walls_and_wall_swap():
    p = parse_perm("1423")
    assert lower_walls_sn(p).pairs == {(2, 4)}
    assert format_perm(swap_values(p, 2, 4)) == "1243"
    assert inversions(p).pairs == {(2, 4), (3, 4)}
    assert inversions(parse_perm("1243")).pairs == {(3, 4)}
    q = parse_perm("25143")
    assert lower_walls_sn(q).pairs == {(1, 5), (3, 4)}
    assert upper_walls_sn(q).pairs == {(2, 5), (1, 4)}


def test_arcs_of_25143():
    p = parse_perm("25143")
    assert lower_arcs_sn(p) == {
        arc(1, 5, [2], [3, 4]),
        arc(3, 4),
    }
    assert upper_arcs_sn(p) == {
        arc(2, 5, [], [3, 4]),
        arc(1, 4, [2], [3]),
    }


def test_arc_text_roundtrip():
    x = arc(1, 5, [2], [3, 4])
    assert format_arc(x) == "(1,5|2|3 4)"
    assert parse_arc("(1,5|2|3 4)") == x
    assert parse_arc("(3,4||)") == arc(3, 4)
    with pytest.raises(ParseError):
        parse_arc("(1,5|2)")


def test_ji_from_arc_matches_figure():
    cases = {
        arc(1, 4, [2, 3], []): "2341",
        arc(1, 4, [3], [2]): "3412",
        arc(1, 4, [2], [3]): "2413",
        arc(1, 4, [], [2, 3]): "4123",
    }
    for x, expected in cases.items():
        j = ji_from_arc_sn(x, 4)
        assert format_perm(j) == expected
        assert lower_arcs_sn(j) == {x}


def test_canonical_join_rep():
    p = parse_perm("25143")
    rep = canonical_join_rep_sn(p)
    assert rep == lower_arcs_sn(p)
    assert join_sn([ji_from_arc_sn(x, 5) for x in rep], 5) == p
    assert canonical_join_rep_sn(identity_perm(4)) == frozenset()


def test_noncrossing_bijection_small():
    seen = {}
    for word in permutations(range(1, 5)):
        p = perm_of(word)
        diagram = lower_arcs_sn(p)
        assert not any(
            arcs_cross(x, y) for x in diagram for y in diagram if x != y
        )
        key = frozenset(diagram)
        assert key not in seen
        seen[key] = p
        assert permutation_from_noncrossing(diagram, 4) == p


def test_shard_cones():
    cone = shard_cone(arc(1, 4, [2], [3]), 4)
    assert shard_contains(cone, (0, -1, 1, 0))
    assert not shard_contains(cone, (0, 1, 1, 0))
    assert not shard_contains(cone, (0, -1, 1, 2))
    assert shard_contains(cone, ("1/2", "-1/3", "2/3", "1/2"))


def test_subarcs():
    x = arc(1, 5, [2], [3, 4])
    assert is_subarc(arc(2, 4, [], [3]), x)
    assert not is_subarc(arc(2, 4, [3], []), x)
    subs = subarcs_of(x)
    assert x in subs and arc(3, 5, [], [4]) in subs
    assert all(is_subarc(y, x) for y in subs)


def test_arc_ideal_and_pi_down():
    n = 3
    with pytest.raises(NotIdeal):
        arc_ideal(n, [arc(1, 3, [2], [])])
    full = arc_ideal(n, all_arcs(n))
    for word in permutations(range(1, n + 1)):
        p = perm_of(word)
        assert congruence_pi_down(full, p) == p
    empty = arc_ideal(n, [])
    assert congruence_pi_down(empty, reversal_perm(n)) == identity_perm(n)


def test_pairs_json_roundtrip():
    ps = inversions(parse_perm("51423"))
    assert pairs_from_json(pairs_to_json(ps), 5) == ps
    with pytest.raises(ParseError):
        pairs_from_json("not json", 5)


@st.composite
def _perm_triples(draw):
    n = draw(st.integers(1, 7))
    return n, *(perm_of(draw(st.permutations(range(1, n + 1)))) for _ in range(3))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_perm_triples())
def test_lattice_laws(case):
    n, x, y, z = case
    assert_lattice_laws(lambda ps: join_sn(ps, n), lambda ps: meet_sn(ps, n), leq_sn, x, y, z)
