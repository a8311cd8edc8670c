import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import (
    NotIdeal,
    all_arcs,
    arc_ideal,
    assert_lattice_laws,
    congruence_pi_down,
    is_subarc,
    subarcs_of,
)
from weakorder.errors import MixedSizes, NotBiclosed, ParseError
from weakorder.sn import (
    arc,
    arcs_cross,
    canonical_join_rep_sn,
    closure,
    format_arc,
    format_perm,
    interior,
    inversions,
    ji_from_arc_sn,
    join_sn,
    leq_sn,
    lower_arcs_sn,
    lower_walls_sn,
    meet_sn,
    parse_arc,
    parse_perm,
    perm_of,
    permutation_from_noncrossing,
    swap_values,
    upper_arcs_sn,
    upper_walls_sn,
    word_from_inversions,
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
    got = inversions(parse_perm("51423"))
    assert got == {(1, 5), (4, 5), (2, 5), (3, 5), (2, 4), (3, 4)}


def _naive_closure(pairs):
    # the chain rule run to a fixpoint: add (a, c) for (a, b) and (b, c)
    have = set(pairs)
    while True:
        new = {(a, c) for a, b in have for b2, c in have if b == b2} - have
        if not new:
            return have
        have |= new


def test_closure_and_interior():
    assert closure(range(1, 4), frozenset({(1, 2), (2, 3)})) == {(1, 2), (2, 3), (1, 3)}
    assert interior(range(1, 4), frozenset({(1, 3)})) == set()
    biclosed = frozenset({(1, 2), (1, 3)})
    assert interior(range(1, 4), biclosed) == biclosed
    # arbitrary pair sets against the naive fixpoint: the interior is all
    # pairs minus the closure of the rest; each set is checked on [1..7] and
    # again shifted onto a window with negative values
    rng = random.Random(11)
    for _ in range(300):
        density = rng.random()
        base = [p for p in combinations(range(1, 8), 2) if rng.random() < density]
        for shift in (0, rng.randint(-20, -8)):
            values = range(1 + shift, 8 + shift)
            everything = set(combinations(values, 2))
            ps = frozenset((a + shift, b + shift) for a, b in base)
            assert closure(values, ps) == _naive_closure(ps)
            assert interior(values, ps) == everything - _naive_closure(everything - ps)


def test_permutation_from_inversions():
    for word in permutations(range(1, 5)):
        assert word_from_inversions(range(1, 5), inversions(perm_of(word))) == word
    with pytest.raises(NotBiclosed):
        word_from_inversions(range(1, 4), frozenset({(1, 3)}))


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
    assert leq_sn(parse_perm("1234"), parse_perm("4321"))
    assert leq_sn(parse_perm("213"), parse_perm("231"))
    assert not leq_sn(parse_perm("213"), parse_perm("132"))
    assert not leq_sn(parse_perm("132"), parse_perm("213"))


def test_walls_and_wall_swap():
    p = parse_perm("1423")
    assert lower_walls_sn(p) == {(2, 4)}
    assert format_perm(swap_values(p, 2, 4)) == "1243"
    assert inversions(p) == {(2, 4), (3, 4)}
    assert inversions(parse_perm("1243")) == {(3, 4)}
    q = parse_perm("25143")
    assert lower_walls_sn(q) == {(1, 5), (3, 4)}
    assert upper_walls_sn(q) == {(2, 5), (1, 4)}


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
    assert canonical_join_rep_sn(parse_perm("1234")) == frozenset()


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
    assert congruence_pi_down(empty, parse_perm("321")) == parse_perm("123")


@st.composite
def _perm_triples(draw):
    n = draw(st.integers(1, 7))
    return n, *(perm_of(draw(st.permutations(range(1, n + 1)))) for _ in range(3))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_perm_triples())
def test_lattice_laws(case):
    n, x, y, z = case
    assert_lattice_laws(lambda ps: join_sn(ps, n), lambda ps: meet_sn(ps, n), leq_sn, x, y, z)
