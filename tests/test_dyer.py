import random
from itertools import permutations

import pytest
from hypothesis import given, settings

from gen import assert_lattice_laws, random_tito, tito_triples
from weakorder.dyer import (
    bottom_dyer,
    dyer_join,
    dyer_leq,
    dyer_meet,
    dyer_normal_form,
    enumerate_biclosed_fin,
    format_dyer_element,
    is_biclosed_fin,
    is_closed_fin,
    is_coclosed_fin,
    parse_dyer_element,
    root_set_fin,
    rootset_from_json,
    rootset_to_json,
)
from weakorder.errors import MixedSizes, OutOfRange, ParseError, TooLarge
from weakorder.sn import inversions, perm_of
from weakorder.tito import join_tito, leq_tito, meet_tito, parse_windows


def test_closed_and_coclosed():
    assert is_closed_fin(root_set_fin(3, [(1, 2), (2, 3), (1, 3)]))
    assert not is_closed_fin(root_set_fin(3, [(1, 2), (2, 3)]))
    assert is_coclosed_fin(root_set_fin(3, [(1, 2), (2, 3), (1, 3)]))
    assert not is_coclosed_fin(root_set_fin(3, [(1, 3)]))
    assert is_biclosed_fin(root_set_fin(3, []))
    assert not is_biclosed_fin(root_set_fin(3, [(1, 3)]))
    with pytest.raises(OutOfRange):
        root_set_fin(3, [(1, 4)])


def test_biclosed_are_inversion_sets():
    for n in range(1, 5):
        expected = {
            frozenset(inversions(perm_of(w)).pairs)
            for w in permutations(range(1, n + 1))
        }
        got = enumerate_biclosed_fin(n)
        assert len(got) == len(expected)
        assert {x.roots for x in got} == expected
    with pytest.raises(TooLarge):
        enumerate_biclosed_fin(7)


def test_rootset_json():
    x = root_set_fin(4, [(1, 2), (2, 4)])
    assert rootset_from_json(rootset_to_json(x), 4) == x
    with pytest.raises(ParseError):
        rootset_from_json("nope", 4)


def test_normal_forms():
    assert format_dyer_element(parse_dyer_element("[~1][2]", 2)) == "dyer:[1][2]"
    assert format_dyer_element(parse_dyer_element("dyer:[1][2]", 2)) == "dyer:[1][2]"
    assert (
        format_dyer_element(dyer_normal_form(parse_windows("[1][~2,3][4]", 4)))
        == "dyer:[1][~2,3][4]"
    )
    assert parse_dyer_element("[~1][2]", 2) == parse_dyer_element("[1][2]", 2)
    assert format_dyer_element(bottom_dyer(1)) == "dyer:[1]"
    assert format_dyer_element(bottom_dyer(2)) == "dyer:[1,2]"


def test_leq_ignores_imaginary_inversions():
    a = parse_dyer_element("[~1][2]", 2)
    b = parse_dyer_element("[1][2]", 2)
    assert dyer_leq(a, b) and dyer_leq(b, a)
    assert dyer_leq(bottom_dyer(2), a)
    top = parse_dyer_element("[~2,1]", 2)
    assert dyer_leq(a, top)
    assert not dyer_leq(top, a)
    assert not leq_tito(
        parse_windows("[~1][2]", 2), parse_windows("[1][2]", 2)
    )


def test_join_meet_frozen():
    a = parse_dyer_element("[2,1]", 2)
    b = parse_dyer_element("[0,3]", 2)
    assert format_dyer_element(dyer_join([a, b])) == "dyer:[~2,1]"
    assert format_dyer_element(dyer_meet([a, b])) == "dyer:[1,2]"
    assert format_dyer_element(dyer_join([], 2)) == "dyer:[1,2]"
    assert format_dyer_element(dyer_meet([], 2)) == "dyer:[~2,1]"
    with pytest.raises(MixedSizes):
        dyer_join([a, parse_dyer_element("[1,2,3]", 3)])
    with pytest.raises(ValueError):
        dyer_join([])


def test_projection_is_homomorphism():
    rng = random.Random(13)
    for n in (2, 3):
        for _ in range(40):
            t1 = random_tito(rng, n, -n, 2 * n)
            t2 = random_tito(rng, n, -n, 2 * n)
            d1, d2 = dyer_normal_form(t1), dyer_normal_form(t2)
            assert dyer_join([d1, d2]) == dyer_normal_form(join_tito([t1, t2]))
            assert dyer_meet([d1, d2]) == dyer_normal_form(meet_tito([t1, t2]))
            assert dyer_leq(d1, d2) == dyer_leq(
                dyer_normal_form(t1), dyer_normal_form(t2)
            )


def test_leq_order_properties():
    rng = random.Random(17)
    elems = [dyer_normal_form(random_tito(rng, 2, -2, 4)) for _ in range(12)]
    for x in elems:
        assert dyer_leq(x, x)
        for y in elems:
            j = dyer_join([x, y])
            m = dyer_meet([x, y])
            assert dyer_leq(x, j) and dyer_leq(y, j)
            assert dyer_leq(m, x) and dyer_leq(m, y)
            if dyer_leq(x, y) and dyer_leq(y, x):
                assert x == y


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(tito_triples(max_n=4))
def test_lattice_laws(case):
    n, *ts = case
    x, y, z = (dyer_normal_form(t) for t in ts)
    assert_lattice_laws(
        lambda ds: dyer_join(ds, n), lambda ds: dyer_meet(ds, n), dyer_leq, x, y, z
    )
