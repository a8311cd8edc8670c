import random
import time
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import assert_lattice_laws
from weakorder.errors import Crossing, NotBiclosed, ParseError, PreconditionViolated
from weakorder.sn import arc, format_perm, inversions, join_sn, lower_arcs_sn, perm_of
from weakorder.total_orders import (
    FiniteTotalOrder,
    canonical_join_rep_tot,
    find_cover_below,
    finite_total_order,
    format_tot,
    invs_from_json,
    invs_to_json,
    ji_from_arc_tot,
    join_of_noncrossing_tot,
    join_tot,
    leq_tot,
    lower_arcs_tot,
    lower_walls_tot,
    meet_tot,
    order_word,
    standard_order,
    support_window,
)


def _embed(word):
    position = {v: i for i, v in enumerate(word)}
    pairs = [
        (a, b)
        for a in word
        for b in word
        if a < b and position[b] < position[a]
    ]
    return finite_total_order(pairs)


def test_membership_and_window():
    t = finite_total_order([(0, 1)])
    # 1 before 0, and every other value in its usual place
    assert order_word(t, -5, 2) == (-5, -4, -3, -2, -1, 1, 0, 2)
    assert support_window(t) == (0, 1)
    assert support_window(standard_order()) is None
    with pytest.raises(NotBiclosed):
        finite_total_order([(1, 3)])


def test_join_and_meet_examples():
    t1 = finite_total_order([(0, 1)])
    t2 = finite_total_order([(1, 2)])
    j = join_tot([t1, t2])
    assert j.invs == {(0, 1), (1, 2), (0, 2)}
    assert format_tot(j) == "2,1,0"
    m = meet_tot(
        [finite_total_order([(0, 1), (0, 2)]), finite_total_order([(0, 2), (1, 2)])]
    )
    assert m == standard_order()
    assert join_tot([]) == standard_order()
    assert join_tot([j]) == j and meet_tot([j]) == j
    with pytest.raises(ValueError):
        meet_tot([])


def test_leq_is_containment():
    small = finite_total_order([(1, 2)])
    big = finite_total_order([(1, 2), (1, 3), (2, 3)])
    assert leq_tot(small, big)
    assert not leq_tot(big, small)
    assert leq_tot(standard_order(), small)


def test_arcs_of_embedded_25143():
    t = _embed((2, 5, 1, 4, 3))
    assert lower_walls_tot(t) == {(1, 5), (3, 4)}
    assert lower_arcs_tot(t) == {arc(1, 5, [2], [3, 4]), arc(3, 4)}
    assert canonical_join_rep_tot(t) == lower_arcs_tot(t)


def test_arcs_of_reversal():
    t = _embed((2, 1, 0))
    assert lower_arcs_tot(t) == {arc(0, 1), arc(1, 2)}


def test_ji_from_arc():
    assert ji_from_arc_tot(arc(1, 4, [2, 3], [])).invs == {(1, 2), (1, 3), (1, 4)}
    assert ji_from_arc_tot(arc(1, 4, [2], [3])).invs == {(1, 2), (1, 4), (3, 4)}
    assert order_word(ji_from_arc_tot(arc(-1, 2, [0], [1])), -1, 2) == (0, 2, -1, 1)


def test_noncrossing_join_and_crossing_rejection():
    t = join_of_noncrossing_tot([arc(1, 5, [2], [3, 4]), arc(3, 4)])
    assert format_tot(t) == "2,5,1,4,3"
    with pytest.raises(Crossing):
        join_of_noncrossing_tot([arc(1, 3, [2], []), arc(1, 3, [], [2])])


def test_roundtrip_on_embedded_s4():
    for word in permutations(range(1, 5)):
        t = _embed(word)
        assert join_of_noncrossing_tot(lower_arcs_tot(t)) == t


def test_roundtrip_on_shifted_random_windows():
    rng = random.Random(7)
    for _ in range(50):
        lo = rng.randint(-6, 6)
        width = rng.randint(1, 6)
        word = list(range(lo, lo + width))
        rng.shuffle(word)
        t = _embed(tuple(word))
        arcs = lower_arcs_tot(t)
        assert join_of_noncrossing_tot(arcs) == t
        assert all(x.a >= lo and x.b < lo + width for x in arcs)


def test_agreement_with_finite_weak_order():
    for w1 in permutations(range(1, 4)):
        for w2 in permutations(range(1, 4)):
            p, q = perm_of(w1), perm_of(w2)
            j = join_tot([_embed(w1), _embed(w2)])
            assert j.invs == inversions(join_sn([p, q]))
    p = perm_of((2, 5, 1, 4, 3))
    assert lower_arcs_tot(_embed(p.one_line)) == lower_arcs_sn(p)


def _position_inversions(word):
    # computed here from positions, independently of the library
    at = {v: i for i, v in enumerate(word)}
    return frozenset((a, b) for a in word for b in word if a < b and at[b] < at[a])


@pytest.mark.parametrize("lo", [-3, 0, 2])
def test_join_and_meet_against_every_ordering(lo):
    # The join is the least upper bound and the meet the greatest lower bound
    # among all orderings of the window [lo, lo + w - 1], found by scanning.
    rng = random.Random(1000 + lo)
    for w in range(1, 6):
        invsets = [_position_inversions(word) for word in permutations(range(lo, lo + w))]
        by_size = sorted(invsets, key=len)
        if w <= 4:
            pairs = [(x, y) for x in invsets for y in invsets]
        else:
            pairs = [(rng.choice(invsets), rng.choice(invsets)) for _ in range(300)]
        for x, y in pairs:
            uppers = [s for s in by_size if x <= s and y <= s]
            lowers = [s for s in by_size if s <= x and s <= y]
            least, greatest = uppers[0], lowers[-1]
            assert all(least <= s for s in uppers)
            assert all(s <= greatest for s in lowers)
            inputs = [FiniteTotalOrder(x), FiniteTotalOrder(y)]
            assert join_tot(inputs).invs == least
            assert meet_tot(inputs).invs == greatest


def test_translation_invariance():
    base = _embed((2, 5, 1, 4, 3))
    shifted = finite_total_order([(a - 3, b - 3) for a, b in base.invs])
    assert lower_walls_tot(shifted) == {(-2, 2), (0, 1)}
    assert format_tot(shifted) == "-1,2,-2,1,0"


def test_find_cover_below():
    high = finite_total_order([(1, 2), (1, 3)])
    got = find_cover_below(standard_order(), high, (1, 3))
    assert got.invs == {(1, 2)}
    assert leq_tot(got, high) and len(high.invs - got.invs) == 1
    with pytest.raises(PreconditionViolated):
        find_cover_below(standard_order(), high, (3, 1))
    with pytest.raises(PreconditionViolated):
        find_cover_below(high, standard_order(), (1, 3))
    with pytest.raises(PreconditionViolated):
        find_cover_below(standard_order(), high, (2, 3))


def test_cover_search_walks_any_interval():
    rng = random.Random(11)
    words = list(permutations(range(1, 6)))
    for _ in range(60):
        t_high = _embed(rng.choice(words))
        if not t_high.invs:
            continue
        pair = rng.choice(sorted(t_high.invs))
        low = standard_order()
        got = find_cover_below(low, t_high, pair)
        assert leq_tot(low, got) and leq_tot(got, t_high)
        assert len(t_high.invs - got.invs) == 1


def test_json_roundtrip():
    t = _embed((2, 5, 1, 4, 3))
    assert invs_from_json(invs_to_json(t)) == t
    assert invs_from_json("[]") == standard_order()
    with pytest.raises(ParseError):
        invs_from_json("[[1]]")


def test_far_apart_pairs_cost_what_the_pairs_cost():
    # the checks run run by run, so two pairs 10**6 apart are as cheap as two
    # adjacent ones; a word over the whole support window would take hours
    start = time.perf_counter()
    far = 10**6
    t = invs_from_json(f"[[0,1],[{far},{far + 1}]]")
    assert sorted(lower_walls_tot(t)) == [(0, 1), (far, far + 1)]
    assert len(lower_arcs_tot(t)) == 2
    bigger = join_tot([t, finite_total_order([(far + 1, far + 2)])])
    assert bigger.invs == t.invs | {(far, far + 2), (far + 1, far + 2)}
    assert meet_tot([t, bigger]) == t
    assert find_cover_below(standard_order(), t, (far, far + 1)).invs == {(0, 1)}
    with pytest.raises(NotBiclosed, match=r"\[\(0, 1000000\)\]"):
        invs_from_json(f"[[0,{far}]]")
    # an order built without the check: its join closes over the ends of the
    # pairs, not over the span between them, so it is refused at once
    with pytest.raises(NotBiclosed, match=r"\[\(0, 1000000\)\]"):
        join_tot([FiniteTotalOrder(frozenset({(0, far)}))])
    # a run too wide for its pairs, and a run that fails the round trip; the
    # message names the whole set
    with pytest.raises(NotBiclosed, match=r"\[\(0, 1\), \(5, 7\)\]"):
        finite_total_order([(0, 1), (5, 7)])
    with pytest.raises(NotBiclosed, match=r"\[\(0, 1\), \(5, 6\), \(6, 7\)\]"):
        finite_total_order([(0, 1), (5, 6), (6, 7)])
    assert time.perf_counter() - start < 2


@st.composite
def _embedded_word(draw):
    # an ordering of a window of up to 6 integers, the identity elsewhere
    lo = draw(st.integers(-4, 4))
    return _embed(draw(st.permutations(range(lo, lo + draw(st.integers(1, 6))))))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_embedded_word(), _embedded_word(), _embedded_word())
def test_lattice_laws(x, y, z):
    assert_lattice_laws(join_tot, meet_tot, leq_tot, x, y, z)
