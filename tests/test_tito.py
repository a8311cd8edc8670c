import random
import time
from copy import deepcopy
from itertools import product

import pytest
from hypothesis import given, settings

from gen import (
    assert_lattice_laws,
    check_join_oracle,
    check_meet_oracle,
    random_tito,
    random_windows,
    tito_triples,
)
from weakorder.errors import (
    Crossing,
    InconsistentEncoding,
    InvalidWindows,
    MixedSizes,
    NotAWall,
    NotWidelyGenerated,
    ParseError,
)
from weakorder.tito import (
    INF,
    MAX_SPAN,
    WrappedArc,
    _close,
    _no_shifts,
    _tito_from_valid_sets,
    _valid_sets,
    all_titos,
    canonical_join_rep_tito,
    flip_tito,
    format_reflection_index,
    format_windows,
    format_wrapped_arc,
    inversion_contains,
    inversion_indices_upto,
    is_imaginary_index,
    is_widely_generated_tito,
    is_wrapped_arc,
    ji_from_wrapped_arc,
    join_of_cyclic_collection,
    join_tito,
    leq_tito,
    lower_walls_tito,
    lower_wrapped_arcs,
    lt_tito,
    meet_tito,
    normalize_tito,
    parse_reflection_index,
    parse_windows,
    parse_wrapped_arc,
    reflection_index,
    residue,
    reverse_tito,
    reversal_tito,
    standard_tito,
    wrapped_arc,
    wrapped_cross,
)


def _t(text, n):
    return parse_windows(text, n)


def _walls(t):
    return {format_reflection_index(w) for w in lower_walls_tito(t)}


def _arcs(t):
    return {format_wrapped_arc(w) for w in lower_wrapped_arcs(t)}


# ---------------------------------------------------------------------------
# parsing, formatting, normal form


def test_parse_format_roundtrip():
    for text, n in [("[2,1]", 2), ("[~1][2]", 2), ("[1][~2,3][4]", 4), ("[0,3]", 2)]:
        assert format_windows(normalize_tito(_t(text, n))) == text
    assert format_windows(standard_tito(1)) == "[1]"
    assert format_windows(standard_tito(2)) == "[1,2]"
    assert format_windows(standard_tito(3)) == "[1,2,3]"
    assert format_windows(reversal_tito(2)) == "[~2,1]"


def test_parse_errors():
    with pytest.raises(ParseError):
        _t("[2,1", 2)
    with pytest.raises(ParseError):
        _t("", 2)
    with pytest.raises(InvalidWindows):
        _t("[3,5]", 2)
    with pytest.raises(InvalidWindows):
        _t("[1,1]", 2)
    with pytest.raises(InvalidWindows):
        _t("[1,2]", 3)


def test_normalize_slides_windows():
    assert format_windows(normalize_tito(_t("[3,6,5][~-64]", 4))) == "[2,1,3][~4]"
    assert format_windows(normalize_tito(_t("[3,4]", 2))) == "[1,2]"
    assert format_windows(normalize_tito(_t("[~0]", 1))) == "[~1]"
    assert parse_windows("[10000000]", 1) == standard_tito(1)
    assert format_windows(_t("[~-10000001]", 1)) == "[~1]"


def test_normalize_keeps_the_order():
    rng = random.Random(11)
    for n in (1, 2, 3, 5):
        for _ in range(40):
            t = random_windows(rng, n, -50 * n, 50 * n)
            norm = normalize_tito(t)
            span = range(-2 * n, 2 * n)
            assert all(
                lt_tito(t, a, b) == lt_tito(norm, a, b) for a in span for b in span
            )
            assert normalize_tito(norm) == norm


def test_all_titos_counts():
    assert len(all_titos(2, -4, 8)) == 32
    assert len(all_titos(3, -3, 9)) == 380
    pool = all_titos(2, -4, 8)
    assert len(set(pool)) == len(pool)
    assert all(t == normalize_tito(t) for t in pool)


def test_membership():
    t = _t("[2,1]", 2)
    assert lt_tito(t, 2, 1)
    assert lt_tito(t, 1, 3)
    assert not lt_tito(t, 1, 2)
    assert not lt_tito(t, 1, 1)
    top = _t("[~2,1]", 2)
    assert lt_tito(top, 3, 1) and lt_tito(top, 5, 2)


def test_inversion_queries():
    t = _t("[~1][2]", 2)
    for a, b, expect in [(1, 3, True), (1, 5, True), (2, 3, True), (2, 5, True), (1, 2, False)]:
        assert inversion_contains(t, reflection_index(a, b, 2)) == expect
    upto = inversion_indices_upto(_t("[1,0,3,2]", 4), 8)
    assert {(ri.a, ri.b) for ri in upto} == {(2, 3), (4, 5)}
    with pytest.raises(ValueError):
        reflection_index(3, 3, 2)
    assert is_imaginary_index(reflection_index(1, 3, 2), 2)
    assert not is_imaginary_index(reflection_index(1, 2, 2), 2)


def test_reflection_index_text():
    ri = reflection_index(1, 2, 2)
    assert format_reflection_index(ri) == "<1,2>"
    assert parse_reflection_index("<1,2>", 2) == ri
    assert parse_reflection_index("<5,6>", 2) == ri
    with pytest.raises(ParseError):
        parse_reflection_index("<1>", 2)
    with pytest.raises(ParseError):
        parse_reflection_index("1,2", 2)


def test_valid_sets_roundtrip():
    for n, lo, hi in [(2, -4, 8), (3, -2, 5)]:
        for t in all_titos(n, lo, hi):
            assert _tito_from_valid_sets(_valid_sets(t), n) == t


def test_decoder_rejects_a_gap():
    V = _no_shifts(2)
    lo, hi = V
    lo[1][2] = hi[1][2] = 1  # V[1][2] = {1}: <1, 4> without <1, 2>
    with pytest.raises(InconsistentEncoding, match="no periodic order"):
        _tito_from_valid_sets(V, 2)


def test_close_promotes_a_waning_class():
    # <1,4> and <2,3> chain only to shifts of 2 or more on the diagonal (<1,4>
    # and <4,5> give <1,5>); a waning class has every shift, so <1,3> and <2,4> too
    V = _no_shifts(2)
    lo, hi = V
    lo[1][2] = hi[1][2] = 1
    lo[2][1] = hi[2][1] = 1
    _close(V, 2)
    assert V == _valid_sets(_t("[~1,2]", 2))


def _closed_by_sweeps(V, n):
    # the rules applied until nothing changes: promote a nonempty diagonal to
    # [1, oo), and let V[i][l] absorb the hull of V[i][j] + V[j][l]
    lo, hi = V
    changed = True
    while changed:
        changed = False
        for r in range(1, n + 1):
            if lo[r][r] != INF and (lo[r][r], hi[r][r]) != (1, INF):
                lo[r][r], hi[r][r], changed = 1, INF, True
        for i, j, l in product(range(1, n + 1), repeat=3):
            if lo[i][j] != INF and lo[j][l] != INF:
                new = min(lo[i][l], lo[i][j] + lo[j][l]), max(hi[i][l], hi[i][j] + hi[j][l])
                if new != (lo[i][l], hi[i][l]):
                    (lo[i][l], hi[i][l]), changed = new, True


def test_close_matches_sweeping_to_a_fixpoint():
    # random seeds, most of them describing no order, with every shift at
    # least the least one its residue pair allows
    rng = random.Random(41)
    for _ in range(2000):
        n = rng.randint(1, 5)
        V = _no_shifts(n)
        for _ in range(rng.randint(0, 2 * n)):
            i, j = rng.randint(1, n), rng.randint(1, n)
            low = (0 if j > i else 1) + rng.randint(0, 3)
            V[0][i][j] = min(V[0][i][j], low)
            V[1][i][j] = max(V[1][i][j], INF if rng.random() < 0.2 else low + rng.randint(0, 3))
        W = deepcopy(V)
        _close(V, n)
        _closed_by_sweeps(W, n)
        assert V == W


def test_residue():
    assert [residue(x, 3) for x in (1, 2, 3, 4, 0, -1)] == [1, 2, 3, 1, 3, 2]


# ---------------------------------------------------------------------------
# lattice operations


def test_join_meet_frozen_values():
    a, b = _t("[2,1]", 2), _t("[0,3]", 2)
    assert format_windows(join_tito([a, b])) == "[~2,1]"
    assert format_windows(join_tito([a])) == "[2,1]"
    assert format_windows(join_tito([], 2)) == "[1,2]"
    assert format_windows(meet_tito([], 2)) == "[~2,1]"
    j1, j2 = _t("[~1][2]", 2), _t("[~2][1]", 2)
    assert format_windows(meet_tito([j1, j2])) == "[1,2]"
    with pytest.raises(MixedSizes):
        join_tito([_t("[2,1]", 2), _t("[1,2,3]", 3)])


def test_leq_chains():
    bottom, mid, top = standard_tito(2), _t("[2,1]", 2), reversal_tito(2)
    assert leq_tito(bottom, mid) and leq_tito(mid, top) and leq_tito(bottom, top)
    assert not leq_tito(top, mid)
    assert not leq_tito(_t("[2,1]", 2), _t("[0,3]", 2))
    assert not leq_tito(_t("[0,3]", 2), _t("[2,1]", 2))


def test_join_meet_against_membership_oracle():
    rng = random.Random(3)
    cache = {}
    for n in (2, 3):
        for _ in range(25):
            t1 = random_tito(rng, n, -2 * n, 3 * n)
            t2 = random_tito(rng, n, -2 * n, 3 * n)
            j = join_tito([t1, t2])
            m = meet_tito([t1, t2])
            assert leq_tito(t1, j) and leq_tito(t2, j)
            assert leq_tito(m, t1) and leq_tito(m, t2)
            assert check_join_oracle(cache, [t1, t2], j, 4 * n) == []
            assert check_meet_oracle(cache, [t1, t2], m, 4 * n) == []


def test_meet_is_reverse_join_of_reverses():
    rng = random.Random(5)
    for n in (2, 3):
        for _ in range(20):
            t1 = random_tito(rng, n, -n, 2 * n)
            t2 = random_tito(rng, n, -n, 2 * n)
            direct = meet_tito([t1, t2])
            dual = reverse_tito(join_tito([reverse_tito(t1), reverse_tito(t2)]))
            assert direct == dual


def _cover_steps(rng, t, steps):
    # t moved by covers, each one down (undo a lower wall) or one up (the
    # same move on the reversed order)
    for _ in range(steps):
        up = rng.random() < 0.5
        s = reverse_tito(t) if up else t
        walls = sorted(lower_walls_tito(s))
        if walls:
            s = flip_tito(s, rng.choice(walls))
            t = reverse_tito(s) if up else s
    return t


def test_join_meet_of_nearby_orders_at_periods_8_and_16():
    # inputs a few covers apart, so the join and meet stay close to them;
    # the chain oracle shares no code with the shift-set closure
    rng = random.Random(816)
    cache: dict = {}
    for n, cases in ((8, 40), (16, 20)):
        for _ in range(cases):
            base = random_tito(rng, n, -n, 2 * n)
            ts = tuple(_cover_steps(rng, base, rng.randint(1, 4)) for _ in range(rng.randint(2, 3)))
            j, m = join_tito(ts), meet_tito(ts)
            assert all(leq_tito(t, j) and leq_tito(m, t) for t in ts)
            assert check_join_oracle(cache, ts, j, 4 * n) == []
            assert check_meet_oracle(cache, ts, m, 4 * n) == []


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(tito_triples())
def test_lattice_laws(case):
    n, x, y, z = case
    assert_lattice_laws(
        lambda ts: join_tito(ts, n), lambda ts: meet_tito(ts, n), leq_tito, x, y, z
    )


def test_reverse():
    assert reverse_tito(standard_tito(3)) == reversal_tito(3)
    t = _t("[0,3]", 2)
    assert reverse_tito(reverse_tito(t)) == t


# ---------------------------------------------------------------------------
# walls, flips, descent


def test_lower_walls_frozen():
    assert _walls(_t("[~2,1]", 2)) == {"<1,2>", "<2,3>"}
    assert _walls(_t("[~1][~2]", 2)) == {"<1,3>", "<2,4>"}
    assert _walls(_t("[1][2]", 2)) == set()
    assert _walls(_t("[0,3]", 2)) == {"<2,3>"}
    assert _walls(_t("[2,1]", 2)) == {"<1,2>"}
    assert _walls(standard_tito(2)) == set()


def test_flip_frozen():
    t = flip_tito(_t("[1,0,3,2]", 4), reflection_index(2, 3, 4))
    assert format_windows(t) == "[0,2,3,5]"
    t2 = flip_tito(_t("[~1][~2]", 2), reflection_index(1, 3, 2))
    assert format_windows(t2) == "[1][~2]"
    with pytest.raises(NotAWall, match="not a lower wall"):
        flip_tito(_t("[1][2]", 2), reflection_index(1, 2, 2))


def test_flip_undoes_exactly_the_wall():
    # the flip lies below t and differs from it, over span 4n, only in the
    # wall's class, or in every <a, a + dn> when the wall is imaginary
    rng = random.Random(613)
    for _ in range(300):
        n = rng.randint(1, 8)
        t = random_tito(rng, n, -n, 2 * n)
        for w in lower_walls_tito(t):
            f = flip_tito(t, w)
            assert leq_tito(f, t) and f != t
            lost = {
                (r, k)
                for r in range(1, n + 1)
                for k in range(1, 4 * n + 1)
                if lt_tito(t, r + k, r) != lt_tito(f, r + k, r)
            }
            assert all(lt_tito(t, r + k, r) for r, k in lost)
            if is_imaginary_index(w, n):
                assert lost == {(w.a, d * n) for d in range(1, 5)}
            else:
                assert lost == {(w.a, w.b - w.a)}


def test_descent_to_bottom():
    t = _t("[0,3]", 2)
    steps = 0
    while t != standard_tito(2):
        walls = sorted(lower_walls_tito(t), key=lambda w: (w.a, w.b))
        t = flip_tito(t, walls[0])
        steps += 1
        assert steps < 10
    assert steps == 1
    t = _t("[3,2,1]", 3)
    path = []
    for _ in range(10):
        if t == standard_tito(3):
            break
        t = flip_tito(t, sorted(lower_walls_tito(t), key=lambda w: (w.a, w.b))[0])
        path.append(format_windows(t))
    assert path == ["[3,1,2]", "[1,3,2]", "[1,2,3]"]


def test_infinite_descent_staircase():
    t = _t("[~1,2]", 2)
    seen = []
    for _ in range(4):
        walls = lower_walls_tito(t)
        assert len(walls) == 1
        t = flip_tito(t, next(iter(walls)))
        seen.append(format_windows(t))
    assert seen[:3] == ["[~4,-1]", "[~-1,4]", "[~6,-3]"]


# ---------------------------------------------------------------------------
# wrapped arcs and canonical join representations


def test_is_wrapped_arc():
    assert is_wrapped_arc(wrapped_arc(2, 7, [5, 6], [3, 4], 4), 4)
    assert not is_wrapped_arc(wrapped_arc(2, 7, [5], [3, 4, 6], 4), 4)
    assert is_wrapped_arc(wrapped_arc(1, 2, [], [], 2), 2)
    assert is_wrapped_arc(wrapped_arc(1, 3, [2], [], 2), 2)


def test_no_wrapped_arc_on_long_imaginary_spans():
    for n in (2, 3):
        for m in (2, 3):
            b = 1 + m * n
            interior = list(range(2, b))
            count = 0
            for bits in range(1 << len(interior)):
                left = [v for k, v in enumerate(interior) if bits >> k & 1]
                right = [v for v in interior if v not in left]
                if is_wrapped_arc(wrapped_arc(1, b, left, right, n), n):
                    count += 1
            assert count == 0


def test_wrapped_arc_text():
    w = wrapped_arc(2, 7, [5, 6], [3, 4], 4)
    assert format_wrapped_arc(w) == "<2,7|5 6|3 4>"
    assert parse_wrapped_arc("<2,7|5 6|3 4>", 4) == w
    assert parse_wrapped_arc("<1,2||>", 2) == wrapped_arc(1, 2, [], [], 2)
    with pytest.raises(ParseError):
        parse_wrapped_arc("<1,2|>", 2)


def test_lower_wrapped_arcs_frozen():
    assert _arcs(_t("[~2,1]", 2)) == {"<1,2||>", "<2,3||>"}
    assert _arcs(standard_tito(2)) == set()
    assert _arcs(_t("[2][~1]", 2)) == {"<1,3|2|>"}


def test_ji_from_wrapped_arc_frozen():
    cases = [
        ("<1,2||>", 2, "[2,1]"),
        ("<1,3|2|>", 2, "[2][~1]"),
        ("<2,3||>", 2, "[0,3]"),
        ("<2,7|5 6|3 4>", 4, "[1][~2,3][4]"),
    ]
    for text, n, expected in cases:
        j = ji_from_wrapped_arc(parse_wrapped_arc(text, n), n)
        assert format_windows(j) == expected
        assert _arcs(j) == {text}
        assert len(lower_walls_tito(j)) == 1


def test_ji_from_every_small_wrapped_arc():
    # every wrapped arc with n <= 4 and span <= 3n: j(p) has p as its only
    # lower arc, on exactly one lower wall
    count = 0
    for n in range(1, 5):
        for a, span in product(range(1, n + 1), range(1, 3 * n + 1)):
            inner = list(range(a + 1, a + span))
            for bits in range(1 << len(inner)):
                left = frozenset(v for k, v in enumerate(inner) if bits >> k & 1)
                p = WrappedArc(a, a + span, left, frozenset(inner) - left)
                if not is_wrapped_arc(p, n):
                    continue
                j = ji_from_wrapped_arc(p, n)
                assert lower_wrapped_arcs(j) == {p}
                assert len(lower_walls_tito(j)) == 1
                count += 1
    assert count == 616


def test_widely_generated():
    assert not is_widely_generated_tito(_t("[1][2]", 2))
    assert is_widely_generated_tito(_t("[~1][2]", 2))
    assert is_widely_generated_tito(_t("[2,1]", 2))
    assert is_widely_generated_tito(standard_tito(2))
    with pytest.raises(NotWidelyGenerated, match="consecutive waxing blocks"):
        canonical_join_rep_tito(_t("[1][2]", 2))


def test_canonical_join_rep_roundtrip():
    t = _t("[~2,1]", 2)
    rep = canonical_join_rep_tito(t)
    assert rep == lower_wrapped_arcs(t)
    assert join_of_cyclic_collection(rep, 2) == t
    assert join_of_cyclic_collection([], 2) == standard_tito(2)


def test_wrapped_arcs_at_max_span_in_time():
    # the crossing tests shift side masks per translate instead of building
    # shifted sets, so an arc of MAX_SPAN against its 5000 translates is
    # cheap (rebuilding shifted sets per translate, this test took 35 s on 2
    # vCPU)
    start = time.perf_counter()
    t = _t(f"[~{MAX_SPAN},1]", 2)
    arcs = lower_wrapped_arcs(t)
    assert [w.b - w.a for w in arcs] == [MAX_SPAN - 1]
    assert all(is_wrapped_arc(w, 2) and not wrapped_cross(w, w, 2) for w in arcs)
    assert join_of_cyclic_collection(arcs, 2) == t
    (w,) = arcs
    bent = WrappedArc(w.a, w.b, w.left - {w.b - 1}, w.right | {w.b - 1})
    assert not is_wrapped_arc(bent, 2) and wrapped_cross(w, bent, 2)
    assert time.perf_counter() - start < 3


def test_cyclic_collection_rejects_crossing():
    w1 = parse_wrapped_arc("<2,7|5 6|3 4>", 4)
    w2 = parse_wrapped_arc("<3,6|4 5|>", 4)
    assert wrapped_cross(w1, w2, 4)
    with pytest.raises(Crossing):
        join_of_cyclic_collection([w1, w2], 4)
