import random

import pytest

from gen import check_join_oracle, check_meet_oracle, random_tito, random_windows
from weakorder.errors import (
    Crossing,
    InconsistentEncoding,
    InvalidWindows,
    MixedSizes,
    NotAWall,
    NotWidelyGenerated,
    ParseError,
)
from weakorder.intervals import ZSet
from weakorder.tito import (
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
    V = [[ZSet.empty()] * 3 for _ in range(3)]
    V[1][2] = ZSet.interval(1, 1)
    with pytest.raises(InconsistentEncoding, match="no periodic order"):
        _tito_from_valid_sets(V, 2)


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


def test_cyclic_collection_rejects_crossing():
    w1 = parse_wrapped_arc("<2,7|5 6|3 4>", 4)
    w2 = parse_wrapped_arc("<3,6|4 5|>", 4)
    assert wrapped_cross(w1, w2, 4)
    with pytest.raises(Crossing):
        join_of_cyclic_collection([w1, w2], 4)
