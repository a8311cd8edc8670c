import gc
import json
import random
from itertools import combinations

import numpy as np
import pytest

from gen import (
    all_titos,
    arc_ideal,
    congruence_pi_down,
    poset_from_pairs,
    tito_quotient_by_filter,
)
from weakorder import lattices

from weakorder.errors import (
    NotACongruence,
    NotALattice,
    PreconditionViolated,
    TooLarge,
)
from weakorder.lattices import (
    Partition,
    canonical_join_rep_fin,
    check_lattice,
    congruence_failure,
    congruence_generated_by,
    finite_poset,
    is_join_semidistributive_fin,
    is_meet_semidistributive_fin,
    join_irreducibles_fin,
    poset_to_json,
    quotient_lattice,
    tito_quotient,
    tito_window_word,
    tot_quotient,
    weak_order_poset,
)
from weakorder.render import render_hasse
from weakorder.sn import arc, format_perm, parse_perm
from weakorder.tito import format_windows, is_widely_generated_tito, leq_tito


def _diamond():
    return poset_from_pairs(
        ["0", "a", "b", "c", "1"],
        [("0", x) for x in "abc"] + [(x, "1") for x in "abc"],
    )


def test_poset_validation():
    with pytest.raises(ValueError, match="duplicate"):
        finite_poset(["x", "x"], np.eye(2, dtype=bool))
    with pytest.raises(ValueError, match="reflexive"):
        finite_poset(["x", "y"], np.zeros((2, 2), dtype=bool))
    bad = np.ones((2, 2), dtype=bool)
    with pytest.raises(ValueError, match="antisymmetric"):
        finite_poset(["x", "y"], bad)
    chain = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=bool)
    with pytest.raises(ValueError, match="transitive"):
        finite_poset(["x", "y", "z"], chain)


def test_boolean_products_are_exact_past_256():
    # a chain of 258 elements: products counted in a byte would wrap at 256
    labels = [str(k) for k in range(258)]
    full = np.triu(np.ones((258, 258), dtype=bool))
    assert int(finite_poset(labels, full).covers.sum()) == 257
    generated = poset_from_pairs(labels, zip(labels, labels[1:]))
    assert np.array_equal(generated.leq, full)


def test_covers_of_diamond():
    p = _diamond()
    edges = {
        (p.elements[i], p.elements[j]) for i, j in zip(*np.nonzero(p.covers))
    }
    assert edges == {("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")}


def test_check_lattice():
    assert check_lattice(weak_order_poset(3)).is_lattice
    # the tables against a scan of all common bounds of each pair
    wo4 = weak_order_poset(4)
    assert check_lattice(wo4).is_lattice
    (join, _), (meet, _), leq = wo4.joins, wo4.meets, wo4.leq
    for i in range(len(wo4)):
        for j in range(len(wo4)):
            ub = [k for k in range(len(wo4)) if leq[i, k] and leq[j, k]]
            lb = [k for k in range(len(wo4)) if leq[k, i] and leq[k, j]]
            assert [k for k in ub if all(leq[k, u] for u in ub)] == [join[i, j]]
            assert [k for k in lb if all(leq[u, k] for u in lb)] == [meet[i, j]]
    bowtie = poset_from_pairs(
        ["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    )
    report = check_lattice(bowtie)
    assert not report.is_lattice
    assert "least upper bound" in report.witness
    two = poset_from_pairs(["a", "b"], [])
    assert not check_lattice(two).is_lattice


def _scan_bounds(leq, elements, bound, least):
    # the least upper bounds under leq by scanning every pair's common upper
    # bounds, or None and the first pair (i <= j, row-major) with none
    n = len(elements)
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            ub = [k for k in range(n) if leq[i][k] and leq[j][k]]
            lub = [k for k in ub if all(leq[k][u] for u in ub)]
            if not lub:
                kind = f"{least} {bound}" if ub else bound
                return None, f"no {kind} bound for {elements[i]!r}, {elements[j]!r}"
            table[i][j] = table[j][i] = lub[0]
    return table, None


def test_bound_tables_against_a_scan_of_random_posets():
    rng = random.Random(22)
    outcomes = set()
    for _ in range(400):
        size = rng.randint(1, 10)
        density = rng.choice((0.1, 0.25, 0.5))
        labels = [f"x{k}" for k in range(size)]
        pairs = [(labels[i], labels[j]) for i, j in combinations(range(size), 2) if rng.random() < density]
        rng.shuffle(labels)
        p = poset_from_pairs(labels, pairs)
        leq = p.leq.tolist()
        expected = []
        for got, order, words in (
            (p.joins, leq, ("upper", "least")),
            (p.meets, [list(col) for col in zip(*leq)], ("lower", "greatest")),
        ):
            want = _scan_bounds(order, p.elements, *words)
            assert (None if got[0] is None else got[0].tolist(), got[1]) == want
            expected.append(want[1])
        assert check_lattice(p).witness == (expected[0] or expected[1])
        outcomes |= {w.split(" bound")[0] if w else "table" for w in expected}
    assert outcomes == {"table", "no upper", "no least upper", "no lower", "no greatest lower"}


def test_bound_tables_are_built_once_per_poset(monkeypatch):
    built = []
    original = lattices._least_bounds

    def counting(p, leq, bound, least):
        built.append(bound)
        return original(p, leq, bound, least)

    monkeypatch.setattr(lattices, "_least_bounds", counting)
    # one boolean square checks transitivity and yields the covers
    squares = []
    square = lattices._bool_square

    def counting_square(m):
        squares.append(m.shape)
        return square(m)

    monkeypatch.setattr(lattices, "_bool_square", counting_square)
    wo4 = weak_order_poset(4)
    assert check_lattice(wo4).is_lattice
    assert is_join_semidistributive_fin(wo4) and is_meet_semidistributive_fin(wo4)
    assert join_irreducibles_fin(wo4) and canonical_join_rep_fin(wo4, "4321")
    assert congruence_generated_by(wo4, [("1234", "2134")])
    assert poset_to_json(wo4) and render_hasse(wo4)
    assert int(wo4.covers.sum()) == 36
    assert sorted(built) == ["lower", "upper"]
    assert squares == [(24, 24)]
    # the cached tables are shared, so no caller may write to them
    for table in (wo4.joins[0], wo4.meets[0], wo4.leq, wo4.covers):
        with pytest.raises(ValueError):
            table[0, 0] = 1


def test_join_irreducibles():
    assert join_irreducibles_fin(weak_order_poset(3)) == {"132", "213", "231", "312"}
    assert len(join_irreducibles_fin(weak_order_poset(4))) == 11
    with pytest.raises(NotALattice):
        join_irreducibles_fin(poset_from_pairs(["a", "b"], []))


def test_canonical_join_rep_fin():
    wo3 = weak_order_poset(3)
    assert canonical_join_rep_fin(wo3, "321") == {"132", "213"}
    assert canonical_join_rep_fin(wo3, "231") == {"231"}
    assert canonical_join_rep_fin(wo3, "123") == frozenset()
    assert canonical_join_rep_fin(_diamond(), "1") is None


def test_semidistributivity():
    for n in (3, 4):
        wo = weak_order_poset(n)
        assert is_join_semidistributive_fin(wo) and is_meet_semidistributive_fin(wo)
    diamond = _diamond()
    assert not is_join_semidistributive_fin(diamond)
    assert not is_meet_semidistributive_fin(diamond)


def _triple_laws(p):
    # Both semidistributive laws over all triples, on joins and meets read off
    # leq by brute force: x v y is the element whose up-set is exactly the
    # common upper bounds of x and y, and dually for x ^ y.
    n = len(p)
    rows = p.leq.tolist()
    up = [sum(1 << j for j in range(n) if rows[i][j]) for i in range(n)]
    down = [sum(1 << i for i in range(n) if rows[i][j]) for j in range(n)]
    by_up = {mask: i for i, mask in enumerate(up)}
    by_down = {mask: i for i, mask in enumerate(down)}
    join = np.array([[by_up[up[x] & up[y]] for y in range(n)] for x in range(n)])
    meet = np.array([[by_down[down[x] & down[y]] for y in range(n)] for x in range(n)])

    def law(join, meet):
        # x v y = x v z implies x v (y ^ z) = x v y, for all y, z at once
        for x in range(n):
            jx = join[x]
            if ((jx[:, None] == jx[None, :]) & (jx[meet] != jx[:, None])).any():
                return False
        return True

    return law(join, meet), law(meet, join)


def _intersection_closed(rng):
    # an intersection-closed family of subsets of a set of at most 6 points,
    # with the whole set: a lattice under inclusion
    full = (1 << rng.randint(1, 6)) - 1
    sets = {full} | {rng.randrange(full + 1) for _ in range(rng.randint(1, 8))}
    while more := {a & b for a in sets for b in sets} - sets:
        sets |= more
    family = sorted(sets)
    leq = np.array([[a & b == a for b in family] for a in family])
    return finite_poset([str(a) for a in family], leq)


def test_semidistributivity_against_triples():
    n5 = poset_from_pairs(
        ["0", "a", "b", "c", "1"], [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")]
    )
    named = [weak_order_poset(n) for n in range(1, 6)]
    named += [tito_quotient(*w).poset for w in [(2, 1, 4), (3, 1, 6), (4, 1, 6)]]
    for p, expected in [(_diamond(), (False, False)), (n5, (True, True))] + [
        (p, (True, True)) for p in named
    ]:
        assert _triple_laws(p) == expected
        assert (is_join_semidistributive_fin(p), is_meet_semidistributive_fin(p)) == expected
    rng = random.Random(6)
    kinds = set()
    for _ in range(300):
        p = _intersection_closed(rng)
        laws = _triple_laws(p)
        assert (is_join_semidistributive_fin(p), is_meet_semidistributive_fin(p)) == laws
        kinds.add(laws)
    # a kernel run on the other law's tables would fail the one-sided cases
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def _discrete(p):
    return Partition({label: i for i, label in enumerate(p.elements)})


# 231, 321 and 312 in one class, the other three alone: not an interval
_NOT_AN_INTERVAL = Partition({"123": 0, "213": 1, "132": 2, "231": 3, "321": 3, "312": 3})


def test_congruence_checks():
    wo3 = weak_order_poset(3)
    assert congruence_failure(wo3, _discrete(wo3)) is None
    assert congruence_failure(wo3, Partition(dict.fromkeys(wo3.elements, 0))) is None
    assert "interval" in congruence_failure(wo3, _NOT_AN_INTERVAL)
    with pytest.raises(ValueError, match="cover"):
        congruence_failure(wo3, Partition({"123": 0}))


def test_congruence_generated_by():
    wo3 = weak_order_poset(3)
    assert congruence_generated_by(wo3, []).blocks() == _discrete(wo3).blocks()
    everything = congruence_generated_by(wo3, [("123", "321")])
    assert everything.blocks() == {frozenset(wo3.elements)}
    part = congruence_generated_by(wo3, [("123", "213")])
    assert part.blocks() == {
        frozenset({"123", "213", "231"}),
        frozenset({"132", "312", "321"}),
    }
    q = quotient_lattice(wo3, part)
    assert q.elements == ("123", "132")
    with pytest.raises(NotACongruence):
        quotient_lattice(wo3, _NOT_AN_INTERVAL)


def test_congruence_agrees_with_arc_ideals():
    wo3 = weak_order_poset(3)
    part = congruence_generated_by(wo3, [("123", "213")])
    ideal = arc_ideal(3, [arc(2, 3)])
    for label in wo3.elements:
        down = congruence_pi_down(ideal, parse_perm(label))
        block = next(b for b in part.blocks() if label in b)
        bottom = min(block, key=lambda v: wo3.leq[:, wo3.index(v)].sum())
        assert format_perm(down) == bottom


def test_weak_order_poset_sizes():
    for n, size in [(1, 1), (2, 2), (3, 6), (4, 24), (5, 120)]:
        assert len(weak_order_poset(n)) == size
    wo4 = weak_order_poset(4)
    assert wo4.leq_labels("1234", "4321")
    assert not wo4.leq_labels("2134", "1243")
    with pytest.raises(TooLarge):
        weak_order_poset(8)
    with pytest.raises(PreconditionViolated):
        weak_order_poset(0)


def test_tot_quotient_matches_weak_order():
    wo3 = weak_order_poset(3)
    q = tot_quotient(1, 3)
    assert [l.replace(",", "") for l in q.elements] == list(wo3.elements)
    assert np.array_equal(q.leq, wo3.leq)
    assert len(tot_quotient(-1, 1)) == 6
    assert len(tot_quotient(5, 8)) == 24
    with pytest.raises(PreconditionViolated):
        tot_quotient(3, 3)
    with pytest.raises(TooLarge):
        tot_quotient(0, 7)


def test_tito_quotient_smallest_window():
    q = tito_quotient(2, 1, 2)
    assert sorted(q.poset.elements) == ["1,2", "2,1"]
    assert format_windows(q.reps["1,2"]) == "[1,2]"
    assert format_windows(q.reps["2,1"]) == "[2,1]"
    assert q.poset.leq_labels("1,2", "2,1")


def test_tito_quotient_window_of_three():
    q = tito_quotient(2, 1, 3)
    assert len(q.poset) == 6
    for label, rep in q.reps.items():
        word = tito_window_word(rep, 1, 3)
        assert ",".join(str(v) for v in word) == label
        assert is_widely_generated_tito(rep)
    pool = all_titos(2, -4, 8)
    seen = set()
    for t in pool:
        label = ",".join(str(v) for v in tito_window_word(t, 1, 3))
        seen.add(label)
        assert leq_tito(q.reps[label], t)
    assert seen == set(q.poset.elements)


def test_tito_quotient_order_matches_pool():
    q = tito_quotient(2, 1, 3)
    pool = all_titos(2, -4, 8)
    by_label = {}
    for t in pool:
        label = ",".join(str(v) for v in tito_window_word(t, 1, 3))
        by_label.setdefault(label, []).append(t)
    for x in q.poset.elements:
        for y in q.poset.elements:
            witnessed = any(
                leq_tito(s, t) for s in by_label[x] for t in by_label[y]
            )
            assert q.poset.leq_labels(x, y) == witnessed


def test_tito_quotient_sizes_and_structure():
    q = tito_quotient(2, 1, 4)
    assert len(q.poset) == 12
    assert int(q.poset.covers.sum()) == 14
    assert check_lattice(q.poset).is_lattice
    assert is_join_semidistributive_fin(q.poset) and is_meet_semidistributive_fin(q.poset)
    assert len(tito_quotient(2, 1, 5).poset) == 14
    assert len(tito_quotient(3, 1, 6).poset) == 120
    with pytest.raises(TooLarge):
        tito_quotient(2, 1, 8)
    with pytest.raises(TooLarge, match="period 8"):
        tito_quotient(8, 1, 3)
    with pytest.raises(PreconditionViolated):
        tito_quotient(0, 1, 3)
    with pytest.raises(PreconditionViolated):
        tito_quotient(2, 2, 2)


def test_tito_quotient_matches_the_filter_of_every_ordering():
    for n in range(1, 5):
        for a in range(-1, n + 1):
            for b in range(a + 1, a + 6):
                q = tito_quotient(n, a, b)
                words, reps = tito_quotient_by_filter(n, a, b)
                assert q.poset.elements == tuple(",".join(map(str, w)) for w in words)
                assert [format_windows(q.reps[x]) for x in q.poset.elements] == [
                    format_windows(t) for t in reps
                ]
                inversions = [
                    {(x, y) for x, y in combinations(range(a, b + 1), 2) if w.index(y) < w.index(x)}
                    for w in words
                ]
                assert q.poset.leq.tolist() == [[u <= v for v in inversions] for u in inversions]


def test_quotients_and_tables_leave_no_reference_cycle():
    # a cycle would hold a search's words and hulls until the collector runs
    gc.disable()
    try:
        gc.collect()
        for window in [(2, 1, 6), (3, 1, 6), (4, -1, 3)]:
            poset = tito_quotient(*window).poset
            assert check_lattice(poset).is_lattice
        assert not check_lattice(poset_from_pairs(["a", "b"], [])).is_lattice
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_poset_json_roundtrip():
    # the covers written out generate the order again
    p = weak_order_poset(3)
    raw = json.loads(poset_to_json(p))
    back = poset_from_pairs(raw["elements"], raw["covers"])
    assert back.elements == p.elements
    assert np.array_equal(back.leq, p.leq)
