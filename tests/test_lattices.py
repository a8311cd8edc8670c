import numpy as np
import pytest

from weakorder import lattices

from weakorder.errors import (
    NotACongruence,
    NotALattice,
    ParseError,
    PreconditionViolated,
    TooLarge,
)
from weakorder.lattices import (
    canonical_join_rep_fin,
    check_lattice,
    congruence_failure,
    congruence_generated_by,
    cover_matrix,
    discrete_partition,
    finite_poset,
    is_congruence,
    is_join_semidistributive_fin,
    is_meet_semidistributive_fin,
    is_semidistributive_fin,
    join_irreducibles_fin,
    partition_from_blocks,
    poset_from_json,
    poset_from_pairs,
    poset_to_json,
    quotient_lattice,
    tito_quotient,
    tito_window_word,
    tot_quotient,
    weak_order_poset,
)
from weakorder.sn import arc, arc_ideal, congruence_pi_down, format_perm, parse_perm
from weakorder.tito import all_titos, format_windows, is_widely_generated_tito, leq_tito


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
    assert int(cover_matrix(finite_poset(labels, full)).sum()) == 257
    generated = poset_from_pairs(labels, zip(labels, labels[1:]))
    assert np.array_equal(generated.leq, full)


def test_covers_of_diamond():
    p = _diamond()
    cov = cover_matrix(p)
    edges = {
        (p.elements[i], p.elements[j]) for i, j in zip(*np.nonzero(cov))
    }
    assert edges == {("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")}


def test_check_lattice():
    assert check_lattice(weak_order_poset(3)).is_lattice
    # the tables against a scan of all common bounds of each pair
    wo4 = weak_order_poset(4)
    report, leq = check_lattice(wo4), wo4.leq
    for i in range(len(wo4)):
        for j in range(len(wo4)):
            ub = [k for k in range(len(wo4)) if leq[i, k] and leq[j, k]]
            lb = [k for k in range(len(wo4)) if leq[k, i] and leq[k, j]]
            assert [k for k in ub if all(leq[k, u] for u in ub)] == [report.join[i, j]]
            assert [k for k in lb if all(leq[u, k] for u in lb)] == [report.meet[i, j]]
    bowtie = poset_from_pairs(
        ["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    )
    report = check_lattice(bowtie)
    assert not report.is_lattice
    assert "least upper bound" in report.witness
    two = poset_from_pairs(["a", "b"], [])
    assert not check_lattice(two).is_lattice


def test_bound_tables_are_built_once_per_poset(monkeypatch):
    built = []
    original = lattices._least_bounds

    def counting(p, leq, bound, least):
        built.append(bound)
        return original(p, leq, bound, least)

    monkeypatch.setattr(lattices, "_least_bounds", counting)
    wo4 = weak_order_poset(4)
    assert check_lattice(wo4).is_lattice
    assert is_join_semidistributive_fin(wo4) and is_meet_semidistributive_fin(wo4)
    assert join_irreducibles_fin(wo4) and canonical_join_rep_fin(wo4, "4321")
    assert congruence_generated_by(wo4, [("1234", "2134")])
    assert sorted(built) == ["lower", "upper"]
    # the cached tables are shared, so no caller may write to them
    report = check_lattice(wo4)
    for table in (report.join, report.meet):
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
    assert is_semidistributive_fin(weak_order_poset(3))
    assert is_semidistributive_fin(weak_order_poset(4))
    diamond = _diamond()
    assert not is_join_semidistributive_fin(diamond)
    assert not is_meet_semidistributive_fin(diamond)


def test_congruence_checks():
    wo3 = weak_order_poset(3)
    assert is_congruence(wo3, discrete_partition(wo3))
    assert is_congruence(wo3, partition_from_blocks([wo3.elements]))
    bad = partition_from_blocks([["123"], ["213"], ["132"], ["231", "321", "312"]])
    assert congruence_failure(wo3, bad) is not None
    assert "interval" in congruence_failure(wo3, bad)
    with pytest.raises(ValueError, match="appears in two blocks"):
        partition_from_blocks([["123"], ["123"]])
    with pytest.raises(ValueError, match="cover"):
        is_congruence(wo3, partition_from_blocks([["123"]]))


def test_congruence_generated_by():
    wo3 = weak_order_poset(3)
    assert congruence_generated_by(wo3, []).blocks() == discrete_partition(wo3).blocks()
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
        quotient_lattice(wo3, partition_from_blocks(
            [["123"], ["213"], ["132"], ["231", "321", "312"]]
        ))


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
    assert int(cover_matrix(q.poset).sum()) == 14
    assert check_lattice(q.poset).is_lattice
    assert is_semidistributive_fin(q.poset)
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


def test_poset_json_roundtrip():
    p = weak_order_poset(3)
    back = poset_from_json(poset_to_json(p))
    assert back.elements == p.elements
    assert np.array_equal(back.leq, p.leq)
    with pytest.raises(ParseError):
        poset_from_json("{}")
