"""Acceptance suite: one test per shipped guarantee, one printed line each.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines.  Every
test draws from its own seeded generator, so reruns are reproducible; the
budgeted ones also assert their wall-clock limit.
"""

from __future__ import annotations

import functools
import math
import random
import time
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from gen import (
    all_titos,
    check_join_oracle,
    check_meet_oracle,
    random_noncrossing_collection,
    random_tito,
    random_wrapped_arc,
)
from weakorder.cli import main as cli_main
from weakorder.dyer import dyer_join, dyer_meet, dyer_normal_form, enumerate_biclosed_fin
from weakorder.errors import NotWidelyGenerated
from weakorder.lattices import (
    canonical_join_rep_fin,
    check_lattice,
    is_join_semidistributive_fin,
    is_meet_semidistributive_fin,
    join_irreducibles_fin,
    tito_quotient,
    tito_window_word,
    tot_quotient,
    weak_order_poset,
)
from weakorder.sn import (
    arc,
    format_perm,
    inversions,
    ji_from_arc_sn,
    join_sn,
    lower_arcs_sn,
    lower_walls_sn,
    meet_sn,
    parse_perm,
    perm_of,
    permutation_from_noncrossing,
    swap_values,
    upper_arcs_sn,
)
from weakorder.tito import (
    WANING,
    WAXING,
    Block,
    Tito,
    canonical_join_rep_tito,
    flip_tito,
    format_windows,
    inversion_indices_upto,
    is_widely_generated_tito,
    ji_from_wrapped_arc,
    join_of_cyclic_collection,
    join_tito,
    leq_tito,
    lower_walls_tito,
    lt_tito,
    lower_wrapped_arcs,
    meet_tito,
    normalize_tito,
    parse_windows,
    reflection_index,
    standard_tito,
)

FIXTURES = Path(__file__).parent / "fixtures"


def criterion(num: int, title: str, budget: float | None = None):
    """Print one verdict line per criterion and enforce its time budget."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            ok = False
            try:
                fn(*args, **kwargs)
                ok = True
            finally:
                elapsed = time.perf_counter() - start
                late = budget is not None and elapsed > budget
                verdict = "PASS" if ok and not late else "FAIL"
                print(f"criterion {num:02d} {verdict} {title} ({elapsed:.1f}s)")
            if budget is not None:
                assert elapsed <= budget, f"{elapsed:.1f}s over the {budget}s budget"

        return run

    return wrap


def _scan_against_pool(pool, pairs):
    inv = {p: inversions(p) for p in pool}
    for x, y in pairs:
        ubs = [z for z in pool if inv[x] <= inv[z] and inv[y] <= inv[z]]
        least = min(ubs, key=lambda z: len(inv[z]))
        assert all(inv[least] <= inv[z] for z in ubs)
        assert join_sn([x, y]) == least
        lbs = [z for z in pool if inv[z] <= inv[x] and inv[z] <= inv[y]]
        greatest = max(lbs, key=lambda z: len(inv[z]))
        assert all(inv[z] <= inv[greatest] for z in lbs)
        assert meet_sn([x, y]) == greatest


@criterion(1, "permutation join/meet match the exhaustive bound scan", 30)
def test_criterion_01_sn_join_meet_oracle():
    for n in range(1, 5):
        pool = [perm_of(w) for w in permutations(range(1, n + 1))]
        _scan_against_pool(pool, [(x, y) for x in pool for y in pool])
    rng = random.Random(101)
    pool = [perm_of(w) for w in permutations(range(1, 6))]
    _scan_against_pool(pool, [(rng.choice(pool), rng.choice(pool)) for _ in range(1000)])


@criterion(2, "worked examples: inversions, joins, arcs, walls, arc join-irreducibles")
def test_criterion_02_worked_examples():
    assert inversions(parse_perm("51423")) == {
        (1, 5), (2, 5), (3, 5), (4, 5), (2, 4), (3, 4),
    }
    assert join_sn([parse_perm("213"), parse_perm("132")]) == parse_perm("321")
    p = parse_perm("25143")
    assert lower_arcs_sn(p) == {arc(1, 5, [2], [3, 4]), arc(3, 4)}
    assert upper_arcs_sn(p) == {arc(2, 5, [], [3, 4]), arc(1, 4, [2], [3])}
    q = parse_perm("1423")
    assert (2, 4) in lower_walls_sn(q)
    assert swap_values(q, 2, 4) == parse_perm("1243")
    irreducibles = {
        arc(1, 4, [2, 3], []): "2341",
        arc(1, 4, [3], [2]): "3412",
        arc(1, 4, [2], [3]): "2413",
        arc(1, 4, [], [2, 3]): "4123",
    }
    for x, want in irreducibles.items():
        j = ji_from_arc_sn(x, 4)
        assert format_perm(j) == want
        assert lower_arcs_sn(j) == {x}
    t = parse_windows("[1,0,3,2]", 4)
    assert {(ri.a, ri.b) for ri in inversion_indices_upto(t, 8)} == {(2, 3), (4, 5)}
    u = parse_windows("[~1][2]", 2)
    for a, b in [(1, 3), (1, 5), (2, 3), (2, 5)]:
        ri = reflection_index(a, b, 2)
        assert lt_tito(u, ri.b, ri.a)


@criterion(3, "lower arc diagrams are injective and invert", 10)
def test_criterion_03_noncrossing_bijection():
    for n in range(1, 6):
        seen = {}
        for w in permutations(range(1, n + 1)):
            p = perm_of(w)
            d = lower_arcs_sn(p)
            assert d not in seen
            seen[d] = p
            assert permutation_from_noncrossing(d, n) == p


@criterion(4, "canonical joinands refine every antichain join representation", 60)
def test_criterion_04_cjr_minimality():
    wo4 = weak_order_poset(4)
    assert check_lattice(wo4).is_lattice
    join, leq = wo4.joins[0], wo4.leq
    bottom = int(np.flatnonzero(leq.all(axis=1))[0])
    cjr = {}
    for x in wo4.elements:
        rep = canonical_join_rep_fin(wo4, x)
        assert rep is not None
        cjr[wo4.index(x)] = [wo4.index(c) for c in rep]
    ji = sorted(wo4.index(x) for x in join_irreducibles_fin(wo4))
    assert len(ji) == 11
    for bits in range(1 << len(ji)):
        sel = [ji[k] for k in range(len(ji)) if bits >> k & 1]
        if any(leq[a, b] for a in sel for b in sel if a != b):
            continue
        acc = bottom
        for i in sel:
            acc = int(join[acc, i])
        for c in cjr[acc]:
            assert any(leq[c, v] for v in sel)


@criterion(5, "biclosed root subsets are exactly the inversion sets", 5)
def test_criterion_05_biclosed_count():
    for n in range(1, 6):
        got = enumerate_biclosed_fin(n)
        assert len(got) == math.factorial(n)
        words = {
            frozenset(inversions(perm_of(w)))
            for w in permutations(range(1, n + 1))
        }
        assert {x.roots for x in got} == words


@criterion(6, "derivation chains certify random joins and meets per period", 120)
def test_criterion_06_tito_join_oracle():
    rng = random.Random(606)
    cache: dict = {}
    for n in (2, 3, 4):
        for _ in range(1000):
            x = random_tito(rng, n, -2 * n, 3 * n)
            y = random_tito(rng, n, -2 * n, 3 * n)
            j = join_tito([x, y])
            assert leq_tito(x, j) and leq_tito(y, j)
            assert check_join_oracle(cache, (x, y), j, 4 * n) == []
            m = meet_tito([x, y])
            assert leq_tito(m, x) and leq_tito(m, y)
            assert check_meet_oracle(cache, (x, y), m, 4 * n) == []


@criterion(7, "rank-two spot checks: atom join, incomparability, walls, flip")
def test_criterion_07_rank2_spot_checks():
    a1, a2 = parse_windows("[2,1]", 2), parse_windows("[0,3]", 2)
    assert format_windows(join_tito([a1, a2])) == "[~2,1]"
    assert not leq_tito(a1, a2) and not leq_tito(a2, a1)
    two_wax = parse_windows("[1][2]", 2)
    assert lower_walls_tito(two_wax) == frozenset()
    assert not is_widely_generated_tito(two_wax)
    flipped = flip_tito(parse_windows("[~1][~2]", 2), reflection_index(1, 3, 2))
    assert format_windows(flipped) == "[1][~2]"


@criterion(8, "canonical join representations round-trip both directions", 120)
def test_criterion_08_cjr_roundtrips():
    for n in (1, 2, 3):
        for t in all_titos(n, -4, 8):
            if is_widely_generated_tito(t):
                assert join_of_cyclic_collection(canonical_join_rep_tito(t), n) == t
    rng = random.Random(808)
    for _ in range(500):
        n = rng.randint(1, 3)
        coll = random_noncrossing_collection(rng, n, 3 * n, 3)
        t = join_of_cyclic_collection(coll, n)
        assert is_widely_generated_tito(t)
        assert canonical_join_rep_tito(t) == coll


@criterion(9, "each arc shape rebuilds an element with that arc alone below")
def test_criterion_09_ji_cases():
    rng = random.Random(909)
    for case in (1, 2, 3, 4):
        for _ in range(500):
            # only the span-equal-to-period shape exists for n = 1
            n = rng.randint(1, 4) if case == 2 else rng.randint(2, 4)
            w = random_wrapped_arc(rng, n, case, 3 * n)
            j = ji_from_wrapped_arc(w, n)
            assert lower_wrapped_arcs(j) == {w}
            assert len(lower_walls_tito(j)) == 1


@criterion(10, "wide generation, canonical representations, and finite joins agree")
def test_criterion_10_compactness_equivalences():
    for n in (1, 2, 3):
        bottom = standard_tito(n)
        for t in all_titos(n, -4, 8):
            arcs = lower_wrapped_arcs(t)
            if is_widely_generated_tito(t):
                rep = canonical_join_rep_tito(t)
                assert rep == arcs
                assert join_of_cyclic_collection(rep, n) == t
                if t != bottom:
                    assert len(lower_walls_tito(t)) >= 1
            else:
                with pytest.raises(NotWidelyGenerated):
                    canonical_join_rep_tito(t)
                assert join_of_cyclic_collection(arcs, n) != t


@criterion(11, "window quotients are semidistributive lattices, one matching S_4", 120)
def test_criterion_11_quotients_semidistributive():
    tq = tot_quotient(1, 4)
    wo4 = weak_order_poset(4)
    assert [x.replace(",", "") for x in tq.elements] == list(wo4.elements)
    assert np.array_equal(tq.leq, wo4.leq)
    assert is_join_semidistributive_fin(tq)
    assert is_meet_semidistributive_fin(tq)
    q = tito_quotient(2, 1, 4).poset
    assert check_lattice(q).is_lattice
    assert is_join_semidistributive_fin(q)
    assert is_meet_semidistributive_fin(q)


@criterion(12, "biclosed images preserve joins and meets, unit blocks flip freely")
def test_criterion_12_dyer_homomorphism():
    rng = random.Random(121)
    for _ in range(500):
        n = rng.randint(1, 3)
        x = random_tito(rng, n, -n, 2 * n)
        y = random_tito(rng, n, -n, 2 * n)
        dx, dy = dyer_normal_form(x), dyer_normal_form(y)
        assert dyer_join([dx, dy]) == dyer_normal_form(join_tito([x, y]))
        assert dyer_meet([dx, dy]) == dyer_normal_form(meet_tito([x, y]))
    flips = 0
    while flips < 100:
        n = rng.randint(1, 3)
        t = random_tito(rng, n, -n, 2 * n)
        for i, blk in enumerate(t.blocks):
            if blk.size != 1:
                continue
            other = WANING if blk.direction == WAXING else WAXING
            blocks = list(t.blocks)
            blocks[i] = Block(other, blk.window)
            s = normalize_tito(Tito(n, tuple(blocks)))
            assert dyer_normal_form(s) == dyer_normal_form(t)
            flips += 1


@criterion(13, "any two distinct orders separate in some window quotient")
def test_criterion_13_profinite_separation():
    rng = random.Random(131)
    quotients: dict = {}
    done = 0
    while done < 200:
        n = rng.choice((2, 3))
        t1 = random_tito(rng, n, -n, 2 * n)
        t2 = random_tito(rng, n, -n, 2 * n)
        if t1 == t2:
            continue
        sep = None
        for span in range(1, 7):
            diff = inversion_indices_upto(t1, span) ^ inversion_indices_upto(t2, span)
            if diff:
                sep = min(diff, key=lambda ri: (ri.b - ri.a, ri.a))
                break
        if sep is None:
            # no separator fits the quotient size cap; draw a fresh pair
            continue
        key = (n, sep.a, sep.b)
        if key not in quotients:
            quotients[key] = tito_quotient(n, sep.a, sep.b)
        q = quotients[key]
        w1 = ",".join(map(str, tito_window_word(t1, sep.a, sep.b)))
        w2 = ",".join(map(str, tito_window_word(t2, sep.a, sep.b)))
        assert w1 != w2
        assert w1 in q.poset.elements and w2 in q.poset.elements
        done += 1


@criterion(14, "renders are deterministic down to the byte")
def test_criterion_14_golden_renders(tmp_path):
    jobs = [
        (["sn", "arcs", "25143", "--format", "svg"], "arcs_25143_line.svg"),
        (
            ["render", "arcs", "--n", "4", "--mode", "circle", "<2,7|5 6|3 4>"],
            "wrapped_2_7_circle.svg",
        ),
        (["render", "hasse", "--kind", "sn", "--n", "3"], "hasse_s3.dot"),
    ]
    for argv, name in jobs:
        out = tmp_path / name
        assert cli_main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == (FIXTURES / name).read_bytes()
