import pytest

from weakorder.intervals import ZSet


def test_factories_and_normalization():
    assert ZSet.empty().is_empty
    assert ZSet.interval(3, 1).is_empty
    assert ZSet.interval(1, 3).parts == ((1, 3),)
    assert ZSet.upset(2).parts == ((2, None),)
    merged = ZSet.interval(1, 2).union(ZSet.interval(3, 5))
    assert merged.parts == ((1, 5),)
    gap = ZSet.interval(1, 2).union(ZSet.interval(4, 5))
    assert gap.parts == ((1, 2), (4, 5))


def test_membership_and_bounds():
    s = ZSet.interval(1, 2).union(ZSet.upset(5))
    assert 1 in s and 2 in s and 3 not in s and 100 in s
    assert s.min() == 1
    assert not s.is_finite
    with pytest.raises(ValueError):
        s.max()
    with pytest.raises(ValueError):
        ZSet.empty().min()
    assert ZSet.interval(-3, 4).max() == 4


def test_union_absorbs_into_tail():
    s = ZSet.upset(0).union(ZSet.interval(2, 9))
    assert s.parts == ((0, None),)
    assert ZSet.empty().union(ZSet.empty()).is_empty


def test_sumset():
    assert ZSet.interval(0, 1).sumset(ZSet.interval(2, 3)).parts == ((2, 4),)
    assert ZSet.upset(1).sumset(ZSet.interval(-1, -1)).parts == ((0, None),)
    assert ZSet.empty().sumset(ZSet.upset(0)).is_empty
    two_parts = ZSet.interval(0, 0).union(ZSet.interval(10, 10))
    spread = two_parts.sumset(two_parts)
    assert sorted(m for m in range(0, 25) if m in spread) == [0, 10, 20]


def test_issubset():
    small = ZSet.interval(2, 3)
    big = ZSet.interval(0, 5)
    assert small.issubset(big) and not big.issubset(small)
    assert ZSet.empty().issubset(small)
    assert ZSet.upset(4).issubset(ZSet.upset(2))
    assert not ZSet.upset(1).issubset(ZSet.interval(1, 100))
