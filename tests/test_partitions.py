from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from grasscode.errors import OutOfRange
from grasscode.partitions import (Partition, aspartition, partitions_of,
                                  partitions_up_to)

from zonal_oracle import subpartitions


def test_validation():
    with pytest.raises(OutOfRange):
        Partition(1, 2)
    with pytest.raises(OutOfRange):
        Partition(-1)
    assert Partition(3, 1, 0, 0).parts == (3, 1)
    assert Partition(()).parts == ()
    # a non-integral or bool part is refused, not truncated to an int
    for bad in [(2, 1.5), (2, 1.0), (True,), (2, False), ("2", "1"), 1.5,
                None]:
        with pytest.raises(OutOfRange):
            Partition(bad)
    with pytest.raises(OutOfRange):
        Partition(True)
    assert Partition((np.int64(2), 1)).parts == (2, 1)
    assert Partition(np.int64(2)).parts == aspartition(np.int64(2)).parts == (2,)


def test_canonical_order():
    got = [p.parts for p in partitions_up_to(3)]
    assert got == [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]


def test_counts():
    # p(k) for k = 0..8
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for k, e in enumerate(expected):
        assert len(list(partitions_of(k))) == e


def test_max_len():
    assert [p.parts for p in partitions_of(4, max_len=2)] == [(4,), (3, 1), (2, 2)]
    assert [p.parts for p in partitions_of(3, max_part=2)] == [(2, 1), (1, 1, 1)]


def test_contains_and_pad():
    k = Partition(3, 2)
    assert k.contains(Partition(2, 2))
    assert k.contains(Partition(()))
    assert not k.contains(Partition(1, 1, 1))
    assert k.pad(4) == [3, 2, 0, 0]
    with pytest.raises(OutOfRange):
        k.pad(1)


def test_subpartitions():
    got = [p.parts for p in subpartitions((2, 1))]
    assert got == [(), (1,), (2,), (1, 1), (2, 1)]


def test_aspartition():
    assert aspartition(3) == Partition(3)
    assert aspartition([2, 1]) == Partition(2, 1)
    p = Partition(2)
    assert aspartition(p) is p


@given(st.integers(min_value=0, max_value=9))
def test_partitions_sum_and_shape(k):
    for p in partitions_of(k):
        assert p.size == k
        assert all(p[i] >= p[i + 1] for i in range(len(p) - 1))


@given(st.integers(min_value=0, max_value=7))
def test_sort_key_orders_by_size_first(k):
    ps = partitions_up_to(k)
    keys = [p.sort_key() for p in ps]
    assert keys == sorted(keys)


def test_generated_partition_is_the_validated_one():
    # partitions_of builds its partitions without validating them again:
    # each equals the validated Partition of its parts, hashes as it, and
    # is the same dict key
    for mu in partitions_up_to(6):
        checked = Partition(mu.parts)
        assert mu == checked and hash(mu) == hash(checked)
        assert hash(mu) == hash(mu.parts)
        assert {checked: 1}[mu] == 1
        assert len({mu: 1, checked: 2}) == 1
        assert all(type(p) is int for p in mu.parts)
    # equal hashes, but a Partition is still no tuple
    assert Partition(2, 1) != (2, 1)
    assert len({Partition(2, 1): 1, (2, 1): 2}) == 2


def test_partitions_up_to_returns_a_fresh_list():
    first = partitions_up_to(4, max_len=2)
    want = [mu.parts for mu in first]
    first.append(Partition(9))
    first.reverse()
    del first[:3]
    again = partitions_up_to(4, max_len=2)
    assert [mu.parts for mu in again] == want
    assert again is not partitions_up_to(4, max_len=2)


def test_partitions_up_to_numpy_arguments_share_the_int_entry():
    want = partitions_up_to(5, max_len=3)
    for t, max_len in [(np.int64(5), 3), (5, np.int64(3)),
                       (np.int32(5), np.int16(3))]:
        got = partitions_up_to(t, max_len=max_len)
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))
    assert all(a is b for a, b in zip(partitions_up_to(np.int64(3)),
                                      partitions_up_to(3)))


def test_bad_degree_is_refused():
    for bad in (-1, True, False, 1.0, Fraction(1), "1", None):
        with pytest.raises(OutOfRange):
            partitions_up_to(bad)
        with pytest.raises(OutOfRange):
            list(partitions_of(bad))
    for bad in (-1, True, 1.5):
        with pytest.raises(OutOfRange):
            partitions_up_to(3, max_len=bad)
        with pytest.raises(OutOfRange):
            list(partitions_of(3, max_len=bad))
        with pytest.raises(OutOfRange):
            list(partitions_of(3, max_part=bad))
