"""Integer partitions: the index set for symmetric polynomials and zonal bases.

Canonical ordering everywhere in the package: by size ascending, then
lexicographically descending on the parts, so degree-2 partitions come out
as (2) before (1,1) and the full order starts (), (1), (2), (1,1), (3), ...
"""

from functools import cache
from numbers import Integral

from .errors import OutOfRange


def is_integer(x):
    "is x an integer (any Integral type) and not a bool?"
    return type(x) is int or isinstance(x, Integral) and type(x) is not bool


class Partition:
    """A weakly decreasing tuple of positive integers (possibly empty);
    anything else is OutOfRange."""

    __slots__ = ("parts",)

    def __init__(self, *parts):
        if len(parts) == 1 and not isinstance(parts[0], Integral):
            try:
                parts = tuple(parts[0])
            except TypeError:
                raise OutOfRange("a partition is a sequence of integers, "
                                 "got %r" % (parts[0],)) from None
        if not all(map(is_integer, parts)):
            raise OutOfRange("parts must be integers, got %r" % (parts,))
        parts = tuple(int(p) for p in parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if any(p < 0 for p in parts):
            raise OutOfRange("negative part in %r" % (parts,))
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise OutOfRange("parts not weakly decreasing: %r" % (parts,))
        self.parts = parts

    @classmethod
    def _unchecked(cls, parts):
        "on `parts` as they are: a weakly decreasing tuple of positive ints"
        out = cls.__new__(cls)
        out.parts = parts
        return out

    @property
    def size(self):
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "Partition%r" % (self.parts,)

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"

    def contains(self, other):
        "does self contain other cell-wise (other_i <= self_i for all i)?"
        if len(other) > len(self):
            return False
        return all(other.parts[i] <= self.parts[i] for i in range(len(other)))

    def pad(self, length):
        "parts as a list padded with zeros to the given length"
        if length < len(self.parts):
            raise OutOfRange("cannot pad %r to length %r" % (self, length))
        return list(self.parts) + [0] * (length - len(self.parts))

    def sort_key(self):
        "key implementing the canonical order: size asc, then lex desc"
        return (self.size, tuple(-p for p in self.parts))


def aspartition(mu):
    "coerce an int tuple/list/Partition to Partition"
    return mu if isinstance(mu, Partition) else Partition(mu)


def partitions_of(k, max_len=None, max_part=None):
    """All partitions of k with at most max_len parts, parts <= max_part.

    Yielded in lexicographically descending order.
    """
    from .dims import check_integer   # dims imports this module
    k = check_integer(k, "k")
    max_len = k if max_len is None else check_integer(max_len, "max_len")
    max_part = k if max_part is None else check_integer(max_part, "max_part")

    def rec(rem, biggest, room):
        if rem == 0:
            yield ()
            return
        if room == 0:
            return
        for first in range(min(rem, biggest), 0, -1):
            for rest in rec(rem - first, first, room - 1):
                yield (first,) + rest

    # weakly decreasing positive parts by construction
    return map(Partition._unchecked, rec(k, max_part, max_len))


def partitions_up_to(t, max_len=None):
    """All partitions of size <= t with at most max_len parts, canonical
    order, as a fresh list (of shared Partitions) on each call."""
    from .dims import check_integer
    t = check_integer(t, "t")
    if max_len is not None:
        max_len = check_integer(max_len, "max_len")
    return list(_partitions_up_to(t, max_len))


@cache
def _partitions_up_to(t, max_len):
    "partitions_up_to's tuple, built once per (t, max_len)"
    return tuple(mu for k in range(t + 1)
                 for mu in partitions_of(k, max_len=max_len))
