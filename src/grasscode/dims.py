"""Dimension counts for the irreducible function spaces on subspace manifolds.

All arithmetic is exact (Python ints); results are exact integers.
"""

from functools import cache
from math import comb, inf

from .errors import (NotDominant, OutOfRange, PartitionTooLong,
                     ValidationFailure)
from .partitions import aspartition, is_integer, partitions_up_to


def weyl_dim(lam):
    """Dimension of the U(n) irreducible with highest weight lam.

    lam is a weakly decreasing integer vector of length n (entries may be
    negative).  Product formula: prod_{i<j} (lam_i - lam_j + j - i)/(j - i),
    over the unequal pairs only: an equal pair's factor is 1, and equal
    weights sit in one run.
    """
    lam = [check_integer(x, "a weight", -inf) for x in lam]
    n = len(lam)
    if any(lam[i] < lam[i + 1] for i in range(n - 1)):
        raise NotDominant("weight not weakly decreasing: %r" % (lam,))
    num = 1
    den = 1
    after = n     # the first index past the run of lam[i]
    for i in range(n - 1, -1, -1):
        if i + 1 < n and lam[i] != lam[i + 1]:
            after = i + 1
        for j in range(after, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    return _exact_quotient(num, den, "Weyl product")


def _exact_quotient(num, den, what):
    "num / den as an int; ValidationFailure if it is not one"
    q, r = divmod(num, den)
    if r:
        raise ValidationFailure("%s %d/%d not integral" % (what, num, den),
                                num, den)
    return q


def dim_H(mu, n):
    """Dimension of the space H_mu of degree-|mu| irreducible functions on
    lines/subspaces of C^n: the U(n) irrep with highest weight
    (mu, 0, ..., 0, -reverse(mu))."""
    return _dim_H(aspartition(mu).parts, check_integer(n, "n"))


@cache
def _dim_H(parts, n):
    "dim_H once per (parts, n)"
    if 2 * len(parts) > n:
        raise PartitionTooLong("need 2*len(mu) <= n, got len %d, n %d"
                               % (len(parts), n))
    return weyl_dim(list(parts) + [0] * (n - 2 * len(parts))
                    + [-p for p in reversed(parts)])


def check_integer(x, name, low=0, need=None):
    """x as an int, the one rule for every integer parameter: any Integral
    but a bool, >= low; else OutOfRange, worded by `need` if given"""
    if type(x) is int and x >= low:
        return x
    if not (is_integer(x) and x >= low):
        raise OutOfRange(need or "%s must be an integer >= %s, got %r"
                         % (name, low, x))
    return int(x)


def check_mn(m, n):
    "(m, n) as ints; OutOfRange unless G(m,n) is in range: 1 <= m, 2m <= n"
    need = "need integers 1 <= m and 2m <= n, got m=%r n=%r" % (m, n)
    return (check_integer(m, "m", 1, need),
            check_integer(n, "n", 2 * m, need))


def dim_Hk(k, m, n):
    """Dimension of H_k(m,n) = sum of dim H_mu over |mu| <= k, len(mu) <= m."""
    check_integer(k, "k")
    check_mn(m, n)
    return sum(dim_H(mu, n) for mu in partitions_up_to(k, max_len=m))


def hom_dim_bound(k, n):
    """Generic upper bound C(n^2 + k - 1, k) on dim Hom_k (polynomials of
    degree <= k in the entries of a projection matrix)."""
    check_integer(k, "k")
    check_integer(n, "n", 1)
    return comb(n * n + k - 1, k)


def q_binomial(n, m, q):
    """Gaussian binomial [n choose m]_q, exact."""
    check_integer(m, "m")
    check_integer(n, "n", m)
    check_integer(q, "q", 2)
    num = 1
    den = 1
    for i in range(m):
        num *= q ** (n - i) - 1
        den *= q ** (m - i) - 1
    return _exact_quotient(num, den, "q-binomial")
