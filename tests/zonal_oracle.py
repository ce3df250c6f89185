"""Independent exact oracle for zonal polynomials of degree >= 3.

The hypergeometric-coefficient recursion

    Z_kappa ~ sum over sigma <= kappa of
        (-1)^|sigma| [kappa sigma] [n]_{(kappa,sigma)} / [m]_sigma  X*_sigma

built on generalized binomials [kappa sigma] (the X*_sigma coefficients of
X*_kappa(y_1 + 1, ..., y_m + 1)).  It shares nothing with the library's
Jacobi-determinant construction except the X* arithmetic, so the tests use it
to check that construction up to an exact scalar at every degree.

zonal_explicit holds the printed degree <= 2 forms, the reference that the
construction must reproduce exactly.
"""

from fractions import Fraction
from itertools import product
from math import comb

from grasscode.dims import check_mn
from grasscode.errors import LengthExceedsVariables, UnsupportedPartition
from grasscode.partitions import Partition, aspartition
from grasscode.sympoly import SymmetricPolynomial, hypergeom_coeff
from grasscode.zonal import ZonalPolynomial

from monomial_oracle import (_collect_sorted, _full_expand, from_monomial,
                             to_monomial)

_EMPTY = Partition(())


def subpartitions(kappa):
    """All partitions sigma contained in kappa, any size, canonical order."""
    kappa = aspartition(kappa)
    seen = set()
    for tup in product(*(range(p + 1) for p in kappa.parts)):
        trimmed = tuple(t for t in tup if t > 0)
        if all(trimmed[i] >= trimmed[i + 1] for i in range(len(trimmed) - 1)):
            seen.add(trimmed)
    out = [Partition(t) for t in seen]
    out.sort(key=Partition.sort_key)
    return out


def shift_ones(p):
    "the polynomial y |-> p(y_1 + 1, ..., y_m + 1)"
    out = {}
    for expo, c in _full_expand(to_monomial(p), p.m).items():
        def spread(i, acc_e, acc_c):
            if i == len(expo):
                key = tuple(acc_e)
                out[key] = out.get(key, Fraction(0)) + acc_c
                return
            for k in range(expo[i] + 1):
                spread(i + 1, acc_e + [k], acc_c * comb(expo[i], k))
        spread(0, [], c)
    return from_monomial(p.m, _collect_sorted(out))


_binom_cache = {}


def gen_binomial(kappa, sigma, m):
    """Generalized binomial [kappa over sigma]: the coefficient of X*_sigma
    in the expansion of X*_kappa(y_1 + 1, ..., y_m + 1)."""
    kappa = aspartition(kappa)
    sigma = aspartition(sigma)
    key = (kappa.parts, m)
    if key not in _binom_cache:
        _binom_cache[key] = shift_ones(SymmetricPolynomial.x_star(kappa, m)).coeffs
    return _binom_cache[key].get(sigma, Fraction(0))


def _rho(sigma):
    "rho_sigma = sum_i s_i (s_i - 2i + 1), i counted from 1"
    return sum(s * (s - 2 * i + 1) for i, s in enumerate(sigma.parts, start=1))


def _add_one_box(sigma, max_len):
    "partitions obtained from sigma by adding a single box, length <= max_len"
    out = []
    parts = sigma.parts
    for i in range(len(parts)):
        if i == 0 or parts[i - 1] > parts[i]:
            out.append(Partition(parts[:i] + (parts[i] + 1,) + parts[i + 1:]))
    if len(parts) < max_len:
        out.append(Partition(parts + (1,)))
    return out


def _jc_coeff(kappa, sigma, c, m, cache):
    "the recursive coefficient [c]_{(kappa, sigma)}, base [c]_{(kappa,kappa)} = 1"
    if sigma == kappa:
        return Fraction(1)
    key = sigma.parts
    if key in cache:
        return cache[key]
    gap = kappa.size - sigma.size
    denom = c + Fraction(_rho(kappa) - _rho(sigma), gap)
    b_ks = gen_binomial(kappa, sigma, m)
    assert denom != 0 and b_ks != 0, sigma
    total = Fraction(0)
    for up in _add_one_box(sigma, m):
        b1 = gen_binomial(kappa, up, m)
        if b1 == 0:
            continue
        total += b1 * gen_binomial(up, sigma, m) * _jc_coeff(kappa, up, c, m, cache)
    val = total / (gap * b_ks * denom)
    cache[key] = val
    return val


def zonal_recursion(kappa, m, n):
    "the recursion's Z_kappa on G(m,n) as a SymmetricPolynomial (arbitrary scale)"
    kappa = aspartition(kappa)
    cache = {}
    coeffs = {}
    for sigma in subpartitions(kappa):
        b = gen_binomial(kappa, sigma, m)
        if b == 0:
            continue
        cc = _jc_coeff(kappa, sigma, Fraction(n), m, cache)
        coeffs[sigma] = (Fraction(-1) ** sigma.size * b * cc
                         / hypergeom_coeff(m, sigma))
    return SymmetricPolynomial(m, coeffs)


def zonal_explicit(mu, m, n):
    "the printed degree-<=2 forms, unnormalized (except Z_0 which is 1)"
    mu = aspartition(mu)
    check_mn(m, n)
    if len(mu) > m:
        raise LengthExceedsVariables(
            "partition %s too long for m=%d" % (mu, m))
    if mu.size > 2:
        raise UnsupportedPartition("no explicit form for |mu| > 2 (got %s)" % mu)
    X1 = SymmetricPolynomial.x_star((1,), m)
    if mu == _EMPTY:
        poly = SymmetricPolynomial.constant(1, m)
        return ZonalPolynomial(mu, m, n, poly, normalized=True)
    if mu == Partition(1):
        poly = n * X1 - m
    elif mu == Partition(2):
        X2 = SymmetricPolynomial.x_star((2,), m)
        poly = m * (m + 1) - 2 * (n + 1) * (m + 1) * X1 + (n + 1) * (n + 2) * X2
    else:  # (1,1)
        X11 = SymmetricPolynomial.x_star((1, 1), m)
        poly = m * (m - 1) - 2 * (n - 1) * (m - 1) * X1 + (n - 1) * (n - 2) * X11
    return ZonalPolynomial(mu, m, n, poly)
