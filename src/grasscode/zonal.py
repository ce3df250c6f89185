"""Zonal orthogonal polynomials on G(m,n) and the Z-basis expansion engine.

The printed low-degree forms:

    Z_()    = 1
    Z_(1)   = n X*_1 - m
    Z_(2)   = m(m+1) - 2(n+1)(m+1) X*_1 + (n+1)(n+2) X*_2
    Z_(1,1) = m(m-1) - 2(n-1)(m-1) X*_1 + (n-1)(n-2) X*_(1,1)

These are stored unnormalized; normalize_zonal rescales to Z(1,...,1) =
dim H_mu on demand.  Every basis zonal, at every degree, comes from one
exact construction, zonal_general: the Jacobi determinant ratio of James &
Constantine, expanded in Schur polynomials and scaled to the constant term
(-1)^|kappa| [m]_kappa, which reproduces the forms above exactly.  The
determinant, the Schur norms and [m]_kappa are all integers, so the expansion
runs on ints, and each coefficient c becomes one Fraction(num c, c0), with
num / c0 the scale to the constant term.  That table, {Schur shape:
Fraction}, is built once per (kappa, m, n) and cached;
every zonal_general call hands out a fresh ZonalPolynomial on its own copy,
so changing a returned zonal changes nothing else.  The reproducing kernel
and ZonalExpansion.reconstruct sum their zonals in integers over one common
denominator, with one Fraction per shape.

The Haar pairing of two functions of the angles is exact, with no
sampling: the normalized zonals are the reproducing kernels of the H_mu, so
integrating f(y(a, c)) g(y(c, b)) over Haar-random c leaves a polynomial in
y(a, b), kernel_pairing, read off the two Z-basis expansions.  The inner
product <f, g> is its value at (1, ..., 1).

Monte Carlo keeps one estimate, mc_zonal_inner, the independent witness of
the Haar side, and one block loop, _angle_batch.  It fixes one m-plane and
reads a Haar subspace c only through the squared cosines with it, so
core_linalg.haar_cosine_batch draws those alone: the spectrum of a real
m x m tridiagonal T from the beta = 2 Jacobi matrix model, 2 min(m, n - m) - 1
Beta variables per sample, with no Gaussian basis and no Gram-Schmidt.  Each
sample's power sums of T - I/2 pass core_linalg.power_sums and its range
check, as for every float consumer that evaluates a polynomial: no angle is
formed.  Blocks of _MC_BLOCK = 2048 samples keep a block's T stack, 16 m^2
KiB (144 KiB on G(3,9)), in cache and the memory flat in the sample count.
The blocks are cut from one seeded stream, so the partition is part of that
stream: a seed gives one result, and a count up to 2048 is one block.
"""

from fractions import Fraction
from functools import cache
from math import comb, lcm

from .core_linalg import haar_cosine_batch, power_sums, seeded_generator
from .dims import check_integer, check_mn, dim_H
from .errors import (DegenerateAtOnes, LengthExceedsVariables, OutOfRange,
                     UnsupportedPartition, ValidationFailure,
                     VariableCountMismatch)
from .partitions import Partition, aspartition, partitions_up_to
from .sympoly import (SymmetricPolynomial, _accumulate, _exact_coefficient,
                      _place, _shape, _times_p, hypergeom_coeff, schur_norm)

_EMPTY = Partition(())


class ZonalPolynomial:
    """A zonal polynomial Z_mu for G(m,n), held as an exact SymmetricPolynomial."""

    __slots__ = ("mu", "m", "n", "poly", "normalized")

    def __init__(self, mu, m, n, poly, normalized=False):
        self.mu = aspartition(mu)
        check_mn(m, n)
        self.m = int(m)
        self.n = int(n)
        self.poly = poly
        self.normalized = bool(normalized)

    @property
    def degree(self):
        return self.poly.degree

    def evaluate(self, y):
        return self.poly.evaluate(y)

    __call__ = evaluate

    def eval_batch(self, Y):
        return self.poly.eval_batch(Y)

    def eval_power_sums(self, P):
        return self.poly.eval_power_sums(P)

    def at_ones(self):
        return self.poly.at_ones()

    def __repr__(self):
        tag = "norm" if self.normalized else "raw"
        return "Zonal[mu=%s, m=%d, n=%d, %s](%r)" % (
            self.mu, self.m, self.n, tag, self.poly)


def _jacobi_coeffs(d, alpha):
    """Coefficients of P_d^{(alpha,0)}(2y - 1) in powers of y, lowest first:
    (-1)^(d+k) C(d,k) C(alpha+d+k, k)."""
    return [(-1) ** (d + k) * comb(d, k) * comb(alpha + d + k, k)
            for k in range(d + 1)]


def zonal_general(kappa, m, n):
    """Z_kappa on G(m,n) at any degree, exact, as the Jacobi determinant ratio

        det[ P^{(n-2m,0)}_{kappa_j+m-j}(2y_i - 1) ]_{i,j} / Delta(y)

    (James & Constantine 1974), expanded without evaluating at points.  Each
    column is a polynomial in y; choosing one exponent per column (distinct,
    or the alternant vanishes) gives det[y_i^{r_j}] up to the sign that sorts
    r, and det[y_i^{r_j}] / Delta(y) is the Schur s_lambda with
    lambda_j = r_j - (m - j), which is schur_norm(lambda, m) X*_lambda.
    Columns are expanded from the lowest degree up, merging equal exponent
    sets, so the work is bounded by prod (kappa_j + 1) terms.

    Scaled so that the constant term is (-1)^|kappa| [m]_kappa: this is the
    printed form for |kappa| <= 2 and makes Z_kappa(1,...,1) > 0.
    """
    kappa = aspartition(kappa)
    check_mn(m, n)
    if len(kappa) > m:
        raise LengthExceedsVariables(
            "partition %s too long for m=%d" % (kappa, m))
    # a fresh polynomial on its own copy of the table, built on Python ints
    table = _jacobi_table(kappa, int(m), int(n))
    poly = SymmetricPolynomial._unchecked(m, dict(table))
    return ZonalPolynomial(kappa, m, n, poly, normalized=not kappa.parts)


@cache
def _jacobi_table(kappa, m, n):
    """zonal_general's coefficients {Schur shape: Fraction}, built on integers
    once per (kappa, m, n); shapes and Fractions are immutable"""
    # {exponents used so far, descending: signed integer coefficient}
    terms = {(): 1}
    for d in reversed([p + m - 1 - j for j, p in enumerate(kappa.pad(m))]):
        column = _jacobi_coeffs(d, n - 2 * m)
        nxt = {}
        for used, c in terms.items():
            for e, a in enumerate(column):
                # the new column goes in front, then sorts into place
                placed = _place(used, e)
                if placed is not None:
                    sign, key = placed
                    nxt[key] = nxt.get(key, 0) + sign * c * a
        terms = nxt
    coeffs = {}
    for r, c in terms.items():
        if c:
            lam = _shape(r, m)
            coeffs[lam] = c * schur_norm(lam, m)
    c0 = coeffs.get(_EMPTY, 0)
    if c0 == 0:
        raise UnsupportedPartition("Z_%s has no constant term to scale" % kappa)
    # everything so far is an integer; the scale num / c0 makes each
    # coefficient one Fraction
    num = (-1) ** kappa.size * hypergeom_coeff(m, kappa)
    return {lam: Fraction(num * c, c0) for lam, c in coeffs.items()}


def _normalizing_scale(Z):
    "the factor that makes Z(1,...,1) = dim H_mu"
    ones = Z.at_ones()
    if ones == 0:
        raise DegenerateAtOnes("Z_%s vanishes at (1,...,1)" % Z.mu)
    return dim_H(Z.mu, Z.n) / ones


def normalize_zonal(Z):
    "rescale so that Z(1,...,1) = dim H_mu exactly; idempotent"
    scale = _normalizing_scale(Z)
    poly = Z.poly if scale == 1 else Z.poly.scale(scale)
    return ZonalPolynomial(Z.mu, Z.m, Z.n, poly, normalized=True)


def zonal_basis(m, n, t):
    "all Z_mu with |mu| <= t, len(mu) <= m, canonical order"
    check_mn(m, n)
    check_integer(t, "t")
    return [zonal_general(mu, m, n) for mu in partitions_up_to(t, max_len=m)]


def _zonal_sum(m, terms):
    """sum s Z over the (s, Z) of `terms`, s exact and nonzero, in integers:
    each Z over its lcm denominator D, all over one L, one Fraction per shape"""
    over = []
    for s, Z in terms:
        s = _exact_coefficient(s)
        D = lcm(*(c.denominator for c in Z.poly.coeffs.values()))
        over.append((s, D, Z.poly.coeffs))
    L = lcm(*(s.denominator * D for s, D, _ in over))
    total = {}
    for s, D, coeffs in over:
        f = s.numerator * (L // (s.denominator * D))
        for lam, c in coeffs.items():
            v = f * c.numerator * (D // c.denominator)
            total[lam] = total.get(lam, 0) + v
    return SymmetricPolynomial._unchecked(
        m, {lam: Fraction(v, L) for lam, v in total.items() if v})


def aggregate_zonal(t, m, n, experimental=None):
    """the degree-t reproducing kernel: sum of the normalized Z_mu, |mu| <= t
    (`experimental` is accepted and ignored)"""
    return _zonal_sum(m, [(_normalizing_scale(Z), Z)
                          for Z in zonal_basis(m, n, t)])


class ZonalExpansion:
    "coefficients c_mu of a symmetric polynomial in the unnormalized Z-basis"

    __slots__ = ("m", "n", "coeffs", "degree")

    def __init__(self, m, n, coeffs, degree):
        self.m = m
        self.n = n
        self.coeffs = dict(coeffs)
        self.degree = degree

    def coeff(self, mu):
        return self.coeffs.get(aspartition(mu), Fraction(0))

    @property
    def c0(self):
        return self.coeff(_EMPTY)

    def reconstruct(self, experimental=None):
        "sum c_mu Z_mu as a SymmetricPolynomial (`experimental` is ignored)"
        basis = zonal_basis(self.m, self.n, self.degree)
        return _zonal_sum(self.m, [(c, Z) for Z in basis
                                   if (c := self.coeff(Z.mu)) != 0])

    def __repr__(self):
        bits = ", ".join("c%s=%s" % (mu, c) for mu, c in
                         sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key()))
        return "ZonalExpansion[m=%d, n=%d](%s)" % (self.m, self.n, bits)


def expand_in_zonal(f, m, n, experimental=None):
    """Exact change of basis to the unnormalized zonals: f = sum c_mu Z_mu.

    Triangular solve from the top degree down: Z_mu is the only basis
    element containing X*_mu, so each coefficient peels off in turn.  f is
    a SymmetricPolynomial or a ZonalPolynomial, read through its poly.
    (`experimental` is accepted and ignored.)
    """
    check_mn(m, n)
    if isinstance(f, ZonalPolynomial):
        f = f.poly
    if f.m != m:
        raise OutOfRange("polynomial has %d variables, expected %d" % (f.m, m))
    deg = f.degree
    basis = zonal_basis(m, n, deg)
    rest = dict(f.coeffs)
    coeffs = {}
    for Z in reversed(basis):
        lead = Z.poly.coeffs[Z.mu]
        c = rest.get(Z.mu, Fraction(0)) / lead
        coeffs[Z.mu] = c
        if c != 0:
            _accumulate(rest, Z.poly.coeffs, -c)
    if any(rest.values()):
        raise ValidationFailure("zonal expansion left a remainder: %r" % rest,
                                rest, {})
    return ZonalExpansion(m, n, coeffs, deg)


def kernel_pairing(f, g, m, n):
    """The Haar pairing of f and g on G(m, n), exact: the K with K(y(a, b))
    the integral of f(y(a, c)) g(y(c, b)) over Haar-random c.  The
    normalized zonals reproduce on H_mu, so with f = sum c_mu(f) Z_mu,

        K = sum c_mu(f) c_mu(g) Z_mu(1) / dim H_mu Z_mu,

    over |mu| <= min(deg f, deg g).  The inner product <f, g> is
    K.at_ones()."""
    check_mn(m, n)
    if (f.m, g.m) != (m, m):
        raise VariableCountMismatch("%d- and %d-variable polynomials on "
                                    "G(%d,%d)" % (f.m, g.m, m, n))
    cf, cg = expand_in_zonal(f, m, n), expand_in_zonal(g, m, n)
    basis = zonal_basis(m, n, min(cf.degree, cg.degree))
    return _zonal_sum(m, [(c / _normalizing_scale(Z), Z) for Z in basis
                          if (c := cf.coeff(Z.mu) * cg.coeff(Z.mu)) != 0])


def annihilator_sympoly(A, m):
    "product of (sum_i y_i - alpha) over alpha in A, exact"
    check_integer(m, "m", 1)
    alphas = sorted(_exact_coefficient(a) for a in A)
    if not alphas:
        raise OutOfRange("need at least one root")
    out = {_EMPTY: Fraction(1)}
    for alpha in alphas:     # out * (p_1 - alpha), p_1 = sum of the variables
        nxt = _times_p(out, 1, m)
        _accumulate(nxt, out, -alpha)
        out = nxt
    return SymmetricPolynomial(m, out)


# ---------------------------------------------------------------------------
# Monte-Carlo inner products over Haar-random subspaces

# samples per block: sized so that one block's arrays stay in cache
_MC_BLOCK = 2048


def _angle_batch(n, m, samples, seed, t):
    """Yield blocks of at most _MC_BLOCK samples, from one seeded stream, of
    the power sums (b, min(t, m)) up to degree t of the squared cosines
    between a Haar-random c and one fixed m-plane, drawn alone
    (haar_cosine_batch)."""
    rng = seeded_generator(seed)
    for lo in range(0, samples, _MC_BLOCK):
        count = min(_MC_BLOCK, samples - lo)
        # T stays bound while the block is consumed: freed before the yield,
        # it lets malloc trim the heap and fault the pages back in per block
        T = haar_cosine_batch(n, m, count, rng)
        yield power_sums(T, t)


def _mean_stderr(blocks, samples):
    """Mean and standard error of the values in `blocks` (arrays holding
    `samples` values in all); the standard error is inf for one sample."""
    check_integer(samples, "samples", 1)
    s1 = 0.0
    s2 = 0.0
    for vals in blocks:
        s1 += float(vals.sum())
        s2 += float((vals * vals).sum())
    est = s1 / samples
    if samples == 1:
        return est, float("inf")
    var = max(s2 - s1 * s1 / samples, 0.0) / (samples - 1)
    return est, (var / samples) ** 0.5


def mc_zonal_inner(mu, nu, m, n, samples, seed=0):
    """Monte-Carlo estimate (and standard error) of the Haar inner product
    integral of Z_mu(y(a,c)) * Z_nu(y(a,c)) over random c, fixed a.

    Deterministic per seed: fixed block partition of the sample range.
    """
    mu = aspartition(mu)
    nu = aspartition(nu)
    Zm = zonal_general(mu, m, n)
    Zn = zonal_general(nu, m, n)

    def products():
        t = max(mu.size, nu.size, 1)
        for p in _angle_batch(n, m, samples, seed, t):
            vals = Zm.eval_power_sums(p)
            yield vals * (vals if mu == nu else Zn.eval_power_sums(p))

    return _mean_stderr(products(), samples)
