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
(-1)^|kappa| [m]_kappa, which reproduces the forms above exactly.
zonal_explicit keeps the printed forms as the degree <= 2 reference.

The Monte Carlo inner products draw Haar bases through
core_linalg.haar_basis_batch and read the squared cosines through
core_linalg.squared_cosines and its range check, as every float consumer does.
"""

from fractions import Fraction
from math import comb

import numpy as np

from .core_linalg import checked_cosines, haar_basis_batch, squared_cosines
from .dims import check_mn, dim_H
from .errors import (DegenerateAtOnes, LengthExceedsVariables, OutOfRange,
                     UnsupportedPartition)
from .partitions import Partition, aspartition, partitions_up_to
from .sympoly import SymmetricPolynomial, hypergeom_coeff, schur_norm

_EMPTY = Partition(())


class ZonalPolynomial:
    """A zonal polynomial Z_mu for G(m,n), held as an exact SymmetricPolynomial."""

    __slots__ = ("mu", "m", "n", "poly", "normalized")

    def __init__(self, mu, m, n, poly, normalized=False):
        self.mu = aspartition(mu)
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

    def at_ones(self):
        return self.poly.at_ones()

    def __repr__(self):
        tag = "norm" if self.normalized else "raw"
        return "Zonal[mu=%s, m=%d, n=%d, %s](%r)" % (
            self.mu, self.m, self.n, tag, self.poly)


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


def _jacobi_coeffs(d, alpha):
    """Coefficients of P_d^{(alpha,0)}(2y - 1) in powers of y, lowest first:
    (-1)^(d+k) C(d,k) C(alpha+d+k, k)."""
    return [Fraction((-1) ** (d + k) * comb(d, k) * comb(alpha + d + k, k))
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
    # {exponents used so far, descending: signed coefficient}
    terms = {(): Fraction(1)}
    for d in reversed([p + m - 1 - j for j, p in enumerate(kappa.pad(m))]):
        column = _jacobi_coeffs(d, n - 2 * m)
        nxt = {}
        for used, c in terms.items():
            for e, a in enumerate(column):
                if e in used:
                    continue
                # the new column goes in front: one transposition per
                # larger exponent already placed behind it
                above = sum(1 for u in used if u > e)
                key = tuple(sorted(used + (e,), reverse=True))
                nxt[key] = nxt.get(key, 0) + (-c if above % 2 else c) * a
        terms = nxt
    coeffs = {}
    for r, c in terms.items():
        lam = Partition([e - (m - 1 - j) for j, e in enumerate(r)])
        coeffs[lam] = c * schur_norm(lam, m)
    poly = SymmetricPolynomial(m, coeffs)
    c0 = poly.coeffs.get(_EMPTY, 0)
    if c0 == 0:
        raise UnsupportedPartition("Z_%s has no constant term to scale" % kappa)
    target = (-1) ** kappa.size * hypergeom_coeff(m, kappa)
    return ZonalPolynomial(kappa, m, n, poly.scale(target / c0),
                           normalized=not kappa.parts)


def normalize_zonal(Z):
    "rescale so that Z(1,...,1) = dim H_mu exactly; idempotent"
    ones = Z.at_ones()
    if ones == 0:
        raise DegenerateAtOnes("Z_%s vanishes at (1,...,1)" % Z.mu)
    target = dim_H(Z.mu, Z.n)
    scale = Fraction(target) / ones
    poly = Z.poly if scale == 1 else Z.poly.scale(scale)
    return ZonalPolynomial(Z.mu, Z.m, Z.n, poly, normalized=True)


def zonal_basis(m, n, t):
    "all Z_mu with |mu| <= t, len(mu) <= m, canonical order"
    check_mn(m, n)
    return [zonal_general(mu, m, n) for mu in partitions_up_to(t, max_len=m)]


def aggregate_zonal(t, m, n, experimental=None):
    """the degree-t reproducing kernel: sum of the normalized Z_mu, |mu| <= t
    (`experimental` is accepted and ignored)"""
    total = SymmetricPolynomial.zero(m)
    for Z in zonal_basis(m, n, t):
        total = total + normalize_zonal(Z).poly
    return total


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
        total = SymmetricPolynomial.zero(self.m)
        for Z in zonal_basis(self.m, self.n, self.degree):
            c = self.coeff(Z.mu)
            if c != 0:
                total = total + Z.poly.scale(c)
        return total

    def __repr__(self):
        bits = ", ".join("c%s=%s" % (mu, c) for mu, c in
                         sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key()))
        return "ZonalExpansion[m=%d, n=%d](%s)" % (self.m, self.n, bits)


def expand_in_zonal(f, m, n, experimental=None):
    """Exact change of basis to the unnormalized zonals: f = sum c_mu Z_mu.

    Triangular solve from the top degree down: Z_mu is the only basis
    element containing X*_mu, so each coefficient peels off in turn.
    (`experimental` is accepted and ignored.)
    """
    check_mn(m, n)
    if f.m != m:
        raise OutOfRange("polynomial has %d variables, expected %d" % (f.m, m))
    deg = f.degree
    basis = zonal_basis(m, n, deg)
    rest = f
    coeffs = {}
    for Z in reversed(basis):
        lead = Z.poly.coeffs[Z.mu]
        c = rest.coeffs.get(Z.mu, Fraction(0)) / lead
        coeffs[Z.mu] = c
        if c != 0:
            rest = rest - Z.poly.scale(c)
    assert not rest.coeffs, "zonal expansion left a remainder: %r" % rest
    return ZonalExpansion(m, n, coeffs, deg)


def annihilator_sympoly(A, m):
    "product of (sum_i y_i - alpha) over alpha in A, exact"
    alphas = sorted(Fraction(a) for a in A)
    if not alphas:
        raise OutOfRange("need at least one root")
    x = SymmetricPolynomial.power_sum(m)
    out = SymmetricPolynomial.constant(1, m)
    for alpha in alphas:
        out = out * (x - alpha)
    return out


# ---------------------------------------------------------------------------
# Monte-Carlo inner products over Haar-random subspaces

_MC_BLOCK = 32768


def _haar_blocks(n, m, samples, seed):
    "Haar bases (b, n, m), at most _MC_BLOCK per block, from one seeded stream"
    rng = np.random.default_rng(seed)
    for lo in range(0, samples, _MC_BLOCK):
        yield haar_basis_batch(n, m, min(_MC_BLOCK, samples - lo), rng)


def _angle_batch(n, m, samples, seed):
    """Yield blocks y (b, m): squared cosines of the principal angles
    between the first-m-coordinates subspace and Haar-random subspaces."""
    for q in _haar_blocks(n, m, samples, seed):
        # basis of the fixed subspace is I[:, :m], so the overlap matrix
        # is just the first m rows of each sample
        yield checked_cosines(squared_cosines(q[:, :m, :]))


def _mean_stderr(blocks, samples):
    """Mean and standard error of the values in `blocks` (arrays holding
    `samples` values in all); the standard error is inf for one sample."""
    if samples < 1:
        raise OutOfRange("need at least 1 sample, got %d" % samples)
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


def mc_zonal_inner(mu, nu, m, n, samples, seed=0, normalized=False):
    """Monte-Carlo estimate (and standard error) of the Haar inner product
    integral of Z_mu(y(a,c)) * Z_nu(y(a,c)) over random c, fixed a.

    Deterministic per seed: fixed block partition of the sample range.
    """
    mu = aspartition(mu)
    nu = aspartition(nu)
    Zm = zonal_general(mu, m, n)
    Zn = zonal_general(nu, m, n)
    if normalized:
        Zm = normalize_zonal(Zm)
        Zn = normalize_zonal(Zn)

    def products():
        for y in _angle_batch(n, m, samples, seed):
            vals = Zm.eval_batch(y)
            yield vals * (vals if mu == nu else Zn.eval_batch(y))

    return _mean_stderr(products(), samples)


def mc_function_inner(f, g, a, b, samples, seed=0):
    """Monte-Carlo estimate (and standard error) of the kernel pairing: the
    Haar integral of f(y(a,c)) * g(y(b,c)) over random c for fixed
    subspaces a, b."""
    Ba = a.basis.conj().T
    Bb = b.basis.conj().T
    return _mean_stderr(
        (f.eval_batch(checked_cosines(squared_cosines(Ba @ q)))
         * g.eval_batch(checked_cosines(squared_cosines(Bb @ q)))
         for q in _haar_blocks(a.n, a.m, samples, seed)), samples)
