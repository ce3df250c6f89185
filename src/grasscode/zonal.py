"""Zonal orthogonal polynomials on G(m,n) and the Z-basis expansion engine.

The four explicit low-degree forms are the ground truth:

    Z_()    = 1
    Z_(1)   = n X*_1 - m
    Z_(2)   = m(m+1) - 2(n+1)(m+1) X*_1 + (n+1)(n+2) X*_2
    Z_(1,1) = m(m-1) - 2(n-1)(m-1) X*_1 + (n-1)(n-2) X*_(1,1)

These are stored unnormalized; normalize_zonal rescales to Z(1,...,1) =
dim H_mu on demand.  The general hypergeometric-coefficient formula is also
implemented, but a result for |kappa| <= 2 is only accepted if it is an exact
rational multiple of the explicit form above (the free parameters default to
a_param = m, c_param = n, which passes that gate).
"""

from fractions import Fraction

import numpy as np

from .dims import dim_H
from .errors import (DegenerateAtOnes, DegreeTooHigh, LengthExceedsVariables,
                     OutOfRange, UnsupportedPartition, ValidationFailure)
from .partitions import Partition, aspartition, partitions_up_to, subpartitions
from .sympoly import (SymmetricPolynomial, gen_binomial, hypergeom_coeff)

_EMPTY = Partition(())


def _check_mn(m, n):
    if not (1 <= m and 2 * m <= n):
        raise OutOfRange("need 1 <= m and 2m <= n, got m=%d n=%d" % (m, n))


class ZonalPolynomial:
    """A zonal polynomial Z_mu for G(m,n), held as an exact SymmetricPolynomial."""

    __slots__ = ("mu", "m", "n", "poly", "normalized", "scale_to_explicit")

    def __init__(self, mu, m, n, poly, normalized=False, scale_to_explicit=None):
        self.mu = aspartition(mu)
        self.m = int(m)
        self.n = int(n)
        self.poly = poly
        self.normalized = bool(normalized)
        # for general-formula results: exact factor lambda with
        # lambda * poly == zonal_explicit(mu).poly, when validated
        self.scale_to_explicit = scale_to_explicit

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
    _check_mn(m, n)
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
    k, s = kappa.size, sigma.size
    gap = k - s
    denom = c + Fraction(_rho(kappa) - _rho(sigma), gap)
    b_ks = gen_binomial(kappa, sigma, m)
    if denom == 0 or b_ks == 0:
        raise UnsupportedPartition(
            "zero denominator in the [c] recursion at sigma=%s" % sigma)
    total = Fraction(0)
    for up in _add_one_box(sigma, m):
        b1 = gen_binomial(kappa, up, m)
        if b1 == 0:
            continue
        b2 = gen_binomial(up, sigma, m)
        total += b1 * b2 * _jc_coeff(kappa, up, c, m, cache)
    val = total / (gap * b_ks * denom)
    cache[key] = val
    return val


def zonal_general(kappa, m, n, a_param=None, c_param=None):
    """Zonal polynomial from the general hypergeometric-coefficient formula,

        sum over sigma <= kappa of
            (-1)^|sigma| [kappa sigma] [c]_{(kappa,sigma)} / [a]_sigma  X*_sigma.

    The parameters default to (a, c) = (m, n); for |kappa| <= 2 the result
    must be exactly proportional to zonal_explicit or ValidationFailure is
    raised.  The proportionality factor is recorded on the result.
    """
    kappa = aspartition(kappa)
    _check_mn(m, n)
    if len(kappa) > m:
        raise LengthExceedsVariables(
            "partition %s too long for m=%d" % (kappa, m))
    a = Fraction(m if a_param is None else a_param)
    c = Fraction(n if c_param is None else c_param)
    cache = {}
    coeffs = {}
    for sigma in subpartitions(kappa):
        b = gen_binomial(kappa, sigma, m)
        if b == 0:
            continue
        a_s = hypergeom_coeff(a, sigma)
        if a_s == 0:
            raise UnsupportedPartition(
                "[a]_sigma = 0 at sigma=%s (a=%s)" % (sigma, a))
        cc = _jc_coeff(kappa, sigma, c, m, cache)
        term = Fraction(-1) ** sigma.size * b * cc / a_s
        if term != 0:
            coeffs[sigma] = coeffs.get(sigma, Fraction(0)) + term
    poly = SymmetricPolynomial(m, coeffs)
    scale = None
    if kappa.size <= 2:
        ref = zonal_explicit(kappa, m, n).poly
        lead = poly.coeffs.get(kappa)
        if not lead:
            raise ValidationFailure(
                "general form lost its leading term", poly, ref)
        scale = ref.coeffs[kappa] / lead
        if poly.scale(scale) != ref:
            raise ValidationFailure(
                "general form not proportional to the explicit form for %s"
                % kappa, poly, ref)
    return ZonalPolynomial(kappa, m, n, poly, scale_to_explicit=scale)


def normalize_zonal(Z):
    "rescale so that Z(1,...,1) = dim H_mu exactly; idempotent"
    ones = Z.at_ones()
    if ones == 0:
        raise DegenerateAtOnes("Z_%s vanishes at (1,...,1)" % Z.mu)
    target = dim_H(Z.mu, Z.n)
    scale = Fraction(target) / ones
    poly = Z.poly if scale == 1 else Z.poly.scale(scale)
    return ZonalPolynomial(Z.mu, Z.m, Z.n, poly, normalized=True,
                           scale_to_explicit=Z.scale_to_explicit)


def zonal_basis(m, n, t, experimental=False):
    """All Z_mu with |mu| <= t, len(mu) <= m, canonical order.

    Degrees above 2 need the (validated-by-proportionality-only-at-low-degree)
    general formula and are gated behind experimental=True.
    """
    _check_mn(m, n)
    if t > 2 and not experimental:
        raise DegreeTooHigh(
            "zonal basis of degree %d needs experimental=True (default depth 2)" % t)
    out = []
    for mu in partitions_up_to(t, max_len=m):
        if mu.size <= 2:
            out.append(zonal_explicit(mu, m, n))
        else:
            out.append(zonal_general(mu, m, n))
    return out


def aggregate_zonal(t, m, n, experimental=False):
    "the degree-t reproducing kernel: sum of the normalized Z_mu, |mu| <= t"
    total = SymmetricPolynomial.zero(m)
    for Z in zonal_basis(m, n, t, experimental=experimental):
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

    def reconstruct(self, experimental=False):
        "sum c_mu Z_mu as a SymmetricPolynomial"
        total = SymmetricPolynomial.zero(self.m)
        for Z in zonal_basis(self.m, self.n, self.degree, experimental=experimental):
            c = self.coeff(Z.mu)
            if c != 0:
                total = total + Z.poly.scale(c)
        return total

    def __repr__(self):
        bits = ", ".join("c%s=%s" % (mu, c) for mu, c in
                         sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key()))
        return "ZonalExpansion[m=%d, n=%d](%s)" % (self.m, self.n, bits)


def expand_in_zonal(f, m, n, experimental=False):
    """Exact change of basis to the unnormalized zonals: f = sum c_mu Z_mu.

    Triangular solve from the top degree down: Z_mu is the only basis
    element containing X*_mu, so each coefficient peels off in turn.
    """
    _check_mn(m, n)
    if f.m != m:
        raise OutOfRange("polynomial has %d variables, expected %d" % (f.m, m))
    deg = f.degree
    limit = 3 if experimental else 2
    if deg > limit:
        raise DegreeTooHigh(
            "degree %d exceeds the available zonal basis (depth %d)" % (deg, limit))
    basis = zonal_basis(m, n, deg, experimental=experimental)
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

def _angle_batch(n, m, samples, seed, block=32768):
    """Yield (count, y) blocks: squared cosines of the principal angles
    between the first-m-coordinates subspace and Haar-random subspaces."""
    rng = np.random.default_rng(seed)
    done = 0
    while done < samples:
        b = min(block, samples - done)
        g = rng.standard_normal((b, n, m)) + 1j * rng.standard_normal((b, n, m))
        q = np.linalg.qr(g, mode="reduced")[0]
        # basis of the fixed subspace is I[:, :m], so the overlap matrix
        # is just the first m rows of each sample
        sv = np.linalg.svd(q[:, :m, :], compute_uv=False)
        yield b, np.clip(sv * sv, 0.0, 1.0)
        done += b


def mc_zonal_inner(mu, nu, m, n, samples, seed=0, normalized=False):
    """Monte-Carlo estimate (and standard error) of the Haar inner product
    integral of Z_mu(y(a,c)) * Z_nu(y(a,c)) over random c, fixed a.

    Deterministic per seed: fixed block partition of the sample range.
    """
    mu = aspartition(mu)
    nu = aspartition(nu)
    Zm = zonal_explicit(mu, m, n) if mu.size <= 2 else zonal_general(mu, m, n)
    Zn = zonal_explicit(nu, m, n) if nu.size <= 2 else zonal_general(nu, m, n)
    if normalized:
        Zm = normalize_zonal(Zm)
        Zn = normalize_zonal(Zn)
    s1 = 0.0
    s2 = 0.0
    for b, y in _angle_batch(n, m, samples, seed):
        vals = Zm.eval_batch(y)
        vals = vals * (vals if mu == nu and Zm.poly == Zn.poly
                       else Zn.eval_batch(y))
        s1 += float(vals.sum())
        s2 += float((vals * vals).sum())
    est = s1 / samples
    if samples > 1:
        var = max(s2 - s1 * s1 / samples, 0.0) / (samples - 1)
        stderr = (var / samples) ** 0.5
    else:
        stderr = float("inf")
    return est, stderr


def mc_function_inner(f, g, a, b, samples, seed=0):
    """Monte-Carlo estimate of the kernel pairing: the Haar integral of
    f(y(a,c)) * g(y(b,c)) over random c for fixed subspaces a, b."""
    n, m = a.n, a.m
    rng = np.random.default_rng(seed)
    Ba = a.basis.conj().T
    Bb = b.basis.conj().T
    s1 = 0.0
    s2 = 0.0
    done = 0
    block = 32768
    while done < samples:
        blk = min(block, samples - done)
        g_ = rng.standard_normal((blk, n, m)) + 1j * rng.standard_normal((blk, n, m))
        q = np.linalg.qr(g_, mode="reduced")[0]
        ya = np.linalg.svd(Ba @ q, compute_uv=False)
        yb = np.linalg.svd(Bb @ q, compute_uv=False)
        vals = f.eval_batch(np.clip(ya * ya, 0.0, 1.0))
        vals = vals * g.eval_batch(np.clip(yb * yb, 0.0, 1.0))
        s1 += float(vals.sum())
        s2 += float((vals * vals).sum())
        done += blk
    est = s1 / samples
    var = max(s2 - s1 * s1 / samples, 0.0) / (samples - 1)
    return est, (var / samples) ** 0.5
