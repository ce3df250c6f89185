"""The monomial basis m_lambda, as an independent exact oracle.

Kostka numbers from semistandard tableaux give each Schur polynomial in
monomials, so a SymmetricPolynomial converts to and from monomial
coefficients (from_monomial peels the lex-largest monomial of the top degree
off as the leading term of its Schur).  The library itself works only in
the X* basis, multiplying by bead moves and evaluating by Jacobi-Trudi; the
tests use these conversions to state polynomials and to check that route.
"""

from fractions import Fraction

from grasscode.errors import LengthExceedsVariables
from grasscode.partitions import Partition, aspartition
from grasscode.sympoly import (SymmetricPolynomial, _exact_coefficient,
                               schur_norm)


def _ssyt_weights(sigma, m):
    "weight vectors (counts of 1..m) of all semistandard tableaux of shape sigma"
    shape = sigma.parts
    if not shape:
        return [(0,) * m]
    rows = len(shape)
    out = []
    tab = [[0] * r for r in shape]

    def fill(r, c):
        if r == rows:
            w = [0] * m
            for row in tab:
                for v in row:
                    w[v - 1] += 1
            out.append(tuple(w))
            return
        nr, nc = (r, c + 1) if c + 1 < shape[r] else (r + 1, 0)
        lo = 1
        if c > 0:
            lo = max(lo, tab[r][c - 1])          # rows weakly increase
        if r > 0 and c < shape[r - 1]:
            lo = max(lo, tab[r - 1][c] + 1)      # columns strictly increase
        for v in range(lo, m + 1):
            tab[r][c] = v
            fill(nr, nc)

    fill(0, 0)
    return out


_kostka_cache = {}


def kostka_row(sigma, m):
    """Kostka numbers {lambda: K_{sigma,lambda}} for weights lambda with at
    most m parts; these are the monomial coefficients of the Schur X_sigma."""
    sigma = aspartition(sigma)
    key = (sigma.parts, m)
    if key in _kostka_cache:
        return _kostka_cache[key]
    if len(sigma) > m:
        raise LengthExceedsVariables(
            "Schur of shape %s vanishes on %d variables" % (sigma, m))
    counts = {}
    for w in _ssyt_weights(sigma, m):
        if tuple(sorted(w, reverse=True)) == w:   # one representative per orbit
            lam = Partition(w)
            counts[lam] = counts.get(lam, 0) + 1
    _kostka_cache[key] = counts
    return counts


_orbit_cache = {}


def _orbit(lam, m):
    "distinct permutations of lam padded to length m (by insertion, not m!)"
    key = (lam.parts, m)
    if key not in _orbit_cache:
        orbit = {()}
        for v in lam.pad(m):
            orbit = {o[:i] + (v,) + o[i:]
                     for o in orbit for i in range(len(o) + 1)}
        _orbit_cache[key] = sorted(orbit)
    return _orbit_cache[key]


def from_monomial(m, mono):
    """Convert a monomial-basis dict {lambda: coeff} to the X*-basis.

    Triangular peel: within each degree, the lex-largest surviving
    monomial is the leading term of its Schur."""
    work = {}
    for lam, c in mono.items():
        lam = aspartition(lam)
        if len(lam) > m:
            raise LengthExceedsVariables(
                "monomial %s needs more than %d variables" % (lam, m))
        c = _exact_coefficient(c)
        if c != 0:
            work[lam] = work.get(lam, Fraction(0)) + c
    out = {}
    while any(c != 0 for c in work.values()):
        live = [lam for lam, c in work.items() if c != 0]
        deg = max(lam.size for lam in live)
        tier = [lam for lam in live if lam.size == deg]
        sig = min(tier, key=lambda p: tuple(-x for x in p.parts))  # lex-largest
        norm = schur_norm(sig, m)
        b = work[sig] * norm            # X*_sig has 1/norm on m_sig
        out[sig] = out.get(sig, Fraction(0)) + b
        for lam, k in kostka_row(sig, m).items():
            work[lam] = work.get(lam, Fraction(0)) - b * Fraction(k, norm)
    return SymmetricPolynomial(m, out)


def to_monomial(p):
    "coefficients of p in the monomial basis {lambda: Fraction}"
    mono = {}
    for sig, c in p.coeffs.items():
        norm = schur_norm(sig, m := p.m)
        for lam, k in kostka_row(sig, m).items():
            v = mono.get(lam, Fraction(0)) + c * Fraction(k, norm)
            mono[lam] = v
    return {lam: c for lam, c in mono.items() if c != 0}


def _full_expand(mono, m):
    "monomial dict -> dict over all exponent vectors of length m"
    full = {}
    for lam, c in mono.items():
        for expo in _orbit(lam, m):
            full[expo] = Fraction(c)
    return full


def _collect_sorted(full):
    "exponent-vector dict -> monomial dict (keep one sorted representative)"
    mono = {}
    for expo, c in full.items():
        if tuple(sorted(expo, reverse=True)) == expo:
            mono[Partition(expo)] = c
    return mono
