"""Exact symmetric-polynomial arithmetic in the normalized-Schur basis.

A SymmetricPolynomial on m variables is stored as a finite Fraction
combination of the X*_sigma: Schur polynomials scaled so X*_sigma(1,...,1)=1.
That basis is the native language of the zonal machinery; conversion to and
from the monomial basis (Kostka numbers via semistandard tableaux) powers
multiplication and evaluation.

Evaluation is by monomial expansion: exact on rational points, vectorized on
float arrays.  The bialternant determinant ratio that cross-checks it lives
with the test suite's oracles.  Exact coefficients are Fractions; the zonal
construction works in integers and builds each polynomial once.
"""

from fractions import Fraction
from itertools import permutations

import numpy as np

from .errors import (LengthExceedsVariables, VariableCountMismatch)
from .partitions import Partition, aspartition
from .dims import weyl_dim

_EMPTY = Partition(())


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


_schur_norm_cache = {}


def schur_norm(sigma, m):
    "X_sigma(1,...,1): number of semistandard tableaux, by the product formula"
    sigma = aspartition(sigma)
    key = (sigma.parts, m)
    if key not in _schur_norm_cache:
        if len(sigma) > m:
            raise LengthExceedsVariables(
                "Schur of shape %s vanishes on %d variables" % (sigma, m))
        _schur_norm_cache[key] = weyl_dim(sigma.pad(m))
    return _schur_norm_cache[key]


_orbit_cache = {}


def _orbit(lam, m):
    "distinct permutations of lam padded to length m"
    key = (lam.parts, m)
    if key not in _orbit_cache:
        _orbit_cache[key] = sorted(set(permutations(lam.pad(m))))
    return _orbit_cache[key]


def monomial_eval_exact(mono, m, y):
    "evaluate a monomial-basis dict at exact points"
    total = Fraction(0)
    for lam, c in mono.items():
        s = Fraction(0)
        for expo in _orbit(lam, m):
            term = Fraction(1)
            for yi, e in zip(y, expo):
                if e:
                    term *= Fraction(yi) ** e
            s += term
        total += Fraction(c) * s
    return total


class SymmetricPolynomial:
    """Symmetric polynomial on m variables, exact coefficients in the
    X*-basis (normalized Schur)."""

    __slots__ = ("m", "coeffs", "_mono", "_terms")

    def __init__(self, m, coeffs):
        self.m = int(m)
        clean = {}
        for sig, c in coeffs.items():
            sig = aspartition(sig)
            if len(sig) > self.m:
                raise LengthExceedsVariables(
                    "partition %s too long for %d variables" % (sig, self.m))
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if c:
                clean[sig] = clean[sig] + c if sig in clean else c
        self.coeffs = {s: c for s, c in clean.items() if c != 0}
        self._mono = None
        self._terms = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, m):
        return cls(m, {})

    @classmethod
    def constant(cls, c, m):
        return cls(m, {_EMPTY: Fraction(c)})

    @classmethod
    def x_star(cls, sigma, m):
        return cls(m, {aspartition(sigma): Fraction(1)})

    @classmethod
    def power_sum(cls, m):
        "sum of the variables: m * X*_(1)"
        return cls(m, {Partition(1): Fraction(m)})

    @classmethod
    def from_monomial(cls, m, mono):
        """Convert a monomial-basis dict {lambda: coeff} to the X*-basis.

        Triangular peel: within each degree, the lex-largest surviving
        monomial is the leading term of its Schur."""
        work = {}
        for lam, c in mono.items():
            lam = aspartition(lam)
            if len(lam) > m:
                raise LengthExceedsVariables(
                    "monomial %s needs more than %d variables" % (lam, m))
            c = Fraction(c)
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
        return cls(m, out)

    # -- views ------------------------------------------------------------

    @property
    def degree(self):
        return max((s.size for s in self.coeffs), default=0)

    def to_monomial(self):
        "coefficients in the monomial basis {lambda: Fraction}"
        if self._mono is None:
            mono = {}
            for sig, c in self.coeffs.items():
                norm = schur_norm(sig, m := self.m)
                for lam, k in kostka_row(sig, m).items():
                    v = mono.get(lam, Fraction(0)) + c * Fraction(k, norm)
                    mono[lam] = v
            self._mono = {lam: c for lam, c in mono.items() if c != 0}
        return dict(self._mono)

    def __repr__(self):
        if not self.coeffs:
            return "SymPoly[m=%d](0)" % self.m
        bits = []
        for sig in sorted(self.coeffs, key=Partition.sort_key):
            c = self.coeffs[sig]
            if sig == _EMPTY:
                bits.append(str(c))
            else:
                bits.append("%s*X%s" % (c, sig))
        return "SymPoly[m=%d](%s)" % (self.m, " + ".join(bits))

    # -- arithmetic -------------------------------------------------------

    def _check(self, other):
        if self.m != other.m:
            raise VariableCountMismatch(
                "mixed variable counts %d and %d" % (self.m, other.m))

    def __add__(self, other):
        if not isinstance(other, SymmetricPolynomial):
            other = SymmetricPolynomial.constant(other, self.m)
        self._check(other)
        out = dict(self.coeffs)
        _accumulate(out, other.coeffs)
        return SymmetricPolynomial(self.m, out)

    __radd__ = __add__

    def __neg__(self):
        return SymmetricPolynomial(self.m, {s: -c for s, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, SymmetricPolynomial):
            other = SymmetricPolynomial.constant(other, self.m)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        c = Fraction(c)
        return SymmetricPolynomial(self.m, {s: c * v for s, v in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, SymmetricPolynomial):
            return self.scale(other)
        self._check(other)
        a = _full_expand(self.to_monomial(), self.m)
        b = _full_expand(other.to_monomial(), self.m)
        prod = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                prod[e] = prod.get(e, Fraction(0)) + ca * cb
        return SymmetricPolynomial.from_monomial(self.m, _collect_sorted(prod))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, SymmetricPolynomial)
                and self.m == other.m and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.m, frozenset(self.coeffs.items())))

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, y):
        "exact Fraction if all points are exact, float otherwise"
        y = list(y)
        if len(y) != self.m:
            raise VariableCountMismatch(
                "expected %d values, got %d" % (self.m, len(y)))
        if all(isinstance(v, (int, Fraction)) for v in y):
            return monomial_eval_exact(self.to_monomial(), self.m, y)
        return float(self.eval_batch(np.asarray(y, dtype=float)[None, :])[0])

    __call__ = evaluate

    def eval_batch(self, Y):
        "vectorized float evaluation on an (..., m) array of points"
        Y = np.asarray(Y, dtype=float)
        if Y.shape[-1] != self.m:
            raise VariableCountMismatch(
                "expected last axis %d, got %d" % (self.m, Y.shape[-1]))
        if self._terms is None:
            full = _full_expand(self.to_monomial(), self.m)
            self._terms = [(np.array(e), float(c)) for e, c in sorted(full.items())]
        out = np.zeros(Y.shape[:-1])
        for expo, c in self._terms:
            out += c * np.prod(Y ** expo, axis=-1)
        return out

    def at_ones(self):
        "f(1,...,1): just the coefficient sum, since every X* is 1 there"
        return sum(self.coeffs.values(), Fraction(0))


def _accumulate(acc, coeffs, scale=None):
    "acc += scale * coeffs (scale None: 1), in place on coefficient dicts"
    for s, c in coeffs.items():
        if scale is not None:
            c = scale * c
        acc[s] = acc[s] + c if s in acc else c


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


# ---------------------------------------------------------------------------
# hypergeometric coefficients

def _exact(a):
    "ints stay ints; anything else becomes a Fraction"
    return a if isinstance(a, int) else Fraction(a)


def ascending_product(a, s):
    "(a)_s = a (a+1) ... (a+s-1), exact: an int for an int a, else a Fraction"
    a = _exact(a)
    out = 1 if isinstance(a, int) else Fraction(1)
    for i in range(int(s)):
        out *= a + i
    return out


def hypergeom_coeff(a, sigma):
    "[a]_sigma = prod_i (a - i + 1)_{sigma_i}  (i counted from 1)"
    sigma = aspartition(sigma)
    a = _exact(a)
    out = 1 if isinstance(a, int) else Fraction(1)
    for i, s in enumerate(sigma.parts, start=1):
        out *= ascending_product(a - i + 1, s)
    return out
