"""Exact symmetric-polynomial arithmetic in the normalized-Schur basis.

A SymmetricPolynomial on m variables is stored as a finite Fraction
combination of the X*_sigma: Schur polynomials scaled so X*_sigma(1,...,1)=1.
That basis is the native language of the zonal machinery; conversion to and
from the monomial basis (Kostka numbers via semistandard tableaux) powers
multiplication and exact evaluation.  A float or complex coefficient is
refused, never rounded into a Fraction.

Exact evaluation at rational points is by monomial expansion, the oracle for
the float route.  Float evaluation reads only the centered power sums
q_k = sum_i (y_i - 1/2)^k, k <= m, of each point, through exact coefficients
in the basis q_lambda = prod q_(lambda_i) (one cached change of basis per
degree and m), so a code's pairs need tr((W^dagger W - I/2)^k) and not their
angles.  The bialternant determinant ratio that cross-checks the monomial
route lives with the test suite's oracles.  The zonal construction works in
integers and builds each polynomial once.
"""

from fractions import Fraction
from math import comb, lcm

import numpy as np

from .errors import (InexactCoefficient, LengthExceedsVariables,
                     VariableCountMismatch)
from .partitions import Partition, aspartition, partitions_of, partitions_up_to
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
    "distinct permutations of lam padded to length m (by insertion, not m!)"
    key = (lam.parts, m)
    if key not in _orbit_cache:
        orbit = {()}
        for v in lam.pad(m):
            orbit = {o[:i] + (v,) + o[i:]
                     for o in orbit for i in range(len(o) + 1)}
        _orbit_cache[key] = sorted(orbit)
    return _orbit_cache[key]


def monomial_eval_exact(mono, m, y):
    "evaluate a monomial-basis dict at exact points, y_i = a_i / D (ints)"
    y = [Fraction(v) for v in y]
    D = lcm(*(v.denominator for v in y))
    a = [v.numerator * (D // v.denominator) for v in y]
    total = Fraction(0)
    for lam, c in mono.items():
        s = 0
        for expo in _orbit(lam, m):
            term = 1
            for ai, e in zip(a, expo):
                if e:
                    term *= ai ** e
            s += term
        total += Fraction(c) * Fraction(s, D ** lam.size)
    return total


class SymmetricPolynomial:
    """Symmetric polynomial on m variables, exact coefficients in the
    X*-basis (normalized Schur)."""

    __slots__ = ("m", "coeffs", "_mono", "_power")

    def __init__(self, m, coeffs):
        self.m = int(m)
        clean = {}
        for sig, c in coeffs.items():
            sig = aspartition(sig)
            if len(sig) > self.m:
                raise LengthExceedsVariables(
                    "partition %s too long for %d variables" % (sig, self.m))
            if not isinstance(c, Fraction):
                c = _exact_coefficient(c)
            if c:
                clean[sig] = clean[sig] + c if sig in clean else c
        self.coeffs = {s: c for s, c in clean.items() if c != 0}
        self._mono = self._power = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, c, m):
        return cls(m, {_EMPTY: _exact_coefficient(c)})

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
        c = _exact_coefficient(c)
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
        Z = Y - float(CENTER)
        k = range(1, max(1, min(self.degree, self.m)) + 1)
        return self.eval_power_sums(np.stack([(Z**j).sum(-1) for j in k], -1))

    def to_power_sums(self):
        "exact coefficients {lambda: Fraction} in _power_basis' q_lambda"
        if self._power is None:
            self._power = {}
            basis = _power_basis(self.degree, self.m)
            for sig, c in self.coeffs.items():
                _accumulate(self._power, basis[sig], c)
        return dict(self._power)

    def eval_power_sums(self, P):
        """vectorized float evaluation from centered power sums: P[..., j-1]
        = sum_i (y_i - CENTER)^j of each point, up to j = min(degree, m)"""
        P = np.asarray(P, dtype=float)
        need = min(self.degree, self.m)
        if P.shape[-1] < need:
            raise VariableCountMismatch(
                "need power sums up to q_%d, got %d" % (need, P.shape[-1]))
        out = np.zeros(P.shape[:-1])
        for lam, c in self.to_power_sums().items():
            out += float(c) * np.prod(P[..., [k - 1 for k in lam.parts]], -1)
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


# float evaluation reads power sums of y - CENTER, which cancel far less on
# [0, 1] (degree-6 zonals of G(2,4): 4e-15 of Z(1) against 1.3e-13 at 0)
CENTER = Fraction(1, 2)
_power_cache = {}


def _power_basis(d, m):
    """{sigma: {lambda: Fraction}}: each X*_sigma, |sigma| <= d, in the basis
    q_lambda = prod q_(lambda_i), parts <= m, of q_k = sum (y_i - CENTER)^k:
    the q_lambda expanded in X*, that matrix inverted exactly; cached."""
    if (d, m) not in _power_cache:
        lams = [lam for k in range(d + 1)
                for lam in partitions_of(k, max_part=m)]
        sigs = partitions_up_to(d, max_len=m)
        q = {(): SymmetricPolynomial.constant(1, m)}
        for k in range(1, min(d, m) + 1):
            mono = {Partition(j): comb(k, j) * (-CENTER) ** (k - j)
                    for j in range(1, k + 1)}
            mono[_EMPTY] = m * (-CENTER) ** k     # the monomial m_() is 1
            q[k,] = SymmetricPolynomial.from_monomial(m, mono)
        for lam in lams[1:]:   # each prefix of lam comes before it
            q[lam.parts] = q[lam.parts[:-1]] * q[lam.parts[-1],]
        rows = [[q[lam.parts].coeffs.get(sig, Fraction(0)) for sig in sigs]
                + [Fraction(int(lam == mu)) for mu in lams] for lam in lams]
        for c in range(len(rows)):   # Gauss-Jordan: [A | I] -> [I | A^-1]
            piv = next(r for r in range(c, len(rows)) if rows[r][c])
            rows[c], rows[piv] = rows[piv], rows[c]
            rows[c] = [x / rows[c][c] for x in rows[c]]
            for r, row in enumerate(rows):
                if r != c and row[c]:
                    rows[r] = [x - row[c] * y if y else x
                               for x, y in zip(row, rows[c])]
        n = len(sigs)
        _power_cache[d, m] = {
            sig: {lam: row[n + j] for j, lam in enumerate(lams) if row[n + j]}
            for sig, row in zip(sigs, rows)}
    return _power_cache[d, m]


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


def _exact_coefficient(c):
    "c as a Fraction; a float or complex (rounded already) is refused"
    if isinstance(c, (float, complex, np.floating, np.complexfloating)):
        raise InexactCoefficient(
            "inexact coefficient %r: pass an int, Fraction or string" % (c,))
    return Fraction(c)


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
