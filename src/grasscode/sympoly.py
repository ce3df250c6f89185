"""Exact symmetric-polynomial arithmetic in the normalized-Schur basis.

A SymmetricPolynomial on m variables is stored as a finite Fraction
combination of the X*_sigma: Schur polynomials scaled so X*_sigma(1,...,1)=1.
That basis is the native language of the zonal machinery.  A float or complex
coefficient is refused, never rounded into a Fraction.

One exact primitive multiplies by a power sum p_j = sum_i y_i^j: the
Murnaghan-Nakayama rule moves one bead of sigma's bead set up by j (Macdonald,
Symmetric Functions and Hall Polynomials, I.3 and I.7).  It builds the
centered power sums q_k = sum_i (y_i - 1/2)^k, k <= m, their products
q_lambda = prod q_(lambda_i) (one cached change of basis per degree and m),
and every product of polynomials.  Float evaluation reads only the q_k of each
point through those exact coefficients, so a code's pairs need
tr((W^dagger W - I/2)^k) and not their angles.

Exact evaluation at rational points is the Jacobi-Trudi determinant
det[h_(sigma_i - i + j)] of complete homogeneous sums, in integers over a
common denominator; it never reads the change of basis, so it stays the
oracle for the float route.  The monomial basis and the bialternant
determinant ratio live with the test suite's oracles.  The zonal construction
works in integers and builds each table once per (kappa, m, n) (zonal.py);
the shapes it and the bead moves produce are one Partition per
(exponents, m).
"""

from fractions import Fraction
from functools import cache
from math import comb, lcm

import numpy as np

from .errors import (InexactCoefficient, LengthExceedsVariables, OutOfRange,
                     VariableCountMismatch)
from .partitions import Partition, aspartition, partitions_of, partitions_up_to
from .dims import check_integer, weyl_dim

_EMPTY = Partition(())


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


class SymmetricPolynomial:
    """Symmetric polynomial on m variables, exact coefficients in the
    X*-basis (normalized Schur)."""

    __slots__ = ("m", "coeffs", "_power")

    def __init__(self, m, coeffs):
        self.m = check_integer(m, "m", 1)
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
        self._power = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, c, m):
        return cls(m, {_EMPTY: _exact_coefficient(c)})

    @classmethod
    def x_star(cls, sigma, m):
        return cls(m, {aspartition(sigma): Fraction(1)})

    @classmethod
    def _unchecked(cls, m, coeffs):
        "on `coeffs` as they are: nonzero Fractions keyed by shapes that fit m"
        out = cls.__new__(cls)
        out.m, out.coeffs, out._power = int(m), coeffs, None
        return out

    # -- views ------------------------------------------------------------

    @property
    def degree(self):
        return max((s.size for s in self.coeffs), default=0)

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
        # other = sum c_lambda q_lambda: each q_k is a few bead moves
        out = {}
        for lam, c in other.to_power_sums().items():
            term = self.coeffs
            for k in lam.parts:
                term = _times_q(term, k, self.m)
            _accumulate(out, term, c)
        return SymmetricPolynomial(self.m, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, SymmetricPolynomial)
                and self.m == other.m and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.m, frozenset(self.coeffs.items())))

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, y):
        """exact Fraction if every coordinate is an exact scalar
        (_exact_coefficient), float if one is a float; a bool is refused"""
        y = list(y)
        if len(y) != self.m:
            raise VariableCountMismatch(
                "expected %d values, got %d" % (self.m, len(y)))
        y = [v if isinstance(v, _INEXACT) else _exact_coefficient(v) for v in y]
        if all(isinstance(v, Fraction) for v in y):
            return self._evaluate_exact(y)
        return float(self.eval_batch(np.asarray(y, dtype=float)[None, :])[0])

    __call__ = evaluate

    def _evaluate_exact(self, y):
        """Jacobi-Trudi, in integers: y_i = a_i / D, the Schur s_sigma(a) =
        det[h_(sigma_i - i + j)(a)], and s_sigma(y) = s_sigma(a) / D^|sigma|"""
        D = lcm(*(v.denominator for v in y))
        h = [1] + [0] * self.degree        # complete homogeneous sums h_k(a)
        for v in y:
            a = v.numerator * (D // v.denominator)
            for k in range(1, len(h)):
                h[k] += a * h[k - 1]
        total = Fraction(0)
        for sig, c in self.coeffs.items():
            det = _int_det([[h[s - i + j] if s - i + j >= 0 else 0
                             for j in range(len(sig))]
                            for i, s in enumerate(sig.parts)])
            total += c * Fraction(det, schur_norm(sig, self.m) * D ** sig.size)
        return total

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
        "f(1,...,1): the coefficient sum (every X* is 1 there), in integers"
        D = lcm(*(c.denominator for c in self.coeffs.values()))
        return Fraction(sum(c.numerator * (D // c.denominator)
                            for c in self.coeffs.values()), D)


def _accumulate(acc, coeffs, scale=None):
    "acc += scale * coeffs (scale None: 1), in place on coefficient dicts"
    for s, c in coeffs.items():
        if scale is not None:
            c = scale * c
        acc[s] = acc[s] + c if s in acc else c


# float evaluation reads power sums of y - CENTER, which cancel far less on
# [0, 1] (degree-6 zonals of G(2,4): 4e-15 of Z(1) against 1.3e-13 at 0)
CENTER = Fraction(1, 2)
_power_cache = {}   # m: (the highest degree built, its table)


def _power_basis(d, m):
    """{sigma: {lambda: Fraction}}: each X*_sigma, |sigma| <= d, in the basis
    q_lambda = prod q_(lambda_i), parts <= m, of q_k = sum (y_i - CENTER)^k:
    the q_lambda expanded in X* by bead moves, that matrix inverted exactly.
    It is triangular by degree, so the table cached for m at the highest
    degree asked serves each lower d by its rows |sigma| <= d."""
    top, table = _power_cache.get(m, (-1, None))
    if top >= d:
        return {sig: row for sig, row in table.items() if sig.size <= d}
    lams = [lam for k in range(d + 1) for lam in partitions_of(k, max_part=m)]
    sigs = partitions_up_to(d, max_len=m)
    q = {(): {_EMPTY: Fraction(1)}}
    for lam in lams[1:]:   # each prefix of lam comes before it
        q[lam.parts] = _times_q(q[lam.parts[:-1]], lam.parts[-1], m)
    rows = [[q[lam.parts].get(sig, Fraction(0)) for sig in sigs]
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
    table = {sig: {lam: row[n + j] for j, lam in enumerate(lams) if row[n + j]}
             for sig, row in zip(sigs, rows)}
    _power_cache[m] = d, table
    return table


def _place(used, e):
    """put exponent e in front of the descending tuple `used` and sort:
    (the sign of that sort, the sorted tuple), or None if e is used already
    (the alternant would have two equal columns)"""
    if e in used:
        return None
    above = 0
    for u in used:
        if u < e:
            break
        above += 1
    return -1 if above % 2 else 1, used[:above] + (e,) + used[above:]


@cache
def _shape(exponents, m):
    """the Schur shape of the alternant det[y_i^(r_j)], r descending: one
    Partition per (exponents, m)"""
    return Partition([e - (m - 1 - j) for j, e in enumerate(exponents)])


def _times_p(coeffs, j, m):
    """X* coefficients times p_j = sum_i y_i^j, j >= 1 (Murnaghan-Nakayama):
    move one bead of sigma's beads sigma_i + m - i up by j onto a free
    place, with sign (-1)^(beads passed), and rescale s_lambda / s_sigma by
    the Schur norms"""
    out = {}
    for sig, c in coeffs.items():
        beads = tuple(s + m - 1 - i for i, s in enumerate(sig.pad(m)))
        for i, b in enumerate(beads):
            moved = _place(beads[:i] + beads[i + 1:], b + j)
            if moved is None:
                continue
            # i beads sit above b: taking it out first is a sign (-1)^i
            sign, r = moved
            lam = _shape(r, m)
            v = c * Fraction((-sign if i % 2 else sign) * schur_norm(lam, m),
                             schur_norm(sig, m))
            out[lam] = out[lam] + v if lam in out else v
    return out


def _times_q(coeffs, k, m):
    """X* coefficients times q_k = sum_i (y_i - CENTER)^k
    = sum_j C(k, j) (-CENTER)^(k-j) p_j, with p_0 = m"""
    out = {}
    _accumulate(out, coeffs, m * (-CENTER) ** k)
    for j in range(1, k + 1):
        _accumulate(out, _times_p(coeffs, j, m),
                    comb(k, j) * (-CENTER) ** (k - j))
    return out


def _int_det(M):
    "determinant of a square integer matrix, fraction-free (Bareiss)"
    M = [list(row) for row in M]
    n, sign, prev = len(M), 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if M[r][k]), None)
            if piv is None:
                return 0
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[-1][-1] if n else 1


_INEXACT = (float, complex, np.floating, np.complexfloating)


def _exact_coefficient(c):
    """c as a Fraction, the one rule for every exact scalar: a float or
    complex (rounded already) is refused, and so is text that is no rational
    (InexactCoefficient) and a bool (OutOfRange)"""
    if isinstance(c, _INEXACT):
        raise InexactCoefficient(
            "inexact coefficient %r: pass an int, Fraction or string" % (c,))
    if isinstance(c, (bool, np.bool_)):
        raise OutOfRange("a bool is not a number: %r" % (c,))
    try:
        return Fraction(c)
    except (ValueError, ZeroDivisionError, TypeError):
        raise InexactCoefficient("not an exact scalar: %r" % (c,)) from None


# ---------------------------------------------------------------------------
# hypergeometric coefficients

def _exact(a):
    "an int stays an int; anything else is an exact scalar (a Fraction)"
    return a if type(a) is int else _exact_coefficient(a)


def ascending_product(a, s):
    "(a)_s = a (a+1) ... (a+s-1), exact: an int for an int a, else a Fraction"
    a = _exact(a)
    out = 1 if isinstance(a, int) else Fraction(1)
    for i in range(check_integer(s, "s")):
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
