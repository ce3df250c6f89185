"""Code-size and design-size bounds, all exact rational arithmetic.

Upper bounds for A-codes: dimension-count (absolute) bounds, the
zonal-expansion (relative) bound engine, and the closed one/two-distance
corollaries.  Lower bounds for designs, the simplex/orthoplex separation
thresholds, and the combined bound table.

Every value is a Fraction; floating point never enters, so results are
bit-identical across runs.  The one float step is the optional check of a
supplied code, which reads the code's shared pair geometry.  A bound that
fails its regime conditions is still reported, with per-condition margins,
and marked not applicable.
"""

from fractions import Fraction
from math import comb
from typing import NamedTuple, Optional

import numpy as np

from .core_linalg import Code, principal_angles
from .dims import check_mn, dim_Hk, hom_dim_bound
from .errors import DegenerateDenominator, OutOfRange
from .partitions import Partition
from .zonal import annihilator_sympoly, expand_in_zonal

_EMPTY = Partition(())


class Condition(NamedTuple):
    text: str
    holds: bool
    margin: Optional[Fraction]   # None when caller-asserted / unchecked
    strict: bool
    boundary: bool


class BoundResult(NamedTuple):
    value: Optional[Fraction]    # None only when the formula degenerates
    applicable: bool
    conditions: tuple
    kind: str

    def __str__(self):
        val = "undefined" if self.value is None else str(self.value)
        bits = ["%s: %s" % (self.kind, val),
                "applicable" if self.applicable else "NOT applicable"]
        for c in self.conditions:
            mark = "ok" if c.holds else "VIOLATED"
            if c.boundary:
                mark += " (boundary)"
            if c.margin is None:
                bits.append("  %s: %s" % (c.text, mark))
            else:
                bits.append("  %s: %s, margin %s" % (c.text, mark, c.margin))
        return "\n".join(bits)


def _cond(text, margin, strict):
    margin = Fraction(margin)
    holds = margin > 0 if strict else margin >= 0
    return Condition(text, holds, margin, strict, margin == 0)


def _asserted(text):
    return Condition(text, True, None, False, False)


def _result(kind, value, conditions):
    return BoundResult(value, all(c.holds for c in conditions),
                       tuple(conditions), kind)


def absolute_code_bound(k, m, n):
    """Dimension-count upper bounds for a k-distance code in G(m,n):
    (hom_bound, h_bound).

    hom_bound uses the exact values n^2 (k=1) and C(n^2,2) (k=2, m>1),
    falling back to the generic count C(n^2+k-1, k); for k=2, m=1 the exact
    space is smaller and dim H_2(1,n) is used.  h_bound = dim H_k(m,n).
    """
    if k < 0:
        raise OutOfRange("k must be >= 0, got %d" % k)
    check_mn(m, n)
    h_bound = dim_Hk(k, m, n)
    if k == 0:
        hom = 1
    elif k == 1:
        hom = n * n
    elif k == 2:
        hom = comb(n * n, 2) if m > 1 else dim_Hk(2, 1, n)
    else:
        hom = hom_dim_bound(k, n)
    return hom, h_bound


def relative_code_bound(f, m, n, code=None, tol=1e-9):
    """Upper bound |S| <= f(1,...,1)/c_0 for an f-code, where f = sum c_mu Z_mu
    must have c_mu >= 0 for all mu and c_0 > 0, and f <= 0 on distinct pairs.

    The sign conditions are checked exactly from the zonal expansion.  The
    nonpositivity hypothesis is checked numerically when a code is supplied
    (a plain list of subspaces is made a Code): f is evaluated once on the
    squared cosines of every distinct pair from the code's shared
    PairGeometry, and the pair where it is largest is confirmed through
    principal_angles.  Otherwise it is recorded as the caller's obligation.
    """
    exp = expand_in_zonal(f, m, n)
    conds = []
    for mu in sorted(exp.coeffs, key=Partition.sort_key):
        if mu == _EMPTY:
            continue
        conds.append(_cond("c_%s >= 0" % mu, exp.coeff(mu), strict=False))
    c0 = exp.c0
    conds.append(_cond("c_0 > 0", c0, strict=True))
    if code is not None:
        if not isinstance(code, Code):
            code = Code(code)
        i, j = np.triu_indices(len(code), 1)
        vals = f.eval_batch(code.geometry.angles()[i, j])
        holds = True
        if vals.size:
            # the decisive pair is recomputed through the independent
            # per-pair SVD, so the cached batch is never the only witness
            k = int(np.argmax(vals))
            y = principal_angles(code[i[k]], code[j[k]])
            holds = max(float(vals[k]), f.evaluate(list(y))) <= tol
        conds.append(Condition("f <= 0 on distinct pairs (checked)",
                               holds, None, False, False))
    else:
        conds.append(_asserted("f <= 0 on distinct pairs (caller-asserted)"))
    value = None if c0 == 0 else f.at_ones() / c0
    return _result("relative code bound", value, conds)


def one_distance_bound(alpha, m, n):
    "upper bound n(m - alpha)/(m^2 - n*alpha) for a one-distance code"
    alpha = Fraction(alpha)
    cond = _cond("alpha < m^2/n", Fraction(m * m, n) - alpha, strict=True)
    den = Fraction(m * m) - n * alpha
    value = None if den == 0 else Fraction(n) * (m - alpha) / den
    return _result("one-distance bound", value, [cond])


def two_distance_bound(alpha, beta, m, n):
    """Upper bound for a {alpha, beta}-code:

        n(m-alpha)(m-beta) / (m^2 [ (m+1)^2/(2(n+1)) + (m-1)^2/(2(n-1))
                                    - (alpha+beta) + n*alpha*beta/m^2 ])

    Conditions: alpha+beta <= 2(m^2 n - 4m + n)/(n^2 - 4) (non-strict) and
    alpha+beta - n*alpha*beta/m^2 < (m^2 n - 2m + n)/(n^2 - 1) (strict).
    """
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    if m < 1 or n < 2 or m > n:
        raise OutOfRange("need 1 <= m <= n and n >= 2, got m=%d n=%d" % (m, n))
    s = alpha + beta
    p = alpha * beta
    # the printed threshold 2(m^2 n - 4m + n)/(n^2 - 4) equals
    # (m+1)^2/(n+2) + (m-1)^2/(n-2); the latter form survives n = 2 when m = 1
    if n == 2 and m > 1:
        raise DegenerateDenominator("condition threshold undefined at n=2, m>1")
    thr1 = Fraction((m + 1) ** 2, n + 2)
    if m > 1:
        thr1 += Fraction((m - 1) ** 2, n - 2)
    c1 = _cond("alpha+beta <= 2(m^2 n - 4m + n)/(n^2 - 4)", thr1 - s,
               strict=False)
    c2 = _cond("alpha+beta - n*alpha*beta/m^2 < (m^2 n - 2m + n)/(n^2 - 1)",
               Fraction(m * m * n - 2 * m + n, n * n - 1)
               - (s - Fraction(n, m * m) * p),
               strict=True)
    bracket = (Fraction((m + 1) ** 2, 2 * (n + 1))
               + Fraction((m - 1) ** 2, 2 * (n - 1))
               - s + Fraction(n, m * m) * p)
    if bracket == 0:
        raise DegenerateDenominator(
            "two-distance denominator vanishes at alpha=%s beta=%s" % (alpha, beta))
    value = Fraction(n) * (m - alpha) * (m - beta) / (m * m * bracket)
    return _result("two-distance bound", value, [c1, c2])


class SimplexOrthoplex(NamedTuple):
    simplex_alpha: Fraction
    orthoplex_beta: Fraction
    regime: str


def simplex_orthoplex(N, m, n):
    """Separation thresholds for N subspaces in G(m,n): some inner product is
    at least the simplex threshold m(mN - n)/(nN - n); and once N > n^2 the
    largest inner product is at least the orthoplex threshold m^2/n."""
    if N < 2:
        raise OutOfRange("need N >= 2, got %d" % N)
    simplex = Fraction(m * (m * N - n), n * N - n)
    orthoplex = Fraction(m * m, n)
    regime = "simplex" if N <= n * n else "orthoplex"
    return SimplexOrthoplex(simplex, orthoplex, regime)


def size_from_simplex_alpha(alpha, m, n):
    "invert the simplex threshold: the N with m(mN - n)/(nN - n) = alpha"
    alpha = Fraction(alpha)
    den = n * alpha - m * m
    if den == 0:
        raise DegenerateDenominator("no finite N at alpha = m^2/n")
    return n * (alpha - m) / den


def design_absolute_bound(t, m, n):
    "lower bound dim H_floor(t/2)(m,n) on the size of a t-design"
    if t < 0:
        raise OutOfRange("t must be >= 0, got %d" % t)
    return dim_Hk(t // 2, m, n)


def relative_design_bound(f, t, m, n):
    """Lower bound |S| >= f(1,...,1)/c_0 for a t-design, where f >= 0 on the
    design (caller's obligation) and c_mu <= 0 for every |mu| > t."""
    exp = expand_in_zonal(f, m, n)
    conds = []
    for mu in sorted(exp.coeffs, key=Partition.sort_key):
        if mu.size > t:
            conds.append(_cond("c_%s <= 0 (degree > t)" % mu, -exp.coeff(mu),
                               strict=False))
    c0 = exp.c0
    conds.append(_cond("c_0 > 0", c0, strict=True))
    conds.append(_asserted("f >= 0 on the design (caller-asserted)"))
    value = None if c0 == 0 else f.at_ones() / c0
    return _result("relative design bound", value, conds)


def code_design_exact_size(f, t, m, n):
    """The forced cardinality f(1,...,1)/c_0 of a code that is both an f-code
    and a t-design with t >= deg(f) and nonnegative zonal coefficients.

    Returned as an exact rational; integrality is the caller's check."""
    if t < f.degree:
        raise OutOfRange("forced size needs t >= deg f (t=%d, deg=%d)"
                         % (t, f.degree))
    exp = expand_in_zonal(f, m, n)
    bad = [mu for mu in exp.coeffs if exp.coeff(mu) < 0]
    if bad:
        raise OutOfRange("negative zonal coefficient at %s" %
                         ", ".join(str(b) for b in sorted(bad, key=Partition.sort_key)))
    if exp.c0 <= 0:
        raise OutOfRange("c_0 must be positive, got %s" % exp.c0)
    return f.at_ones() / exp.c0


# ---------------------------------------------------------------------------
# the combined bound table

class BoundTable:
    """The four headline cells for G(m,n): absolute one/two-distance bounds
    and the relative one/two-distance formulas with their condition rows,
    symbolic in alpha, beta (one_distance_bound and two_distance_bound give
    the numbers)."""

    def __init__(self, m, n):
        check_mn(m, n)
        self.m = m
        self.n = n
        hom1, _ = absolute_code_bound(1, m, n)
        hom2, _ = absolute_code_bound(2, m, n)
        self.abs_one = hom1
        self.abs_two = hom2
        self.abs_two_note = ("" if m > 1 else
                             "m=1: generic C(n^2,2) replaced by dim H_2(1,n)")

    def rows(self):
        m, n = self.m, self.n
        thr1 = Fraction(m * m, n)
        if n > 2:
            thr2a = Fraction((m + 1) ** 2, n + 2) + Fraction((m - 1) ** 2, n - 2)
        else:
            # n = 2 forces m = 1 here and the (m-1)^2 term drops out
            thr2a = Fraction((m + 1) ** 2, n + 2)
        thr2b = Fraction(m * m * n - 2 * m + n, n * n - 1)
        rows = [
            ("absolute |A|=1", str(self.abs_one), "n^2", ""),
            ("absolute |A|=2", str(self.abs_two),
             "C(n^2,2) (m>1)" if m > 1 else "dim H_2(1,n)", self.abs_two_note),
            ("relative |A|=1", "n(m-alpha)/(m^2 - n alpha)",
             "alpha < m^2/n = %s" % thr1, ""),
            ("relative |A|=2",
             "n(m-alpha)(m-beta)/(m^2[(m+1)^2/(2(n+1)) + (m-1)^2/(2(n-1))"
             " - (alpha+beta) + n alpha beta/m^2])",
             "alpha+beta <= %s" % thr2a, ""),
            ("relative |A|=2 condition",
             "", "alpha+beta - n alpha beta/m^2 < %s" % thr2b, ""),
        ]
        return rows

    def text(self):
        rows = self.rows()
        head = ("kind", "value", "conditions", "note")
        table = [head] + [tuple(r) for r in rows]
        widths = [max(len(row[i]) for row in table) for i in range(4)]
        lines = ["bounds for G(%d,%d)" % (self.m, self.n)]
        for row in table:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        return "\n".join(lines)

    def csv(self):
        import csv as _csv
        import io as _io
        buf = _io.StringIO()
        w = _csv.writer(buf)
        w.writerow(["kind", "value", "applicable", "conditions"])
        w.writerow(["absolute |A|=1", str(self.abs_one), "true", ""])
        w.writerow(["absolute |A|=2", str(self.abs_two), "true",
                    self.abs_two_note])
        rows = self.rows()
        w.writerow(["relative |A|=1", rows[2][1], "see conditions", rows[2][2]])
        w.writerow(["relative |A|=2", rows[3][1], "see conditions",
                    rows[3][2] + "; " + rows[4][2]])
        return buf.getvalue()


def bound_table(m, n):
    return BoundTable(m, n)


def dgs_one_distance(alpha, n):
    "printed m=1 one-distance form n(1-alpha)/(1-n*alpha)"
    alpha = Fraction(alpha)
    return Fraction(n) * (1 - alpha) / (1 - n * alpha)


def dgs_two_distance(alpha, beta, n):
    "printed m=1 two-distance form n(n+1)(1-a)(1-b)/(2-(n+1)(a+b)+n(n+1)ab)"
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    den = 2 - (n + 1) * (alpha + beta) + n * (n + 1) * alpha * beta
    return Fraction(n) * (n + 1) * (1 - alpha) * (1 - beta) / den


def make_annihilator(values, m):
    "convenience re-export: the annihilator polynomial of an inner-product set"
    return annihilator_sympoly(values, m)
