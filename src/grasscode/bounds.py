"""Code-size and design-size bounds, all exact rational arithmetic.

Upper bounds for A-codes and lower bounds for designs: dimension-count
(absolute) bounds, one zonal-sign check (Delsarte's method) behind both
relative bounds, the closed one/two-distance corollaries, the
simplex/orthoplex separation thresholds, and the combined bound table.

Every value is a Fraction; floating point never enters (a float alpha or beta
is refused), so results are bit-identical across runs.  The one float step is
the optional check of a supplied code, which reads the code's shared pair
geometry.  A bound that fails its regime conditions is still reported, with
per-condition margins, and marked not applicable.
"""

from fractions import Fraction
from math import comb
from typing import NamedTuple, Optional

import numpy as np

from .core_linalg import Code, principal_angles
from .dims import check_integer, check_mn, dim_Hk, hom_dim_bound
from .errors import DegenerateDenominator, DimensionMismatch, OutOfRange
from .partitions import Partition
from .sympoly import _exact_coefficient
from .zonal import annihilator_sympoly, expand_in_zonal

NONPOS_SLACK = 1e-9   # a code's f <= 0 is checked as f <= NONPOS_SLACK


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


def _marginless(text, holds=True):
    "a condition with no exact margin: caller-asserted, or checked in floats"
    return Condition(text, holds, None, False, False)


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
    check_integer(k, "k")
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


def _zonal_sign_check(f, m, n, t=None, code=None):
    """Delsarte's zonal-sign check of f = sum c_mu Z_mu, expanded once, for a
    code (t None) or a t-design: f(1,...,1)/c_0 (None when c_0 = 0) and the
    conditions, as relative_code_bound and relative_design_bound state them."""
    exp = expand_in_zonal(f, m, n)
    low, sign, text = ((0, 1, "c_%s >= 0") if t is None
                       else (t, -1, "c_%s <= 0 (degree > t)"))
    conds = [_cond(text % mu, sign * exp.coeff(mu), strict=False)
             for mu in sorted(exp.coeffs, key=Partition.sort_key)
             if mu.size > low]
    c0 = exp.c0
    conds.append(_cond("c_0 > 0", c0, strict=True))
    at_ones = f.at_ones()
    if t is not None:
        conds += [_cond("f(1,...,1) >= 0", at_ones, strict=False),
                  _marginless("f >= 0 on distinct pairs (caller-asserted)")]
    elif code is None:
        conds.append(_marginless("f <= 0 on distinct pairs (caller-asserted)"))
    else:
        code = code if isinstance(code, Code) else Code(code)
        if (code.m, code.n) != (m, n):   # refused before any pair pass
            raise DimensionMismatch("code in G(%d,%d), bound for G(%d,%d)"
                                    % (code.m, code.n, m, n))
        i, j = np.triu_indices(len(code), 1)
        vals = f.eval_power_sums(
            code.geometry.power_sums(max(f.degree, 1))[i, j])
        holds = True
        if vals.size:
            # the decisive pair is recomputed through the independent
            # per-pair SVD, so the cached batch is never the only witness
            k = int(np.argmax(vals))
            y = principal_angles(code[i[k]], code[j[k]])
            holds = max(float(vals[k]), f.evaluate(list(y))) <= NONPOS_SLACK
        conds.append(_marginless("f <= 0 on distinct pairs (checked)", holds))
    return (None if c0 == 0 else at_ones / c0), conds


def relative_code_bound(f, m, n, code=None):
    """Upper bound |S| <= f(1,...,1)/c_0 for an f-code, where f = sum c_mu Z_mu
    must have c_mu >= 0 for all mu and c_0 > 0, and f <= 0 on distinct pairs.

    The sign conditions are checked exactly from the zonal expansion.  The
    nonpositivity hypothesis is checked numerically when a code is supplied
    (a plain list of subspaces is made a Code): f is evaluated once on the
    power sums of every distinct pair from the code's shared PairGeometry
    (no eigen-solve), and the pair where it is largest is confirmed through
    principal_angles.  Otherwise it is recorded as the caller's obligation.
    """
    return _result("relative code bound",
                   *_zonal_sign_check(f, m, n, code=code))


def _check_domain(m, n):
    "the G(m, n) these closed forms hold on: 1 <= m <= n and n >= 2"
    need = "need 1 <= m <= n and n >= 2, got m=%r n=%r" % (m, n)
    check_integer(m, "m", 1, need)
    check_integer(n, "n", max(m, 2), need)


def _orthoplex(m, n):
    "m^2/n: the orthoplex threshold and one_distance_bound's limit on alpha"
    return Fraction(m * m, n)


def one_distance_bound(alpha, m, n):
    "upper bound n(m - alpha)/(m^2 - n*alpha) for a one-distance code"
    _check_domain(m, n)
    alpha = _exact_coefficient(alpha)
    margin = _orthoplex(m, n) - alpha
    value = None if margin == 0 else (m - alpha) / margin
    return _result("one-distance bound", value,
                   [_cond("alpha < m^2/n", margin, strict=True)])


def two_distance_bound(alpha, beta, m, n):
    """Upper bound for a {alpha, beta}-code:

        n(m-alpha)(m-beta) / (m^2 [ (m+1)^2/(2(n+1)) + (m-1)^2/(2(n-1))
                                    - (alpha+beta) + n*alpha*beta/m^2 ])

    Conditions: alpha+beta <= 2(m^2 n - 4m + n)/(n^2 - 4) (non-strict) and
    alpha+beta - n*alpha*beta/m^2 < (m^2 n - 2m + n)/(n^2 - 1) (strict).
    """
    _check_domain(m, n)
    alpha, beta = _exact_coefficient(alpha), _exact_coefficient(beta)
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
    _check_domain(m, n)
    check_integer(N, "N", 2)
    simplex = Fraction(m * (m * N - n), n * N - n)
    regime = "simplex" if N <= n * n else "orthoplex"
    return SimplexOrthoplex(simplex, _orthoplex(m, n), regime)


def size_from_simplex_alpha(alpha, m, n):
    """invert the simplex threshold: the N with m(mN - n)/(nN - n) = alpha;
    the threshold stays below m^2/n, so alpha > m^2/n is refused"""
    _check_domain(m, n)
    alpha = _exact_coefficient(alpha)
    excess = alpha - _orthoplex(m, n)
    if excess == 0:
        raise DegenerateDenominator("no finite N at alpha = m^2/n")
    if excess > 0:
        raise OutOfRange("alpha = %s exceeds m^2/n = %s: no code size meets it"
                         % (alpha, _orthoplex(m, n)))
    return (alpha - m) / excess


def design_absolute_bound(t, m, n):
    "lower bound dim H_floor(t/2)(m,n) on the size of a t-design"
    check_integer(t, "t")
    return dim_Hk(t // 2, m, n)


def relative_design_bound(f, t, m, n):
    """Lower bound |S| >= f(1,...,1)/c_0 for a t-design, where c_mu <= 0 for
    every |mu| > t, c_0 > 0 and f >= 0 on the design: exact on the diagonal,
    f(1,...,1) >= 0, and the caller's obligation on distinct pairs."""
    check_integer(t, "t")
    return _result("relative design bound", *_zonal_sign_check(f, m, n, t=t))


def code_design_exact_size(f, t, m, n):
    """The forced cardinality f(1,...,1)/c_0 of a code that is both an f-code
    and a t-design with t >= deg(f) and nonnegative zonal coefficients, as an
    exact rational (integrality is the caller's check).  Raises OutOfRange
    naming every violated condition."""
    check_integer(t, "t")
    value, conds = _zonal_sign_check(f, m, n)
    conds.append(_cond("t >= deg f", t - f.degree, strict=False))
    bad = ["%s (margin %s)" % (c.text, c.margin) for c in conds if not c.holds]
    if bad:
        raise OutOfRange("no forced size: violated %s" % "; ".join(bad))
    return value


# ---------------------------------------------------------------------------
# the combined bound table

class BoundTable:
    """The four headline cells for G(m,n): absolute one/two-distance bounds
    and the relative one/two-distance formulas with their condition rows,
    symbolic in alpha, beta (one_distance_bound and two_distance_bound give
    the numbers)."""

    def __init__(self, m, n):
        check_mn(m, n)
        self.m, self.n = m, n
        self.abs_one = absolute_code_bound(1, m, n)[0]
        self.abs_two = absolute_code_bound(2, m, n)[0]
        self.abs_two_note = ("" if m > 1 else
                             "m=1: generic C(n^2,2) replaced by dim H_2(1,n)")

    def rows(self):
        m, n = self.m, self.n
        # at alpha = beta = 0 each condition's margin is its threshold
        (thr1,) = (c.margin for c in one_distance_bound(0, m, n).conditions)
        thr2a, thr2b = (c.margin
                        for c in two_distance_bound(0, 0, m, n).conditions)
        return [
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

    def text(self):
        table = [("kind", "value", "conditions", "note")] + self.rows()
        widths = [max(len(row[i]) for row in table) for i in range(4)]
        lines = ["bounds for G(%d,%d)" % (self.m, self.n)]
        for row in table:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        return "\n".join(lines)

    def csv(self):
        import csv as _csv
        import io as _io
        buf = _io.StringIO()
        r = self.rows()
        _csv.writer(buf).writerows(
            [("kind", "value", "applicable", "conditions")]
            + [(kind, value, "true", note) for kind, value, _, note in r[:2]]
            + [(r[2][0], r[2][1], "see conditions", r[2][2]),
               (r[3][0], r[3][1], "see conditions", r[3][2] + "; " + r[4][2])])
        return buf.getvalue()


def make_annihilator(values, m):
    "convenience re-export: the annihilator polynomial of an inner-product set"
    return annihilator_sympoly(values, m)
