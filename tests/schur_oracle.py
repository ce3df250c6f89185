"""Independent exact oracle for Schur polynomials: the bialternant.

X_sigma(y) = det[y_i^(sigma_j + m - j)] / det[y_i^(m - j)], with
divided-difference (confluent) rows when points repeat, evaluated by exact
Gaussian elimination.  It shares nothing with the library's Jacobi-Trudi
route; the tests check it against a direct sum over semistandard tableaux.
"""

from fractions import Fraction
from math import comb

from grasscode.errors import LengthExceedsVariables, VariableCountMismatch
from grasscode.partitions import aspartition


def _fraction_det(rows):
    "exact determinant by fraction-free-ish Gaussian elimination"
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * inv
                for c2 in range(col, n):
                    a[r][c2] -= f * a[col][c2]
    return det


def _confluent_matrix(values, mults, expos):
    "rows phi(v), phi'(v)/1!, ... for each repeated point; phi_j(v) = v^e_j"
    rows = []
    for v, r in zip(values, mults):
        for k in range(r):
            rows.append([comb(e, k) * v ** (e - k) if e >= k else v * 0
                         for e in expos])
    return rows


def schur_eval_bialternant(sigma, m, y):
    """Evaluate the plain Schur X_sigma at exact points y by the determinant
    ratio, with divided-difference rows when points coincide."""
    sigma = aspartition(sigma)
    if len(sigma) > m:
        raise LengthExceedsVariables(
            "Schur of shape %s vanishes on %d variables" % (sigma, m))
    y = [Fraction(v) for v in y]
    if len(y) != m:
        raise VariableCountMismatch("expected %d values, got %d" % (m, len(y)))
    values = []
    mults = []
    for v in y:
        if values and v == values[-1]:
            mults[-1] += 1
        elif v in values:
            i = values.index(v)
            mults[i] += 1
        else:
            values.append(v)
            mults.append(1)
    pad = sigma.pad(m)
    num_expos = [pad[j] + m - 1 - j for j in range(m)]
    den_expos = [m - 1 - j for j in range(m)]
    den = _fraction_det(_confluent_matrix(values, mults, den_expos))
    assert den != 0
    num = _fraction_det(_confluent_matrix(values, mults, num_expos))
    return num / den
