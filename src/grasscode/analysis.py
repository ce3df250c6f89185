"""Empirical analysis of finite subspace codes: distance sets, angle-class
relations, design strength, association-scheme closure and idempotents.

Clustering is single-linkage (values within tol chain together) with a
declared ambiguity band: if two resulting clusters sit closer than 3*tol the
tolerance cannot certify the separation and ClusterAmbiguity is raised.  The
pair arrays are symmetric, so each unordered pair is clustered once.
Design tests are relative to Z_mu(1,...,1), so they are invariant under
zonal normalization.  design_strength evaluates zonals on the power sums of
each pair's squared cosines (Code.power_sums: traces of powers of
W^dagger W - I/2), so it runs no eigen-solve; only clustering reads the
angles.  Once a scheme's relations close, its idempotents and design strength
live in the k-dimensional Bose-Mesner algebra: scheme_idempotents works
there exactly, on the integer intersection numbers and the rationalized
class representatives, with no pair pass and no N x N product.

Results are records (NamedTuples) that nothing changes after they are
returned; the command line (cli) renders them as text and JSON.
"""

import math
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .core_linalg import check_tolerance, gram_matrix
from .dims import check_integer, dim_Hk
from .errors import (ClusterAmbiguity, NumericalHealthError, OutOfRange,
                     SizeLimit)
from .partitions import Partition
from .zonal import normalize_zonal, zonal_basis

TWO_DESIGN_LIMIT = 4096   # largest n^2 of is_two_design's (n^2, n^2) average
# largest denominator of a rationalized class representative: the squared
# cosines of the constructions are 0, 1 and 1/2 (pauli), 1/p (mub) and
# 1/p^j with p^j <= p^n <= EXTRASPECIAL_LIMIT (extraspecial)
REP_DENOMINATOR_LIMIT = 2048


def pair_angle_matrix(S):
    """Squared principal-angle cosines of every ordered pair, (N, N, m),
    descending, read-only: the code's cached angles, computed once.
    For m = 1 they are the gram; for m > 1, eigvalsh(W^dagger W) of each
    overlap W.  Values outside [-ANGLE_SLACK, 1+ANGLE_SLACK] or NaN raise
    NumericalHealthError instead of being clipped."""
    return S.angles()


def _split_1d(values, tol):
    """Single-linkage clusters of a 1-D array: split at gaps > tol.
    Returns a list of index arrays; raises ClusterAmbiguity when two
    clusters are separated by less than 3*tol."""
    order = np.argsort(values)
    sv = values[order]
    gaps = np.diff(sv)
    cut = np.nonzero(gaps > tol)[0]
    bad = [g for g in gaps[cut] if g < 3 * tol]
    if bad:
        raise ClusterAmbiguity(
            "cluster gap %.3e inside the ambiguity band [%g, %g)"
            % (min(bad), tol, 3 * tol))
    groups = np.split(order, cut + 1)
    return groups


def _cluster_vectors(vecs, tol):
    """Cluster rows of an (N, m) array by recursive coordinate splitting
    (single linkage per coordinate).  Returns the clusters as index arrays,
    each sorted by its last coordinate."""
    blocks = [np.arange(len(vecs))]
    for c in range(vecs.shape[1]):
        nxt = []
        for idx in blocks:
            nxt.extend(idx[g] for g in _split_1d(vecs[idx, c], tol))
        blocks = nxt
    return blocks


class RelationPartition(NamedTuple):
    """Ordered pairs of code members grouped by principal-angle vector.
    Class 0 is the identity relation (the diagonal); assignment (N, N) holds
    each pair's class, symmetric, so the classes' 0/1 relation matrices sum
    to the all-ones matrix.  spreads[c] is the largest max - min of class
    c's members over the coordinates, and sizes[c] its number of ordered
    pairs (N times its valency)."""
    N: int
    m: int
    reps: list          # [tuple of floats]
    assignment: np.ndarray
    spreads: list       # [float]
    sizes: list         # [int]

    @property
    def n_classes(self):
        return len(self.reps)


def _relations(X, identity, tol):
    """Cluster the rows X[a, b], a < b, of X (N, N, k), which is symmetric,
    at tol (max norm) into a RelationPartition: class 0 is the diagonal,
    with representative `identity`; the rest are ordered by representative
    (each coordinate's mean, summed pairwise down one contiguous column),
    lexicographically descending (closest to the identity first), and
    assigned to both triangles.  Each class's spread comes from the same
    walk over its members, class 0's from the diagonal; its size is twice
    its unordered pairs, class 0's N."""
    check_tolerance(tol)
    N = X.shape[0]
    if N < 2:
        raise OutOfRange("need at least 2 members")
    iu = np.triu_indices(N, 1)
    flat = X[iu]
    cols = np.ascontiguousarray(flat.T)
    blocks = _cluster_vectors(flat, tol)
    reps, spreads = [], []
    for idx in blocks:   # idx is sorted by the last coordinate
        v = cols[:, idx]
        reps.append(tuple(float(row.mean()) for row in v))
        spreads.append(float(max([v[-1, -1] - v[-1, 0],
                                  *np.ptp(v[:-1], axis=1)])))
    order = sorted(range(len(blocks)), key=lambda j: reps[j], reverse=True)
    labels = np.empty(len(flat), dtype=np.int64)
    for c, j in enumerate(order, 1):
        labels[blocks[j]] = c
    upper = np.zeros((N, N), dtype=np.int64)
    upper[iu] = labels
    diag = X[range(N), range(N)]
    return RelationPartition(
        N, X.shape[2], [identity] + [reps[j] for j in order], upper + upper.T,
        [float(np.ptp(diag, axis=0).max())] + [spreads[j] for j in order],
        [N] + [2 * len(blocks[j]) for j in order])


def angle_classes(S, tol=1e-8):
    """Partition the ordered pairs by principal-angle vector (class 0 = the
    diagonal; layout as in _relations)."""
    return _relations(pair_angle_matrix(S), (1.0,) * S.m, tol)


def inner_product_classes(S, tol=1e-8):
    """Coarse relations: pairs grouped by trace inner product only.
    Same layout as angle_classes (class 0 = diagonal)."""
    return _relations(gram_matrix(S)[:, :, None], (float(S.m),), tol)


def inner_product_set(S, tol=1e-8):
    """The distinct off-diagonal trace inner products: the representatives
    (cluster means) of the non-identity inner_product_classes, ascending."""
    return tuple(sorted(r[0] for r in inner_product_classes(S, tol).reps[1:]))


def _first_failure(basis, average, t_max, tol):
    """The design strength rule: one less than the degree of the first zonal
    Z of the canonical (degree-ascending) basis whose pair average fails
    |average(Z)| <= tol * |Z(1,...,1)|; t_max if none fails."""
    for Z in basis:
        if Z.mu.size and abs(average(Z)) > tol * abs(Z.at_ones()):
            return Z.mu.size - 1
    return max(t_max, 0)


def design_strength(S, t_max=2, tol=1e-8):
    """The largest t <= t_max with, for every 1 <= |mu| <= t (len <= m),
    |average over ordered pairs of Z_mu| <= tol * Z_mu(1,...,1).

    The basis goes to power sums from the top degree down, so that one
    cached change of basis serves every degree."""
    check_tolerance(tol)
    P = S.power_sums(max(t_max, 1))
    basis = zonal_basis(S.m, S.n, t_max)
    for Z in reversed(basis):
        Z.poly.to_power_sums()
    return _first_failure(basis, lambda Z: float(Z.eval_power_sums(P).mean()),
                          t_max, tol)


def is_one_design(S, tol=1e-8):
    "flag + residual: max-entry distance of the average projector from (m/n)I"
    check_tolerance(tol)
    with np.errstate(invalid="ignore", over="ignore"):   # checked below
        avg = np.einsum("ink,imk->nm", S.bases, S.bases.conj()) / len(S)
        return _flag(avg - (S.m / S.n) * np.eye(S.n), tol)


def _flag(diff, tol):
    """(max |diff| < tol, max |diff|); a residual that is not finite raises
    NumericalHealthError"""
    res = float(np.abs(diff).max())
    if not math.isfinite(res):
        raise NumericalHealthError("design residual is not finite: %r" % res)
    return res < tol, res


def swap_operator(n):
    "the operator T(u (x) v) = v (x) u on C^n (x) C^n"
    return np.eye(n * n).reshape(n, n, n, n).transpose(0, 1, 3, 2).reshape(
        n * n, n * n)


def is_two_design(S, tol=1e-8):
    """flag + residual: max-entry distance of the average of P (x) P from
    (m/(n(n^2-1))) [(nm-1) I + (n-m) T].  The average is one GEMM V^T V over
    the flattened projectors V = P.reshape(N, n^2), regrouped (ac, bd) ->
    (ab, cd)."""
    check_tolerance(tol)
    n, m = S.n, S.m
    if n < 2:   # the target's n(n^2 - 1) is 0
        raise OutOfRange("a two-design needs n >= 2, got n = %d" % n)
    if n * n > TWO_DESIGN_LIMIT:
        raise SizeLimit("n^2 = %d exceeds the limit %d" % (n * n, TWO_DESIGN_LIMIT))
    B = S.bases
    target = (m / (n * (n * n - 1))) * ((n * m - 1) * np.eye(n * n)
                                        + (n - m) * swap_operator(n))
    with np.errstate(invalid="ignore", over="ignore"):   # checked by _flag
        V = np.einsum("ink,imk->inm", B, B.conj()).reshape(len(S), n * n)
        avg = (V.T @ V).reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(
            n * n, n * n) / len(S)
        return _flag(avg - target, tol)


class SchemeReport(NamedTuple):
    """Closure check of the relation-matrix algebra and its intersection
    numbers (None unless closed)."""
    is_scheme: bool
    n_classes: int
    closure_residual: float
    intersection_numbers: Optional[list]


def check_scheme(R):
    """Bose-Mesner closure: project every product A_i A_j, 1 <= i <= j, onto
    the span of the relation matrices and report the worst relative
    Frobenius residual.  Disjoint 0/1 supports make the projection the mean
    of the product over each class: one bincount over the assignment.
    A_0 = I is exact: p^c_{0j} = p^c_{j0} = [c = j].  No tolerance: products
    of 0/1 matrices and their class sums are integers <= N^3, exact in float64
    for N < 2 * 10^5, so the relations close iff the residual is 0.0, and the
    class means are then the intersection numbers."""
    if R.n_classes < 2:
        raise OutOfRange("need at least 2 relation classes")
    k = R.n_classes
    labels = R.assignment.ravel()
    counts = np.array(R.sizes)
    A = {c: (R.assignment == c).astype(float) for c in range(1, k)}
    worst = 0.0
    inums = np.zeros((k, k, k), dtype=np.int64)
    inums[:, 0, :] = inums[:, :, 0] = np.eye(k, dtype=np.int64)
    for i in range(1, k):
        for j in range(i, k):
            prod = A[i] @ A[j]
            coef = np.bincount(labels, weights=prod.ravel(),
                               minlength=k) / counts
            inums[:, i, j] = inums[:, j, i] = coef
            res = float(np.linalg.norm(prod - coef[R.assignment])
                        / max(np.linalg.norm(prod), 1e-300))
            worst = max(worst, res)
    return SchemeReport(worst == 0.0, k, worst, None if worst else inums.tolist())


class IdempotentReport(NamedTuple):
    """Pairwise residuals of the candidate idempotents E_mu = Z_mu/|S| and
    the coarse eigen-relation residuals."""
    pair_residuals: dict      # {(mu, lam): float}
    required_design: dict     # {(mu, lam): int}
    strength: int             # measured design strength
    coarse_residuals: dict    # {(class, degree): float}
    coarse_classes: Optional[list] = None   # [fine classes of each]


def rational_representatives(R, tol=1e-8):
    """Each class representative of R as a tuple of Fractions: every
    coordinate is the nearest rational with denominator at most
    REP_DENOMINATOR_LIMIT, within min(tol, 1/(2 REP_DENOMINATOR_LIMIT^2)),
    where no other such rational can be.  A class whose members do not all
    lie within that radius of it, |rep - q| + spread above the radius,
    raises ClusterAmbiguity naming the class, its spread and the radius."""
    check_tolerance(tol)
    radius = min(Fraction(tol), Fraction(1, 2 * REP_DENOMINATOR_LIMIT ** 2))
    out = []
    for c, (rep, spread) in enumerate(zip(R.reps, R.spreads)):
        exact = tuple(Fraction(y).limit_denominator(REP_DENOMINATOR_LIMIT)
                      for y in rep)
        for y, q in zip(rep, exact):
            if not abs(Fraction(y) - q) + Fraction(spread) <= radius:
                raise ClusterAmbiguity(
                    "class %d: representative coordinate %.17g, members "
                    "spread over %.3g: no rational with denominator <= %d "
                    "lies within %.3g of them all"
                    % (c, y, spread, REP_DENOMINATOR_LIMIT, radius))
        out.append(exact)
    return out


def scheme_idempotents(S, R, t=2, tol=1e-8, scheme=None):
    """E_mu = sum_c Q[mu][c] A_c, |mu| <= t, Q[mu][c] the normalized Z_mu
    at class c's rational representative over |S|, and the residuals
    ||E_mu E_lam - delta E_mu||_F / ||E_mu||_F, exact up to one square root,
    in the Bose-Mesner algebra (Delsarte 1973) of the closed `scheme`
    (check_scheme(R) when None): E_mu E_lam - delta E_mu = sum_e x_e A_e,
    x_e = sum_{c,d} Q[mu][c] Q[lam][d] p^e_{cd} - delta Q[mu][e], has the
    squared norm sum_e x_e^2 |class e|, as the supports are disjoint.

    E_mu E_lam = delta_{mu,lam} E_mu is only guaranteed when S is an
    (|mu|+|lam|)-design, so each pair is reported with its requirement and
    whether the design strength, tested up to 2t on the exact pair
    averages, certifies it.  The coarse relations are the unions of classes
    of equal exact trace; for each the eigen-relation A'_c E'_i ~ E'_i is
    measured in the same algebra.  Only the rationalization reads tol."""
    check_integer(t, "t")
    scheme = check_scheme(R) if scheme is None else scheme
    if not scheme.is_scheme:
        raise OutOfRange("the relations are not closed (residual %.3e): no "
                         "Bose-Mesner algebra" % scheme.closure_residual)
    N, k = R.N, R.n_classes
    p = scheme.intersection_numbers     # A_c A_d = sum_e p[e][c][d] A_e
    valency = [p[0][c][c] for c in range(k)]   # |class c| = N valency[c]
    reps = rational_representatives(R, tol=tol)
    basis = [normalize_zonal(Z) for Z in zonal_basis(S.m, S.n, 2 * t)]
    # Q[mu][c]: E_mu's coordinate on A_c
    Q = {Z.mu: [Z.evaluate(y) / N for y in reps] for Z in basis}

    # the exact pair average |S|^-2 sum_c |class c| Z(rep_c); nonzero fails
    strength = _first_failure(
        basis, lambda Z: sum(v * z for v, z in zip(valency, Q[Z.mu])),
        2 * t, 0)

    def inner(x, y):
        "Frobenius inner product of sum_e x[e] A_e and sum_e y[e] A_e"
        return N * sum(v * a * b for v, a, b in zip(valency, x, y))

    def product(x, y):
        "the coordinates of (sum_c x[c] A_c) (sum_d y[d] A_d)"
        return [sum(n * x[c] * y[d] for c, row in enumerate(pe)
                    for d, n in enumerate(row) if n) for pe in p]

    def residual(num, den):
        return math.sqrt(num / den) if num else 0.0

    mus = sorted((Z.mu for Z in basis if Z.mu.size <= t),
                 key=Partition.sort_key)
    pair_res = {}
    required = {}
    for mu in mus:
        for lam in mus:
            x = product(Q[mu], Q[lam])
            if mu == lam:
                x = [a - b for a, b in zip(x, Q[mu])]
            pair_res[(mu, lam)] = residual(inner(x, x), inner(Q[mu], Q[mu]))
            required[(mu, lam)] = mu.size + lam.size

    trace = [sum(y) for y in reps]
    levels = sorted({trace[c] for c in range(1, k)}, reverse=True)
    groups = [(0,)] + [tuple(c for c in range(1, k) if trace[c] == level)
                       for level in levels]
    coarse = {}
    for i in sorted({mu.size for mu in mus}):
        q = [sum(Q[mu][e] for mu in mus if mu.size == i) for e in range(k)]
        nrm = inner(q, q)
        for g, group in enumerate(groups):
            M = product([int(c in group) for c in range(k)], q)
            eig = inner(M, q) / nrm if nrm else 0
            # eigenvalues of A on the algebra are bounded by the class
            # degree, so degree * ||E|| is a scale-stable reference even
            # when the eigenvalue itself is 0
            deg = max(sum(valency[c] for c in group), 1)
            d = [a - eig * b for a, b in zip(M, q)]
            coarse[(g, i)] = residual(inner(d, d), nrm) / deg
    return IdempotentReport(pair_res, required, strength, coarse, groups)


class TwoThreeReport(NamedTuple):
    """The three linked predicates for a parameter t: |A| = t distances,
    2t-design, |S| = dim H_t(m,n).  Any two imply the third; a two-true /
    one-false combination is flagged as a consistency warning."""
    t: int
    n_distances: int
    size: int
    dim_target: int
    is_t_distance: bool
    is_2t_design: bool
    size_matches: bool
    warnings: list


def twothree_audit(S, t, tol=1e-8):
    "evaluate the two-of-three predicates and check theorem consistency"
    check_integer(t, "t", 1)
    vals = inner_product_set(S, tol=tol)
    is_dist = len(vals) == t
    is_design = design_strength(S, t_max=2 * t, tol=tol) >= 2 * t
    dim_target = int(dim_Hk(t, S.m, S.n))
    size_match = len(S) == dim_target
    known = {"t-distance": is_dist, "2t-design": is_design,
             "size=dimH_t": size_match}
    warnings = []
    if sum(known.values()) == 2:
        (third,) = [k for k, v in known.items() if not v]
        warnings.append(
            "two predicates hold but '%s' fails: inconsistent with the "
            "two-of-three theorem (numerical health suspect)" % third)
    return TwoThreeReport(t, len(vals), len(S), dim_target, is_dist,
                          is_design, size_match, warnings)
