"""Empirical analysis of finite subspace codes: distance sets, angle-class
relations, design strength, association-scheme closure and idempotents.

Clustering is single-linkage (values within tol chain together) with a
declared ambiguity band: if two resulting clusters sit closer than 3*tol the
tolerance cannot certify the separation and ClusterAmbiguity is raised.
Design tests are relative to Z_mu(1,...,1), so they are invariant under
zonal normalization.
"""

import numpy as np

from .core_linalg import gram_matrix
from .dims import dim_Hk
from .errors import ClusterAmbiguity, OutOfRange, SizeLimit
from .partitions import Partition
from .zonal import normalize_zonal, zonal_basis


def pair_angle_matrix(S):
    """Squared principal-angle cosines of every ordered pair, (N, N, m),
    descending, read-only: the code's shared PairGeometry, computed once.
    For m = 1 they are the gram; for m > 1, eigvalsh(W^dagger W) of each
    overlap W.  Values outside [-ANGLE_SLACK, 1+ANGLE_SLACK] or NaN raise
    NumericalHealthError instead of being clipped."""
    return S.geometry.angles()


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
    (single linkage per coordinate).  Returns integer labels."""
    N, m = vecs.shape
    labels = np.zeros(N, dtype=np.int64)
    blocks = [np.arange(N)]
    for c in range(m):
        nxt = []
        for idx in blocks:
            nxt.extend(idx[g] for g in _split_1d(vecs[idx, c], tol))
        blocks = nxt
    for k, idx in enumerate(blocks):
        labels[idx] = k
    return labels, len(blocks)


class RelationPartition:
    """Ordered pairs of code members grouped by principal-angle vector.
    Class 0 is the identity relation (the diagonal); relation matrices are
    symmetric 0/1 and sum to the all-ones matrix."""

    __slots__ = ("N", "m", "reps", "assignment")

    def __init__(self, N, m, reps, assignment):
        self.N = N
        self.m = m
        self.reps = [tuple(float(x) for x in r) for r in reps]
        self.assignment = assignment

    @property
    def n_classes(self):
        return len(self.reps)

    def class_size(self, k):
        return int((self.assignment == k).sum())

    def relation_matrix(self, k):
        return (self.assignment == k).astype(float)

    def pairs(self, k):
        "the set of ordered index pairs in class k"
        return {(int(i), int(j)) for i, j in np.argwhere(self.assignment == k)}

    def __repr__(self):
        return ("RelationPartition(N=%d, classes=%s)"
                % (self.N, ["(%s)x%d" % (",".join("%.4g" % v for v in r),
                                         self.class_size(k))
                            for k, r in enumerate(self.reps)]))


def _relations(X, identity, tol):
    """Cluster the off-diagonal rows of X (N, N, k) at tol (max norm) into a
    RelationPartition: class 0 is the diagonal, with representative
    `identity`; the rest are ordered by representative, lexicographically
    descending (closest to the identity first)."""
    N = X.shape[0]
    if N < 2:
        raise OutOfRange("need at least 2 members")
    mask = ~np.eye(N, dtype=bool)
    flat = X[mask]
    labels, k = _cluster_vectors(flat, tol)
    reps = [tuple(flat[labels == j].mean(axis=0)) for j in range(k)]
    order = sorted(range(k), key=lambda j: reps[j], reverse=True)
    relabel = np.empty(k, dtype=np.int64)
    relabel[order] = np.arange(1, k + 1)
    assignment = np.zeros((N, N), dtype=np.int64)
    assignment[mask] = relabel[labels]
    return RelationPartition(N, X.shape[2], [identity] + [reps[j] for j in order],
                             assignment)


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


def design_strength(S, t_max=2, tol=1e-8):
    """The largest t <= t_max with, for every 1 <= |mu| <= t (len <= m),
    |average over ordered pairs of Z_mu| < tol * Z_mu(1,...,1).

    One pass over the basis in canonical (degree-ascending) order: the
    strength is one less than the degree of the first zonal that fails."""
    Y = pair_angle_matrix(S).reshape(-1, S.m)
    for Z in zonal_basis(S.m, S.n, t_max):
        if Z.mu.size == 0:
            continue
        avg = float(Z.eval_batch(Y).mean())
        if abs(avg) >= tol * abs(float(Z.at_ones())):
            return Z.mu.size - 1
    return max(t_max, 0)


def is_one_design(S, tol=1e-8):
    "flag + residual: max-entry distance of the average projector from (m/n)I"
    B = S.basis_stack()
    N, n, m = B.shape
    avg = np.einsum("ink,imk->nm", B, B.conj()) / N
    res = float(np.abs(avg - (m / n) * np.eye(n)).max())
    return res < tol, res


def swap_operator(n):
    "the operator T(u (x) v) = v (x) u on C^n (x) C^n"
    return np.eye(n * n).reshape(n, n, n, n).transpose(0, 1, 3, 2).reshape(
        n * n, n * n)


def is_two_design(S, tol=1e-8, size_limit=4096):
    """flag + residual: max-entry distance of the average of P (x) P from
    (m/(n(n^2-1))) [(nm-1) I + (n-m) T].  The average is one GEMM V^T V over
    the flattened projectors V = P.reshape(N, n^2), regrouped (ac, bd) ->
    (ab, cd)."""
    n, m = S.n, S.m
    if n * n > size_limit:
        raise SizeLimit("n^2 = %d exceeds the limit %d" % (n * n, size_limit))
    B = S.basis_stack()
    V = np.einsum("ink,imk->inm", B, B.conj()).reshape(len(S), n * n)
    avg = (V.T @ V).reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(
        n * n, n * n) / len(S)
    target = (m / (n * (n * n - 1))) * ((n * m - 1) * np.eye(n * n)
                                        + (n - m) * swap_operator(n))
    res = float(np.abs(avg - target).max())
    return res < tol, res


class SchemeReport:
    """Closure check of the relation-matrix algebra plus, optionally,
    idempotent diagnostics (filled by scheme_idempotents)."""

    def __init__(self, is_scheme, n_classes, closure_residual,
                 intersection_numbers, rounding_delta):
        self.is_scheme = is_scheme
        self.n_classes = n_classes
        self.closure_residual = closure_residual
        self.intersection_numbers = intersection_numbers
        self.rounding_delta = rounding_delta
        self.idempotents = None

    def to_json_dict(self):
        doc = {
            "is_scheme": bool(self.is_scheme),
            "classes": int(self.n_classes),
            "closure_residual": float(self.closure_residual),
            "rounding_delta": float(self.rounding_delta),
        }
        if self.intersection_numbers is not None:
            doc["intersection_numbers"] = [
                [[int(x) for x in row] for row in mat]
                for mat in self.intersection_numbers
            ]
        if self.idempotents is not None:
            doc["idempotents"] = self.idempotents.to_json_dict()
        return doc

    def to_text(self):
        lines = [
            "association scheme: %s" % ("yes" if self.is_scheme else "no"),
            "classes (incl. identity): %d" % self.n_classes,
            "closure residual: %.3e" % self.closure_residual,
            "intersection-number rounding delta: %.3e" % self.rounding_delta,
        ]
        if self.idempotents is not None:
            lines.append(self.idempotents.to_text())
        return "\n".join(lines)


def check_scheme(R, tol=1e-8):
    """Bose-Mesner closure: project every product A_i A_j, 1 <= i <= j, onto
    the span of the relation matrices and report the worst relative
    Frobenius residual.  Disjoint 0/1 supports make the projection the mean
    of the product over each class: one bincount over the assignment.
    A_0 = I is exact: p^c_{0j} = p^c_{j0} = [c = j]."""
    if R.n_classes < 2:
        raise OutOfRange("need at least 2 relation classes")
    k = R.n_classes
    labels = R.assignment.ravel()
    counts = np.bincount(labels, minlength=k)
    A = {c: R.relation_matrix(c) for c in range(1, k)}
    worst = 0.0
    rdelta = 0.0
    inums = np.zeros((k, k, k), dtype=np.int64)
    inums[:, 0, :] = inums[:, :, 0] = np.eye(k, dtype=np.int64)
    for i in range(1, k):
        for j in range(i, k):
            prod = A[i] @ A[j]
            coef = np.bincount(labels, weights=prod.ravel(),
                               minlength=k) / counts
            r = np.rint(coef)
            rdelta = max(rdelta, float(np.abs(coef - r).max()))
            inums[:, i, j] = inums[:, j, i] = r
            res = float(np.linalg.norm(prod - coef[R.assignment])
                        / max(np.linalg.norm(prod), 1e-300))
            worst = max(worst, res)
    return SchemeReport(worst < tol, k, worst, inums.tolist(), rdelta)


class IdempotentReport:
    """Pairwise residuals of the candidate idempotents E_mu = Z_mu/|S| and
    the coarse eigen-relation residuals."""

    def __init__(self, pair_residuals, required_design, strength,
                 coarse_residuals):
        self.pair_residuals = pair_residuals      # {(mu,lam): float}
        self.required_design = required_design    # {(mu,lam): int}
        self.strength = strength                  # measured design strength
        self.coarse_residuals = coarse_residuals  # {(class, degree): float}

    def orthogonality_residual(self):
        "max residual over mu != lam (guaranteed pairs only)"
        vals = [r for (mu, lam), r in self.pair_residuals.items()
                if mu != lam and self.required_design[(mu, lam)] <= self.strength]
        return max(vals, default=0.0)

    def max_certified_residual(self):
        "max residual over pairs whose (|mu|+|lam|)-design requirement holds"
        vals = [r for key, r in self.pair_residuals.items()
                if self.required_design[key] <= self.strength]
        return max(vals, default=0.0)

    def to_json_dict(self):
        return {
            "strength": int(self.strength),
            "pairs": [
                {"mu": str(mu), "lam": str(lam),
                 "residual": float(r),
                 "required_design": int(self.required_design[(mu, lam)]),
                 "certified": bool(self.required_design[(mu, lam)] <= self.strength)}
                for (mu, lam), r in sorted(
                    self.pair_residuals.items(),
                    key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key()))
            ],
            "coarse": [
                {"class": int(c), "degree": int(i), "residual": float(r)}
                for (c, i), r in sorted(self.coarse_residuals.items())
            ],
        }

    def to_text(self):
        lines = ["idempotents (measured design strength %d):" % self.strength]
        for (mu, lam), r in sorted(self.pair_residuals.items(),
                                   key=lambda kv: (kv[0][0].sort_key(),
                                                   kv[0][1].sort_key())):
            need = self.required_design[(mu, lam)]
            tag = "certified" if need <= self.strength else ("needs %d-design" % need)
            kind = "idem" if mu == lam else "orth"
            lines.append("  E%s E%s (%s): %.3e  [%s]" % (mu, lam, kind, r, tag))
        for (c, i), r in sorted(self.coarse_residuals.items()):
            lines.append("  A'_%d E'_%d eigen-relation residual: %.3e" % (c, i, r))
        return "\n".join(lines)


def scheme_idempotents(S, R, t=2, tol=1e-8):
    """Build E_mu = Z_mu(y(a,b))/|S| from normalized zonals for |mu| <= t and
    measure Frobenius residuals of E_mu E_lam - delta E_mu.

    E_mu E_lam = delta_{mu,lam} E_mu is only guaranteed when S is an
    (|mu|+|lam|)-design, so each pair is reported with its requirement and
    whether the measured strength, tested up to 2t, certifies it.  For the
    coarse relations the eigen-relation A'_c E'_i ~ E'_i is also measured."""
    N = len(S)
    Y = pair_angle_matrix(S)
    Es = {}
    for Z in zonal_basis(S.m, S.n, t):
        Zn = normalize_zonal(Z)
        Es[Z.mu] = Zn.eval_batch(Y.reshape(-1, S.m)).reshape(N, N) / N
    strength = design_strength(S, t_max=2 * t, tol=tol)
    pair_res = {}
    required = {}
    mus = sorted(Es, key=Partition.sort_key)
    for mu in mus:
        for lam in mus:
            prod = Es[mu] @ Es[lam]
            if mu == lam:
                prod = prod - Es[mu]
            r = float(np.linalg.norm(prod) / max(np.linalg.norm(Es[mu]), 1e-300))
            pair_res[(mu, lam)] = r
            required[(mu, lam)] = mu.size + lam.size
    coarse = {}
    coarse_R = R if R.m == 1 else inner_product_classes(S, tol=tol)
    degrees = sorted({mu.size for mu in mus})
    for i in degrees:
        Ei = sum(Es[mu] for mu in mus if mu.size == i)
        for c in range(coarse_R.n_classes):
            A = coarse_R.relation_matrix(c)
            M = A @ Ei
            lam = float((M * Ei).sum() / max((Ei * Ei).sum(), 1e-300))
            # eigenvalues of A on the algebra are bounded by the class
            # degree, so degree * ||E|| is a scale-stable reference even
            # when the eigenvalue itself is 0
            deg = max(float(A.sum(axis=1).max()), 1.0)
            r = float(np.linalg.norm(M - lam * Ei)
                      / (deg * max(np.linalg.norm(Ei), 1e-300)))
            coarse[(c, i)] = r
    return IdempotentReport(pair_res, required, strength, coarse)


class TwoThreeReport:
    """The three linked predicates for a parameter t: |A| = t distances,
    2t-design, |S| = dim H_t(m,n).  Any two imply the third; a two-true /
    one-false combination is flagged as a consistency warning."""

    def __init__(self, t, n_distances, size, dim_target, is_t_distance,
                 is_2t_design, size_matches, warnings):
        self.t = t
        self.n_distances = n_distances
        self.size = size
        self.dim_target = dim_target
        self.is_t_distance = is_t_distance
        self.is_2t_design = is_2t_design
        self.size_matches = size_matches
        self.warnings = warnings

    def to_json_dict(self):
        return {
            "t": self.t,
            "distances": self.n_distances,
            "size": self.size,
            "dim_H_t": self.dim_target,
            "t_distance_set": self.is_t_distance,
            "design_2t": self.is_2t_design,
            "size_matches_dim": self.size_matches,
            "warnings": self.warnings,
        }

    def to_text(self):
        lines = [
            "two-of-three audit at t=%d:" % self.t,
            "  %d-distance set: %s (found %d values)"
            % (self.t, "yes" if self.is_t_distance else "no", self.n_distances),
            "  %d-design: %s" % (2 * self.t, "yes" if self.is_2t_design else "no"),
            "  |S| = dim H_%d: %s (%d vs %d)"
            % (self.t, "yes" if self.size_matches else "no",
               self.size, self.dim_target),
        ]
        for w in self.warnings:
            lines.append("  WARNING: %s" % w)
        return "\n".join(lines)


def twothree_audit(S, t, tol=1e-8):
    "evaluate the two-of-three predicates and check theorem consistency"
    if t < 1:
        raise OutOfRange("t must be >= 1, got %d" % t)
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
