"""Subspaces of C^n, principal angles, canonical pairs, Haar sampling, Grams.

A subspace is carried by an n x m matrix with orthonormal columns.  A pair is
read off the m x m overlap W = basis_a^dagger basis_b, never the n x n
projector product (a test oracle only): tr(P_a P_b) = ||W||_F^2, and the
squared principal-angle cosines are the eigenvalues of G = W^dagger W, which
squared_overlaps forms as one stacked matmul at every m.
W_ba = W_ab^dagger, so a code's pair pass forms G once per unordered pair
and copies the other triangle.  Every float consumer that averages or signs
a symmetric polynomial of the angles -- a Code's pair cache, the Monte
Carlo sampler -- reads the power sums tr(G^k) from power_sums,
range-checked by a batched Cholesky factorization; only clustering reads
the angles, from the same G (squared_cosines, checked_cosines).
principal_angles keeps its own SVD as the per-pair oracle; a pair function
refuses a non-finite member or result as NumericalHealthError.  Every basis
the package orthonormalizes, a given one (subspace_from_basis) or a stack of
Gaussians (haar_basis_batch), is the phase-fixed Q of one batched LAPACK QR,
_phase_fixed_q.  Where only the squared cosines with one fixed m-plane are
read, haar_cosine_batch draws them alone, as the eigenvalues of a real
tridiagonal T from the beta = 2 Jacobi matrix model: 2 min(m, n - m) - 1
Beta variables per sample.
"""

from math import inf
from numbers import Real

import numpy as np

from .dims import check_integer
from .errors import (DimensionMismatch, DuplicateMember, NumericalHealthError,
                     OutOfRange, RankDeficient, RankTooLarge)
from .sympoly import CENTER

ANGLE_SLACK = 1e-8      # certified range for squared cosines is [-slack, 1+slack]
DUP_SLACK = 1e-8        # members with tr(PaPb) > m - DUP_SLACK count as duplicates
RANK_SLACK = 1e-10      # singular values s_min <= RANK_SLACK s_max are rank-deficient


class Subspace:
    """An m-dimensional subspace of C^n, held as an orthonormal basis: a
    read-only copy of the array it is given."""

    __slots__ = ("basis",)

    def __init__(self, basis):
        basis = _as_complex(np.array, basis, "basis")
        if basis.ndim != 2 or basis.shape[0] < basis.shape[1] or basis.shape[1] < 1:
            raise DimensionMismatch("basis must be n x m with 1 <= m <= n, got %r"
                                    % (basis.shape,))
        basis.flags.writeable = False
        self.basis = basis

    @property
    def n(self):
        return self.basis.shape[0]

    @property
    def m(self):
        return self.basis.shape[1]

    def projection(self):
        "the n x n orthogonal projection onto the subspace"
        return self.basis @ self.basis.conj().T

    def validate(self, tol=1e-8):
        "the orthonormality defect max |B^dagger B - I|; above tol it raises"
        return float(orthonormality_defects(self.basis[None], tol)[0])

    def __repr__(self):
        return "Subspace(n=%d, m=%d)" % (self.n, self.m)


def check_tolerance(tol):
    "raise OutOfRange unless tol is a real number (not a bool), finite and > 0"
    if isinstance(tol, bool) or not (isinstance(tol, Real) and 0 < tol < inf):
        raise OutOfRange("tolerance must be a finite number > 0, got %r" % (tol,))


def orthonormality_defects(bases, tol=1e-8):
    """max |B^dagger B - I| of each basis of a stack (N, n, m); the first
    above tol, or NaN, raises RankDeficient naming its index"""
    check_tolerance(tol)
    with np.errstate(over="ignore", invalid="ignore"):   # huge entries
        err = np.abs(bases.conj().swapaxes(1, 2) @ bases
                     - np.eye(bases.shape[2])).max(axis=(1, 2))
    bad = np.flatnonzero(~(err <= tol))
    if bad.size:
        raise RankDeficient("subspace %d: basis not orthonormal (defect %.3e)"
                            % (bad[0], err[bad[0]]))
    return err


def _as_complex(convert, x, what):
    "convert(x, dtype=complex); an entry that is no number is OutOfRange"
    try:
        return convert(x, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise OutOfRange("%s entries must be numbers: %s" % (what, exc)) from None


def _phase_fixed_q(z):
    """Q of the QR of each full-rank matrix of a stack (..., n, m), column j
    times the phase of R_jj (1 where R_jj = 0), so R's diagonal is > 0"""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * np.where(np.abs(d) > 0, d / np.abs(d), 1.0)[..., None, :]


def subspace_from_basis(raw):
    """Build a Subspace from a full-rank n x m matrix: its smallest singular
    value must exceed RANK_SLACK times its largest, at any scale.  An
    already-orthonormal input is kept verbatim; otherwise the columns are
    orthonormalized (_phase_fixed_q), which preserves the span.  An entry
    above 2 in modulus rules out the first, so no Gram entry overflows."""
    raw = _as_complex(np.asarray, raw, "basis")
    n, m = raw.shape if raw.ndim == 2 else (0, 0)
    if not 1 <= m <= n:
        raise DimensionMismatch("need an n x m matrix, 1 <= m <= n, got shape %r"
                                % (raw.shape,))
    if not np.isfinite(raw).all():
        raise OutOfRange("basis entries must be finite")
    sv = _svd(raw, compute_uv=False)
    if sv[-1] <= RANK_SLACK * sv[0]:
        raise RankDeficient("column rank < m (singular values %.3e to %.3e)"
                            % (sv[-1], sv[0]))
    if np.abs(raw).max() > 2 or np.abs(raw.conj().T @ raw - np.eye(m)).max() > 1e-12:
        raw = _phase_fixed_q(raw)
    return Subspace(raw)


def _overlap(a, b):
    "the overlap W = basis_a^dagger basis_b of subspaces of one C^n, unchecked"
    if a.n != b.n:
        raise DimensionMismatch("ambient dimensions differ: %d vs %d" % (a.n, b.n))
    with np.errstate(invalid="ignore", over="ignore"):   # checked by callers
        return a.basis.conj().T @ b.basis


def _svd(x, **kwargs):
    "np.linalg.svd; a non-finite x or a failed SVD raises NumericalHealthError"
    if not np.isfinite(x).all():
        raise NumericalHealthError("SVD of a matrix that is not finite")
    try:
        return np.linalg.svd(x, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalHealthError("SVD not computable: %s" % exc) from None


def principal_angles(a, b):
    "squared cosines of the principal angles, descending, range-checked"
    sv = _svd(_overlap(a, b), compute_uv=False)
    with np.errstate(over="ignore"):   # an inf fails checked_cosines
        y = sv * sv
    return checked_cosines(y)


def squared_overlaps(W):
    "W^dagger W of a stack (..., k, m), (..., m, m): one stacked matmul"
    with np.errstate(invalid="ignore", over="ignore"):   # checked downstream
        return W.conj().swapaxes(-1, -2) @ W


def squared_cosines(G):
    """Squared principal-angle cosines, descending, of a stack of W^dagger W
    (..., m, m), unchecked; a failed eigvalsh raises NumericalHealthError."""
    try:
        return np.linalg.eigvalsh(G)[..., ::-1]
    except np.linalg.LinAlgError as exc:
        raise NumericalHealthError(
            "squared cosines not computable: %s" % exc) from None


def checked_cosines(y, record=None):
    """Range check for squared cosines: a value outside [-ANGLE_SLACK,
    1+ANGLE_SLACK], or NaN, raises NumericalHealthError.  The worst
    excursion outside [0, 1] is stored as `record.excursion` (if given)
    before the check; returns the values clipped to [0, 1]."""
    lo, hi = y.min(), y.max()
    excursion = float(np.max([0.0, -lo, hi - 1.0]))
    if record is not None:
        record.excursion = excursion
    if not excursion <= ANGLE_SLACK:   # also fails on NaN
        raise NumericalHealthError(
            "squared cosine outside certified range: [%.3e, %.3e]" % (lo, hi))
    return np.clip(y, 0.0, 1.0)


def power_sums(H, t, record=None):
    """Centered power sums tr(H^k) = sum_i (y_i - CENTER)^k, k = 1..min(t, m),
    t >= 1, of a stack of W^dagger W (..., m, m) from squared_overlaps (or
    a real T from haar_cosine_batch), centered in place to H.  tr(H^(a+b))
    is the real inner product of H^a and H^b, so k <= 4 takes one product
    H^2, a stacked matmul as in squared_overlaps.  Range check, as
    checked_cosines': W^dagger W is positive semidefinite, and its
    eigenvalues are below 1 + ANGLE_SLACK iff (1 + ANGLE_SLACK - CENTER) I -
    H has a Cholesky factor.  Samuelson's bound (mean + sqrt(m - 1)
    standard deviations) clears most pairs first; the factorization passes
    NaN, so the sums must be finite.  Failures are worded by
    checked_cosines."""
    m, top = H.shape[-1], 1 - float(CENTER) + ANGLE_SLACK
    with np.errstate(invalid="ignore", over="ignore"):
        H[..., range(m), range(m)] -= float(CENTER)
        p = np.empty(H.shape[:-2] + (max(min(t, m), 2),))
        p[..., 0] = np.einsum("...ii->...", H).real
        powers = [None, H]
        for k in range(2, p.shape[-1] + 1):
            if (k + 1) // 2 == len(powers):
                powers.append(powers[-1] @ H)
            a, b = (x.view(float).reshape(x.shape[:-2] + (-1,))
                    for x in (powers[(k + 1) // 2], powers[k // 2]))
            p[..., k - 1] = np.einsum("...i,...i->...", a, b)
        mean = p[..., 0] / m
        spread = np.sqrt(np.maximum(p[..., 1] / m - mean * mean, 0) * (m - 1))
        A = H[~(mean + spread <= top)]   # the pairs Samuelson leaves open
        del powers
        A *= -1
        A[..., range(m), range(m)] += top
        try:
            np.linalg.cholesky(A)
            ok = bool(np.isfinite(p).all())
        except np.linalg.LinAlgError:
            ok = False
        if not ok:   # checked_cosines words the failure
            if record is not None:
                record.excursion = float("nan")
            checked_cosines(squared_cosines(H) + float(CENTER), record)
            raise NumericalHealthError("power sums outside the certified "
                                       "range of the squared cosines")
    return p[..., :min(t, m)]


def canonical_pair(a, b):
    """Rotate a pair into canonical position: returns (A, B) with A = (I_m; 0)
    and B = diag(cos theta) stacked over diag(sin theta) over zeros, both the
    images of the original bases under one ambient unitary."""
    if a.m != b.m:
        raise DimensionMismatch("subspace dimensions differ: %d vs %d" % (a.m, b.m))
    w = _overlap(a, b)
    n, m = a.n, a.m
    if 2 * m > n:
        raise RankTooLarge("canonical form needs 2m <= n, got m=%d n=%d" % (m, n))
    u, _, vh = _svd(w)
    ma = a.basis @ u
    mb = b.basis @ vh.conj().T
    # orthonormal basis of the complement of span(a)
    uf = np.linalg.svd(ma, full_matrices=True)[0]
    nc = uf[:, m:]
    q, r = np.linalg.qr(nc.conj().T @ mb, mode="complete")
    d = np.diagonal(r)   # phase-fix: the leading diagonal of r real, >= 0
    q[:, :m] *= np.where(np.abs(d) > 1e-12, d / np.maximum(np.abs(d), 1e-12), 1)
    nc = nc @ q
    ua = np.vstack([ma.conj().T, nc.conj().T])
    return ua @ ma, ua @ mb


def _overlap_pass(bases, form=None):
    """One GEMM per block of rows a forms the overlaps W = A^dagger B with
    every b >= the block's first row.  Returns the gram ||W||_F^2 and
    form(W^dagger W), (N, N, ...), or None without `form`; no m x m array of
    all pairs outlives its block.  W_ba = W_ab^dagger has the same norm and
    cosines, so `form` sees each unordered pair once, N(N+1)/2 stacks in
    all: the pairs b >= a of a block are gathered, formed and scattered
    back, and the rest copied, so each array is exactly symmetric."""
    N, n, m = bases.shape
    M = bases.transpose(1, 0, 2).reshape(n, N * m)   # bases side by side
    gram, out = np.empty((N, N)), None
    step = max(1, int(4e6) // max(1, N * m * m))
    for lo in range(0, N, step):
        hi = min(N, lo + step)
        with np.errstate(invalid="ignore", over="ignore"):  # checked later
            w = (M[:, lo * m:hi * m].conj().T @ M[:, lo * m:]).reshape(
                hi - lo, m, N - lo, m).transpose(0, 2, 1, 3)  # A_i^dag B_j
            gram[lo:hi, lo:] = np.sum(np.abs(w) ** 2, axis=(2, 3))
            if form is not None:
                i, j = np.triu_indices(hi - lo, 0, N - lo)   # b >= a
                r = form(squared_overlaps(w[i, j]))
                out = np.empty((N, N) + r.shape[1:]) if out is None else out
                out[lo + i, lo + j] = r
    for a in (gram,) if out is None else (gram, out):
        for i in range(1, N):
            a[i, :i] = a[:i, i]
    gram.flags.writeable = False
    return gram, out


class Code:
    """A finite set of equi-dimensional subspaces of a common C^n, held as
    one read-only array `bases` (N, n, m), so its pair cache cannot go
    stale.  Built from that array or from a list of Subspaces.

    The pair cache holds the tr(P_a P_b) (gram), squared principal-angle
    cosines (angles, (N, N, m), descending) and power_sums (N, N, min(t,
    m)) of all ordered pairs.  Each request forms only its own array, in
    one pass on first use (power_sums again for a larger t), range-checked
    and kept read-only; at m = 1 the angles are the gram, the power sums
    the angles less CENTER.  `excursion` is how far the worst angle lay
    outside [0, 1].  The first gram kept checks the code as a set, after
    the range check of its pass, so a non-finite member fails the range
    check: two members spanning one subspace raise DuplicateMember, unless
    check_duplicates is False."""

    __slots__ = ("bases", "labels", "check_duplicates", "excursion",
                 "_gram", "_angles", "_sums")

    def __init__(self, bases, labels=None, check_duplicates=True):
        if not isinstance(bases, np.ndarray):   # Subspaces
            bases = list(bases)
            if not all(isinstance(s, Subspace) for s in bases):
                raise DimensionMismatch("a code is built from one array of "
                                        "bases (N, n, m) or a list of Subspaces")
            bases = [s.basis for s in bases]
            shapes = {b.shape for b in bases}
            if len(shapes) > 1:
                raise DimensionMismatch("mixed member shapes: %s" % sorted(shapes))
        bases = _as_complex(np.array, bases, "code basis")
        if bases.ndim != 3 or 0 in bases.shape or bases.shape[2] > bases.shape[1]:
            raise DimensionMismatch("a code needs bases (N, n, m) with N >= 1 "
                                    "and 1 <= m <= n, got %r" % (bases.shape,))
        if labels is not None:
            labels = list(labels)
            if len(labels) != len(bases):
                raise DimensionMismatch("label count != member count")
        bases.flags.writeable = False
        self.bases = bases
        self.labels = labels
        self.check_duplicates = check_duplicates
        self._gram = self._angles = self._sums = self.excursion = None

    @property
    def n(self):
        return self.bases.shape[1]

    @property
    def m(self):
        return self.bases.shape[2]

    def __len__(self):
        return len(self.bases)

    def __iter__(self):
        return map(Subspace, self.bases)

    def __getitem__(self, i):
        return Subspace(self.bases[i])

    def __repr__(self):
        return "Code(N=%d, G(%d,%d))" % (len(self), self.m, self.n)

    def gram(self):
        if self._gram is None:
            self._keep(_overlap_pass(self.bases)[0])
        return self._gram

    def angles(self):
        if self._angles is None:
            gram, y = (self._line_pass() if self.m == 1 else
                       _overlap_pass(self.bases, squared_cosines))
            self._angles = self._keep(gram, checked_cosines(y, self))
        return self._angles

    def power_sums(self, t):
        k = min(check_integer(t, "t", 1), self.m)
        if self._sums is None or self._sums.shape[-1] < k:
            gram, p = (self._line_pass() if self.m == 1 else _overlap_pass(
                self.bases, lambda G: power_sums(G, k, self)))
            p = checked_cosines(p, self) - float(CENTER) if self.m == 1 else p
            self._sums = self._keep(gram, p)
        return self._sums[..., :k]

    def _line_pass(self):
        "at m = 1 cos^2 = |a^dagger b|^2: (gram, angles), no pass once kept"
        gram = _overlap_pass(self.bases)[0] if self._gram is None else self._gram
        return gram, gram[:, :, None]

    def _keep(self, gram, out=None):
        """keep the first gram, refusing two members that span one subspace;
        returns `out`, the checked array of the same pass, read-only"""
        if self._gram is None and self.check_duplicates:
            off = np.where(np.eye(len(gram), dtype=bool), -np.inf, gram)
            i, j = np.unravel_index(np.argmax(off), off.shape)
            if not off[i, j] <= self.m - DUP_SLACK:   # NaN fails
                raise DuplicateMember("members %d and %d coincide or are not "
                                      "finite (tr = %.12g)" % (i, j, off[i, j]))
        self._gram = gram if self._gram is None else self._gram
        if out is not None:
            out.flags.writeable = False
        return out


def gram_matrix(S):
    """Symmetric matrix of trace inner products tr(P_a P_b): the code's
    cached gram (read-only).  A plain list of subspaces is made a Code
    first, duplicate check included."""
    if not isinstance(S, Code):
        S = Code(S)
    return S.gram()


def haar_subspace(n, m, seed=0):
    "one Haar-distributed m-dimensional subspace of C^n"
    return Subspace(haar_basis_batch(n, m, 1, seed)[0])


def seeded_generator(seed):
    """the numpy Generator of `seed`: an integer >= 0 (check_integer), or a
    Generator itself, which is then drawn from in place"""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(check_integer(seed, "seed"))


def haar_basis_batch(n, m, samples, seed=0):
    """Orthonormal bases of Haar samples, (samples, n, m); `seed` as
    seeded_generator takes it.  Haar is the Q of a complex Gaussian whose R
    has a positive diagonal (Mezzadri 2007), _phase_fixed_q.  The stream is
    one standard_normal buffer (2, samples, n, m), real then imaginary
    parts."""
    m = check_integer(m, "m", 1)
    n = check_integer(n, "n", m)
    samples = check_integer(samples, "samples")
    g = np.empty((2, samples, n, m))
    seeded_generator(seed).standard_normal(out=g)
    return _phase_fixed_q(g[0] + 1j * g[1])


def haar_cosine_batch(n, m, samples, seed=0):
    """A real (samples, m, m) tridiagonal stack T whose eigenvalues have the
    law of the squared cosines between a Haar m-plane of C^n and a fixed
    one; `seed` as seeded_generator takes it.  k = min(m, n - m) cosines
    below 1 have the beta = 2 Jacobi density prod (1 - y_i)^(n - 2k)
    Delta(y)^2, as the squared singular values of the k x k upper bidiagonal
    B of the Jacobi matrix model (Edelman & Sutton 2008; Killip & Nenciu
    2004): diagonal (c_k, c_(k-1) s'_(k-1), ..., c_1 s'_1), superdiagonal
    (s_k c'_(k-1), ..., s_2 c'_1), c_i^2 ~ Beta(i, n - 2k + i), c'_i^2 ~
    Beta(i, n - 2k + 1 + i), s^2 = 1 - c^2.  T = I_(m-k) + B^T B, so T_rr =
    d_r^2 + e_(r-1)^2 and T_(r,r+1) = d_r e_r for B's diagonal d and
    superdiagonal e; the m - k cosines 1 are the intersection when n < 2m.
    The stream is one standard_gamma draw of `samples` per Beta's X, for
    c_k .. c_1 and c'_(k-1) .. c'_1, then per Y: the Beta is X/(X + Y)."""
    m = check_integer(m, "m", 1)
    n = check_integer(n, "n", m)
    samples = check_integer(samples, "samples")
    rng = seeded_generator(seed)
    k = min(m, n - m)
    i = np.r_[k:0:-1, k - 1:0:-1]       # c_k .. c_1, then c'_(k-1) .. c'_1
    g = np.empty((2, len(i), samples))
    for row, shape in zip(g.reshape(2 * len(i), samples),
                          np.r_[i, i + n - 2 * k + (np.arange(len(i)) >= k)]):
        rng.standard_gamma(shape, out=row)
    c2, s2 = g / g.sum(0)
    d2 = c2[:k] * np.vstack([np.ones(samples), s2[k:]])   # B's diagonal^2
    e2 = s2[:k - 1] * c2[k:]                               # superdiagonal^2
    T = np.zeros((samples, m, m))
    T[:, range(m - k), range(m - k)] = 1
    j = np.arange(m - k, m)
    T[:, j, j] = (d2 + np.vstack([np.zeros(samples), e2])).T
    T[:, j[1:], j[:-1]] = T[:, j[:-1], j[1:]] = np.sqrt(d2[:-1] * e2).T
    return T

