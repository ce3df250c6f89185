"""Explicit Grassmannian codes: Pauli half-spaces, extraspecial-group
invariant subspaces over odd prime fields, and mutually unbiased bases.

The extraspecial construction never builds group characters explicitly.
For each totally isotropic subspace W of F_p^{2n} it takes the commuting
unitaries X(a)Y(b), (a,b) in a canonical basis of W, and refines the full
space into their joint eigenspaces using the exact character projectors
P_j = (1/p) sum_t w^{-jt} U^t (each operator has order exactly p), which are
Hermitian, so orthonormal eigenbases come from eigh without degeneracy
headaches.  X(a)Y(b) is monomial, so it is applied as a row gather times
phases and no p^n x p^n matrix is formed.  Each eigenspace is written in a
basis fixed by its span, not by the phases eigh returns.
"""

from itertools import combinations, product

import numpy as np

from .core_linalg import Code, Subspace
from .dims import q_binomial
from .errors import (NumericalDegeneracy, OutOfRange, SizeLimit,
                     ValidationFailure)

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_LETTERS = "IXYZ"


def pauli_code(k, size_limit=64):
    """The {0, n/4}-code of all half-dimensional eigenspaces of non-identity
    Pauli tensor words on n = 2^k dimensions: 2(n^2 - 1) subspaces in G(n/2, n)."""
    if k < 1:
        raise OutOfRange("k must be >= 1, got %d" % k)
    n = 2 ** k
    if n > size_limit:
        raise SizeLimit("n = 2^%d = %d exceeds the limit %d" % (k, n, size_limit))
    members = []
    labels = []
    half = n // 2
    for digits in product(range(4), repeat=k):
        if not any(digits):
            continue
        word = "".join(_LETTERS[d] for d in digits)
        mat = _PAULI[word[0]]
        for ch in word[1:]:
            mat = np.kron(mat, _PAULI[ch])
        w, v = np.linalg.eigh(mat)
        if np.abs(w[:half] + 1).max() > 1e-9 or np.abs(w[half:] - 1).max() > 1e-9:
            raise NumericalDegeneracy(
                "Pauli word %s eigenvalues not +-1: %r" % (word, w))
        members.append(Subspace(v[:, half:]))   # range of (I + word)/2
        labels.append(word + ":+")
        members.append(Subspace(v[:, :half]))   # range of (I - word)/2
        labels.append(word + ":-")
    return Code(members, labels=labels)


def _is_odd_prime(p):
    if p < 3 or p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _weyl_gather(p, n, a, b):
    """X(a)Y(b) on C^(p^n) as a row gather: (X(a)Y(b) B)[v] = phase[v] *
    B[src[v]] with src = index of (v - a) mod p and phase = w^(b.(v - a)),
    w = exp(2 pi i/p), indices big-endian.  X(a) e_v = e_{v+a} and
    Y(b) e_v = w^(b.v) e_v."""
    radix = p ** np.arange(n - 1, -1, -1)
    vecs = (np.arange(p ** n)[:, None] // radix) % p
    shifted = (vecs - np.asarray(a, dtype=np.int64)) % p
    phase = np.exp(2j * np.pi * np.arange(p) / p)[
        (shifted @ np.asarray(b, dtype=np.int64)) % p]
    return shifted @ radix, phase


def _echelon_fill(p, ncols, pivots):
    "yield all reduced-echelon row sets with the given pivot columns"
    d = len(pivots)
    free = [(r, c) for r in range(d) for c in range(pivots[r] + 1, ncols)
            if c not in pivots]
    base = np.zeros((d, ncols), dtype=np.int64)
    for r, c in enumerate(pivots):
        base[r, c] = 1
    if not free:
        yield base.copy()
        return
    for vals in product(range(p), repeat=len(free)):
        rows = base.copy()
        for (r, c), v in zip(free, vals):
            rows[r, c] = v
        yield rows


def isotropic_count(p, n, d):
    "number of totally isotropic d-subspaces of F_p^{2n} (exact)"
    if not 0 <= d <= n:
        raise OutOfRange("need 0 <= d <= n, got d=%d n=%d" % (d, n))
    count = q_binomial(n, d, p)
    for i in range(n - d + 1, n + 1):
        count *= p ** i + 1
    return count


def enumerate_isotropic(p, n, d, count_limit=10 ** 6):
    """All totally isotropic d-dimensional subspaces of F_p^{2n}, one
    canonical reduced-echelon representative each, as a d x 2n int64 array
    of rows (a, b) with a1.b2 - a2.b1 = 0 mod p for every two rows, in
    deterministic order.  The closed-form count is a mandatory self-check."""
    if not _is_odd_prime(p):
        raise OutOfRange("p must be an odd prime, got %d" % p)
    expected = isotropic_count(p, n, d)
    if expected > count_limit:
        raise SizeLimit("isotropic count %d exceeds the limit %d"
                        % (expected, count_limit))
    if d == 0:
        return [np.zeros((0, 2 * n), dtype=np.int64)]
    out = []
    for pivots in combinations(range(2 * n), d):
        for rows in _echelon_fill(p, 2 * n, pivots):
            a = rows[:, :n]
            b = rows[:, n:]
            gram = (a @ b.T - b @ a.T) % p
            if not gram.any():
                out.append(rows)
    if len(out) != expected:
        raise ValidationFailure(
            "isotropic enumeration found %d, formula says %d"
            % (len(out), expected), len(out), expected)
    return out


def extraspecial_size(p, n, k):
    "closed-form member count of extraspecial_code(p, n, k)"
    return p ** (n - k) * isotropic_count(p, n, n - k)


def _canonical_bases(B, tol=1e-6):
    """Bases fixed by each span alone, whatever phases eigh returned, for a
    stack (N, q, m): the Q factor, with a positive real diagonal R, of
    P[:, J] for P = B B^dagger and J the first m columns at which P's column
    rank grows by more than tol (a line's first entry of modulus > tol is
    real and positive).  P[:, j] = B conj(B[j]), so the rank grows where the
    rows of B do, and P[:, J] = B C with C = B[J]^dagger has Q factor B U
    for C = U R."""
    rows = B.conj()
    span = np.zeros(B.shape[:1] + (B.shape[2],) * 2, dtype=complex)
    pick = np.zeros(B.shape[:2], dtype=bool)
    for j in range(B.shape[1]):
        v = rows[:, j] - np.einsum("nab,nb->na", span, rows[:, j])
        norm2 = np.einsum("na,na->n", v.conj(), v).real
        pick[:, j] = norm2 > tol * tol
        v /= np.sqrt(np.where(pick[:, j], norm2, np.inf))[:, None]
        span += v[:, :, None] * v.conj()[:, None, :]
    if not (pick.sum(axis=1) == B.shape[2]).all():
        raise NumericalDegeneracy("eigenspace rows do not have rank m")
    u, r = np.linalg.qr(rows[pick].reshape(B.shape[0], B.shape[2], -1)
                        .swapaxes(1, 2))
    d = np.diagonal(r, axis1=1, axis2=2)
    return B @ (u * (d / np.abs(d))[:, None, :])


def extraspecial_code(p, n, k, size_limit=2048):
    """All joint eigenspaces of the commuting unitary families
    {X(a)Y(b) : (a,b) in W} over totally isotropic W of dimension n-k:
    a code of p^k-dimensional subspaces of C^(p^n)."""
    if not 0 <= k <= n - 1:
        raise OutOfRange("need 0 <= k <= n-1, got k=%d n=%d" % (k, n))
    if not _is_odd_prime(p):
        raise OutOfRange("p must be an odd prime, got %d" % p)
    q = p ** n
    if q > size_limit:
        raise SizeLimit("p^n = %d exceeds the limit %d" % (q, size_limit))
    isos = enumerate_isotropic(p, n, n - k)
    root_conj = np.conj(np.exp(2j * np.pi * np.arange(p) / p))
    members = []
    labels = []
    for widx, iso in enumerate(isos):
        blocks = [np.eye(q, dtype=complex)]
        tags = [()]
        for row in iso:
            src, phase = _weyl_gather(p, n, row[:n], row[n:])
            nblocks = []
            ntags = []
            for B, tag in zip(blocks, tags):
                d = B.shape[1]
                small = B.conj().T @ (phase[:, None] * B[src])
                powers = [np.eye(d, dtype=complex)]
                for _ in range(p - 1):
                    powers.append(powers[-1] @ small)
                for j in range(p):
                    proj = sum(root_conj[(j * t) % p] * powers[t]
                               for t in range(p)) / p
                    tr = proj.trace()
                    r = int(round(tr.real))
                    if abs(tr - r) > 1e-6:
                        raise NumericalDegeneracy(
                            "non-integer eigenspace trace %r" % tr)
                    if r == 0:
                        continue
                    w, v = np.linalg.eigh(proj)
                    if w[-r] < 1 - 1e-6 or (r < d and w[-r - 1] > 1e-6):
                        raise NumericalDegeneracy(
                            "projector spectrum not 0/1 at tolerance: %r" % w)
                    nblocks.append(B @ v[:, d - r:])
                    ntags.append(tag + (j,))
            blocks = nblocks
            tags = ntags
        if len(blocks) != p ** (n - k) or any(B.shape[1] != p ** k for B in blocks):
            raise NumericalDegeneracy(
                "W block %d: expected %d eigenspaces of dim %d, got %r"
                % (widx, p ** (n - k), p ** k, [B.shape[1] for B in blocks]))
        for B, tag in zip(blocks, tags):
            members.append(B)
            labels.append("W%d:chi%s" % (widx, "".join(str(t) for t in tag)))
    if len(members) != extraspecial_size(p, n, k):
        raise ValidationFailure("member count != closed form",
                                len(members), extraspecial_size(p, n, k))
    return Code([Subspace(B) for B in _canonical_bases(np.stack(members))],
                labels=labels)


def mub_code(p, size_limit=101):
    """p(p+1) lines in C^p: the standard basis together with the p bases
    with vectors (1/sqrt p) (w^(a s^2 + b s))_s -- a {0, 1/p}-code."""
    if not _is_odd_prime(p):
        raise OutOfRange("p must be an odd prime, got %d" % p)
    if p > size_limit:
        raise SizeLimit("p = %d exceeds the limit %d" % (p, size_limit))
    roots = np.exp(2j * np.pi * np.arange(p) / p)
    members = []
    labels = []
    for t in range(p):
        v = np.zeros((p, 1), dtype=complex)
        v[t, 0] = 1.0
        members.append(Subspace(v))
        labels.append("std:%d" % t)
    s = np.arange(p)
    for a in range(p):
        for b in range(p):
            v = roots[(a * s * s + b * s) % p] / np.sqrt(p)
            members.append(Subspace(v[:, None]))
            labels.append("B%d:%d" % (a, b))
    return Code(members, labels=labels)
