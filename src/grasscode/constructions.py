"""Explicit Grassmannian codes: Pauli half-spaces, extraspecial-group
invariant subspaces over odd prime fields, and mutually unbiased bases.

Every Pauli and extraspecial member is a joint eigenspace of commuting
monomial operators: a Pauli word, or the Weyl operators X(a)Y(b), (a,b) in
a canonical basis of a totally isotropic W in F_p^{2n}.  Each operator is an
integer table (the index it sends e_u to, and a phase exponent), so the
group they generate is enumerated in integers, and each eigenspace is
written directly in the basis fixed by its span: the normalized columns
P e_u of its projector P at the first index u of each orbit, whose entries
are exactly a root of unity over sqrt(orbit size) or 0.  No eigen-solve and
no tolerance is involved.
"""

from itertools import combinations, product
from math import isqrt

import numpy as np

from .core_linalg import Code
from .dims import check_integer, q_binomial
from .errors import OutOfRange, SizeLimit, ValidationFailure

PAULI_LIMIT = 64             # largest n = 2^k of pauli_code
EXTRASPECIAL_LIMIT = 2048    # largest p^n of extraspecial_code
MUB_LIMIT = 101              # largest p of mub_code
ISOTROPIC_LIMIT = 10 ** 6    # most subspaces enumerate_isotropic lists


def _joint_eigenspaces(dst, e, r, order, dim):
    """Bases of the joint eigenspaces of commuting monomial operators, for a
    batch of families of d operators: integer tables dst, e (blocks, d, q),
    where a block's U_i e_u = w^e[i, u] e_dst[i, u], w = exp(2 pi i/r),
    U_i^order = I and U_i = w^(j_i r/order) on tag j.  Returns (blocks,
    order^d, q, dim), tags j in range(order)^d in lexicographic order.

    Over the group of U^t = prod U_i^t_i, tag j's projector is P_j =
    order^-d sum_t w^-chi_j(t) U^t, chi_j(t) = (r/order) j.t, so P_j e_u
    vanishes unless chi_j agrees with the phase of each U^t fixing u, and is
    otherwise a positive multiple of w^(phi_t(u) - chi_j(t)) at each
    sig_t(u), the s indices of u's orbit.  The basis is P_j e_u / |P_j e_u|
    at the first u of each orbit, in increasing u: the Q factor, with a
    positive diagonal R, of P_j at the columns where its rank grows."""
    nb, d, q = dst.shape
    blk = np.arange(nb)[:, None, None]
    sig = np.broadcast_to(np.arange(q), (nb, 1, q))   # U^t e_u = w^phi e_sig
    phi = np.zeros((nb, 1, q), dtype=np.int64)
    for i in range(d):
        sigs, phis = [sig], [phi]
        for _ in range(order - 1):
            phis.append(phis[-1] + e[blk, i, sigs[-1]])
            sigs.append(dst[blk, i, sigs[-1]])
        sig = np.stack(sigs, axis=2).reshape(nb, -1, q)
        phi = np.stack(phis, axis=2).reshape(nb, -1, q) % r
    tags = np.array(list(product(range(order), repeat=d)))
    exps = (phi[:, None] - (r // order) * (tags @ tags.T)[:, :, None]) % r
    fixed = sig == np.arange(q)
    live = ~(fixed[:, None] & (exps != 0)).any(axis=2)
    b, j, u = np.nonzero(live & (sig.min(axis=1) == np.arange(q))[:, None])
    counts = np.bincount(b * len(tags) + j, minlength=nb * len(tags))
    if (counts != dim).any():
        raise ValidationFailure("eigenspace dimensions != %d" % dim,
                                counts.tolist(), dim)
    size = sig.shape[1] // fixed.sum(axis=1)
    roots = np.exp(2j * np.pi * np.arange(r) / r)
    out = np.zeros((nb, len(tags), q, dim), dtype=complex)
    out[b, j, sig[b, :, u].T, np.arange(len(u)) % dim] = (
        roots[exps[b, j, :, u].T] / np.sqrt(size[b, u]))
    return out


def _weyl_table(p, n, a, b):
    """X(a)Y(b) on C^(p^n) as integer tables: X(a)Y(b) e_u = w^e[u] e_dst[u]
    with dst = index of (u + a) mod p and e = b.u mod p, w = exp(2 pi i/p),
    indices big-endian; a and b may carry leading axes, as dst and e then
    do.  X(a) e_v = e_{v+a} and Y(b) e_v = w^(b.v) e_v."""
    a, b = np.asarray(a)[..., None, :], np.asarray(b)[..., None, :]
    radix = p ** np.arange(n - 1, -1, -1)
    vecs = (np.arange(p ** n)[:, None] // radix) % p
    return ((vecs + a) % p) @ radix, (vecs * b).sum(axis=-1) % p


def pauli_code(k):
    """The {0, n/4}-code of all half-dimensional eigenspaces of non-identity
    Pauli tensor words on n = 2^k dimensions: 2(n^2 - 1) subspaces in G(n/2, n)."""
    check_integer(k, "k", 1)
    n = 2 ** k
    if n > PAULI_LIMIT:
        raise SizeLimit("n = 2^%d = %d exceeds the limit %d" % (k, n, PAULI_LIMIT))
    words = np.array(list(product(range(4), repeat=k))[1:])
    # letters IXYZ = 0123, and Y = iXZ: a letter is i^(xz) X^x Z^z, the
    # p = 2 Weyl operator X(x)Y(z) with its phase doubled to mod 4
    x, z = words % 3 > 0, words // 2
    dst, e = _weyl_table(2, k, x[:, None], z[:, None])
    e = (2 * e + (x * z).sum(axis=1)[:, None, None]) % 4
    bases = _joint_eigenspaces(dst, e, 4, 2, n // 2).reshape(-1, n, n // 2)
    labels = ["".join("IXYZ"[d] for d in digits) + sign
              for digits in words for sign in (":+", ":-")]
    return Code(bases, labels=labels)


def _check_odd_prime(p):
    check_integer(p, "p", 3)
    if not (p % 2 and all(p % f for f in range(3, isqrt(p) + 1, 2))):
        raise OutOfRange("p must be an odd prime, got %d" % p)


def _echelon_fill(p, ncols, pivots):
    "yield all reduced-echelon row sets with the given pivot columns"
    d = len(pivots)
    free = [(r, c) for r in range(d) for c in range(pivots[r] + 1, ncols)
            if c not in pivots]
    base = np.zeros((d, ncols), dtype=np.int64)
    base[range(d), pivots] = 1
    for vals in product(range(p), repeat=len(free)):
        rows = base.copy()
        for (r, c), v in zip(free, vals):
            rows[r, c] = v
        yield rows


def isotropic_count(p, n, d):
    "number of totally isotropic d-subspaces of F_p^{2n} (exact)"
    check_integer(d, "d")
    check_integer(n, "n", d)
    count = q_binomial(n, d, p)
    for i in range(n - d + 1, n + 1):
        count *= p ** i + 1
    return count


def enumerate_isotropic(p, n, d):
    """All totally isotropic d-dimensional subspaces of F_p^{2n}, one
    canonical reduced-echelon representative each, as a d x 2n int64 array
    of rows (a, b) with a1.b2 - a2.b1 = 0 mod p for every two rows, in
    deterministic order.  The closed-form count is a mandatory self-check."""
    _check_odd_prime(p)
    expected = isotropic_count(p, n, d)
    if expected > ISOTROPIC_LIMIT:
        raise SizeLimit("isotropic count %d exceeds the limit %d"
                        % (expected, ISOTROPIC_LIMIT))
    if d == 0:
        return [np.zeros((0, 2 * n), dtype=np.int64)]
    out = []
    for pivots in combinations(range(2 * n), d):
        for rows in _echelon_fill(p, 2 * n, pivots):
            a, b = rows[:, :n], rows[:, n:]
            if not ((a @ b.T - b @ a.T) % p).any():
                out.append(rows)
    if len(out) != expected:
        raise ValidationFailure(
            "isotropic enumeration found %d, formula says %d"
            % (len(out), expected), len(out), expected)
    return out


def extraspecial_size(p, n, k):
    "closed-form member count of extraspecial_code(p, n, k)"
    check_integer(k, "k")
    check_integer(n, "n", k + 1)
    return p ** (n - k) * isotropic_count(p, n, n - k)


def extraspecial_code(p, n, k):
    """All joint eigenspaces of the commuting unitary families
    {X(a)Y(b) : (a,b) in W} over totally isotropic W of dimension n-k:
    a code of p^k-dimensional subspaces of C^(p^n)."""
    check_integer(k, "k")
    check_integer(n, "n", k + 1)
    _check_odd_prime(p)
    q = p ** n
    if q > EXTRASPECIAL_LIMIT:
        raise SizeLimit("p^n = %d exceeds the limit %d" % (q, EXTRASPECIAL_LIMIT))
    isos = np.array(enumerate_isotropic(p, n, n - k))
    dst, e = _weyl_table(p, n, isos[..., :n], isos[..., n:])
    bases = _joint_eigenspaces(dst, e, p, p, p ** k).reshape(-1, q, p ** k)
    if len(bases) != extraspecial_size(p, n, k):
        raise ValidationFailure("member count != closed form",
                                len(bases), extraspecial_size(p, n, k))
    labels = ["W%d:chi%s" % (w, "".join(map(str, tag))) for w in range(len(isos))
              for tag in product(range(p), repeat=n - k)]
    return Code(bases, labels=labels)


def mub_code(p):
    """p(p+1) lines in C^p: the standard basis together with the p bases
    with vectors (1/sqrt p) (w^(a s^2 + b s))_s -- a {0, 1/p}-code."""
    _check_odd_prime(p)
    if p > MUB_LIMIT:
        raise SizeLimit("p = %d exceeds the limit %d" % (p, MUB_LIMIT))
    roots = np.exp(2j * np.pi * np.arange(p) / p)
    a, b, s = np.ogrid[:p, :p, :p]
    bases = np.concatenate([np.eye(p), (roots[(a * s * s + b * s) % p]
                                        / np.sqrt(p)).reshape(p * p, p)])
    labels = (["std:%d" % t for t in range(p)]
              + ["B%d:%d" % ab for ab in product(range(p), repeat=2)])
    return Code(bases[:, :, None], labels=labels)
