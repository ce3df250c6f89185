"""The reference Haar samplers: Mezzadri's recipe (How to generate random
matrices from the classical compact groups, Notices AMS 2007), one LAPACK QR
per sample and a phase fix that makes R's diagonal positive and real, on the
same seeded stream as core_linalg.haar_basis_batch; and the Jacobi matrix
model's tridiagonal, built one sample at a time on the same seeded stream
as core_linalg.haar_cosine_batch.
"""

import numpy as np


def gaussian_batch(n, m, samples, seed=0):
    """the complex Gaussians (samples, n, m) that both basis samplers factor:
    all real parts, then all imaginary parts, from one seeded stream"""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((samples, n, m))
            + 1j * rng.standard_normal((samples, n, m)))


def haar_basis_batch_qr(n, m, samples, seed=0):
    "the Q factors of gaussian_batch, phases fixed so that R's diagonal is > 0"
    q, r = np.linalg.qr(gaussian_batch(n, m, samples, seed), mode="reduced")
    d = np.diagonal(r, axis1=1, axis2=2).copy()
    d = np.where(np.abs(d) > 0, d / np.abs(d), 1.0)
    return q * d[:, None, :]


def haar_cosine_batch_bidiagonal(n, m, samples, seed=0):
    """I_(m-k) + B^T B (samples, m, m), k = min(m, n - m), a = n - 2k, for
    the k x k upper bidiagonal B of the beta = 2 Jacobi matrix model
    (Edelman & Sutton 2008), built one sample at a time: row r of B holds
    c_i s'_i on the diagonal (c_k alone at r = 0) and s_i c'_(i-1) right of
    it, i = k - r, with c_i^2 ~ Beta(i, a + i), c'_i^2 ~ Beta(i, a + 1 + i)
    and s^2 = 1 - c^2.  The same stream as core_linalg.haar_cosine_batch,
    drawn here by hand: one standard_gamma of `samples` per variable, the X
    of c_k .. c_1 and c'_(k-1) .. c'_1, then their Y, each Beta X/(X + Y)."""
    rng = np.random.default_rng(seed)
    k = min(m, n - m)
    a = n - 2 * k
    names = ([("c", i) for i in range(k, 0, -1)]
             + [("c'", i) for i in range(k - 1, 0, -1)])
    x = [rng.standard_gamma(i, samples) for _, i in names]
    y = [rng.standard_gamma(a + i + (name == "c'"), samples)
         for name, i in names]
    cos = {v: np.sqrt(xv / (xv + yv)) for v, xv, yv in zip(names, x, y)}
    sin = {v: np.sqrt(yv / (xv + yv)) for v, xv, yv in zip(names, x, y)}
    T = np.zeros((samples, m, m))
    for q in range(samples):
        B = np.zeros((k, k))
        for r in range(k):
            i = k - r
            B[r, r] = cos["c", i][q] * (sin["c'", i][q] if r else 1.0)
            if r + 1 < k:
                B[r, r + 1] = sin["c", i][q] * cos["c'", i - 1][q]
        T[q] = np.eye(m)
        T[q, m - k:, m - k:] = B.T @ B
    return T
