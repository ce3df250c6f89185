"""The reference Haar sampler: Mezzadri's recipe (How to generate random
matrices from the classical compact groups, Notices AMS 2007), one LAPACK QR
per sample and a phase fix that makes R's diagonal positive and real, on the
same seeded Gaussian stream as core_linalg.haar_basis_batch.
"""

import numpy as np


def gaussian_batch(n, m, samples, seed=0):
    """the complex Gaussians (samples, n, m) that both samplers factor: all
    real parts, then all imaginary parts, from one seeded stream"""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((samples, n, m))
            + 1j * rng.standard_normal((samples, n, m)))


def haar_basis_batch_qr(n, m, samples, seed=0):
    "the Q factors of gaussian_batch, phases fixed so that R's diagonal is > 0"
    q, r = np.linalg.qr(gaussian_batch(n, m, samples, seed), mode="reduced")
    d = np.diagonal(r, axis1=1, axis2=2).copy()
    d = np.where(np.abs(d) > 0, d / np.abs(d), 1.0)
    return q * d[:, None, :]
