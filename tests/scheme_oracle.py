"""The dense N x N route to a scheme's idempotent residuals, the oracle for
analysis.scheme_idempotents, which works in the Bose-Mesner algebra.

Each E_mu = Z_mu(y(a, b))/|S| is formed as an N x N float matrix from the
normalized zonal at every pair's power sums, every product E_mu E_lam is a
dense matrix product, the design strength is design_strength's per-pair
average to degree 2t, and the coarse relations at m > 1 are re-clustered
from the gram by inner_product_classes.
"""

import numpy as np

from grasscode.analysis import (IdempotentReport, design_strength,
                                inner_product_classes)
from grasscode.partitions import Partition
from grasscode.zonal import normalize_zonal, zonal_basis

from relations_oracle import relation_matrix


def dense_scheme_idempotents(S, R, t=2, tol=1e-8):
    """Build E_mu = Z_mu(y(a,b))/|S| from normalized zonals for |mu| <= t and
    measure Frobenius residuals of E_mu E_lam - delta E_mu.

    E_mu E_lam = delta_{mu,lam} E_mu is only guaranteed when S is an
    (|mu|+|lam|)-design, so each pair is reported with its requirement and
    whether the measured strength, tested up to 2t, certifies it.  For the
    coarse relations the eigen-relation A'_c E'_i ~ E'_i is also measured."""
    N = len(S)
    P = S.power_sums(max(2 * t, 1))
    Es = {}
    for Z in zonal_basis(S.m, S.n, t):
        Es[Z.mu] = normalize_zonal(Z).eval_power_sums(P) / N
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
            A = relation_matrix(coarse_R, c)
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
