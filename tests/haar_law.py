"""Law check of the Monte Carlo cosine sampler against the LAPACK QR oracle.

Both sides give, for Haar subspaces c of G(m, n), a Hermitian stack whose
spectrum is that of W^dagger W for the overlaps W of c with the
first-m-coordinates subspace: core_linalg.haar_cosine_batch draws the real
tridiagonal T of the Jacobi matrix model, and the oracle keeps the top
m x m block W of a full phase-fixed Q.  For each power sum p_k = tr(H^k),
H = T - I/2 (or W^dagger W - I/2), k = 1..m, a two-sample z compares the
means of p_k and of p_k^2, so the first two moments of every power sum are
checked.  Samples are drawn in blocks, so memory does not grow with the
count.

    python tests/haar_law.py --cosines SAMPLES M,N [M,N ...]

prints the largest |z| of each case and exits 1 if one reaches 5 or is NaN
(at n = m the cosine draw is T = I and every z is NaN).  --cosines names the
law checked, the only one, and may be left out.
"""

import sys

import numpy as np

from grasscode.core_linalg import (haar_cosine_batch, power_sums,
                                   squared_overlaps)

from haar_oracle import haar_basis_batch_qr

BLOCK = 20_000


def cosine_grams(n, m, samples, rng):
    "haar_cosine_batch's tridiagonal T, the law of W^dagger W"
    return haar_cosine_batch(n, m, samples, rng)


def oracle_grams(n, m, samples, rng):
    "W^dagger W of the top m x m block of the QR oracle's full bases"
    return squared_overlaps(haar_basis_batch_qr(n, m, samples, rng)[:, :m])


def power_sum_blocks(grams, n, m, samples, seed):
    "the power sums (b, m) of grams' stacks, b <= BLOCK per block"
    rng = np.random.default_rng(seed)
    for lo in range(0, samples, BLOCK):
        yield power_sums(grams(n, m, min(BLOCK, samples - lo), rng), m)


def moments(blocks):
    """(count, mean, variance) of the stacked values [p_k, p_k^2], one column
    per power sum and moment"""
    count, s1, s2 = 0, 0.0, 0.0
    for p in blocks:
        x = np.concatenate([p, p * p], axis=-1)
        count += len(x)
        s1 = s1 + x.sum(0)
        s2 = s2 + (x * x).sum(0)
    mean = s1 / count
    return count, mean, (s2 - count * mean * mean) / (count - 1)


def law_z(n, m, samples, seed=0, grams=cosine_grams):
    """two-sample z of the first two moments of each power sum, (2 m,):
    grams (cosine_grams by default) on seed against the oracle on seed + 1"""
    na, ma, va = moments(power_sum_blocks(grams, n, m, samples, seed))
    nb, mb, vb = moments(power_sum_blocks(oracle_grams, n, m, samples,
                                          seed + 1))
    return (ma - mb) / np.sqrt(va / na + vb / nb)


def main(argv):
    if argv[0] == "--cosines":
        argv = argv[1:]
    samples = int(argv[0])
    ok = True
    for case in argv[1:]:
        m, n = map(int, case.split(","))
        z = float(np.abs(law_z(n, m, samples, m * 100 + n)).max())
        print("G(%d,%d), cosines: %d samples per side, max |z| = %.2f"
              % (m, n, samples, z))
        ok = ok and z < 5   # a NaN z fails
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
