"""Law check of core_linalg.haar_overlap_batch against the LAPACK QR oracle.

Both sides give the overlaps W of Haar subspaces of G(m, n) with the
first-r-coordinates subspace, r = ROWS (m if not given): the sampler draws
the r x m block W alone from the Bartlett stack, the oracle keeps the top
r x m block of a full phase-fixed Q.  For each power sum p_k = tr(H^k),
H = W^dagger W - I/2, k = 1..m, a two-sample z compares the means of p_k and
of p_k^2, so the first two moments of every power sum are checked.  Samples
are drawn in blocks, so memory does not grow with the count.

    python tests/haar_law.py SAMPLES M,N[,ROWS] [M,N[,ROWS] ...]

prints the largest |z| of each case and exits 1 if one reaches 5 or is NaN
(at rows = n, W^dagger W = I and every z is NaN: use rows < n).
"""

import sys

import numpy as np

from grasscode.core_linalg import (haar_overlap_batch, power_sums,
                                   squared_overlaps)

from haar_oracle import haar_basis_batch_qr

BLOCK = 20_000


def power_sum_blocks(sampler, n, m, samples, seed, rows):
    "the power sums (b, m) of sampler's overlaps, b <= BLOCK per block"
    rng = np.random.default_rng(seed)
    for lo in range(0, samples, BLOCK):
        w = sampler(n, m, min(BLOCK, samples - lo), rng, rows)
        yield power_sums(squared_overlaps(w), m)


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


def law_z(n, m, samples, seed=0, rows=None):
    """two-sample z of the first two moments of each power sum, (2 m,):
    haar_overlap_batch on seed against the oracle on seed + 1"""
    def oracle(n, m, b, rng, rows):
        return haar_basis_batch_qr(n, m, b, rng)[:, :rows or m]

    na, ma, va = moments(power_sum_blocks(haar_overlap_batch, n, m, samples,
                                          seed, rows))
    nb, mb, vb = moments(power_sum_blocks(oracle, n, m, samples, seed + 1,
                                          rows))
    return (ma - mb) / np.sqrt(va / na + vb / nb)


def main(argv):
    samples = int(argv[0])
    cases = [(list(map(int, a.split(","))) + [None])[:3] for a in argv[1:]]
    ok = True
    for m, n, rows in cases:
        z = float(np.abs(law_z(n, m, samples, m * 100 + n, rows)).max())
        print("G(%d,%d), %d rows: %d samples per side, max |z| = %.2f"
              % (m, n, rows or m, samples, z))
        ok = ok and z < 5   # a NaN z fails
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
