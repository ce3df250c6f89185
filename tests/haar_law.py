"""Law check of the Monte Carlo samplers against the LAPACK QR oracle.

Both sides give, for Haar subspaces c of G(m, n), a Hermitian stack whose
spectrum is that of W^dagger W for the overlaps W of c with the
first-r-coordinates subspace, r = ROWS (m if not given).  The overlap
sampler core_linalg.haar_overlap_batch draws the r x m block W alone from
the Bartlett stack; with --cosines, core_linalg.haar_cosine_batch draws the
real tridiagonal T of the Jacobi matrix model instead (r = m only); the
oracle keeps the top r x m block of a full phase-fixed Q.  For each power
sum p_k = tr(H^k), H = W^dagger W - I/2 (or T - I/2), k = 1..m, a
two-sample z compares the means of p_k and of p_k^2, so the first two
moments of every power sum are checked.  Samples are drawn in blocks, so
memory does not grow with the count.

    python tests/haar_law.py [--cosines] SAMPLES M,N[,ROWS] [M,N[,ROWS] ...]

prints the largest |z| of each case and exits 1 if one reaches 5 or is NaN
(at rows = n, W^dagger W = I and every z is NaN: use rows < n; at n = m the
cosine draw is T = I and every z is NaN too).
"""

import sys

import numpy as np

from grasscode.core_linalg import (haar_cosine_batch, haar_overlap_batch,
                                   power_sums, squared_overlaps)

from haar_oracle import haar_basis_batch_qr

BLOCK = 20_000


def overlap_grams(n, m, samples, rng, rows):
    "W^dagger W of haar_overlap_batch's overlaps with I[:, :rows]"
    return squared_overlaps(haar_overlap_batch(n, m, samples, rng, rows))


def cosine_grams(n, m, samples, rng, rows):
    "haar_cosine_batch's tridiagonal T, the law of W^dagger W at rows = m"
    if rows not in (None, m):
        raise ValueError("the cosine draw has rows = m only, got %r" % rows)
    return haar_cosine_batch(n, m, samples, rng)


def oracle_grams(n, m, samples, rng, rows):
    "W^dagger W of the top rows x m block of the QR oracle's full bases"
    w = haar_basis_batch_qr(n, m, samples, rng)[:, :rows or m]
    return squared_overlaps(w)


def power_sum_blocks(grams, n, m, samples, seed, rows):
    "the power sums (b, m) of grams' stacks, b <= BLOCK per block"
    rng = np.random.default_rng(seed)
    for lo in range(0, samples, BLOCK):
        yield power_sums(grams(n, m, min(BLOCK, samples - lo), rng, rows), m)


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


def law_z(n, m, samples, seed=0, rows=None, grams=overlap_grams):
    """two-sample z of the first two moments of each power sum, (2 m,):
    grams (overlap_grams by default) on seed against the oracle on seed + 1"""
    na, ma, va = moments(power_sum_blocks(grams, n, m, samples, seed, rows))
    nb, mb, vb = moments(power_sum_blocks(oracle_grams, n, m, samples,
                                          seed + 1, rows))
    return (ma - mb) / np.sqrt(va / na + vb / nb)


def main(argv):
    grams = overlap_grams
    if argv[0] == "--cosines":
        grams, argv = cosine_grams, argv[1:]
    samples = int(argv[0])
    cases = [(list(map(int, a.split(","))) + [None])[:3] for a in argv[1:]]
    ok = True
    for m, n, rows in cases:
        z = float(np.abs(law_z(n, m, samples, m * 100 + n, rows,
                               grams)).max())
        print("G(%d,%d), %s: %d samples per side, max |z| = %.2f"
              % (m, n, "cosines" if grams is cosine_grams
                 else "%d rows" % (rows or m), samples, z))
        ok = ok and z < 5   # a NaN z fails
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
