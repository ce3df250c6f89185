"""The ordered-pair route to a code's relation classes, the oracle for
analysis._relations, which clusters each unordered pair once.

All N(N - 1) off-diagonal rows are clustered by recursive coordinate
splitting, single linkage per coordinate with the 3*tol ambiguity band, and
each class representative is the mean of its rows down axis 0.  Returns the
assignment (class 0 the diagonal, the rest ordered by representative,
lexicographically descending) and the representatives.
"""

import numpy as np

from grasscode.errors import ClusterAmbiguity


def split_1d(values, tol):
    order = np.argsort(values)
    gaps = np.diff(values[order])
    cut = np.nonzero(gaps > tol)[0]
    bad = [g for g in gaps[cut] if g < 3 * tol]
    if bad:
        raise ClusterAmbiguity(
            "cluster gap %.3e inside the ambiguity band [%g, %g)"
            % (min(bad), tol, 3 * tol))
    return np.split(order, cut + 1)


def cluster_labels(vecs, tol):
    blocks = [np.arange(len(vecs))]
    for c in range(vecs.shape[1]):
        blocks = [idx[g] for idx in blocks for g in split_1d(vecs[idx, c], tol)]
    labels = np.zeros(len(vecs), dtype=np.int64)
    for k, idx in enumerate(blocks):
        labels[idx] = k
    return labels, len(blocks)


def ordered_pair_relations(X, identity, tol):
    N = X.shape[0]
    mask = ~np.eye(N, dtype=bool)
    flat = X[mask]
    labels, k = cluster_labels(flat, tol)
    reps = [tuple(flat[labels == j].mean(axis=0)) for j in range(k)]
    order = sorted(range(k), key=lambda j: reps[j], reverse=True)
    relabel = np.empty(k, dtype=np.int64)
    relabel[order] = np.arange(1, k + 1)
    assignment = np.zeros((N, N), dtype=np.int64)
    assignment[mask] = relabel[labels]
    return assignment, [tuple(identity)] + [reps[j] for j in order]
