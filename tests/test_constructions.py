import numpy as np
import pytest

from grasscode.bounds import two_distance_bound
from grasscode.constructions import (ExtraspecialOps, enumerate_isotropic,
                                     extraspecial_code, extraspecial_size,
                                     isotropic_count, mub_code, pauli_code)
from grasscode.core_linalg import gram_matrix
from grasscode.errors import OutOfRange, SizeLimit


def offdiag_values(S):
    g = gram_matrix(S)
    return g[~np.eye(len(S), dtype=bool)]


def test_pauli_sizes_and_gram():
    for k in (1, 2):
        S = pauli_code(k)
        n = 2 ** k
        assert len(S) == 2 * (n * n - 1)
        assert S.n == n and S.m == n // 2
        vals = offdiag_values(S)
        target = n / 4.0
        near0 = np.abs(vals) < 1e-9
        neart = np.abs(vals - target) < 1e-9
        assert np.all(near0 | neart)
        assert near0.any() and neart.any()


def test_pauli_complement_pairing():
    S = pauli_code(2)
    g = gram_matrix(S)
    eye = np.eye(4)
    for i in range(len(S)):
        partners = np.nonzero(np.abs(g[i]) < 1e-9)[0]
        assert len(partners) == 1
        j = int(partners[0])
        resid = np.abs(S[i].projection() + S[j].projection() - eye).max()
        assert resid < 1e-9


def test_operator_family_basics():
    ops = ExtraspecialOps(3, 1)
    w = np.exp(2j * np.pi / 3)
    # phase operator on one trit
    assert np.abs(ops.Y([1]) - np.diag([1, w, w * w])).max() < 1e-12
    # shift operator is a cyclic permutation
    X = ops.X([1])
    e0 = np.zeros(3)
    e0[0] = 1
    assert np.abs(X @ e0 - np.eye(3)[:, 1]).max() < 1e-12
    for U in (X, ops.Y([2]), ops.XY([1], [2])):
        assert np.abs(U @ U.conj().T - np.eye(3)).max() < 1e-12


def test_commutation_relation():
    rng = np.random.default_rng(501)
    for p, n in [(3, 2), (5, 1)]:
        ops = ExtraspecialOps(p, n)
        w = np.exp(2j * np.pi / p)
        for _ in range(6):
            a, b, a2, b2 = (rng.integers(0, p, size=n) for _ in range(4))
            lhs = ops.XY(a, b) @ ops.XY(a2, b2)
            phase = w ** (int(b @ a2) % p)
            rhs = phase * ops.XY((a + a2) % p, (b + b2) % p)
            assert np.abs(lhs - rhs).max() < 1e-10


def test_operators_have_order_p():
    rng = np.random.default_rng(502)
    for p, n in [(3, 2), (5, 1)]:
        ops = ExtraspecialOps(p, n)
        a = rng.integers(0, p, size=n)
        b = rng.integers(0, p, size=n)
        U = ops.XY(a, b)
        acc = np.eye(p ** n, dtype=complex)
        for _ in range(p):
            acc = acc @ U
        assert np.abs(acc - np.eye(p ** n)).max() < 1e-9


def test_isotropic_counts():
    assert isotropic_count(3, 2, 0) == 1
    assert isotropic_count(3, 2, 1) == 40
    assert isotropic_count(3, 2, 2) == 40
    assert isotropic_count(5, 2, 1) == 156
    assert len(enumerate_isotropic(3, 2, 1)) == 40
    assert len(enumerate_isotropic(3, 2, 2)) == 40


def test_isotropic_subspaces_are_isotropic_and_distinct():
    p, n = 3, 2
    subs = enumerate_isotropic(p, n, 2)
    seen = set()
    for W in subs:
        assert W.shape == (2, 2 * n) and W.dtype == np.int64
        a, b = W[:, :n], W[:, n:]
        assert not ((a @ b.T - b @ a.T) % p).any()
        seen.add(W.tobytes())
    assert len(seen) == len(subs)


def test_isotropic_size_limit():
    with pytest.raises(SizeLimit):
        enumerate_isotropic(3, 5, 5)


def test_extraspecial_sizes():
    assert extraspecial_size(3, 2, 1) == 120
    assert extraspecial_size(3, 2, 0) == 360
    assert extraspecial_size(5, 2, 1) == 780
    # q(q^{2n} - 1)/(q - 1) for k = n-1
    for p in (3, 5, 7):
        assert extraspecial_size(p, 2, 1) == p * (p ** 4 - 1) // (p - 1)


def test_extraspecial_321(es321):
    assert len(es321) == 120
    assert es321.n == 9 and es321.m == 3
    for s in es321:
        tr = float(np.trace(s.projection()).real)
        assert abs(tr - 3.0) < 1e-8
    vals = offdiag_values(es321)
    assert np.all((np.abs(vals) < 1e-8) | (np.abs(vals - 1.0) < 1e-8))
    assert two_distance_bound(0, 1, 3, 9).value == 120


def test_extraspecial_320_three_distances(es320):
    assert len(es320) == 360
    assert es320.m == 1
    vals = offdiag_values(es320)
    targets = np.array([0.0, 1 / 9.0, 1 / 3.0])
    dist = np.abs(vals[:, None] - targets[None, :]).min(axis=1)
    assert dist.max() < 1e-8
    # all three values realized
    for t in targets:
        assert (np.abs(vals - t) < 1e-8).any()


def test_extraspecial_attains_relative_bound():
    S = extraspecial_code(5, 2, 1)
    assert len(S) == 780
    assert two_distance_bound(0, 1, 5, 25).value == 780
    vals = offdiag_values(S)
    assert np.all((np.abs(vals) < 1e-8) | (np.abs(vals - 1.0) < 1e-8))


def test_within_block_orthogonality(es321):
    # members sharing an isotropic block label are pairwise orthogonal
    groups = {}
    for i, lab in enumerate(es321.labels):
        groups.setdefault(lab.split(":")[0], []).append(i)
    g = gram_matrix(es321)
    for idx in groups.values():
        assert len(idx) == 3
        for ii, i in enumerate(idx):
            for j in idx[ii + 1:]:
                assert abs(g[i, j]) < 1e-9


def test_mub_codes():
    S3 = mub_code(3)
    assert len(S3) == 12
    assert S3.n == 3 and S3.m == 1
    vals = offdiag_values(S3)
    assert np.all((np.abs(vals) < 1e-9) | (np.abs(vals - 1 / 3.0) < 1e-9))
    S5 = mub_code(5)
    assert len(S5) == 30
    vals5 = offdiag_values(S5)
    assert np.all((np.abs(vals5) < 1e-9) | (np.abs(vals5 - 0.2) < 1e-9))


def test_parameter_validation():
    with pytest.raises(SizeLimit):
        pauli_code(7)
    with pytest.raises(OutOfRange):
        pauli_code(0)
    with pytest.raises(OutOfRange):
        ExtraspecialOps(4, 1)
    with pytest.raises(OutOfRange):
        mub_code(2)
    with pytest.raises(OutOfRange):
        extraspecial_code(3, 2, 2)  # k must be <= n-1
