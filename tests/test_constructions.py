from itertools import product

import numpy as np
import pytest

from grasscode.bounds import two_distance_bound
from grasscode.cli import main
from grasscode.constructions import (_weyl_table, enumerate_isotropic,
                                     extraspecial_code, extraspecial_size,
                                     isotropic_count, mub_code, pauli_code)
from grasscode.core_linalg import gram_matrix
from grasscode.errors import OutOfRange, SizeLimit
from grasscode.io import read_code


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


def weyl_dense(p, n, a, b):
    """X(a)Y(b) built densely: the permutation e_v -> e_{v+a} times the
    diagonal w^(b.v), indices big-endian."""
    q = p ** n
    vecs = np.array(list(product(range(p), repeat=n)), dtype=np.int64)
    target = [int("".join(map(str, (v + a) % p)), p) for v in vecs]
    X = np.zeros((q, q), dtype=complex)
    X[target, np.arange(q)] = 1.0
    Y = np.diag(np.exp(2j * np.pi * ((vecs @ b) % p) / p))
    return X @ Y


def apply_weyl(p, n, a, b, B):
    "X(a)Y(b) B from the integer tables: row u of B, times w^e[u], to dst[u]"
    dst, e = _weyl_table(p, n, a, b)
    out = np.zeros(B.shape, dtype=complex)
    out[dst] = np.exp(2j * np.pi * e / p)[:, None] * B
    return out


PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_dense(word):
    "the Pauli word as a dense Kronecker product, first letter most significant"
    mat = PAULI[word[0]]
    for ch in word[1:]:
        mat = np.kron(mat, PAULI[ch])
    return mat


def dense_operators(code, p, n, k):
    """each member's operators and eigenvalues from its label, built densely:
    Pauli words for p = 2 (eigenvalue +-1), else X(a)Y(b) for the rows (a, b)
    of the member's isotropic W (eigenvalue w^j, j its tag digit)"""
    isos = None if p == 2 else enumerate_isotropic(p, n, n - k)
    for s, label in zip(code, code.labels):
        head, tag = label.split(":")
        if p == 2:
            yield s, [(pauli_dense(head), 1 if tag == "+" else -1)]
        else:
            iso = isos[int(head[1:])]
            yield s, [(weyl_dense(p, n, row[:n], row[n:]),
                       np.exp(2j * np.pi * int(j) / p))
                      for row, j in zip(iso, tag[3:])]


@pytest.mark.parametrize("p, n, k", [(3, 2, 0), (3, 2, 1),
                                     (2, 1, 0), (2, 2, 0), (2, 3, 0)])
def test_members_are_joint_eigenspaces_of_dense_operators(p, n, k):
    # U B = lambda B for each operator of the member's label, and B B^dagger
    # is the dense joint projector prod_U (1/o) sum_t lambda^-t U^t
    code = pauli_code(n) if p == 2 else extraspecial_code(p, n, k)
    q = p ** n
    for s, ops in dense_operators(code, p, n, k):
        P = np.eye(q, dtype=complex)
        for U, lam in ops:
            assert np.abs(U @ s.basis - lam * s.basis).max() < 1e-12
            power, proj = np.eye(q, dtype=complex), np.zeros((q, q), complex)
            for t in range(p):
                proj += lam ** -t * power / p
                power = U @ power
            P = P @ proj
        assert np.abs(s.projection() - P).max() < 1e-12


def test_operator_family_basics():
    "the gather equals the dense permutation-times-diagonal it replaces"
    rng = np.random.default_rng(500)
    for p, n in [(3, 1), (3, 2), (5, 2)]:
        q = p ** n
        for _ in range(4):
            a, b = rng.integers(0, p, size=(2, n))
            B = rng.normal(size=(q, 3)) + 1j * rng.normal(size=(q, 3))
            U = weyl_dense(p, n, a, b)
            assert np.abs(apply_weyl(p, n, a, b, B) - U @ B).max() < 1e-12
            assert np.abs(U @ U.conj().T - np.eye(q)).max() < 1e-12
    w = np.exp(2j * np.pi / 3)
    eye = np.eye(3, dtype=complex)
    # phase operator on one trit, shift operator a cyclic permutation
    assert np.abs(apply_weyl(3, 1, [0], [1], eye)
                  - np.diag([1, w, w * w])).max() < 1e-12
    assert np.abs(apply_weyl(3, 1, [1], [0], eye)[:, 0] - eye[:, 1]).max() == 0


def test_commutation_relation():
    "X(a)Y(b) X(a')Y(b') = w^(b.a') X(a+a')Y(b+b'), through the gather"
    rng = np.random.default_rng(501)
    for p, n in [(3, 2), (5, 1)]:
        q = p ** n
        w = np.exp(2j * np.pi / p)
        eye = np.eye(q, dtype=complex)
        for _ in range(6):
            a, b, a2, b2 = rng.integers(0, p, size=(4, n))
            lhs = apply_weyl(p, n, a, b, apply_weyl(p, n, a2, b2, eye))
            phase = w ** (int(b @ a2) % p)
            rhs = phase * apply_weyl(p, n, (a + a2) % p, (b + b2) % p, eye)
            assert np.abs(lhs - rhs).max() < 1e-10


def test_operators_have_order_p():
    "U^p = I, and U^j != I for 0 < j < p when (a, b) != 0"
    rng = np.random.default_rng(502)
    for p, n in [(3, 2), (5, 1)]:
        eye = np.eye(p ** n, dtype=complex)
        a, b = rng.integers(0, p, size=(2, n))
        a[0] = 1
        acc = eye
        for j in range(1, p + 1):
            acc = apply_weyl(p, n, a, b, acc)
            assert (np.abs(acc - eye).max() < 1e-9) == (j == p)


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


@pytest.mark.parametrize("args", [(extraspecial_code, 3, 2, 0),
                                  (extraspecial_code, 3, 2, 1),
                                  (pauli_code, 1), (pauli_code, 2),
                                  (pauli_code, 3)])
def test_extraspecial_bases_are_canonical(args):
    # each basis is the Q factor of P[:, J], P its projector and J the first
    # m columns where P's rank grows: B^dagger P[:, J] is upper triangular
    # with a positive real diagonal (J found here by matrix_rank)
    build, *params = args
    for s in build(*params):
        P = s.projection()
        J = []
        for j in range(len(P)):
            if np.linalg.matrix_rank(P[:, J + [j]], tol=1e-6) > len(J):
                J.append(j)
        R = s.basis.conj().T @ P[:, J]
        assert len(J) == s.m
        assert np.abs(np.tril(R, -1)).max(initial=0) < 1e-12
        assert np.abs(np.diagonal(R).imag).max() < 1e-12
        assert np.diagonal(R).real.min() > 1e-6


@pytest.mark.parametrize("args", [("extraspecial", "--p", "3", "--n", "2",
                                   "--k", "1"),
                                  ("pauli", "--k", "2")])
def test_bases_are_exact_roots_of_unity(args, tmp_path, capsys):
    # every nonzero entry is exp(2 pi i e/r) / sqrt(s) bit for bit, for its
    # integer exponent e (r = p, or 4 for Pauli words) and its column's
    # support size s, so construct writes the same bytes on every run
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert main(["construct", *args, "-o", str(path)]) == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    r = 3 if args[0] == "extraspecial" else 4
    B = read_code(paths[0]).bases
    size = np.broadcast_to((B != 0).sum(axis=1, keepdims=True), B.shape)
    z, s = B[B != 0], size[B != 0]
    e = np.rint(np.angle(z) * r / (2 * np.pi)).astype(int) % r
    assert np.array_equal(z, np.exp(2j * np.pi * e / r) / np.sqrt(s))


def test_constructions_run_no_eigen_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK routine in a construction")

    for name in ("eigh", "qr", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert len(pauli_code(3)) == 126
    assert len(extraspecial_code(3, 2, 1)) == 120


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
        extraspecial_code(4, 1, 0)
    with pytest.raises(OutOfRange):
        mub_code(2)
    with pytest.raises(OutOfRange):
        extraspecial_code(3, 2, 2)  # k must be <= n-1
    with pytest.raises(SizeLimit):
        extraspecial_code(3, 7, 0)  # 3^7 = 2187 > 2048, before enumerating
