import numpy as np
import pytest

from grasscode.analysis import (inner_product_classes, inner_product_set,
                                pair_angle_matrix)
from grasscode.constructions import extraspecial_code, mub_code, pauli_code
from grasscode.core_linalg import (Code, Subspace, _overlap_pass,
                                   canonical_pair, gram_matrix,
                                   haar_basis_batch, haar_cosine_batch,
                                   haar_subspace, power_sums,
                                   principal_angles, squared_cosines,
                                   squared_overlaps, subspace_from_basis)
from grasscode.errors import (DimensionMismatch, DuplicateMember,
                              NumericalHealthError, OutOfRange, RankDeficient,
                              RankTooLarge)
from grasscode.io import read_code, write_code

from conftest import counting_kernel, random_code, random_subspace_pair
from haar_law import law_z
from haar_oracle import (gaussian_batch, haar_basis_batch_qr,
                         haar_cosine_batch_bidiagonal)


def test_trace_equals_angle_sum():
    # tr(P_a P_b) of the n x n projectors against the SVD's squared cosines
    rng = np.random.default_rng(101)
    for n, m in [(4, 1), (5, 2), (7, 3)]:
        for _ in range(20):
            a, b = random_subspace_pair(n, m, rng)
            y = principal_angles(a, b)
            tr = np.trace(a.projection() @ b.projection())
            assert abs(tr - sum(y)) < 1e-8


def test_unitary_invariance():
    rng = np.random.default_rng(102)
    for _ in range(20):
        a, b = random_subspace_pair(6, 2, rng)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        u = np.linalg.qr(g)[0]
        ua = Subspace(u @ a.basis)
        ub = Subspace(u @ b.basis)
        ya = principal_angles(a, b)
        yb = principal_angles(ua, ub)
        assert np.abs(ya - yb).max() < 1e-8


def test_chordal_distance_frobenius():
    # the squared chordal distance m - g_ab, read off gram_matrix, is
    # half the squared Frobenius distance of the projectors
    rng = np.random.default_rng(103)
    for _ in range(20):
        a, b = random_subspace_pair(6, 3, rng)
        d2 = 3 - gram_matrix([a, b])[0, 1]
        frob = 0.5 * np.linalg.norm(a.projection() - b.projection()) ** 2
        assert abs(d2 - frob) < 1e-8


def test_angle_symmetry():
    rng = np.random.default_rng(104)
    for _ in range(20):
        a, b = random_subspace_pair(7, 2, rng)
        ya = principal_angles(a, b)
        yb = principal_angles(b, a)
        assert np.abs(ya - yb).max() < 1e-8


def test_eigenvalue_route_oracle():
    # slower O(n^3) route kept purely as a cross-check of the SVD path
    rng = np.random.default_rng(105)
    for _ in range(10):
        a, b = random_subspace_pair(6, 2, rng)
        y = principal_angles(a, b)
        ev = np.linalg.eigvals(a.projection() @ b.projection())
        ev = np.sort(ev.real)[::-1][:2]
        assert np.abs(np.sort(y)[::-1] - ev).max() < 1e-8


def test_projection_normal_equations_oracle():
    rng = np.random.default_rng(106)
    raw = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    s = subspace_from_basis(raw)
    gram_inv = np.linalg.inv(raw.conj().T @ raw)
    p_oracle = raw @ gram_inv @ raw.conj().T
    assert np.abs(s.projection() - p_oracle).max() < 1e-10
    # span is preserved: projector fixes the raw columns
    assert np.abs(s.projection() @ raw - raw).max() < 1e-10


def test_subspace_from_basis_conventions():
    rng = np.random.default_rng(107)
    # already-orthonormal input is taken verbatim
    q = np.linalg.qr(rng.standard_normal((5, 2))
                     + 1j * rng.standard_normal((5, 2)))[0]
    s = subspace_from_basis(q)
    assert np.array_equal(s.basis, q)
    # rank deficiency is refused
    col = rng.standard_normal((5, 1)) + 1j * rng.standard_normal((5, 1))
    with pytest.raises(RankDeficient):
        subspace_from_basis(np.hstack([col, 2 * col]))


def test_canonical_pair_structure():
    rng = np.random.default_rng(108)
    for _ in range(20):
        a, b = random_subspace_pair(6, 2, rng)
        A, B = canonical_pair(a, b)
        y = principal_angles(a, b)
        # first factor in canonical position
        expect_a = np.zeros((6, 2), dtype=complex)
        expect_a[:2, :2] = np.eye(2)
        assert np.abs(A - expect_a).max() < 1e-8
        # second factor reconstructs from the angle data alone
        c = np.sqrt(y)
        s = np.sqrt(1 - y)
        expect_b = np.zeros((6, 2), dtype=complex)
        expect_b[:2, :2] = np.diag(c)
        expect_b[2:4, :2] = np.diag(s)
        assert np.abs(B - expect_b).max() < 1e-8


def test_canonical_pair_needs_room():
    rng = np.random.default_rng(109)
    a, b = random_subspace_pair(4, 3, rng)
    with pytest.raises(RankTooLarge):
        canonical_pair(a, b)


def test_dimension_mismatch():
    rng = np.random.default_rng(110)
    a, _ = random_subspace_pair(4, 2, rng)
    b, _ = random_subspace_pair(5, 2, rng)
    with pytest.raises(DimensionMismatch):
        principal_angles(a, b)


def test_code_duplicate_detection():
    s = haar_subspace(4, 2, seed=3)
    # same subspace under a different orthonormal basis (column rotation)
    g = np.linalg.qr(np.random.default_rng(4).standard_normal((2, 2))
                     + 1j * np.random.default_rng(5).standard_normal((2, 2)))[0]
    twin = Subspace(s.basis @ g)
    with pytest.raises(DuplicateMember):
        gram_matrix(Code([s, twin]))
    # opt out explicitly
    S = Code([s, twin], check_duplicates=False)
    assert len(S) == 2


@pytest.mark.parametrize("members, labels", [
    ([], None),
    ([haar_subspace(4, 2, seed=6), haar_subspace(4, 1, seed=7)], None),
    ([haar_subspace(4, 2, seed=6), haar_subspace(4, 2, seed=7)], ["a"]),
])
def test_code_refuses_bad_member_lists(members, labels):
    with pytest.raises(DimensionMismatch):
        Code(members, labels=labels)


def test_building_or_reading_a_code_runs_no_pair_pass(tmp_path, monkeypatch):
    calls = counting_kernel(monkeypatch)
    for S in (pauli_code(2), extraspecial_code(3, 2, 1), mub_code(5)):
        path = tmp_path / "code.json"
        write_code(S, path)
        T = read_code(path)
        assert T.bases.shape == S.bases.shape and not T.bases.flags.writeable
    assert calls == []


def test_first_pair_request_runs_one_pass(monkeypatch):
    calls = counting_kernel(monkeypatch)
    pair_angle_matrix(pauli_code(2))
    assert calls == ["angles"]


def test_gram_matrix_properties():
    rng = np.random.default_rng(111)
    subs = [random_subspace_pair(5, 2, rng)[0] for _ in range(6)]
    S = Code(subs)
    g = gram_matrix(S)
    assert g.shape == (6, 6)
    assert np.abs(g - g.T).max() == 0.0  # exact symmetrization
    assert np.abs(np.diag(g) - 2.0).max() < 1e-10
    for i in range(6):
        for j in range(6):
            expect = principal_angles(S[i], S[j]).sum()
            assert abs(g[i, j] - expect) < 1e-8


def test_haar_determinism():
    a = haar_subspace(5, 2, seed=42)
    b = haar_subspace(5, 2, seed=42)
    assert np.array_equal(a.basis, b.basis)
    B1 = haar_basis_batch(4, 2, 10, seed=9)
    B2 = haar_basis_batch(4, 2, 10, seed=9)
    assert np.array_equal(B1, B2)
    # batch members are orthonormal
    for b_ in B1:
        assert np.abs(b_.conj().T @ b_ - np.eye(2)).max() < 1e-12


HAAR_SHAPES = [(1, 1), (4, 1), (4, 2), (5, 5), (9, 3), (13, 6)]


@pytest.mark.parametrize("n, m", HAAR_SHAPES)
def test_haar_sampler_matches_the_qr_oracle(n, m):
    # Gram-Schmidt on the batch-last stream gives the oracle's phase-fixed
    # Q factor of the same Gaussians: Q^dagger Q = I, and Q^dagger G = R is
    # upper triangular with a positive real diagonal
    Q = haar_basis_batch(n, m, 400, seed=n * m)
    assert Q.shape == (400, n, m)
    assert np.abs(Q - haar_basis_batch_qr(n, m, 400, seed=n * m)).max() < 1e-12
    QH = Q.conj().swapaxes(-1, -2)
    assert np.abs(QH @ Q - np.eye(m)).max() < 1e-12
    R = QH @ gaussian_batch(n, m, 400, seed=n * m)
    scale = np.abs(R).max()
    assert np.abs(np.tril(R, -1)).max() < 1e-12 * scale
    d = np.diagonal(R, axis1=1, axis2=2)
    assert d.real.min() > 0 and np.abs(d.imag).max() < 1e-12 * scale


@pytest.mark.parametrize("n, m", HAAR_SHAPES + [(3, 2), (7, 5)])
def test_samplers_return_empty_stacks_at_zero_samples(n, m):
    # zero samples is a count check_integer accepts: each sampler returns an
    # empty stack of its own shape, never a numpy reshape error
    Q = haar_basis_batch(n, m, 0, seed=1)
    T = haar_cosine_batch(n, m, 0, seed=1)
    assert Q.shape == (0, n, m) and Q.dtype == complex
    assert T.shape == (0, m, m) and T.dtype == float


@pytest.mark.parametrize("n, m", HAAR_SHAPES + [(2, 1), (3, 2), (4, 3),
                                  (7, 5)])
def test_cosine_sampler_matches_the_bidiagonal_oracle(n, m):
    # the tridiagonal T is I_(m-k) + B^T B for the oracle's bidiagonal B,
    # built one sample at a time from the same hand-drawn Beta variables
    T = haar_cosine_batch(n, m, 400, seed=n * m)
    assert T.shape == (400, m, m) and T.dtype == float
    assert np.abs(T - haar_cosine_batch_bidiagonal(n, m, 400, seed=n * m)
                  ).max() < 1e-12


@pytest.mark.parametrize("m, n", [(1, 2), (2, 3), (3, 4), (2, 5), (3, 9),
                                  (6, 13)])
def test_cosine_sampler_has_the_haar_law(m, n):
    # the first two moments of every power sum of T - I/2 agree with those of
    # W^dagger W - I/2 for the QR oracle's full Haar bases, cut to their top
    # m x m block, for n - m < m, n - m = m and n - m > m; 50,000 samples
    # per side
    z = law_z(n, m, 50_000, seed=m * 100 + n)
    assert np.abs(z).max() < 5, z


def test_cosine_law_check_detects_the_wrong_dimension():
    # power: the cosines of G(3, 10) against the oracle's G(3, 9) bases
    def one_dimension_up(n, m, samples, rng):
        return haar_cosine_batch(n + 1, m, samples, rng)

    z = law_z(9, 3, 50_000, seed=309, grams=one_dimension_up)
    assert np.abs(z).max() >= 5, z


@pytest.mark.parametrize("m", [1, 2, 3, 6])
def test_cosine_sampler_is_the_identity_at_n_equal_m(m):
    # at n = m the Haar m-plane is all of C^m: every T is I_m
    T = haar_cosine_batch(m, m, 1000, seed=m)
    assert np.array_equal(T, np.broadcast_to(np.eye(m), T.shape))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_member_fails_the_pair_functions(value):
    # a NaN or inf entry is refused as NumericalHealthError, never a bare
    # LinAlgError from the SVD, nor a nan result
    a, b = random_subspace_pair(5, 2, np.random.default_rng(113))
    basis = a.basis.copy()
    basis[0, 0] = value
    bad = Subspace(basis)
    for call in (principal_angles, canonical_pair):
        for pair in ((bad, b), (b, bad)):
            with pytest.raises(NumericalHealthError):
                call(*pair)


def test_non_finite_basis_fails_the_tolerance_checks():
    rng = np.random.default_rng(112)
    s = random_subspace_pair(5, 2, rng)[0]
    basis = s.basis.copy()
    basis[0, 0] = np.nan
    bad = Subspace(basis)
    with pytest.raises(RankDeficient):
        bad.validate()
    with pytest.raises(DuplicateMember):
        gram_matrix(Code([s, bad]))


def fresh(S):
    "the same members in a new Code, so its pair geometry is not yet cached"
    return Code(list(S), check_duplicates=False)


@pytest.mark.parametrize("name", ["mub5", "pauli2", "es321", "haar9"])
def test_shared_angles_match_per_pair_svd_oracle(name, request):
    # m = 1 (mub5) reads the gram; m > 1 runs eigvalsh(W^dagger W), up to
    # m = 9 (haar9); the oracle is the SVD of each overlap, one pair at a
    # time
    S = fresh(request.getfixturevalue(name))
    Y = pair_angle_matrix(S)
    assert Y.shape == (len(S), len(S), S.m)
    worst = max(np.abs(Y[i, j] - principal_angles(S[i], S[j])).max()
                for i in range(len(S)) for j in range(len(S)))
    assert worst < 1e-12
    assert S.geometry.excursion < 1e-12


def test_gram_only_requests_run_no_eigen_solve(pauli2, monkeypatch):
    S = fresh(pauli2)
    calls = counting_kernel(monkeypatch)

    def refuse(*args, **kwargs):
        raise AssertionError("eigen-solve on a gram-only request")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    g = gram_matrix(S)
    inner_product_set(S)
    inner_product_classes(S)
    assert calls == ["gram"]   # no W^dagger W is formed
    assert S.geometry.excursion is None   # no angles were formed
    assert np.abs(np.diag(g) - S.m).max() < 1e-12


def test_angles_then_gram_runs_one_pass(pauli2, monkeypatch):
    S = fresh(pauli2)
    calls = counting_kernel(monkeypatch)
    Y = S.geometry.angles()
    g = S.geometry.gram()
    assert calls == ["angles"]
    assert np.abs(Y.sum(-1) - g).max() < 1e-12
    assert not (Y.flags.writeable or g.flags.writeable)


def test_power_sums_pass_again_only_for_a_larger_degree(monkeypatch):
    S = random_code(8, 4, 6, seed=5)
    calls = counting_kernel(monkeypatch)
    P2 = S.geometry.power_sums(2)
    P4 = S.geometry.power_sums(4)
    P3 = S.geometry.power_sums(3)
    assert calls == [("sums", 2), ("sums", 4)]
    assert P2.shape == (6, 6, 2) and np.abs(P4[..., :2] - P2).max() < 1e-12
    assert np.array_equal(P3, P4[..., :3]) and not P4.flags.writeable
    assert S.geometry.angles().shape == (6, 6, 4)
    assert calls == [("sums", 2), ("sums", 4), "angles"]


def test_line_code_requests_share_the_gram(mub5, monkeypatch):
    # at m = 1 the angles are the gram and the power sums the angles less
    # CENTER: one pass for all three, and an angle request keeps no sums
    S = fresh(mub5)
    calls = counting_kernel(monkeypatch)
    Y = S.geometry.angles()
    assert S.geometry._sums is None
    P = S.geometry.power_sums(3)
    g = S.geometry.gram()
    assert calls == ["gram"]
    assert P.shape == Y.shape == (len(S), len(S), 1)
    assert np.array_equal(P, Y - 0.5) and np.array_equal(Y[..., 0], g)


def test_power_sums_refuse_degree_below_one(pauli2):
    S = fresh(pauli2)
    for t in (0, -1):
        with pytest.raises(OutOfRange):
            S.geometry.power_sums(t)
    S.geometry.power_sums(2)
    with pytest.raises(OutOfRange):
        S.geometry.power_sums(0)


@pytest.mark.parametrize("name", ["mub5", "pauli2"])
@pytest.mark.parametrize("request_kind", ["angles", "power_sums"])
def test_non_finite_member_fails_the_range_check_first(name, request_kind,
                                                        request):
    # the range check of a request runs before the set check of the gram
    # its pass keeps: NumericalHealthError, not DuplicateMember
    S = request.getfixturevalue(name)
    with np.errstate(invalid="ignore"):
        planted = Subspace(S[0].basis * np.nan)
    T = Code([planted] + list(S)[1:], check_duplicates=True)
    ask = (T.geometry.angles if request_kind == "angles"
           else lambda: T.geometry.power_sums(2))
    with pytest.raises(NumericalHealthError):
        ask()


@pytest.mark.parametrize("name", ["mub5", "pauli2"])
@pytest.mark.parametrize("scale", [1 + 1e-6, np.nan])
def test_out_of_range_squared_cosine_raises(name, scale, request):
    S = request.getfixturevalue(name)
    planted = Subspace(S[0].basis * scale)
    T = Code([planted] + list(S)[1:], check_duplicates=False)
    with pytest.raises(NumericalHealthError):
        pair_angle_matrix(T)
    if np.isfinite(scale):   # the diagonal pair has cos^2 = scale^4
        assert abs(T.geometry.excursion - (scale ** 4 - 1)) < 1e-12
    else:
        assert np.isnan(T.geometry.excursion)


def full_block_pass(bases, form):
    """the pair pass that forms every pair (a, b) of a block with b >= the
    block's first row, both triangles of its diagonal square, then copies
    the lower triangle from the upper: the reference for _overlap_pass"""
    N, n, m = bases.shape
    M = bases.transpose(1, 0, 2).reshape(n, N * m)
    gram, out = np.empty((N, N)), None
    step = max(1, int(4e6) // max(1, N * m * m))
    for lo in range(0, N, step):
        hi = min(N, lo + step)
        w = (M[:, lo * m:hi * m].conj().T @ M[:, lo * m:]).reshape(
            hi - lo, m, N - lo, m).transpose(0, 2, 1, 3)
        gram[lo:hi, lo:] = np.sum(np.abs(w) ** 2, axis=(2, 3))
        r = form(squared_overlaps(w))
        out = np.empty((N, N) + r.shape[2:]) if out is None else out
        out[lo:hi, lo:] = r
    for a in (gram, out):
        for i in range(1, N):
            a[i, :i] = a[:i, i]
    return gram, out


@pytest.mark.parametrize("make, stacks", [
    (lambda: extraspecial_code(3, 2, 1), [7260]),     # one block
    # N m = 2100 > 2000 takes two blocks, of 634 and 66 rows
    (lambda: random_code(9, 3, 700, seed=17), [243139, 2211]),
    # m = 9: N m^2 = 19440 takes two blocks, of 205 and 35 rows
    (lambda: random_code(27, 9, 240, seed=29), [28290, 630])])
def test_overlap_pass_forms_each_unordered_pair_once(make, stacks):
    bases = make().bases
    N = len(bases)
    assert sum(stacks) == N * (N + 1) // 2
    for form in (squared_cosines, lambda G: power_sums(G, 2),
                 lambda G: power_sums(G, 3)):
        seen = []
        gram, out = _overlap_pass(
            bases, lambda G: seen.append(len(G)) or form(G))
        assert seen == stacks
        want_gram, want = full_block_pass(bases, form)
        assert np.array_equal(gram, want_gram) and np.array_equal(out, want)
        assert np.array_equal(out, out.swapaxes(0, 1))
