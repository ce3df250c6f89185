import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import grasscode.analysis as analysis
import grasscode.sympoly as sympoly
from grasscode.analysis import (RelationPartition, TwoThreeReport,
                                _cluster_vectors, _relations, angle_classes,
                                check_scheme, design_strength,
                                inner_product_classes, inner_product_set,
                                is_one_design, is_two_design,
                                pair_angle_matrix, scheme_idempotents,
                                swap_operator, twothree_audit)
from grasscode.cli import _scheme_json, _scheme_text
from grasscode.core_linalg import Code, Subspace
from grasscode.errors import ClusterAmbiguity, NumericalHealthError, SizeLimit
from grasscode.partitions import Partition
from grasscode.zonal import zonal_basis

from conftest import random_code
from relations_oracle import ordered_pair_relations, relation_matrix


def test_partition_invariants_hold_exactly(pauli2):
    R = angle_classes(pauli2)
    N = R.N
    total = sum(relation_matrix(R, k) for k in range(R.n_classes))
    assert np.array_equal(total, np.ones((N, N)))
    assert np.array_equal(relation_matrix(R, 0), np.eye(N))
    assert sum(R.sizes) == N * N
    assert R.sizes[0] == N


def test_partition_invariants_random_code():
    S = random_code(6, 2, 12, seed=601)
    R = angle_classes(S)
    total = sum(relation_matrix(R, k) for k in range(R.n_classes))
    assert np.array_equal(total, np.ones((12, 12)))
    assert np.array_equal(relation_matrix(R, 0), np.eye(12))
    # generic angle vectors are distinct, but (a,b) and (b,a) always share
    # one: each unordered pair is its own class
    assert R.n_classes == 12 * 11 // 2 + 1


@pytest.mark.parametrize("name", ["pauli2", "mub5", "es321", "es320"])
@pytest.mark.parametrize("classes", [angle_classes, inner_product_classes])
def test_relation_partition_is_a_record_of_its_class_sizes(name, classes,
                                                          request):
    R = classes(request.getfixturevalue(name))
    assert R.sizes == np.bincount(R.assignment.ravel()).tolist()
    for field in RelationPartition._fields:
        with pytest.raises(AttributeError):
            setattr(R, field, None)


def test_pauli_angle_classes_frozen(pauli2):
    R = angle_classes(pauli2)
    assert R.n_classes == 4
    got = {tuple(round(v, 6) for v in rep): size
           for rep, size in zip(R.reps, R.sizes)}
    assert got == {(1.0, 1.0): 30, (1.0, 0.0): 360,
                   (0.5, 0.5): 480, (0.0, 0.0): 30}


def test_pair_angle_matrix_consistency(mub5):
    Y = pair_angle_matrix(mub5)
    assert Y.shape == (30, 30, 1)
    from grasscode.core_linalg import gram_matrix
    g = gram_matrix(mub5)
    assert np.abs(Y[:, :, 0] - g).max() < 1e-10


def test_inner_product_sets(mub5, es321):
    v5 = inner_product_set(mub5)
    assert len(v5) == 2
    assert abs(v5[0]) < 1e-9 and abs(v5[1] - 0.2) < 1e-9
    v3 = inner_product_set(es321)
    assert len(v3) == 2
    assert abs(v3[0]) < 1e-9 and abs(v3[1] - 1.0) < 1e-9


def test_inner_product_set_reads_the_rationalized_classes(pauli2):
    # pauli(2)'s inner products are exactly 0 and 1: the set holds those,
    # not the cluster means' rounding noise, as angles and info print them
    assert inner_product_set(pauli2) == (0.0, 1.0)
    # a Haar code's classes do not rationalize: it keeps the cluster means
    S = random_code(5, 2, 6, seed=603)
    means = tuple(sorted(y for y, in inner_product_classes(S).reps[1:]))
    assert len(means) == 15 and inner_product_set(S) == means


def test_cluster_ambiguity_raised(pauli2):
    with pytest.raises(ClusterAmbiguity):
        inner_product_set(pauli2, tol=0.4)


def test_design_strengths(pauli2, mub5, es321):
    assert design_strength(pauli2) == 2
    assert design_strength(mub5) == 2
    S = random_code(4, 2, 5, seed=602)
    assert design_strength(S) == 0
    # degrees above 2 need no flag: pauli(2) is a 3-design but not a
    # 4-design; mub(5) and es(3,2,1) stop at 2
    assert design_strength(pauli2, t_max=3) == 3
    assert design_strength(pauli2, t_max=4) == 3
    assert design_strength(mub5, t_max=4) == 2
    assert design_strength(es321, t_max=4) == 2


def test_design_flags_agree_with_strength(pauli2, mub5, es320):
    for S in (pauli2, mub5, es320):
        strength = design_strength(S)
        one, r1 = is_one_design(S)
        two, r2 = is_two_design(S)
        assert one == (strength >= 1)
        assert two == (strength >= 2)
        if two:
            assert one  # tensor identity partial-traces to the mean projector


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["mub5", "pauli2"])
def test_design_flags_refuse_a_non_finite_member(name, value, request):
    # as design_strength does on the same code, not (False, nan)
    S = request.getfixturevalue(name)
    bases = np.array(S.bases)
    bases[1, 0, 0] = value
    T = Code(bases, check_duplicates=False)
    for flag in (is_one_design, is_two_design, design_strength):
        with pytest.raises(NumericalHealthError):
            flag(T)


def test_two_design_size_limit():
    S = random_code(65, 1, 2, seed=603)   # n^2 = 4225 > 4096
    with pytest.raises(SizeLimit):
        is_two_design(S)


def test_swap_operator():
    T = swap_operator(3)
    assert T.shape == (9, 9)
    assert np.array_equal(T @ T, np.eye(9))
    u = np.arange(3.0)
    v = np.array([5.0, -1.0, 2.0])
    assert np.abs(T @ np.kron(u, v) - np.kron(v, u)).max() == 0.0


def test_possum_on_random_codes():
    # averaged zonal kernels are positive semidefinite on any code
    rng = np.random.default_rng(604)
    basis = zonal_basis(2, 4, 2)
    for trial in range(20):
        S = random_code(4, 2, int(rng.integers(3, 9)), seed=700 + trial)
        Y = pair_angle_matrix(S).reshape(-1, 2)
        for Z in basis:
            total = float(Z.eval_batch(Y).sum())
            floor = -1e-8 * len(S) ** 2 * abs(float(Z.at_ones()))
            assert total >= floor, (trial, Z.mu, total)


def test_check_scheme_pauli_frozen(pauli2):
    R = angle_classes(pauli2)
    rep = check_scheme(R)
    assert rep.is_scheme
    assert rep.n_classes == 4
    assert rep.closure_residual == 0.0
    # p^0_{ii} is the class degree
    assert rep.intersection_numbers[0][1][1] == 12
    assert rep.intersection_numbers[0][2][2] == 16
    assert rep.intersection_numbers[0][3][3] == 1


def test_random_code_is_not_a_scheme():
    S = random_code(4, 1, 6, seed=605)
    R = inner_product_classes(S)
    rep = check_scheme(R)
    assert not rep.is_scheme


def test_coarse_two_class_schemes(mub5, es321):
    for S in (mub5, es321):
        R = inner_product_classes(S)
        assert R.n_classes == 3  # identity + two distance classes
        rep = check_scheme(R)
        assert rep.is_scheme
        assert rep.closure_residual < 1e-8


def test_scheme_idempotents_pauli(pauli2):
    R = angle_classes(pauli2)
    idem = scheme_idempotents(pauli2, R)
    # strength is tested to 2t = 4: pauli(2) is a 3-design
    assert idem.strength == 3
    P2, P11 = Partition(2), Partition(1, 1)
    # cross products all vanish even beyond the certified depth
    for (mu, lam), r in idem.pair_residuals.items():
        if mu != lam:
            assert r < 1e-8, (mu, lam, r)
    # every pair the design strength certifies, diagonal blocks included,
    # is idempotent or orthogonal
    certified = [r for key, r in idem.pair_residuals.items()
                 if idem.required_design[key] <= idem.strength]
    assert certified and max(certified) < 1e-8
    # degree-4 requirements are not certified at strength 3, and these two
    # are genuinely non-idempotent: E^2 = (28/3) E and E^2 = 4 E
    assert idem.required_design[(P2, P2)] == 4
    assert abs(idem.pair_residuals[(P2, P2)] - 25.0 / 3) < 1e-6
    assert abs(idem.pair_residuals[(P11, P11)] - 3.0) < 1e-6
    for key, r in idem.coarse_residuals.items():
        assert r < 1e-8, (key, r)


def test_scheme_report_serialization(pauli2):
    R = angle_classes(pauli2)
    rep = check_scheme(R)
    idem = scheme_idempotents(pauli2, R, scheme=rep)
    # the reports are immutable records, and cli renders them side by side
    assert isinstance(rep, tuple) and "idempotents" not in rep._fields
    text = _scheme_text(rep, idem)
    assert "association scheme: yes" in text
    assert "closure residual" in text
    doc = json.loads(json.dumps(_scheme_json(rep, idem)))
    assert doc["is_scheme"] is True
    assert doc["classes"] == 4
    assert len(doc["idempotents"]["pairs"]) == 16


def test_twothree_audit_mub(mub5):
    rep = twothree_audit(mub5, 2)
    assert rep.is_t_distance
    assert rep.is_2t_design is False  # strength 2, decided at degree 4
    assert not rep.size_matches
    assert rep.dim_target == 225
    assert rep.warnings == []
    assert rep.t == 2 and rep.n_distances == 2


def test_twothree_audit_t1(mub5):
    rep = twothree_audit(mub5, 1)
    assert not rep.is_t_distance      # two distances, not one
    assert rep.is_2t_design is True   # decidable at 2t = 2
    assert not rep.size_matches       # 30 != 25
    assert rep.warnings == []
    assert rep.t == 1 and rep.size == 30 and rep.dim_target == 25


def test_twothree_audit_warns_when_one_predicate_fails(monkeypatch):
    # the SIC in C^2 (a tetrahedron on the Bloch sphere) is a 1-distance set,
    # a 2-design and of size dim H_1(1,2) = 4; a design test failed by the
    # floats leaves two predicates true, which the audit flags
    lines = [[1, 0]] + [[np.sqrt(1 / 3), np.exp(2j * np.pi * k / 3)
                         * np.sqrt(2 / 3)] for k in range(3)]
    S = Code(np.array(lines, dtype=complex)[:, :, None])
    assert twothree_audit(S, 1).warnings == []
    monkeypatch.setattr(analysis, "design_strength", lambda *a, **k: 1)
    assert twothree_audit(S, 1) == TwoThreeReport(
        t=1, n_distances=1, size=4, dim_target=4, is_t_distance=True,
        is_2t_design=False, size_matches=True,
        warnings=["two predicates hold but '2t-design' fails: inconsistent "
                  "with the two-of-three theorem (numerical health suspect)"])


def brute_force_closure(A, k):
    """Closure of the labelling A (N x N, diagonal 0) by explicit loops:
    per (i, j) the path counts c(x, y) = #{z : A[x,z] = i, A[z,y] = j},
    their mean over each class, rounded, and the relative Frobenius
    residual."""
    N = len(A)
    counts = np.zeros((k, k, N, N))
    for x in range(N):
        for y in range(N):
            for z in range(N):
                counts[A[x, z], A[z, y], x, y] += 1
    inums = np.zeros((k, k, k), dtype=np.int64)
    worst = 0.0
    for i in range(k):
        for j in range(k):
            c = counts[i, j]
            coef = np.array([c[A == cls].mean() for cls in range(k)])
            inums[:, i, j] = np.rint(coef)
            norm = np.linalg.norm(c)
            if norm > 0:
                worst = max(worst, np.linalg.norm(c - coef[A]) / norm)
    return inums, worst


def labelling_partition(A, k):
    return RelationPartition(len(A), 1, [(float(c),) for c in range(k)], A,
                             [0.0] * k, np.bincount(A.ravel()).tolist())


def test_check_scheme_matches_brute_force_counts(pauli2):
    rng = np.random.default_rng(621)
    cases = []
    for _ in range(25):
        N = int(rng.integers(3, 9))
        k = int(rng.integers(2, 5))
        A = np.zeros((N, N), dtype=np.int64)
        iu = np.triu_indices(N, 1)
        A[iu] = rng.integers(1, k, size=len(iu[0]))
        A[iu[::-1]] = A[iu]
        classes, A = np.unique(A, return_inverse=True)  # no empty class
        cases.append((A.reshape(N, N), len(classes)))
    R = angle_classes(pauli2)  # a true scheme, 4 classes
    cases.append((R.assignment, R.n_classes))
    for A, k in cases:
        rep = check_scheme(labelling_partition(A, k))
        inums, worst = brute_force_closure(A, k)
        assert rep.n_classes == k
        assert abs(rep.closure_residual - worst) < 1e-12
        # the verdict is exact: closed means no residual at all
        assert rep.is_scheme == (worst == 0)
        if rep.is_scheme:
            assert rep.intersection_numbers == inums.tolist()
        else:
            assert rep.intersection_numbers is None
    assert rep.is_scheme  # the last case, pauli(2)


def explicit_swap(n):
    T = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            T[i * n + j, j * n + i] = 1.0
    return T


def test_two_design_matches_explicit_tensor_average(pauli2, mub5):
    "the one-GEMM average against the iac,ibd->abcd einsum and a looped T"
    codes = [random_code(n, m, N, seed) for n, m, N, seed in
             [(3, 1, 7, 611), (4, 2, 9, 612), (5, 1, 12, 613),
              (5, 2, 6, 614), (6, 3, 5, 615)]]
    for S in codes + [pauli2, mub5]:
        n, m, N = S.n, S.m, len(S)
        B = S.bases
        P = np.einsum("ink,imk->inm", B, B.conj())
        avg = np.einsum("iac,ibd->abcd", P, P).reshape(n * n, n * n) / N
        target = (m / (n * (n * n - 1))) * ((n * m - 1) * np.eye(n * n)
                                            + (n - m) * explicit_swap(n))
        res = float(np.abs(avg - target).max())
        flag, got = is_two_design(S)
        assert abs(got - res) < 1e-14
        assert flag == (res < 1e-8)
        assert np.array_equal(swap_operator(n), explicit_swap(n))
    assert not is_two_design(codes[0])[0] and is_two_design(mub5)[0]


CLUSTER_TOL = 1e-2


def max_norm_single_linkage(vecs, tol):
    "connected components of the graph joining rows within tol in max norm"
    N = len(vecs)
    comp = list(range(N))
    for i in range(N):
        for j in range(i):
            if np.abs(vecs[i] - vecs[j]).max() <= tol:
                old, new = comp[i], comp[j]
                comp = [new if c == old else c for c in comp]
    return {frozenset(np.nonzero(np.array(comp) == c)[0].tolist())
            for c in set(comp)}


@st.composite
def planted_classes(draw):
    """Rows in up to 5 classes in [0, 1]^m.  Class centres sit on a grid of
    spacing 10 tol; each class is a walk from its centre with steps in
    [0, 0.3 tol] per coordinate, so it chains at tol even when its ends are
    more than tol apart, and no two gaps fall in the ambiguity band."""
    m = draw(st.integers(1, 3))
    centres = draw(st.lists(st.tuples(*[st.integers(0, 4)] * m),
                            min_size=1, max_size=5, unique=True))
    rows, truth = [], []
    for c, centre in enumerate(centres):
        point = np.array(centre, dtype=float) * 10 * CLUSTER_TOL
        for _ in range(draw(st.integers(1, 5))):
            rows.append(point.copy())
            truth.append(c)
            point += draw(st.lists(st.floats(0, 0.3 * CLUSTER_TOL),
                                   min_size=m, max_size=m))
    order = draw(st.permutations(range(len(rows))))
    return np.array(rows)[order], np.array(truth)[order]


@settings(max_examples=60, deadline=None)
@given(planted_classes())
def test_cluster_vectors_is_max_norm_single_linkage(planted):
    vecs, truth = planted
    blocks = _cluster_vectors(vecs, CLUSTER_TOL)
    got = {frozenset(idx.tolist()) for idx in blocks}
    assert sum(map(len, blocks)) == len(vecs)
    assert all((np.diff(vecs[idx, -1]) >= 0).all() for idx in blocks)
    assert got == max_norm_single_linkage(vecs, CLUSTER_TOL)
    assert got == {frozenset(np.nonzero(truth == c)[0].tolist())
                   for c in set(truth.tolist())}


def test_design_strength_builds_one_power_table(es321, monkeypatch):
    # the degree-4 change of basis holds every lower degree, so a fresh
    # cache is filled once, not once per degree
    class Builds(dict):
        count = 0

        def __setitem__(self, key, value):
            self.count += 1
            super().__setitem__(key, value)

    builds = Builds()
    monkeypatch.setattr(sympoly, "_power_cache", builds)
    assert design_strength(es321, t_max=4) == 2
    assert builds.count == 1 and builds[3][0] == 4


@pytest.mark.parametrize("name", ["mub5", "pauli2", "es321"])
def test_design_strength_runs_no_eigen_solve(name, request, monkeypatch):
    S = Code(list(request.getfixturevalue(name)), check_duplicates=False)
    want = design_strength(request.getfixturevalue(name), t_max=3)

    def refuse(*args, **kwargs):
        raise AssertionError("eigen-solve in design_strength")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert design_strength(S, t_max=3) == want
    assert S.power_sums(3).shape == (len(S), len(S), min(3, S.m))


@pytest.mark.parametrize("name", ["mub5", "pauli2", "es321"])
@pytest.mark.parametrize("scale", [1 + 1e-6, np.nan, np.inf, 1 + 1e-9])
def test_design_strength_planted_member_range_check(name, scale, request):
    # the diagonal pair of the planted member has squared cosines scale^4:
    # 1 + 4e-6, NaN and inf raise; 1 + 4e-9 is inside the slack
    S = request.getfixturevalue(name)
    with np.errstate(invalid="ignore"):
        planted = Subspace(S[0].basis * scale)
    T = Code([planted] + list(S)[1:], check_duplicates=False)
    if scale == 1 + 1e-9:
        assert design_strength(T, t_max=2) == 2
        return
    with pytest.raises(NumericalHealthError):
        design_strength(T, t_max=2)
    if np.isfinite(scale):   # recorded by the failing block
        assert abs(T.excursion - (scale ** 4 - 1)) < 1e-12


@pytest.mark.parametrize("name", ["mub5", "pauli2", "es321"])
def test_power_sums_match_the_angles(name, request):
    # two routes to the same numbers: tr((G - I/2)^k) against the sums of
    # (y - 1/2)^k over the clipped eigenvalues; exactly symmetric in the pair
    S = Code(list(request.getfixturevalue(name)), check_duplicates=False)
    P = S.power_sums(5)
    Y = pair_angle_matrix(S) - 0.5
    want = np.stack([(Y ** k).sum(-1) for k in range(1, min(5, S.m) + 1)], -1)
    assert P.shape == want.shape and np.abs(P - want).max() < 1e-12
    assert np.array_equal(P, P.swapaxes(0, 1))


def relations_or_refusal(relations, X, identity, tol):
    "what a relations routine returns, or its ClusterAmbiguity text"
    try:
        return relations(X, identity, tol)
    except ClusterAmbiguity as exc:
        return str(exc)


def assert_matches_the_ordered_pair_oracle(X, identity, tol):
    got = relations_or_refusal(_relations, X, identity, tol)
    want = relations_or_refusal(ordered_pair_relations, X, identity, tol)
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return got
    assignment, reps = want
    assert np.array_equal(got.assignment, assignment)
    assert len(got.reps) == len(reps)
    assert max(abs(a - b) for r, s in zip(got.reps, reps)
               for a, b in zip(r, s)) < 1e-12
    for c in range(got.n_classes):   # spread: the exact max - min of its pairs
        assert got.spreads[c] == np.ptp(X[assignment == c], axis=0).max()
    assert got.sizes == np.bincount(assignment.ravel()).tolist()
    return got


@pytest.mark.parametrize("name", ["pauli2", "mub5", "es321", "es320"])
def test_relations_match_the_ordered_pair_oracle(name, request):
    S = request.getfixturevalue(name)
    for X, identity in ((S.angles(), (1.0,) * S.m),
                        (S.gram()[:, :, None], (float(S.m),))):
        R = assert_matches_the_ordered_pair_oracle(X, identity, 1e-8)
        assert max(R.spreads) < 1e-14


@pytest.mark.parametrize("m", [1, 2, 3])
def test_relations_match_the_oracle_on_random_codes(m):
    S = random_code(7, m, 30, seed=640 + m)
    X = S.angles()
    # the widest gap g of the first coordinate lies in the band at tol = g/2
    g = float(np.diff(np.unique(X[np.triu_indices(30, 1)][:, 0])).max())
    outcomes = []
    for tol in (1e-8, 1e-2, 0.3, g / 2):
        for Y, identity in ((X, (1.0,) * m),
                            (S.gram()[:, :, None], (float(m),))):
            got = assert_matches_the_ordered_pair_oracle(Y, identity, tol)
            outcomes.append(got if isinstance(got, str) else got.n_classes)
    assert outcomes[:2] == [436, 436] and outcomes[4:6] == [2, 2]
    assert "ambiguity band" in outcomes[6]


@pytest.mark.parametrize("tol, classes", [(1e-3, 5), (1e-6, None),
                                           (1e-12, 781)])
def test_relations_match_the_oracle_on_planted_classes(tol, classes):
    # 4 classes 0.1 apart in one of 2 coordinates, each pair's value within
    # 1e-4 of its class centre: at 1e-3 they chain into the 4 classes (and
    # the identity), at 1e-6 a gap inside them falls in the band, at 1e-12
    # each of the 780 pairs is a class
    rng = np.random.default_rng(650)
    N = 40
    centres = np.array([[0.5, 0.2], [0.5, 0.3], [0.4, 0.3], [0.1, 0.1]])
    X = centres[rng.integers(0, 4, (N, N))] + rng.uniform(0, 1e-4, (N, N, 2))
    X = np.triu(X.transpose(2, 0, 1), 1)
    X = (X + X.swapaxes(1, 2)).transpose(1, 2, 0)
    X[range(N), range(N)] = 1.0
    got = assert_matches_the_ordered_pair_oracle(X, (1.0, 1.0), tol)
    if classes is None:
        assert "ambiguity band" in got
    else:
        assert got.n_classes == classes and max(got.spreads) < 1e-4
