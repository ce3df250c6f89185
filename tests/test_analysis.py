import json
from fractions import Fraction

import numpy as np
import pytest

from grasscode.analysis import (angle_classes, check_scheme, design_strength,
                                inner_product_classes, inner_product_set,
                                is_one_design, is_two_design,
                                pair_angle_matrix, scheme_idempotents,
                                swap_operator, twothree_audit)
from grasscode.errors import ClusterAmbiguity, SizeLimit
from grasscode.partitions import Partition
from grasscode.zonal import zonal_basis

from conftest import random_code


def test_partition_invariants_hold_exactly(pauli2):
    R = angle_classes(pauli2)
    N = R.N
    total = sum(R.relation_matrix(k) for k in range(R.n_classes))
    assert np.array_equal(total, np.ones((N, N)))
    assert np.array_equal(R.relation_matrix(0), np.eye(N))
    assert sum(R.class_size(k) for k in range(R.n_classes)) == N * N
    assert len(R.pairs(0)) == N


def test_partition_invariants_random_code():
    S = random_code(6, 2, 12, seed=601)
    R = angle_classes(S)
    total = sum(R.relation_matrix(k) for k in range(R.n_classes))
    assert np.array_equal(total, np.ones((12, 12)))
    assert np.array_equal(R.relation_matrix(0), np.eye(12))
    # generic angle vectors are distinct, but (a,b) and (b,a) always share
    # one: each unordered pair is its own class
    assert R.n_classes == 12 * 11 // 2 + 1


def test_pauli_angle_classes_frozen(pauli2):
    R = angle_classes(pauli2)
    assert R.n_classes == 4
    got = {tuple(round(v, 6) for v in rep): R.class_size(k)
           for k, rep in enumerate(R.reps)}
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


def test_two_design_size_limit():
    S = random_code(4, 1, 3, seed=603)
    with pytest.raises(SizeLimit):
        is_two_design(S, size_limit=8)


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
    assert rep.closure_residual < 1e-8
    assert rep.rounding_delta < 1e-8
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
    # diagonal blocks certified by the design strength are idempotent
    assert idem.max_certified_residual() < 1e-8
    assert idem.orthogonality_residual() < 1e-8
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
    rep.idempotents = scheme_idempotents(pauli2, R)
    text = rep.to_text()
    assert "association scheme: yes" in text
    assert "closure residual" in text
    doc = json.loads(json.dumps(rep.to_json_dict()))
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
    text = rep.to_text()
    assert "2-distance set: yes" in text
    assert "4-design: no" in text


def test_twothree_audit_t1(mub5):
    rep = twothree_audit(mub5, 1)
    assert not rep.is_t_distance      # two distances, not one
    assert rep.is_2t_design is True   # decidable at 2t = 2
    assert not rep.size_matches       # 30 != 25
    assert rep.warnings == []
    doc = rep.to_json_dict()
    assert doc["t"] == 1 and doc["size"] == 30 and doc["dim_H_t"] == 25
