"""scheme_idempotents in the Bose-Mesner algebra against the dense N x N
oracle in scheme_oracle, and the rationalizing of class representatives."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import grasscode.analysis as analysis
import grasscode.core_linalg as core_linalg
from grasscode.analysis import (REP_DENOMINATOR_LIMIT, RelationPartition,
                                _cluster_vectors, angle_classes, check_scheme,
                                design_strength, inner_product_classes,
                                rational_representatives, scheme_idempotents)
from grasscode.cli import _scheme_json, _scheme_text
from grasscode.constructions import (EXTRASPECIAL_LIMIT, MUB_LIMIT,
                                     PAULI_LIMIT, extraspecial_code, mub_code,
                                     pauli_code)
from grasscode.core_linalg import squared_cosines, squared_overlaps
from grasscode.errors import ClusterAmbiguity, OutOfRange
from grasscode.sympoly import SymmetricPolynomial

from scheme_oracle import dense_scheme_idempotents

CODES = {"pauli2": lambda: pauli_code(2), "pauli3": lambda: pauli_code(3),
         "mub5": lambda: mub_code(5), "mub19": lambda: mub_code(19),
         "es321": lambda: extraspecial_code(3, 2, 1)}


@pytest.fixture(scope="module", params=sorted(CODES))
def scheme(request):
    "(code, its angle classes, their closure report)"
    S = CODES[request.param]()
    R = angle_classes(S)
    return S, R, check_scheme(R)


def agrees_with_oracle(got, want):
    "the oracle's round-off is an exact 0.0 here; the rest agree to 1e-9"
    for key, r in want.items():
        if r < 1e-8:
            assert got[key] == 0.0, (key, got[key], r)
        else:
            assert abs(got[key] - r) <= 1e-9 * max(1.0, r), (key, got[key], r)
    assert set(got) == set(want)


@pytest.mark.parametrize("t", [2, 3])
def test_residuals_and_strength_match_the_dense_oracle(scheme, t):
    S, R, rep = scheme
    got = scheme_idempotents(S, R, t=t, scheme=rep)
    want = dense_scheme_idempotents(S, R, t=t)
    agrees_with_oracle(got.pair_residuals, want.pair_residuals)
    agrees_with_oracle(got.coarse_residuals, want.coarse_residuals)
    assert got.required_design == want.required_design
    assert got.strength == want.strength == design_strength(S, 2 * t)


def test_coarse_classes_are_the_inner_product_classes(scheme):
    S, R, rep = scheme
    groups = scheme_idempotents(S, R, scheme=rep).coarse_classes
    coarse = R if S.m == 1 else inner_product_classes(S)
    assert sorted(c for g in groups for c in g) == list(range(R.n_classes))
    label = np.empty(R.n_classes, dtype=np.int64)
    for g, group in enumerate(groups):
        label[list(group)] = g
    assert np.array_equal(label[R.assignment], coarse.assignment)


def test_no_pair_data_is_read(scheme, monkeypatch):
    # a code reduced to (m, n) and classes with no assignment give the same
    # report: no N x N array is formed, nor any pair pass
    S, R, rep = scheme
    want = scheme_idempotents(S, R, t=2, scheme=rep)

    def refuse(*args, **kwargs):
        raise AssertionError("pair data read")

    monkeypatch.setattr(analysis, "inner_product_classes", refuse)
    monkeypatch.setattr(SymmetricPolynomial, "eval_power_sums", refuse)
    monkeypatch.setattr(core_linalg, "_overlap_pass", refuse)
    got = scheme_idempotents(SimpleNamespace(m=S.m, n=S.n),
                             R._replace(assignment=None),
                             t=2, scheme=rep)
    assert got.pair_residuals == want.pair_residuals
    assert got.coarse_residuals == want.coarse_residuals
    assert got.strength == want.strength


def test_valencies_are_the_class_sizes(scheme):
    S, R, rep = scheme
    for c in range(R.n_classes):
        assert len(S) * rep.intersection_numbers[0][c][c] == R.sizes[c]


def test_closure_failure_is_refused(es320):
    R = angle_classes(es320)
    rep = check_scheme(R)
    assert not rep.is_scheme
    with pytest.raises(OutOfRange, match="not closed"):
        scheme_idempotents(es320, R, scheme=rep)
    assert "idempotents: not computed" in _scheme_text(rep, None)
    assert "idempotents" not in _scheme_json(rep, None)


def test_denominator_limit_covers_every_construction():
    # the squared cosines are 1/2, 1/p and 1/p^j with p^j <= p^n
    assert REP_DENOMINATOR_LIMIT >= max(PAULI_LIMIT, MUB_LIMIT,
                                        EXTRASPECIAL_LIMIT)
    # and the rational within the default tol is unique
    assert 1e-8 < 1 / (2 * REP_DENOMINATOR_LIMIT ** 2)


def test_irrational_representative_is_refused():
    y = (3 - 5 ** 0.5) / 2   # 1/phi^2: no rational of denominator <= 2048
    R = RelationPartition(2, 2, [(1.0, 1.0), (0.5, y)], None, [0.0, 0.0],
                          [2, 2])
    with pytest.raises(ClusterAmbiguity, match="class 1"):
        rational_representatives(R)
    R = RelationPartition(2, 2, [(1.0, 1.0), (0.5, 1 / 3 + 3e-9)], None,
                          [0.0, 0.0], [2, 2])
    assert rational_representatives(R)[1] == (Fraction(1, 2), Fraction(1, 3))


def test_representative_is_refused_when_its_members_spread():
    # |rep - q| + spread bounds every member's distance from q
    reps = [(1.0,), (0.2,)]
    R = RelationPartition(2, 1, reps, None, [0.0, 2e-8], [2, 2])
    with pytest.raises(ClusterAmbiguity, match="class 1: .* spread over 2e-08"):
        rational_representatives(R)
    R = RelationPartition(2, 1, reps, None, [0.0, 5e-9], [2, 2])
    assert rational_representatives(R)[1] == (Fraction(1, 5),)


def row_classes(S, tol=1e-8):
    """The classes of S as member 0 sees them: the clustered angles of its
    pairs with every member.  The automorphism groups of these codes are
    transitive on members, so one row holds every class, without the N x N
    pass (about 1 GB for mub(61))."""
    W = S.bases[0].conj().T[None] @ S.bases[1:]
    y = np.clip(squared_cosines(squared_overlaps(W)), 0.0, 1.0)
    blocks = _cluster_vectors(y, tol)
    reps = [tuple(y[idx].mean(axis=0)) for idx in blocks]
    spreads = [np.ptp(y[idx], axis=0).max() for idx in blocks]
    return RelationPartition(len(S), S.m, [(1.0,) * S.m] + reps, None,
                             [0.0] + spreads,
                             [len(S)] + [len(S) * len(idx) for idx in blocks])


@pytest.mark.parametrize("make, classes", [
    (lambda: mub_code(61), 3),
    (lambda: extraspecial_code(5, 2, 1), 4),
    (lambda: extraspecial_code(3, 3, 2), 4)])
def test_large_code_representatives_rationalize(make, classes):
    R = row_classes(make())
    reps = rational_representatives(R)
    assert len(reps) == classes
    assert max(q.denominator for rep in reps for q in rep) <= 61
    worst = max(abs(Fraction(y) - q) for rep, exact in zip(R.reps, reps)
                for y, q in zip(rep, exact))
    assert worst < 1e-11
