"""One table of malformed numbers: each is refused as a GrasscodeError
subclass, never read as another value, never a bare TypeError or
AssertionError.  Integer parameters pass dims.check_integer (OutOfRange);
partitions pass Partition (OutOfRange); exact scalars pass
sympoly._exact_coefficient (InexactCoefficient for a float or for text that
is no rational, OutOfRange for a bool); tolerances pass
core_linalg.check_tolerance (OutOfRange); a Haar seed that is no numpy
Generator passes check_integer on its way to numpy; a basis entry that is
not finite is OutOfRange, and a finite one so large that a squared cosine
overflows is NumericalHealthError."""

from fractions import Fraction

import numpy as np
import pytest

from grasscode import analysis, bounds, constructions, dims, partitions, zonal
from grasscode.core_linalg import (Subspace, haar_basis_batch,
                                   haar_cosine_batch, haar_subspace,
                                   principal_angles, subspace_from_basis)
from grasscode.errors import (InexactCoefficient, NumericalHealthError,
                              OutOfRange, VariableCountMismatch)
from grasscode.sympoly import SymmetricPolynomial, ascending_product

from conftest import random_code

NAN, INF = float("nan"), float("inf")


def _relative(f_arg):
    "a relative bound's f: the annihilator of {0} on G(1,3)"
    return f_arg(zonal.annihilator_sympoly([0], 1))


CASES = [
    # bounds: exact scalars
    ("one_distance alpha=0.1", InexactCoefficient,
     lambda c: bounds.one_distance_bound(0.1, 1, 3)),
    ("two_distance beta=0.2", InexactCoefficient,
     lambda c: bounds.two_distance_bound(0, 0.2, 1, 5)),
    ("two_distance alpha=0.5", InexactCoefficient,
     lambda c: bounds.two_distance_bound(0.5, 0, 1, 5)),
    ("size_from_simplex_alpha 0.1", InexactCoefficient,
     lambda c: bounds.size_from_simplex_alpha(0.1, 1, 3)),
    ("one_distance alpha=True", OutOfRange,
     lambda c: bounds.one_distance_bound(True, 1, 3)),
    ("one_distance alpha='x'", InexactCoefficient,
     lambda c: bounds.one_distance_bound("x", 1, 3)),
    ("one_distance alpha='1/0'", InexactCoefficient,
     lambda c: bounds.one_distance_bound("1/0", 1, 3)),
    ("two_distance beta=None", InexactCoefficient,
     lambda c: bounds.two_distance_bound(0, None, 1, 5)),
    # bounds: integers
    ("_check_domain m=True", OutOfRange,
     lambda c: bounds.one_distance_bound(0, True, 3)),
    ("_check_domain m=1.0", OutOfRange,
     lambda c: bounds.one_distance_bound(0, 1.0, 3)),
    ("_check_domain n=3.0", OutOfRange,
     lambda c: bounds.two_distance_bound(0, 0, 1, 3.0)),
    ("simplex_orthoplex N=4.0", OutOfRange,
     lambda c: bounds.simplex_orthoplex(4.0, 1, 3)),
    ("relative_design_bound t=2.5", OutOfRange,
     lambda c: _relative(lambda f: bounds.relative_design_bound(f, 2.5, 1, 3))),
    ("relative_design_bound t=True", OutOfRange,
     lambda c: _relative(lambda f: bounds.relative_design_bound(f, True, 1, 3))),
    ("code_design_exact_size t=2.5", OutOfRange,
     lambda c: _relative(lambda f: bounds.code_design_exact_size(f, 2.5, 1, 3))),
    ("code_design_exact_size t=True", OutOfRange,
     lambda c: _relative(lambda f: bounds.code_design_exact_size(f, True, 1, 3))),
    # constructions
    ("pauli_code k=True", OutOfRange, lambda c: constructions.pauli_code(True)),
    ("mub_code p=5.0", OutOfRange, lambda c: constructions.mub_code(5.0)),
    ("enumerate_isotropic p=3.0", OutOfRange,
     lambda c: constructions.enumerate_isotropic(3.0, 1, 1)),
    ("isotropic_count d=True", OutOfRange,
     lambda c: constructions.isotropic_count(3, 2, True)),
    ("isotropic_count n=2.0", OutOfRange,
     lambda c: constructions.isotropic_count(3, 2.0, 1)),
    ("enumerate_isotropic d=True", OutOfRange,
     lambda c: constructions.enumerate_isotropic(3, 1, True)),
    ("extraspecial_code k=True", OutOfRange,
     lambda c: constructions.extraspecial_code(3, 2, True)),
    ("extraspecial_code n=2.0", OutOfRange,
     lambda c: constructions.extraspecial_code(3, 2.0, 1)),
    ("extraspecial_size k=True", OutOfRange,
     lambda c: constructions.extraspecial_size(3, 2, True)),
    ("extraspecial_size n=2.0", OutOfRange,
     lambda c: constructions.extraspecial_size(3, 2.0, 1)),
    # core_linalg
    ("haar_subspace m=True", OutOfRange, lambda c: haar_subspace(3, True)),
    ("haar_subspace n=3.0", OutOfRange, lambda c: haar_subspace(3.0, 1)),
    ("haar_subspace seed=-3", OutOfRange,
     lambda c: haar_subspace(5, 2, seed=-3)),
    ("haar_basis_batch samples=-1", OutOfRange,
     lambda c: haar_basis_batch(5, 2, -1)),
    ("haar_basis_batch samples=2.5", OutOfRange,
     lambda c: haar_basis_batch(5, 2, 2.5)),
    ("haar_basis_batch n=5.0", OutOfRange,
     lambda c: haar_basis_batch(5.0, 2, 3)),
    ("haar_basis_batch m=True", OutOfRange,
     lambda c: haar_basis_batch(5, True, 3)),
    ("haar_basis_batch n < m", OutOfRange,
     lambda c: haar_basis_batch(1, 2, 3)),
    ("haar_basis_batch seed=-1", OutOfRange,
     lambda c: haar_basis_batch(5, 2, 3, seed=-1)),
    ("haar_basis_batch seed=1.5", OutOfRange,
     lambda c: haar_basis_batch(5, 2, 3, seed=1.5)),
    ("haar_cosine_batch samples=2.5", OutOfRange,
     lambda c: haar_cosine_batch(5, 2, 2.5)),
    ("haar_cosine_batch n=5.0", OutOfRange,
     lambda c: haar_cosine_batch(5.0, 2, 3)),
    ("haar_cosine_batch m=0", OutOfRange,
     lambda c: haar_cosine_batch(5, 0, 3)),
    ("haar_cosine_batch n < m", OutOfRange,
     lambda c: haar_cosine_batch(1, 2, 3)),
    ("haar_cosine_batch seed=True", OutOfRange,
     lambda c: haar_cosine_batch(5, 2, 3, seed=True)),
    # basis entries
    ("principal_angles 1e200 entry", NumericalHealthError,
     lambda c: principal_angles(Subspace([[1e200], [0.0]]),
                                Subspace([[1.0], [0.0]]))),
    ("subspace_from_basis nan entry", OutOfRange,
     lambda c: subspace_from_basis([[NAN], [1.0]])),
    ("subspace_from_basis inf entry", OutOfRange,
     lambda c: subspace_from_basis([[INF], [1.0]])),
    ("power_sums t=1.5", OutOfRange,
     lambda c: c["mub5"].geometry.power_sums(1.5)),
    ("power_sums t=True", OutOfRange,
     lambda c: c["mub5"].geometry.power_sums(True)),
    # zonal
    ("mc_zonal_inner samples=True", OutOfRange,
     lambda c: zonal.mc_zonal_inner((1,), (1,), 1, 3, samples=True)),
    ("mc_zonal_inner samples=2.5", OutOfRange,
     lambda c: zonal.mc_zonal_inner((1,), (1,), 1, 3, samples=2.5)),
    ("mc_zonal_inner seed=-1", OutOfRange,
     lambda c: zonal.mc_zonal_inner((1,), (1,), 1, 3, 10, seed=-1)),
    ("mc_zonal_inner seed=1.5", OutOfRange,
     lambda c: zonal.mc_zonal_inner((1,), (1,), 1, 3, 10, seed=1.5)),
    ("mc_zonal_inner seed=True", OutOfRange,
     lambda c: zonal.mc_zonal_inner((1,), (1,), 1, 3, 10, seed=True)),
    ("annihilator_sympoly m=True", OutOfRange,
     lambda c: zonal.annihilator_sympoly([0], True)),
    ("annihilator_sympoly root='x'", InexactCoefficient,
     lambda c: zonal.annihilator_sympoly(["x"], 1)),
    ("mc_zonal_inner mu=(1.5,)", OutOfRange,
     lambda c: zonal.mc_zonal_inner((1.5,), (), 3, 9, 10)),
    ("mc_zonal_inner nu=1.5", OutOfRange,
     lambda c: zonal.mc_zonal_inner((1,), 1.5, 3, 9, 10)),
    ("zonal_general kappa=(2.5,)", OutOfRange,
     lambda c: zonal.zonal_general((2.5,), 1, 5)),
    ("zonal_general kappa=(True,)", OutOfRange,
     lambda c: zonal.zonal_general((True,), 1, 5)),
    ("zonal_general kappa=(1, 2)", OutOfRange,
     lambda c: zonal.zonal_general((1, 2), 2, 5)),
    ("zonal_general kappa=(-1,)", OutOfRange,
     lambda c: zonal.zonal_general((-1,), 1, 5)),
    ("Partition.pad length=1", OutOfRange,
     lambda c: partitions.Partition(2, 1).pad(1)),
    ("zonal_general kappa='2'", OutOfRange,
     lambda c: zonal.zonal_general("2", 1, 5)),
    ("ZonalPolynomial m=2.5", OutOfRange,
     lambda c: zonal.ZonalPolynomial((), 2.5, 5, SymmetricPolynomial(2, {}))),
    ("ZonalPolynomial m=True", OutOfRange,
     lambda c: zonal.ZonalPolynomial((), True, 5, SymmetricPolynomial(1, {}))),
    ("ZonalExpansion.coeff mu=(0.5,)", OutOfRange,
     lambda c: zonal.expand_in_zonal(
         zonal.annihilator_sympoly([0], 1), 1, 5).coeff((0.5,))),
    # analysis
    ("twothree_audit t='2'", OutOfRange,
     lambda c: analysis.twothree_audit(c["mub5"], "2")),
    ("scheme_idempotents t=True", OutOfRange,
     lambda c: analysis.scheme_idempotents(
         c["mub5"], analysis.angle_classes(c["mub5"]), t=True)),
    # dims
    ("weyl_dim [2.5, 0]", OutOfRange, lambda c: dims.weyl_dim([2.5, 0])),
    ("q_binomial n=4.0", OutOfRange, lambda c: dims.q_binomial(4.0, 2, 3)),
    ("q_binomial q=2.5", OutOfRange, lambda c: dims.q_binomial(4, 2, 2.5)),
    ("q_binomial m=True", OutOfRange, lambda c: dims.q_binomial(4, True, 3)),
    ("dim_H n=4.0", OutOfRange, lambda c: dims.dim_H((1,), 4.0)),
    ("dim_H mu=(2.5,)", OutOfRange, lambda c: dims.dim_H((2.5,), 5)),
    ("hom_dim_bound n=True", OutOfRange, lambda c: dims.hom_dim_bound(2, True)),
    ("hom_dim_bound n=3.0", OutOfRange, lambda c: dims.hom_dim_bound(2, 3.0)),
    # partitions
    ("partitions_of k=True", OutOfRange,
     lambda c: list(partitions.partitions_of(True))),
    ("partitions_of k=2.0", OutOfRange,
     lambda c: list(partitions.partitions_of(2.0))),
    ("partitions_up_to t=True", OutOfRange,
     lambda c: partitions.partitions_up_to(True)),
    # sympoly
    ("ascending_product a=0.5", InexactCoefficient,
     lambda c: ascending_product(0.5, 2)),
    ("ascending_product a=True", OutOfRange,
     lambda c: ascending_product(True, 2)),
    ("constant True", OutOfRange,
     lambda c: SymmetricPolynomial.constant(True, 1)),
    ("evaluate at True", OutOfRange,
     lambda c: zonal.zonal_general((2,), 1, 5).evaluate([True])),
    ("constant '1/0'", InexactCoefficient,
     lambda c: SymmetricPolynomial.constant("1/0", 1)),
    ("SymmetricPolynomial m=2.5", OutOfRange,
     lambda c: SymmetricPolynomial(2.5, {})),
    ("SymmetricPolynomial m=True", OutOfRange,
     lambda c: SymmetricPolynomial(True, {})),
    ("SymmetricPolynomial m=0", OutOfRange,
     lambda c: SymmetricPolynomial(0, {})),
    ("SymmetricPolynomial coefficient 'x'", InexactCoefficient,
     lambda c: SymmetricPolynomial(1, {(1,): "x"})),
    ("SymmetricPolynomial shape (2.5,)", OutOfRange,
     lambda c: SymmetricPolynomial(1, {(2.5,): 1})),
    # tolerances
    ("design_strength tol=nan", OutOfRange,
     lambda c: analysis.design_strength(c["haar40"], t_max=4, tol=NAN)),
    ("design_strength tol=inf", OutOfRange,
     lambda c: analysis.design_strength(c["haar40"], t_max=4, tol=INF)),
    ("angle_classes tol=nan", OutOfRange,
     lambda c: analysis.angle_classes(c["haar40"], tol=NAN)),
    ("angle_classes tol=-1.0", OutOfRange,
     lambda c: analysis.angle_classes(c["haar40"], tol=-1.0)),
    ("twothree_audit tol=nan", OutOfRange,
     lambda c: analysis.twothree_audit(c["haar40"], 1, tol=NAN)),
    ("is_one_design tol=nan", OutOfRange,
     lambda c: analysis.is_one_design(c["haar40"], tol=NAN)),
    ("is_two_design tol=inf", OutOfRange,
     lambda c: analysis.is_two_design(c["haar40"], tol=INF)),
    ("rational_representatives tol=inf", OutOfRange,
     lambda c: analysis.rational_representatives(
         analysis.angle_classes(c["mub5"]), tol=INF)),
    ("orthonormality_defects tol=inf", OutOfRange,
     lambda c: c["mub5"][0].validate(tol=INF)),
]


@pytest.fixture(scope="module")
def codes(mub5):
    # 40 Haar-random lines in C^5: 780 distinct pair angles
    return {"mub5": mub5, "haar40": random_code(5, 1, 40, seed=1900)}


@pytest.mark.parametrize("error, call", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_malformed_number_is_refused(codes, error, call):
    with pytest.raises(error):
        call(codes)


def _annihilator(m):
    "the annihilator of {0} in m variables, a degree-1 f with no expansion"
    return zonal.annihilator_sympoly([0], m)


# kernel_pairing's inputs out of range: refused before any expansion
PAIRING = [
    ("kernel_pairing f in 2 variables on G(1,3)", VariableCountMismatch,
     lambda: zonal.kernel_pairing(_annihilator(2), _annihilator(1), 1, 3)),
    ("kernel_pairing g in 1 variable on G(2,5)", VariableCountMismatch,
     lambda: zonal.kernel_pairing(_annihilator(2), _annihilator(1), 2, 5)),
    ("kernel_pairing 2m > n", OutOfRange,
     lambda: zonal.kernel_pairing(_annihilator(3), _annihilator(3), 3, 5)),
    ("kernel_pairing m=0", OutOfRange,
     lambda: zonal.kernel_pairing(_annihilator(1), _annihilator(1), 0, 5)),
    ("kernel_pairing n=5.0", OutOfRange,
     lambda: zonal.kernel_pairing(_annihilator(2), _annihilator(2), 2, 5.0)),
]


@pytest.mark.parametrize("error, call", [c[1:] for c in PAIRING],
                         ids=[c[0] for c in PAIRING])
def test_kernel_pairing_refuses_before_any_expansion(error, call,
                                                     monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an expansion was started")

    monkeypatch.setattr(zonal, "expand_in_zonal", refuse)
    monkeypatch.setattr(zonal, "zonal_basis", refuse)
    with pytest.raises(error):
        call()


def test_checked_seeds_keep_their_streams():
    # checking a seed changes no draw: an int, a numpy integer and the
    # Generator they seed give the same samples and the same estimate
    want = haar_basis_batch(5, 2, 3, seed=7)
    for seed in (np.int64(7), np.random.default_rng(7)):
        assert np.array_equal(haar_basis_batch(5, 2, 3, seed=seed), want)
    est = zonal.mc_zonal_inner((1,), (2,), 2, 4, 3000, seed=5)
    for seed in (np.int64(5), np.random.default_rng(5)):
        assert zonal.mc_zonal_inner((1,), (2,), 2, 4, 3000, seed=seed) == est


def test_huge_finite_basis_entries_keep_their_span():
    # entries near 1e200 would overflow the Gram check; the span is kept,
    # orthonormalized as for the same matrix scaled down
    raw = np.array([[3.0, 1.0], [1.0, -2.0], [0.5, 4.0]])
    want = subspace_from_basis(raw).projection()
    for scale in (1e200, 1e300):
        got = subspace_from_basis(raw * scale)
        assert np.abs(got.basis.conj().T @ got.basis - np.eye(2)).max() < 1e-12
        assert np.abs(got.projection() - want).max() < 1e-12


def test_numpy_integers_and_strings_are_exact():
    # numpy integers and exact strings are integers and exact scalars: an
    # evaluation at a numpy integer point is exact, not a float
    Z = zonal.zonal_general((2,), 1, 5)
    val = Z.evaluate([np.int64(0)])
    assert type(val) is Fraction and val == Z.evaluate([0]) == 2
    assert dims.q_binomial(np.int64(4), np.int64(2), np.int64(3)) == 130
    assert bounds.one_distance_bound("1/10", 1, 3).value == \
        bounds.one_distance_bound(Fraction(1, 10), 1, 3).value
    assert ascending_product(np.int64(3), np.int64(2)) == 12
    assert dims.weyl_dim([np.int64(2), 0]) == 3
