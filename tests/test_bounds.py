from fractions import Fraction
from math import comb

import numpy as np
import pytest

import grasscode.bounds as bounds
from grasscode.bounds import (BoundTable, absolute_code_bound,
                              code_design_exact_size, design_absolute_bound,
                              make_annihilator, one_distance_bound,
                              relative_code_bound, relative_design_bound,
                              simplex_orthoplex, size_from_simplex_alpha,
                              two_distance_bound)
from grasscode.core_linalg import Code
from grasscode.dims import dim_Hk
from grasscode.errors import DegenerateDenominator, DimensionMismatch, OutOfRange
from grasscode.zonal import annihilator_sympoly, zonal_general

from conftest import counting_kernel
from dgs_oracle import dgs_one_distance, dgs_two_distance
from monomial_oracle import to_monomial


def rational(rng, lo, hi):
    "a random Fraction in (lo, hi), exact"
    num = int(rng.integers(1, 50))
    den = int(rng.integers(num + 1, 99))
    return lo + (hi - lo) * Fraction(num, den)


def test_two_distance_frozen_values():
    assert two_distance_bound(0, 1, 2, 4).value == 30
    assert two_distance_bound(0, 1, 3, 9).value == 120
    assert two_distance_bound(0, Fraction(1, 5), 1, 5).value == 30
    assert two_distance_bound(0, 1, 5, 25).value == 780
    for n in (2, 4, 6, 8):
        m = n // 2
        res = two_distance_bound(0, Fraction(n, 4), m, n)
        assert res.value == 2 * (n * n - 1)
        assert res.applicable


def test_one_distance_frozen_values():
    for n in range(2, 11):
        res = one_distance_bound(Fraction(1, n + 1), 1, n)
        assert res.value == n * n
        assert res.applicable
    assert one_distance_bound(Fraction(14, 15), 2, 4).value == 16


def test_dgs_reductions_m1():
    rng = np.random.default_rng(401)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        alpha = rational(rng, Fraction(0), Fraction(1, n))
        assert one_distance_bound(alpha, 1, n).value == dgs_one_distance(alpha, n)
        beta = rational(rng, alpha, Fraction(1))
        res = two_distance_bound(alpha, beta, 1, n)
        assert res.value == dgs_two_distance(alpha, beta, n)


def test_dgs_printed_forms():
    rng = np.random.default_rng(402)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        a = rational(rng, Fraction(0), Fraction(1, n))
        b = rational(rng, a, Fraction(1))
        assert dgs_one_distance(a, n) == n * (1 - a) / (1 - n * a)
        den = 2 - (n + 1) * (a + b) + n * (n + 1) * a * b
        if den != 0:
            assert dgs_two_distance(a, b, n) == n * (n + 1) * (1 - a) * (1 - b) / den


def test_values_are_exact_rationals():
    res = two_distance_bound(Fraction(1, 7), Fraction(2, 3), 2, 5)
    assert isinstance(res.value, Fraction)
    again = two_distance_bound(Fraction(1, 7), Fraction(2, 3), 2, 5)
    assert res.value == again.value
    for c, c2 in zip(res.conditions, again.conditions):
        assert c.margin == c2.margin


def test_one_distance_conditions():
    # strict threshold alpha < m^2/n; at the boundary the value degenerates
    res = one_distance_bound(Fraction(4, 8), 2, 8)  # alpha = m^2/n = 1/2
    assert res.value is None
    assert not res.applicable
    assert any(c.boundary for c in res.conditions)
    res2 = one_distance_bound(Fraction(6, 5), 2, 4)  # above threshold m^2/n = 1
    assert not res2.applicable
    assert any(not c.holds for c in res2.conditions)


def test_two_distance_conditions_strictness():
    # first condition is non-strict: equality still applicable
    m, n = 1, 3
    thr = Fraction(2 * (m * m * n - 4 * m + n), n * n - 4)  # = 4/5
    res = two_distance_bound(Fraction(0), thr, m, n)
    c1 = [c for c in res.conditions if "alpha+beta <=" in c.text][0]
    assert c1.holds and c1.boundary
    # second condition is strict
    res2 = two_distance_bound(Fraction(1, 9), Fraction(1, 3), 1, 3)
    c2 = [c for c in res2.conditions if "<" in c.text and c is not c1][-1]
    assert c2.strict


def test_two_distance_n2_edge():
    # m = 1, n = 2 is fine (the (m-1)^2/(n-2) term vanishes)
    res = two_distance_bound(0, Fraction(1, 2), 1, 2)
    assert res.value == 6
    # m > 1 with n = 2 hits the n^2 - 4 = 0 pole in the condition threshold
    with pytest.raises(DegenerateDenominator):
        two_distance_bound(0, Fraction(1, 2), 2, 2)


def test_simplex_inversion_matches_one_distance():
    rng = np.random.default_rng(403)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, n + 1))
        alpha = rational(rng, Fraction(0), Fraction(m * m, n))
        N = size_from_simplex_alpha(alpha, m, n)
        assert N == one_distance_bound(alpha, m, n).value


def test_simplex_inversion_refuses_alpha_above_threshold():
    # alpha > m^2/n is where one_distance_bound is not applicable
    for alpha, m, n in [(2, 2, 4), (3, 2, 4), (Fraction(11, 10), 2, 4),
                        (Fraction(1, 4), 1, 5), (Fraction(3, 2), 3, 7)]:
        assert not one_distance_bound(alpha, m, n).applicable
        with pytest.raises(OutOfRange):
            size_from_simplex_alpha(alpha, m, n)


def test_simplex_orthoplex_values():
    so = simplex_orthoplex(16, 2, 4)
    assert so.simplex_alpha == Fraction(14, 15)
    assert so.orthoplex_beta == Fraction(1)
    assert so.regime == "simplex"
    assert simplex_orthoplex(17, 2, 4).regime == "orthoplex"
    with pytest.raises(DegenerateDenominator):
        size_from_simplex_alpha(Fraction(1), 2, 4)  # alpha = m^2/n


def test_absolute_bounds():
    assert absolute_code_bound(1, 2, 4) == (16, 16)
    assert absolute_code_bound(2, 2, 4) == (120, 120)
    hom, hk = absolute_code_bound(2, 1, 4)
    assert hom == dim_Hk(2, 1, 4) == 1 + 15 + 84
    # generic count for k >= 3
    hom3, _ = absolute_code_bound(3, 2, 6)
    from math import comb
    assert hom3 == comb(36 + 2, 3)
    # a negative, bool or non-integral degree is refused, never read as 0/1
    for k in (-1, True, 1.0):
        with pytest.raises(OutOfRange):
            absolute_code_bound(k, 2, 4)


def test_relative_engine_matches_closed_forms():
    rng = np.random.default_rng(404)
    for _ in range(10):
        n = int(rng.integers(4, 9))
        m = int(rng.integers(1, n // 2 + 1))
        alpha = rational(rng, Fraction(0), Fraction(m * m, n))
        f = annihilator_sympoly([alpha], m)
        res = relative_code_bound(f, m, n)
        closed = one_distance_bound(alpha, m, n)
        if closed.applicable:
            assert res.value == closed.value


def test_relative_engine_matches_closed_forms_on_grid():
    # one root, or alpha < beta, on the lattice a/(2n) of [0, 1]: the engine's
    # verdict on the annihilator is the closed form's, and so is its value
    # wherever the closed form applies
    cases = 0
    for n in range(3, 9):
        lattice = [Fraction(a, 2 * n) for a in range(2 * n + 1)]
        roots = [[a] for a in lattice] + [[a, b] for i, a in enumerate(lattice)
                                          for b in lattice[i + 1:]]
        for m in range(1, n // 2 + 1):
            for A in roots:
                try:
                    closed = (one_distance_bound(A[0], m, n) if len(A) == 1
                              else two_distance_bound(A[0], A[1], m, n))
                except DegenerateDenominator:
                    continue
                res = relative_code_bound(annihilator_sympoly(A, m), m, n)
                assert res.applicable == closed.applicable, (m, n, A)
                if closed.applicable:
                    assert res.value == closed.value, (m, n, A)
                cases += 1
    assert cases > 1000


def test_relative_engine_two_distance():
    f = annihilator_sympoly([Fraction(0), Fraction(1)], 2)
    res = relative_code_bound(f, 2, 4)
    assert res.value == 30
    assert res.applicable


def test_relative_engine_three_distance_lines():
    # at m = 1, c_0 is the Haar mean of f(y), y = |<u,v>|^2 with density
    # (n-1)(1-y)^(n-2), whose moments are E[y^k] = 1/C(n-1+k, k)
    for n in (3, 5, 7):
        roots = [Fraction(0), Fraction(1, n + 1), Fraction(1, 2)]
        f = annihilator_sympoly(roots, 1)
        mean = sum(c / comb(n - 1 + lam.size, lam.size)
                   for lam, c in to_monomial(f).items())
        res = relative_code_bound(f, 1, n)
        assert res.value == f.at_ones() / mean


CHECKED = "f <= 0 on distinct pairs (checked)"


def checked(res):
    (cond,) = [c for c in res.conditions if c.text == CHECKED]
    return cond.holds


def test_relative_bound_checks_code(request):
    for name, roots in [("pauli2", ["0", "1"]), ("mub5", ["0", "1/5"]),
                        ("es321", ["0", "1"])]:
        S = request.getfixturevalue(name)
        f = annihilator_sympoly([Fraction(r) for r in roots], S.m)
        res = relative_code_bound(f, S.m, S.n, code=S)
        assert res.value == len(S) and res.applicable and checked(res)
        assert relative_code_bound(f, S.m, S.n, code=list(S)) == res
        assert relative_code_bound(f, S.m, S.n).value == res.value
        # f = sum(y) is positive on every pair that is not orthogonal
        bad = annihilator_sympoly([Fraction(0)], S.m)
        res = relative_code_bound(bad, S.m, S.n, code=S)
        assert not checked(res) and not res.applicable


def test_relative_bound_one_member_code(pauli2):
    f = annihilator_sympoly([Fraction(0), Fraction(1)], 2)
    res = relative_code_bound(f, 2, 4, code=Code([pauli2[0]]))
    assert checked(res) and res.applicable and res.value == 30


def test_relative_bound_check_reads_shared_geometry(es321, monkeypatch):
    S = Code(list(es321), check_duplicates=False)
    f = annihilator_sympoly([Fraction(0), Fraction(1)], S.m)
    kernel = counting_kernel(monkeypatch)
    oracle = []
    real = bounds.principal_angles

    def counted(a, b):
        oracle.append((a, b))
        return real(a, b)

    monkeypatch.setattr(bounds, "principal_angles", counted)
    assert checked(relative_code_bound(f, S.m, S.n, code=S))
    assert kernel == [("sums", 2)]   # one pass, power sums only
    assert len(oracle) == 1      # only the decisive pair is recomputed


@pytest.mark.parametrize("m, n", [(2, 6), (1, 4), (3, 9)])
def test_relative_bound_refuses_a_code_outside_the_space(pauli2, monkeypatch,
                                                          m, n):
    # pauli(2) lies in G(2,4): a bound for another G(m,n) is refused, naming
    # both shapes, before any pair pass
    f = annihilator_sympoly([Fraction(0), Fraction(1)], m)
    kernel = counting_kernel(monkeypatch)
    with pytest.raises(DimensionMismatch, match=r"G\(2,4\).*G\(%d,%d\)"
                       % (m, n)):
        relative_code_bound(f, m, n, code=Code(list(pauli2)))
    assert kernel == []


def test_relative_bound_check_runs_no_eigen_solve(es321, monkeypatch):
    S = Code(list(es321), check_duplicates=False)
    f = annihilator_sympoly([Fraction(0), Fraction(1)], S.m)

    def refuse(*args, **kwargs):
        raise AssertionError("eigen-solve in the f <= 0 check")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert checked(relative_code_bound(f, S.m, S.n, code=S))


def test_design_bounds():
    for t in range(0, 5):
        for m, n in [(1, 4), (2, 5)]:
            assert design_absolute_bound(t, m, n) == dim_Hk(t // 2, m, n)
    # 2-design lower bound in G(2,4) is n^2 = 16
    assert design_absolute_bound(2, 2, 4) == 16
    for t in (-1, True, 2.0):
        with pytest.raises(OutOfRange):
            design_absolute_bound(t, 2, 4)


def test_relative_design_bound_aggregate_square():
    # (Z_1 + dim)^..: the squared degree-1 kernel certifies |S| >= n^2
    from grasscode.zonal import normalize_zonal
    from zonal_oracle import zonal_explicit
    m, n = 2, 4
    k1 = (normalize_zonal(zonal_explicit((), m, n)).poly
          + normalize_zonal(zonal_explicit((1,), m, n)).poly)
    f = k1 * k1
    res = relative_design_bound(f, 2, m, n)
    assert res.applicable
    assert res.value == n * n


def lines5_zonals():
    return [zonal_general(mu, 1, 5).poly for mu in ((), (1,), (2,))]


@pytest.mark.parametrize("sign", [1, -1])
def test_relative_design_bound_sign_above_t(sign):
    # f = 20 Z_() + Z_(1) + sign Z_(2) at t = 1: c_(2) <= 0 has margin -sign,
    # and f(1,...,1) = 44 or 4 keeps the diagonal condition
    Z = lines5_zonals()
    f = 20 * Z[0] + Z[1] + (Z[2] if sign > 0 else -Z[2])
    res = relative_design_bound(f, 1, 1, 5)
    (cond,) = [c for c in res.conditions if "degree > t" in c.text]
    assert cond.text == "c_(2) <= 0 (degree > t)"
    assert cond.margin == -sign
    assert res.applicable == (sign < 0)


def test_relative_design_bound_checks_the_diagonal():
    # f = Z_() + Z_(1) - Z_(2) has every sign right but f(1,...,1) = -15,
    # and f >= 0 must hold on the diagonal pairs of any design
    Z = lines5_zonals()
    res = relative_design_bound(Z[0] + Z[1] - Z[2], 1, 1, 5)
    (diag,) = [c for c in res.conditions if c.text == "f(1,...,1) >= 0"]
    assert not diag.holds and diag.margin == -15
    assert not res.applicable
    assert [c.text for c in res.conditions][-1] == \
        "f >= 0 on distinct pairs (caller-asserted)"


def test_code_design_exact_size():
    # 2-design + 1-distance at alpha = m(mn-1)/(n^2-1): forced size n^2
    for m, n in [(1, 3), (2, 4), (2, 5)]:
        alpha = Fraction(m * (m * n - 1), n * n - 1)
        f = annihilator_sympoly([alpha], m)
        assert code_design_exact_size(f, 2, m, n) == n * n
    # the G(2,4) simplex value
    f = annihilator_sympoly([Fraction(14, 15)], 2)
    assert code_design_exact_size(f, 2, 2, 4) == 16


def test_code_design_exact_size_names_every_violation():
    # f = 1/2 - y has c_0 = 1/4 but c_(1) = -1/4; t = 0 is below deg f = 1
    f = -annihilator_sympoly([Fraction(1, 2)], 1)
    with pytest.raises(OutOfRange) as err:
        code_design_exact_size(f, 0, 1, 4)
    msg = str(err.value)
    assert "c_(1) >= 0" in msg and "t >= deg f" in msg
    assert "c_0 > 0" not in msg


def test_make_annihilator():
    ann = make_annihilator([Fraction(1, 2), Fraction(0)], 2)
    assert ann.degree == 2
    assert ann.evaluate([Fraction(1, 4), Fraction(1, 4)]) == 0
    assert ann.evaluate([Fraction(0), Fraction(0)]) == 0


def test_bound_table_contents_sweep():
    for n in range(2, 9):
        for m in range(1, n // 2 + 1):
            text = BoundTable(m, n).text()
            assert "absolute |A|=1" in text
            assert "absolute |A|=2" in text
            assert "relative |A|=1" in text
            assert "relative |A|=2" in text
            assert "alpha+beta <=" in text
            assert "alpha+beta - n alpha beta" in text


def test_bound_table_cells():
    t = BoundTable(1, 3)
    assert str(t.abs_one) == "9"
    t2 = BoundTable(2, 4)
    assert t2.abs_one == 16
    assert t2.abs_two == 120
    assert two_distance_bound(Fraction(0), Fraction(1), 2, 4).value == 30
    # m=1 note surfaces the smaller exact space
    assert BoundTable(1, 4).abs_two_note != ""
    with pytest.raises(OutOfRange):
        BoundTable(3, 4)


def test_table_csv():
    csv_text = BoundTable(2, 5).csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "kind,value,applicable,conditions"
    assert len(lines) >= 5
