from fractions import Fraction
from math import comb

import numpy as np
import pytest

from grasscode.bounds import (BoundTable, absolute_code_bound, bound_table,
                              code_design_exact_size, design_absolute_bound,
                              dgs_one_distance, dgs_two_distance,
                              make_annihilator, one_distance_bound,
                              relative_code_bound, relative_design_bound,
                              simplex_orthoplex, size_from_simplex_alpha,
                              two_distance_bound)
from grasscode.dims import dim_Hk
from grasscode.errors import DegenerateDenominator, OutOfRange
from grasscode.zonal import annihilator_sympoly


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
                   for lam, c in f.to_monomial().items())
        res = relative_code_bound(f, 1, n)
        assert res.value == f.at_ones() / mean


def test_relative_bound_checks_code(pauli2):
    f = annihilator_sympoly([Fraction(0), Fraction(1)], 2)
    res = relative_code_bound(f, 2, 4, code=pauli2)
    assert res.applicable
    assert any("checked" in c.text for c in res.conditions)


def test_design_bounds():
    for t in range(0, 5):
        for m, n in [(1, 4), (2, 5)]:
            assert design_absolute_bound(t, m, n) == dim_Hk(t // 2, m, n)
    # 2-design lower bound in G(2,4) is n^2 = 16
    assert design_absolute_bound(2, 2, 4) == 16


def test_relative_design_bound_aggregate_square():
    # (Z_1 + dim)^..: the squared degree-1 kernel certifies |S| >= n^2
    from grasscode.zonal import normalize_zonal, zonal_explicit
    m, n = 2, 4
    k1 = (normalize_zonal(zonal_explicit((), m, n)).poly
          + normalize_zonal(zonal_explicit((1,), m, n)).poly)
    f = k1 * k1
    res = relative_design_bound(f, 2, m, n)
    assert res.applicable
    assert res.value == n * n


def test_code_design_exact_size():
    # 2-design + 1-distance at alpha = m(mn-1)/(n^2-1): forced size n^2
    for m, n in [(1, 3), (2, 4), (2, 5)]:
        alpha = Fraction(m * (m * n - 1), n * n - 1)
        f = annihilator_sympoly([alpha], m)
        assert code_design_exact_size(f, 2, m, n) == n * n
    # the G(2,4) simplex value
    f = annihilator_sympoly([Fraction(14, 15)], 2)
    assert code_design_exact_size(f, 2, 2, 4) == 16


def test_make_annihilator():
    ann = make_annihilator([Fraction(1, 2), Fraction(0)], 2)
    assert ann.degree == 2
    assert ann.evaluate([Fraction(1, 4), Fraction(1, 4)]) == 0
    assert ann.evaluate([Fraction(0), Fraction(0)]) == 0


def test_bound_table_contents_sweep():
    for n in range(2, 9):
        for m in range(1, n // 2 + 1):
            text = bound_table(m, n).text()
            assert "absolute |A|=1" in text
            assert "absolute |A|=2" in text
            assert "relative |A|=1" in text
            assert "relative |A|=2" in text
            assert "alpha+beta <=" in text
            assert "alpha+beta - n alpha beta" in text


def test_bound_table_cells():
    t = bound_table(1, 3)
    assert str(t.abs_one) == "9"
    t2 = bound_table(2, 4)
    assert t2.abs_one == 16
    assert t2.abs_two == 120
    assert t2.relative_two(Fraction(0), Fraction(1)).value == 30
    # m=1 note surfaces the smaller exact space
    assert bound_table(1, 4).abs_two_note != ""
    with pytest.raises(OutOfRange):
        BoundTable(3, 4)


def test_table_csv():
    csv_text = bound_table(2, 5).csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "kind,value,applicable,conditions"
    assert len(lines) >= 5
