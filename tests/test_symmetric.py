"""Symmetric selections s(i) = i*k: dual matrices, Lagrange limit, convergence rate.

The reference matrices below were transcribed from an independent exact
computation and are asserted entry-for-entry against the library's
construction (invert the selected rows of the degree-elevation matrix).
"""

import math
from fractions import Fraction as F

import pytest
from reference_tables import REFERENCE_TABLES, mat_from_table

from dualbern.bernstein import bernstein_value, collocation_matrix, elevation_matrix
from dualbern.ratmat import Mat, inf_norm, is_row_affine, mat_mul, mat_sub, row_select
from dualbern.symmetric import (
    SymmetricConfig,
    _scaled_elevation_distance,
    convergence_csv,
    convergence_table,
    rate_constant,
    rate_bound,
    selected_elevation_rows,
    symmetric_dual_matrix,
)


def test_symmetric_config():
    cfg = SymmetricConfig(3, 4)
    assert cfg.n == 12
    assert tuple(cfg.selection()) == (0, 4, 8, 12)
    with pytest.raises(ValueError):
        SymmetricConfig(0, 2)
    with pytest.raises(ValueError):
        SymmetricConfig(2, 0)


@pytest.mark.parametrize(
    "m,k,den,rows", REFERENCE_TABLES, ids=[f"m{m}k{k}" for m, k, _, _ in REFERENCE_TABLES]
)
def test_symmetric_dual_matrix_reference_values(m, k, den, rows):
    assert symmetric_dual_matrix(m, k) == mat_from_table(den, rows)


def test_symmetric_dual_matrix_k1_is_identity():
    for m in range(1, 7):
        assert symmetric_dual_matrix(m, 1) == Mat.identity(m + 1)


def test_symmetric_dual_matrix_structure():
    for m in range(1, 6):
        for k in range(1, 7):
            a = symmetric_dual_matrix(m, k)
            # inverse pair with the selected elevation rows
            assert mat_mul(selected_elevation_rows(m, k), a) == Mat.identity(m + 1)
            assert is_row_affine(a)
            # centro-symmetric: A[i,j] == A[m-i, m-j]
            for i in range(m + 1):
                for j in range(m + 1):
                    assert a[i, j] == a[m - i, m - j]
            # endpoint rows are unit vectors
            assert a.row(0) == tuple(F(int(j == 0)) for j in range(m + 1))
            assert a.row(m) == tuple(F(int(j == m)) for j in range(m + 1))


def test_lagrange_collocation_goldens():
    # the Lagrange collocation matrix of the symmetric case is collocation_matrix
    assert collocation_matrix(1) == Mat.identity(2)
    assert collocation_matrix(2) == Mat([[1, 0, 0], ["1/4", "1/2", "1/4"], [0, 0, 1]])
    for m in range(1, 8):
        c = collocation_matrix(m)
        for i in range(m + 1):
            assert sum(c.row(i)) == 1


def test_rate_constant_golden_m2():
    rc = rate_constant(2)
    assert rc.m == 2
    assert rc.C.row(0) == (F(0), F(0), F(0))
    assert rc.C.row(1) == (F(1, 8), F(-1, 4), F(1, 8))
    assert rc.C.row(2) == (F(0), F(0), F(0))


def test_rate_constant_structure():
    for m in range(2, 6):
        c = rate_constant(m).C
        # endpoint rows vanish and every row sums to zero
        assert all(x == 0 for x in c.row(0))
        assert all(x == 0 for x in c.row(m))
        for i in range(m + 1):
            assert sum(c.row(i)) == 0


def test_rate_constant_matches_matrix_limit():
    # k * (collocation - selected elevation rows) must approach C
    for m in (2, 3):
        c = rate_constant(m).C
        k = 512
        scaled = mat_sub(collocation_matrix(m), selected_elevation_rows(m, k))
        diff = mat_sub(Mat([[k * x for x in scaled.row(i)] for i in range(m + 1)]), c)
        assert float(inf_norm(diff)) <= 1e-2


def _linear_product(factors) -> list:
    """Coefficients (lowest first) of prod (a k + b) over the (a, b) in factors."""
    poly = [1]
    for a, b in factors:
        poly = [b * x + a * y for x, y in zip(poly + [0], [0] + poly)]
    return poly


def test_rate_constant_is_the_exact_one_over_k_term_of_the_elevation_entries():
    # at n = mk, E(ik, j) = C(mk-ik, m-j) C(ik, j) / C(mk, m) = N(k) / D(k) with
    # N = C(m, j) ((m-i)k)_{m-j} (ik)_j and D = (mk)_m, both of degree m in k, so
    # E(ik, j) = M + (N_{m-1} - M D_{m-1}) / D_m / k + O(1/k^2),  M = N_m / D_m:
    # M is the collocation entry B_j^m(i/m), and k (M - E(ik, j)) -> C(i, j)
    for m in range(1, 10):
        c = rate_constant(m).C
        d = _linear_product([(m, -t) for t in range(m)])
        for i in range(m + 1):
            for j in range(m + 1):
                factors = [(m - i, -t) for t in range(m - j)] + [(i, -t) for t in range(j)]
                num = [math.comb(m, j) * x for x in _linear_product(factors)]
                for k in (1, 2, 5):
                    value = F(sum(x * k**e for e, x in enumerate(num)),
                              sum(x * k**e for e, x in enumerate(d)))
                    assert value == selected_elevation_rows(m, k)[i, j]
                lead = F(num[m], d[m])
                assert lead == bernstein_value(m, j, F(i, m)), (m, i, j)
                assert (lead * d[m - 1] - num[m - 1]) / d[m] == c[i, j], (m, i, j)


def test_selected_elevation_rows_are_rows_of_the_elevation_matrix():
    for m in range(1, 9):
        for k in range(1, 7):
            cfg = SymmetricConfig(m, k)
            rows = row_select(elevation_matrix(m, cfg.n), cfg.selection())
            assert selected_elevation_rows(m, k) == rows


def test_convergence_table_m1_is_exact():
    for rec in convergence_table(1, [1, 2, 4]):
        assert rec.sup_dist == 0
        assert rec.scaled_mat_dist == 0


def test_convergence_table_m2_closed_form():
    table = convergence_table(2, [2, 3, 5, 8])
    for rec in table:
        assert abs(rec.sup_dist - 1 / (2 * rec.k)) <= 1e-12
        assert abs(rec.scaled_mat_dist - rec.k / (2 * rec.k - 1)) <= 1e-12
    sups = [rec.sup_dist for rec in table]
    assert sups == sorted(sups, reverse=True)


def test_convergence_table_rejects_empty():
    with pytest.raises(ValueError):
        convergence_table(2, [])


def test_convergence_table_rejects_a_one_point_grid():
    # it used to report sup_dist = nan
    with pytest.raises(ValueError, match="samples >= 2"):
        convergence_table(2, [1], samples=1)


def test_scaled_elevation_distance_is_the_matrix_expression():
    # integer row sums over one denominator == the Fraction matrix difference
    for m in range(1, 9):
        colloc = collocation_matrix(m)
        for k in range(1, 7):
            want = k * inf_norm(mat_sub(colloc, selected_elevation_rows(m, k)))
            assert _scaled_elevation_distance(m, k) == want, (m, k)


def test_rate_bound():
    assert rate_bound(1, 5) == 0
    assert rate_bound(2, 2) == pytest.approx(2.25)
    assert rate_bound(2, 9) == pytest.approx(0.5)
    for m in (2, 3, 4):
        bounds = [rate_bound(m, k) for k in (1, 2, 4, 8, 16)]
        assert bounds == sorted(bounds, reverse=True)


def test_sup_distance_within_rate_bound():
    for m in (2, 3):
        for rec in convergence_table(m, [2, 4, 8]):
            assert rec.sup_dist <= rate_bound(m, rec.k) + 1e-12


def test_convergence_csv_format():
    text = convergence_csv(convergence_table(2, [2, 4]))
    lines = text.strip().split("\n")
    assert lines[0] == "k,sup_dist,scaled_mat_dist"
    assert len(lines) == 3
    k, sup, scaled = lines[1].split(",")
    assert int(k) == 2
    assert abs(float(sup) - 0.25) <= 1e-15
    assert abs(float(scaled) - F(2, 3)) <= 1e-15
