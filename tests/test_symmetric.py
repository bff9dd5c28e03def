"""Symmetric selections s(i) = i*k: dual matrices, Lagrange limit, convergence rate.

The reference matrices below were transcribed from an independent exact
computation and are asserted entry-for-entry against the library's
construction (invert the selected rows of the degree-elevation matrix).
"""

import csv
import io
import math
import re
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest
from oracle import is_row_affine, mat_mul, mat_sub, row_select
from reference_tables import REFERENCE_TABLES, mat_from_table

from dualbern import symmetric
from dualbern.bernstein import (
    UNIT_INTERVAL,
    _colloc_inv,
    _collocation_int_rows,
    bform_eval,
    bernstein_value,
    collocation_matrix,
    elevation_matrix,
    uniform_grid,
)
from dualbern.ratmat import Mat, inf_norm
from dualbern.symmetric import (
    ConvergenceRecord,
    SymmetricConfig,
    _scaled_elevation_distance,
    convergence_csv,
    convergence_table,
    rate_constant,
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


def test_every_symmetric_caller_refuses_a_non_integral_m_or_k_alike():
    # it used to be TypeError from range() in two callers, SelectionError in the third
    callers = (symmetric_dual_matrix, lambda m, k: convergence_table(m, [k]),
               lambda m, k: SymmetricConfig(m, k).selection())
    for call in callers:
        for m, k in ((3, 2.5), (3, 2.0), (2.5, 2), ("3", 2), (3, "2"), (3, F(2))):
            with pytest.raises(ValueError, match="^need integers m >= 1 and k >= 1"):
                call(m, k)
    # rate_constant takes m alone, through the same check
    for m in (2.5, 2.0, "3", F(2), None):
        want = re.escape(f"need integers m >= 1 and k >= 1, got m={m!r}, k=1")
        with pytest.raises(ValueError, match=f"^{want}$"):
            rate_constant(m)
    assert rate_constant(np.int64(3)) == rate_constant(3)
    assert rate_constant(True) == rate_constant(1)
    # a bool and a numpy integer are integers, and are kept as ints
    cfg = SymmetricConfig(np.int64(3), True)
    assert (cfg.m, cfg.k, cfg.n) == (3, 1, 3) and type(cfg.k) is int and type(cfg.m) is int
    assert tuple(SymmetricConfig(3, np.int32(2)).selection()) == (0, 2, 4, 6)
    assert symmetric_dual_matrix(np.int64(3), np.int64(2)) == symmetric_dual_matrix(3, 2)
    assert symmetric_dual_matrix(3, True) == symmetric_dual_matrix(3, 1)
    got = convergence_table(np.int64(2), [np.int64(3), True])
    assert got == convergence_table(2, [3, 1]) and [type(r.k) for r in got] == [int, int]


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
    c = rate_constant(2)
    assert isinstance(c, Mat) and (c.rows, c.cols) == (3, 3)
    assert c.row(0) == (F(0), F(0), F(0))
    assert c.row(1) == (F(1, 8), F(-1, 4), F(1, 8))
    assert c.row(2) == (F(0), F(0), F(0))


def test_rate_constant_structure():
    for m in range(2, 6):
        c = rate_constant(m)
        # endpoint rows vanish and every row sums to zero
        assert all(x == 0 for x in c.row(0))
        assert all(x == 0 for x in c.row(m))
        for i in range(m + 1):
            assert sum(c.row(i)) == 0


def _transcribed_rate_constant(m: int) -> Mat:
    """C in an independently transcribed form, kept as an oracle: for 0 < i < m
    and w = B_j^m(i/m),
    C(i, j) = (w/2) [(j-1) j (m-i) / (i m) [j > 0] - (m-j)(2mj - im + i - ij) / (m (m-i)) [j < m]]."""
    rows = []
    for i in range(m + 1):
        if i == 0 or i == m:
            rows.append([F(0)] * (m + 1))
            continue
        row = []
        for j in range(m + 1):
            w = bernstein_value(m, j, F(i, m)) / 2
            first = F((j - 1) * j * (m - i), i * m) if j > 0 else F(0)
            second = F((m - j) * (2 * m * j - i * m + i - i * j), m * (m - i)) if j < m else F(0)
            row.append(w * (first - second))
        rows.append(row)
    return Mat(rows)


def test_rate_constant_equals_the_transcribed_formula():
    for m in range(1, 17):
        assert rate_constant(m) == _transcribed_rate_constant(m), m


def test_rate_constant_matches_matrix_limit():
    # k * (collocation - selected elevation rows) must approach C
    for m in (2, 3):
        c = rate_constant(m)
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
        c = rate_constant(m)
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


def _per_k_convergence_table(m, ks, samples):
    """One bform_eval call per k: the table without groups."""
    lagrange = np.array([[float(x) for x in row] for row in _colloc_inv(m).to_lists()])
    grid = uniform_grid(UNIT_INTERVAL, samples)
    out = []
    for k in ks:
        diff = np.array([[float(x) for x in row] for row in symmetric_dual_matrix(m, k).to_lists()])
        sup = float(np.max(np.abs(bform_eval(diff - lagrange, UNIT_INTERVAL, grid))))
        scaled = float(_scaled_elevation_distance(*_collocation_int_rows(m), k))
        out.append(ConvergenceRecord(k=k, sup_dist=sup, scaled_mat_dist=scaled))
    return out


def test_convergence_table_groups_match_the_per_k_evaluation():
    # groups of k share one bform_eval call; the records are those of one call
    # per k, bit for bit, also where the k list spans several groups
    for m, ks, samples in ((12, range(1, 41), 401), (3, range(1, 41), 401), (6, range(1, 7), 201),
                           (2, [5, 1, 3, 3], 11)):
        group = max(1, symmetric._GROUP_VALUES // (m * (m + 1) * samples))
        assert (len(ks) > group) == (m in (12, 3))
        want = _per_k_convergence_table(m, ks, samples)
        got = convergence_table(m, list(ks), samples)
        assert [(r.k, r.sup_dist.hex(), r.scaled_mat_dist) for r in got] == \
            [(r.k, r.sup_dist.hex(), r.scaled_mat_dist) for r in want]
    # any iterable works as the k list, a generator included
    want = convergence_table(3, [1, 2, 3, 4])
    assert convergence_table(3, range(1, 5)) == want
    assert convergence_table(3, (k for k in (1, 2, 3, 4))) == want


def test_convergence_table_rejects_empty():
    with pytest.raises(ValueError):
        convergence_table(2, [])


def test_convergence_table_names_m_when_m_is_below_one():
    # the message used to come from the collocation inverse and name an n
    for m in (0, -1):
        want = f"^need integers m >= 1 and k >= 1, got m={m}, k=1$"
        with pytest.raises(ValueError, match=want):
            convergence_table(m, [1, 2])


def test_convergence_table_rejects_a_one_point_grid():
    # it used to report sup_dist = nan
    with pytest.raises(ValueError, match="samples >= 2"):
        convergence_table(2, [1], samples=1)
    # and a bare TypeError from range for 2.5; a numpy integer is an integer
    with pytest.raises(ValueError, match="^a grid needs an integer number of samples, got 2.5$"):
        convergence_table(2, [1, 2], samples=2.5)
    assert convergence_table(2, [1, 2], samples=np.int64(9)) == convergence_table(2, [1, 2], samples=9)


def test_scaled_elevation_distance_is_the_matrix_expression():
    # integer row sums over one denominator == the Fraction matrix difference;
    # the collocation rows are built once per m and read for every k
    for m in range(1, 9):
        colloc = collocation_matrix(m)
        rows = _collocation_int_rows(m)
        for k in range(1, 7):
            want = k * inf_norm(mat_sub(colloc, selected_elevation_rows(m, k)))
            assert _scaled_elevation_distance(*rows, k) == want, (m, k)


def test_scaled_elevation_distance_reads_half_the_rows():
    # M_m and E(s,:) are centrosymmetric, so row m-i of their difference has
    # the abs-sum of row i and the norm is the largest of rows 0..floor(m/2)
    for m in range(1, 13):
        rows = _collocation_int_rows(m)
        colloc = collocation_matrix(m)
        for k in range(1, 25):
            diff = mat_sub(colloc, selected_elevation_rows(m, k))
            sums = [sum(abs(x) for x in diff.row(i)) for i in range(m + 1)]
            assert sums == sums[::-1], (m, k)
            assert _scaled_elevation_distance(*rows, k) == k * max(sums[: m // 2 + 1]), (m, k)


def test_rate_bound_names_m_when_m_is_below_one():
    # the rate's constant C takes no k; it names m in the words of SymmetricConfig
    for m in (0, -1):
        with pytest.raises(ValueError, match=f"^need integers m >= 1 and k >= 1, got m={m}, k=1$"):
            rate_constant(m)


def test_rate_bound_refuses_k_as_symmetric_dual_matrix_does():
    # the measured rate in k goes through SymmetricConfig, so a non-integral k
    # is refused with symmetric_dual_matrix's own message, not divided by
    for k in (0, -1, 2.5, 2.0, "3", F(2), None):
        with pytest.raises(ValueError) as want:
            symmetric_dual_matrix(2, k)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            convergence_table(2, [k])
    assert convergence_table(np.int64(2), [np.int64(2)]) == convergence_table(2, [2])
    assert convergence_table(3, [True]) == convergence_table(3, [1])


def _csv_writer_convergence_csv(records) -> str:
    """convergence_csv on csv.writer, kept as the byte-for-byte oracle."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "sup_dist", "scaled_mat_dist"])
    for r in records:
        writer.writerow([r.k, format(r.sup_dist, ".17g"), format(r.scaled_mat_dist, ".17g")])
    return buf.getvalue()


def test_convergence_csv_matches_the_csv_writer():
    edge = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 0.1, -1 / 3]
    records = [ConvergenceRecord(k, x, y) for k, (x, y) in enumerate(product(edge, edge), 1)]
    records += [ConvergenceRecord(10**40 + 7, 0.25, 2 / 3)] + convergence_table(3, [1, 2, 4])
    for rs in ([], records[:1], records):
        assert convergence_csv(rs) == _csv_writer_convergence_csv(rs)


def test_convergence_csv_format():
    text = convergence_csv(convergence_table(2, [2, 4]))
    lines = text.strip().split("\n")
    assert lines[0] == "k,sup_dist,scaled_mat_dist"
    assert len(lines) == 3
    k, sup, scaled = lines[1].split(",")
    assert int(k) == 2
    assert abs(float(sup) - 0.25) <= 1e-15
    assert abs(float(scaled) - F(2, 3)) <= 1e-15
