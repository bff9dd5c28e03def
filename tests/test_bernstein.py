"""Bernstein basis machinery: evaluation, elevation, conversion, dual functionals."""

import math
import random
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualbern.bernstein import (
    UNIT_INTERVAL,
    BPoly,
    Interval,
    NodeVector,
    bernstein_value,
    bform_eval,
    bform_to_power,
    de_casteljau_eval,
    dual_functional_apply,
    dual_functional_apply_right,
    elevation_matrix,
    generalized_dual_apply,
    pascal_matrix,
    power_to_bform,
    uniform_grid,
    xi_nodes,
)
from dualbern.ratmat import Mat, mat_inv, mat_mul, row_select

fracs01 = st.fractions(min_value=0, max_value=1, max_denominator=12)
coeff_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=8)


def test_interval_basics():
    iv = Interval(F(1), F(3))
    assert iv.width == 2
    assert iv.to_local(F(2)) == F(1, 2)
    assert iv.from_local(F(1, 2)) == F(2)
    with pytest.raises(ValueError):
        Interval(1, 1)


def test_bernstein_value_goldens():
    assert bernstein_value(2, 1, F(1, 2)) == F(1, 2)
    assert bernstein_value(3, 0, F(0)) == 1
    assert bernstein_value(3, 3, F(1)) == 1
    assert bernstein_value(4, 2, F(1, 2)) == F(3, 8)
    # off-unit interval: B_1^2 at the midpoint of [1,3]
    assert bernstein_value(2, 1, F(2), Interval(F(1), F(3))) == F(1, 2)


def test_partition_of_unity():
    for n in range(1, 11):
        for j in range(101):
            t = j / 100
            s = sum(bernstein_value(n, i, t) for i in range(n + 1))
            assert abs(s - 1.0) <= 1e-12


def test_de_casteljau_goldens():
    p = BPoly(2, UNIT_INTERVAL, (F(0), F(0), F(1)))  # t^2 in B-form
    assert de_casteljau_eval(p, F(1, 2)) == F(1, 4)
    assert de_casteljau_eval(p, F(1, 3)) == F(1, 9)
    q = BPoly(1, Interval(F(1), F(3)), (F(1), F(3)))  # the identity on [1,3]
    assert de_casteljau_eval(q, F(2)) == 2


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(coeff_fracs, min_size=n + 1, max_size=n + 1),
            fracs01,
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_de_casteljau_matches_direct_sum(args):
    coeffs, t = args
    n = len(coeffs) - 1
    p = BPoly(n, UNIT_INTERVAL, tuple(coeffs))
    direct = sum(c * bernstein_value(n, i, t) for i, c in enumerate(coeffs))
    assert de_casteljau_eval(p, t) == direct


@pytest.mark.parametrize(
    "iv", [Interval(0, 1), Interval(F(1, 2), 2), Interval(1.0, 3.0)], ids=["0:1", "1/2:2", "1.0:3.0"]
)
@pytest.mark.parametrize("samples", [2, 7, 201])
def test_uniform_grid_matches_scalar_formula(iv, samples):
    a, w = float(iv.a), float(iv.width)
    assert uniform_grid(iv, samples).tolist() == [
        a + w * q / (samples - 1) for q in range(samples)
    ]


@pytest.mark.parametrize("samples", [1, 0, -3])
def test_uniform_grid_needs_two_samples(samples):
    # one sample used to give [nan] with a RuntimeWarning, fewer an empty grid
    with pytest.raises(ValueError, match="samples >= 2"):
        uniform_grid(UNIT_INTERVAL, samples)


def test_uniform_grid_overflow():
    # w*(samples-1) = 2.8e308 is past the float maximum
    iv = Interval(1e308, 1.7e308)
    with pytest.raises(OverflowError):
        uniform_grid(iv, 5)
    assert uniform_grid(iv, 2).tolist() == [1e308, 1.7e308]


@pytest.mark.parametrize(
    "iv", [Interval(0, 1), Interval(F(1, 2), 2), Interval(1.0, 3.0)], ids=["0:1", "1/2:2", "1.0:3.0"]
)
@pytest.mark.parametrize("exact", [True, False], ids=["fraction", "float"])
def test_bform_eval_matches_de_casteljau(iv, exact):
    # bit-for-bit equality with the scalar sweep, not closeness
    ts = uniform_grid(iv, 201)
    for m in (0, 1, 2, 5, 9):
        cols = [
            [F((-1) ** (i + j) * (3 * i + j + 1), 7 + i * j) for i in range(m + 1)]
            for j in range(3)
        ]
        if not exact:
            cols = [[float(x) / 3 for x in col] for col in cols]
        matrix = [[col[i] for col in cols] for i in range(m + 1)]
        got = bform_eval(matrix, iv, ts)
        assert got.shape == (len(ts), len(cols))
        for j, col in enumerate(cols):
            p = BPoly(m, iv, col)
            # float(): at degree 0 the scalar sweep returns the coefficient itself
            expect = [float(de_casteljau_eval(p, t)) for t in ts.tolist()]
            assert bform_eval(col, iv, ts).tolist() == expect
            assert got[:, j].tolist() == expect


def test_bform_eval_nonfinite_is_silent_like_the_scalar_sweep():
    # overflow and inf * 0 give inf/nan, as Python floats do, without a warning
    ts = uniform_grid(UNIT_INTERVAL, 5)
    for col in ([-1e308, 1e308, -1e308], [math.inf, 1.0], [1e308, 1e308, 1e308]):
        p = BPoly(len(col) - 1, UNIT_INTERVAL, col)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bform_eval(col, UNIT_INTERVAL, ts).tolist()
        expect = [de_casteljau_eval(p, t) for t in ts.tolist()]
        assert [repr(x) for x in got] == [repr(x) for x in expect]


def test_elevation_goldens():
    assert elevation_matrix(1, 2) == Mat([[1, 0], ["1/2", "1/2"], [0, 1]])
    assert elevation_matrix(3, 3) == Mat.identity(4)
    assert elevation_matrix(2, 4).row(2) == (F(1, 6), F(2, 3), F(1, 6))
    with pytest.raises(ValueError):
        elevation_matrix(3, 2)


def test_elevation_rows_sum_to_one():
    for m in range(1, 6):
        for n in range(m, 9):
            e = elevation_matrix(m, n)
            for i in range(n + 1):
                assert sum(e.row(i)) == 1
                assert all(x >= 0 for x in e.row(i))


def test_elevation_reproduces_lower_basis():
    # B_j^m(t) = sum_i E[i,j] B_i^n(t), exactly, at rational sample points
    for m, n in [(1, 3), (2, 4), (3, 5)]:
        e = elevation_matrix(m, n)
        for t in (F(0), F(1, 7), F(1, 2), F(5, 7), F(1)):
            for j in range(m + 1):
                low = bernstein_value(m, j, t)
                high = sum(e[i, j] * bernstein_value(n, i, t) for i in range(n + 1))
                assert low == high


def test_pascal_golden_and_truncations():
    assert pascal_matrix(2) == Mat([[1, 0, 0], [1, 1, 0], [1, 2, 1]])
    # every square row-truncation of the Pascal matrix is invertible
    from itertools import combinations

    for n in range(1, 9):
        p = pascal_matrix(n)
        for m in range(n):
            for s in combinations(range(n + 1), m + 1):
                sub = Mat([[p[i, j] for j in range(m + 1)] for i in s])
                mat_inv(sub)  # must not raise


def test_power_to_bform_golden():
    p = power_to_bform([F(0), F(1)], 2)  # t as a quadratic
    assert p.coeffs == (F(0), F(1, 2), F(1))
    assert bform_to_power(p) == (F(0), F(1), F(0))


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(coeff_fracs, min_size=n + 1, max_size=n + 1)
    )
)
@settings(max_examples=60, deadline=None)
def test_power_roundtrip_exact(coeffs):
    n = len(coeffs) - 1
    p = power_to_bform(coeffs, n)
    assert bform_to_power(p) == tuple(coeffs)


def _pascal_loop(c, n):
    # the Fraction-ratio loop power_to_bform ran on every input
    c = list(c) + [0] * (n + 1 - len(c))
    support = [j for j, v in enumerate(c) if v != 0]
    return tuple(
        sum(F(math.comb(i, j), math.comb(n, j)) * c[j] for j in support if j <= i)
        for i in range(n + 1)
    )


def _difference_loop(alpha):
    # the coefficient-arithmetic difference table bform_to_power ran on every input
    n = len(alpha) - 1
    row, out = list(alpha), []
    for j in range(n + 1):
        if not any(row):
            return tuple(out) + (alpha[0] * 0,) * (n + 1 - j)
        out.append(F(math.comb(n, j)) * row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return tuple(out)


def _conversion_inputs(rng, exact):
    for n in (0, 1, 2, 3, 7, 16, 40, 2000):
        for d in sorted({0, min(n, 1), min(n, 3), min(n, 9)}):
            for kind in ("int", "fraction", "sparse", "zero"):
                if exact:
                    draw = {
                        "int": lambda: rng.randint(-9, 9),
                        "fraction": lambda: F(rng.randint(-40, 40), rng.randint(1, 24)),
                        "sparse": lambda: rng.choice([0, 0, 0, F(rng.randint(-9, 9), rng.randint(1, 9))]),
                        "zero": lambda: 0,
                    }[kind]
                else:
                    draw = {
                        "int": lambda: float(rng.randint(-9, 9)),
                        "fraction": lambda: rng.uniform(-3, 3),
                        "sparse": lambda: rng.choice([0.0, 0.0, rng.uniform(-3, 3)]),
                        "zero": lambda: 0.0,
                    }[kind]
                yield n, [draw() for _ in range(d + 1)]


def test_power_conversions_match_the_fraction_loops_on_exact_input():
    rng = random.Random(20261018)
    for n, c in _conversion_inputs(rng, exact=True):
        p = power_to_bform(c, n)
        assert p.coeffs == _pascal_loop(c, n), (n, c)
        assert bform_to_power(p) == _difference_loop(p.coeffs) == tuple(c) + (0,) * (n + 1 - len(c))
        if n <= 40:  # a B-form that is not a low-degree elevation
            alpha = [F(rng.randint(-40, 40), rng.randint(1, 24)) for _ in range(n + 1)]
            assert bform_to_power(BPoly(n, UNIT_INTERVAL, alpha)) == _difference_loop(alpha)
            assert power_to_bform(bform_to_power(BPoly(n, UNIT_INTERVAL, alpha)), n).coeffs == tuple(alpha)


def test_power_conversions_keep_float_bits():
    rng = random.Random(20261019)
    for n, c in _conversion_inputs(rng, exact=False):
        if n > 40:
            continue  # the float loops are quadratic in the support
        p = power_to_bform(c, n)
        assert repr(p.coeffs) == repr(_pascal_loop(c, n)), (n, c)
        assert repr(bform_to_power(p)) == repr(_difference_loop(p.coeffs))


def test_biorthogonality_left_and_right():
    # lambda_k^n applied to B_j^m gives E(k, j), the Gram identity both
    # duality checks rest on; at m = n it is the Kronecker delta, exactly
    for n in range(8):
        for m in range(n + 1):
            e = elevation_matrix(m, n)
            for j in range(m + 1):
                b = BPoly(m, UNIT_INTERVAL, tuple(F(int(r == j)) for r in range(m + 1)))
                for k in range(n + 1):
                    want = e[k, j] if m < n else int(j == k)
                    assert dual_functional_apply(n, k, b) == want, (m, n, k, j)
                    assert dual_functional_apply_right(n, k, b) == want, (m, n, k, j)


def test_dual_functional_goldens():
    iv = Interval(F(1), F(3))
    p = power_to_bform([F(2), F(-1), F(4)], 3, iv)  # 2 - t + 4t^2 on [1,3], elevated
    assert dual_functional_apply(3, 0, p) == p(F(1))  # lambda_0 evaluates at a
    assert dual_functional_apply(3, 3, p) == p(F(3))  # lambda_n evaluates at b
    t_quadratic = power_to_bform([F(0), F(1)], 2)
    assert dual_functional_apply(2, 1, t_quadratic) == F(1, 2)


def test_endpoint_functionals_on_shifted_interval():
    iv = Interval(F(1), F(3))
    p = power_to_bform([F(2), F(-1), F(4)], 2, iv)
    assert dual_functional_apply_right(2, 2, p) == p(F(3))
    assert dual_functional_apply(2, 0, p) == p(F(1))


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(coeff_fracs, min_size=n + 1, max_size=n + 1),
            st.integers(0, n),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_left_right_functionals_agree(args):
    n, coeffs, k = args
    p = BPoly(n, UNIT_INTERVAL, tuple(coeffs))
    assert dual_functional_apply(n, k, p) == dual_functional_apply_right(n, k, p)


def test_generalized_matches_grid_points():
    p = power_to_bform([F(1), F(2), F(-3)], 4)
    for n in (4, 6):
        q = power_to_bform(bform_to_power(p)[:3], n)
        for k in range(n + 1):
            x = F(k, n)
            assert generalized_dual_apply(n, x, q) == dual_functional_apply(n, k, q)


def test_generalized_golden():
    # quadratic t^2 probed at x=1/2 with n=1000: exact rational value
    p = power_to_bform([F(0), F(0), F(1)], 1000)
    got = generalized_dual_apply(1000, F(1, 2), p)
    assert got == F(249500, 999000)


def test_generalized_rejects_degree_above_n():
    p = power_to_bform([0, 0, 0, 0, 0, 1], 5)
    with pytest.raises(ValueError, match="polynomial degree 5 exceeds ambient degree 3"):
        dual_functional_apply(3, 1, p)
    with pytest.raises(ValueError, match="polynomial degree 5 exceeds ambient degree 3"):
        generalized_dual_apply(3, F(1, 2), p)
    # at n = 5 the same p is in range: u^5 has no term up to floor(xn) = 2
    assert generalized_dual_apply(5, F(1, 2), p) == 0


def test_generalized_converges_to_point_value():
    p_power = [F(0), F(0), F(1)]
    errs = []
    for n in (100, 1000, 10000):
        p = power_to_bform(p_power, n)
        errs.append(abs(generalized_dual_apply(n, F(1, 4), p) - F(1, 16)))
    assert errs[0] > errs[1] > errs[2]
    # O(1/n): tenfold n shrinks the error about tenfold
    assert errs[1] < errs[0] / 5
    assert errs[2] < errs[1] / 5


def test_xi_nodes():
    assert xi_nodes(2) == NodeVector(2, UNIT_INTERVAL, (F(0), F(1, 2), F(1)))
    iv = Interval(F(0), F(2))
    assert tuple(xi_nodes(4, iv)) == (F(0), F(1, 2), F(1), F(3, 2), F(2))


def test_elevation_maps_nodes_to_nodes():
    # E(m,n)^T would act on functionals; on node ordinates the identity reads
    # xi_i^n = sum_j E[i,j] xi_j^m  (linear precision of elevation)
    for m in range(1, 6):
        for n in range(m, 11):
            e = elevation_matrix(m, n)
            lo, hi = xi_nodes(m), xi_nodes(n)
            for i in range(n + 1):
                assert sum(e[i, j] * lo[j] for j in range(m + 1)) == hi[i]


def test_functionals_are_interval_invariant():
    # identical coefficient vectors over different intervals produce identical
    # functional values
    coeffs = (F(2), F(-1, 3), F(5, 2), F(7))
    p1 = BPoly(3, UNIT_INTERVAL, coeffs)
    p2 = BPoly(3, Interval(F(2), F(5)), coeffs)
    for k in range(4):
        assert dual_functional_apply(3, k, p1) == dual_functional_apply(3, k, p2)
        assert dual_functional_apply_right(3, k, p1) == dual_functional_apply_right(3, k, p2)
    assert generalized_dual_apply(3, F(1, 3), p1) == generalized_dual_apply(3, F(1, 3), p2)


def test_node_vector_validation():
    with pytest.raises(ValueError):
        NodeVector(2, UNIT_INTERVAL, (F(0), F(0), F(1)))
    with pytest.raises(ValueError):
        NodeVector(2, UNIT_INTERVAL, (F(0), F(1)))
