"""Bernstein basis machinery: evaluation, elevation, conversion, dual functionals."""

import dataclasses
import math
import random
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import left_functionals, mat_inv, pascal_matrix, right_functionals

from dualbern.bernstein import (
    UNIT_INTERVAL,
    BPoly,
    Interval,
    _basis_sum_eval,
    _colloc_inv,
    _forward_differences,
    _int_pascal_sum,
    _power_diagonal,
    _uniform_nodes,
    bernstein_value,
    bform_eval,
    bform_to_power,
    collocation_matrix,
    de_casteljau_eval,
    dual_functional_apply,
    elevation_matrix,
    generalized_dual_apply,
    power_to_bform,
    uniform_grid,
    xi_nodes,
)
from dualbern.ratmat import Mat, is_inverse

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


def test_bernstein_value_matches_the_fraction_binomial_formula():
    # the integer C(m, i) rounds as its Fraction did on floats, and keeps
    # exact points exact
    def fraction_formula(m, i, t, iv):
        u = iv.to_local(t)
        return F(math.comb(m, i)) * (1 - u) ** (m - i) * u**i

    for iv in (UNIT_INTERVAL, Interval(1.0, 3.0), Interval(F(1, 2), 2)):
        ts = uniform_grid(iv, 41).tolist()
        exact = [iv.a + F(q, 7) * (iv.b - iv.a) for q in range(8)] if iv.is_exact() else []
        for m in range(13):
            for i in range(m + 1):
                for t in ts:
                    assert repr(bernstein_value(m, i, t, iv)) == repr(fraction_formula(m, i, t, iv))
                for t in exact:
                    got, want = bernstein_value(m, i, t, iv), fraction_formula(m, i, t, iv)
                    assert got == want and type(got) is type(want) is F, (m, i, t)


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


def test_uniform_grid_takes_an_integer_number_of_samples():
    # 2.5 used to give [0, 2/3, 4/3], past b; a numpy integer is an integer
    for bad in (2.5, 3.0, "3", F(3)):
        with pytest.raises(ValueError, match="^a grid needs an integer number of samples, got "):
            uniform_grid(UNIT_INTERVAL, bad)
    assert uniform_grid(UNIT_INTERVAL, np.int64(3)).tolist() == [0.0, 0.5, 1.0]


def test_uniform_grid_rejects_repeated_points():
    # at 1e16 the float spacing is 2, so 201 points over a width of 200 give
    # 101 distinct floats and over a width of 2 give 2
    for b in (10**16 + 200, 10**16 + 2, 1e16 + 2.0):
        with pytest.raises(ValueError, match="repeats a point"):
            uniform_grid(Interval(1e16, b), 201)
    # spacing 2 (the float spacing itself) and 2 samples still work
    assert uniform_grid(Interval(1e16, 10**16 + 400), 201)[1] == 1e16 + 2
    assert uniform_grid(Interval(1e16, 10**16 + 2), 2).tolist() == [1e16, 1e16 + 2]


def test_uniform_grid_at_401_points_holds_the_201_point_grid_bit_for_bit():
    # w*(2q)/400 rounds as w*q/200 (doubling is exact), so the quasi report's
    # 201-point grid is every other point of its 401-point least-squares grid
    ivs = [UNIT_INTERVAL, Interval(F(1, 3), F(5, 2)), Interval(1.0, 3.0), Interval(F(1, 3), 2.5),
           Interval(-0.1, F(7, 3)), Interval(-5e5, 5e5), Interval(1e6, 2e6 + 0.3),
           Interval(0.7, 0.7 + 1e-6), Interval(F(1, 10**6), F(2, 10**6))]
    rng = random.Random(401)
    for _ in range(200):
        a = rng.uniform(-1e6, 1e6)
        ivs.append(Interval(a, a + rng.choice((1e-6, 1e-3, 1.0, 1e3, 1e6)) * rng.random() + 1e-6))
    for iv in ivs:
        assert uniform_grid(iv, 401)[::2].tobytes() == uniform_grid(iv, 201).tobytes(), iv


def test_interval_float_endpoints_are_read_once_and_are_no_field():
    for iv in (Interval(F(1, 3), F(5, 2)), Interval(1.0, 3.0), Interval(F(1, 3), 2.5)):
        assert iv._float_aw == (float(iv.a), float(iv.width))
        assert iv._float_aw is iv._float_aw
        assert iv == dataclasses.replace(iv) and hash(iv) == hash(Interval(iv.a, iv.b))
        assert repr(iv) == f"Interval(a={iv.a!r}, b={iv.b!r})"


def test_basis_sum_eval_keeps_the_float_bits_of_the_scalar_sum():
    # the basis plot's routine against sum_j bernstein_value * c_j, summed from 0
    rng = random.Random(22)
    ivs = (UNIT_INTERVAL, Interval(F(1, 3), F(5, 2)), Interval(-1.5, 2.25), Interval(1, 3.0))
    for iv in ivs:
        ts = uniform_grid(iv, 53).tolist()
        for m in (0, 1, 2, 5, 12):
            # the last column is signed zeros: the sum starts from 0, so it is +0.0
            cols = [[rng.uniform(-40, 40), rng.uniform(-1, 1), rng.choice((-0.0, 0.0))]
                    for _ in range(m + 1)]
            got = _basis_sum_eval(cols, iv, ts)
            assert got.shape == (len(ts), 3)
            for t, row in zip(ts, got.tolist()):
                want = [sum(bernstein_value(m, j, t, iv) * cols[j][i] for j in range(m + 1))
                        for i in range(3)]
                assert [x.hex() for x in row] == [float(x).hex() for x in want], (iv, m, t)


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


def test_bform_eval_keeps_the_float_bits_of_the_scalar_sweep():
    # float.hex equality with de_casteljau_eval for one vector and for a block of
    # k columns, for scalar, list and array points, at every degree from 0
    def hexes(values):
        return [float(x).hex() for x in values]

    rng = random.Random(20261019)
    special = [-0.0, 0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324]
    for iv in (UNIT_INTERVAL, Interval(1.0, 3.0)):
        grid = uniform_grid(iv, 17)
        for ts in (float(grid[3]), grid.tolist(), grid, grid.reshape(1, -1)):
            points = np.ravel(ts).tolist()
            for m in (0, 1, 2, 3, 7):
                cols = [[rng.choice(special) if rng.random() < 0.2 else rng.uniform(-9, 9)
                         for _ in range(m + 1)] for _ in range(4)]
                block = np.array(cols).T
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # overflow and inf * 0 stay silent
                    got = bform_eval(block, iv, ts)
                    one = bform_eval(cols[0], iv, ts)
                assert got.shape == (len(points), len(cols)) and one.shape == (len(points),)
                for j, col in enumerate(cols):
                    want = hexes(de_casteljau_eval(BPoly(m, iv, col), t) for t in points)
                    assert hexes(got[:, j]) == want, (m, col)
                    if j == 0:
                        assert hexes(one) == want, (m, col)
    # an overflow in the first sweep and inf - inf in a later one
    ts = uniform_grid(UNIT_INTERVAL, 9)
    for col in ([1e308, 1e308, -1e308, 1e308], [math.inf, -1e308, 1e308, -math.inf]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bform_eval(col, UNIT_INTERVAL, ts)
        p = BPoly(len(col) - 1, UNIT_INTERVAL, col)
        assert hexes(got) == hexes(de_casteljau_eval(p, t) for t in ts.tolist())


def test_colloc_inv_is_the_centrosymmetric_inverse():
    # columns ceil(n/2)..n are the first ones reversed (L_{n-i}(u) = L_i(1-u)):
    # the cold inverse reads as Gauss–Jordan's to n = 24, and is an exact
    # inverse with A(j, n-i) = A(n-j, i) to n = 60
    _colloc_inv.cache_clear()
    try:
        for n in range(1, 61):
            a, m = _colloc_inv(n), collocation_matrix(n)
            if n <= 24:
                assert a.entries == mat_inv(m).entries, n
            assert a.entries == a.entries[::-1], n
            assert is_inverse(m, a), n  # square, so a . m = I as well
    finally:
        _colloc_inv.cache_clear()


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
    # the Fraction-ratio loop power_to_bform ran on every input; a float input
    # starts each sum at 0.0, so an empty sum is a float too
    start = 0 if all(isinstance(x, (int, F)) for x in c) else 0.0
    c = list(c) + [0] * (n + 1 - len(c))
    support = [j for j, v in enumerate(c) if v != 0]
    return tuple(
        sum((F(math.comb(i, j), math.comb(n, j)) * c[j] for j in support if j <= i), start)
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


def test_power_memo_is_invisible_to_the_dataclass():
    # the exact conversion keeps the integer Pascal diagonal and builds its coeffs
    # field on first read; every face of the dataclass agrees with an eagerly
    # built B-form, before and after that read
    c, iv = [F(1, 3), 0, -2], Interval(F(1, 2), 2)
    q = BPoly(5, iv, _pascal_loop(c, 5))  # the same fields, no memo
    faces = {
        "==": lambda p: p == q and q == p and not p != q,
        "hash": lambda p: hash(p) == hash(q) and {q: 1}[p] == 1,
        "repr": lambda p: repr(p) == repr(q),
        "fields": lambda p: [f.name for f in dataclasses.fields(p)] == ["degree", "interval", "coeffs"],
        "asdict": lambda p: dataclasses.asdict(p) == dataclasses.asdict(q),
        "replace": lambda p: (dataclasses.replace(p) == q and dataclasses.replace(p)._power is None
                              and dataclasses.replace(p)._diag is None
                              and dataclasses.replace(p, interval=UNIT_INTERVAL)
                              == BPoly(5, UNIT_INTERVAL, q.coeffs)),
        "coeffs": lambda p: repr(p.coeffs) == repr(q.coeffs) and p.coeffs is p.coeffs,
    }
    for name, face in faces.items():
        for read_first in (False, True):
            p = power_to_bform(c, 5, iv)
            assert "coeffs" not in vars(p) and p._diag is not None, name  # not built yet
            if read_first:
                p.coeffs
            assert face(p), (name, read_first)
            assert "coeffs" in vars(p) or name == "fields", name
    assert q._power is None and q._diag is None
    assert _power_diagonal(q) == p._power and q._power is None  # reading leaves q as it was
    with pytest.raises(AttributeError):
        q.nothing
    with pytest.raises(AttributeError):
        p._nothing


def _falling_ratio_sum(c, n, k):
    # sum_j c_j (k)_j / (n)_j, the left-endpoint form of lambda_k^n on the
    # power coefficients c, with (x)_j the falling factorial
    out, ratio = F(0), F(1)
    for j, x in enumerate(c):
        out += ratio * x
        ratio *= F(k - j, n - j)
    return out


def test_functionals_of_a_power_built_polynomial_build_no_table():
    # at n = 10**6 the functionals read the d+1 integers of the Pascal
    # diagonal: the coefficients are never built, nothing of length n + 1 is
    # kept, and building p and the calls allocate far less than one
    # (n+1)-entry table would
    n = 10**6
    c = [F(1, 3), -2, 0, F(5, 7)]
    for d in (3, 12, n):  # d < n: the band has several entries
        tracemalloc.start()
        p = power_to_bform(c, d, Interval(F(1, 2), 2))
        got = {k: dual_functional_apply(n, k, p) for k in (0, 1, 2, n // 3, n // 2, n - 1, n)}
        for x in (F(1, 3), F(1, 2), F(7, 10)):
            got[x * n] = generalized_dual_apply(n, x, p)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 10**5, (d, peak)
        assert set(vars(p)) == {"degree", "interval", "_power", "_diag"}, d
        assert len(p._power) == len(p._diag[0]) == len(c), d
        for k, v in got.items():
            assert type(v) is F and v == _falling_ratio_sum(c, n, k), (d, k)


def test_power_to_bform_memo_is_the_fresh_conversion():
    # the memo the exact conversion leaves equals, in value and type, what
    # the difference table gives on the alphas; floats leave no memo, and
    # reading the power form of a polynomial never writes one
    rng = random.Random(20261021)
    # float B-forms at n = 2000 do not difference to zero, and C(2000, j) overflows a float
    cases = [(n, c) for exact in (True, False) for n, c in _conversion_inputs(rng, exact)
             if exact or n <= 40]
    cases += [(4, []), (4, [0, 0]), (6, [3, 0, 0]), (6, [F(1, 3), 2, F(0)]), (3, [0, F(-5, 4)]),
              (2000, [1, 0, F(7, 9), 0, 0])]
    for n, c in cases:
        p = power_to_bform(c, n, Interval(F(1, 2), 2))
        if all(isinstance(x, (int, F)) for x in c):
            # built lazily: the functionals read the integers, and the B-form
            # equals an eager one before and after its coeffs are built
            eager = BPoly(n, p.interval, map(F, _pascal_loop(c, n)))
            assert "coeffs" not in vars(p), (n, c)
            for k in sorted({0, n // 3, n // 2, n}):
                got = dual_functional_apply(n, k, p)
                assert got == dual_functional_apply(n, k, eager) and type(got) is F, (n, c, k)
            assert "coeffs" not in vars(p), (n, c)
            assert p == eager and hash(p) == hash(eager) and repr(p) == repr(eager), (n, c)
        q = BPoly(n, p.interval, p.coeffs)
        fresh = _power_diagonal(q)
        assert q._power is None, (n, c)
        first = _power_diagonal(p)
        assert repr(first) == repr(fresh), (n, c)
        if all(isinstance(x, (int, F)) for x in c):
            assert first is p._power and _power_diagonal(p) is first, (n, c)
        else:
            assert p._power is None, (n, c)


def test_bform_to_power_pads_without_building_coeffs():
    # the padding zero of a lazily built exact B-form comes from its power
    # memo; an exact padding keeps the value and type of coeffs[0] * 0, and a
    # B-form with any float coefficient pads with float(coeffs[0]) * 0, which
    # is coeffs[0] * 0 when coeffs[0] is a float
    p = power_to_bform([1, 2], 2000)
    c = bform_to_power(p)
    assert "coeffs" not in vars(p)
    eager = BPoly(2000, UNIT_INTERVAL, power_to_bform([1, 2], 2000).coeffs)
    assert repr(c) == repr(bform_to_power(eager)) and type(c[-1]) is F
    for coeffs, zero in [((1, 1, 1, 1), 0), ((-0.0, -0.0, -0.0), -0.0), ((0.0, 0.5, 1.0), 0.0),
                         ((F(1, 3),) * 3, F(0)), ((2, 2.0), 0.0), ((-1.5, -1.5), -0.0),
                         ((-2, -2.0), -0.0), ((F(-1, 2), F(-1, 2), -0.5), -0.0)]:
        q = BPoly(len(coeffs) - 1, UNIT_INTERVAL, coeffs)
        assert repr(bform_to_power(q)[-1]) == repr(zero) and type(bform_to_power(q)[-1]) is type(zero)


def test_a_float_coefficient_makes_every_power_coefficient_a_float():
    # a B-form mixing exact and float coefficients converts like a float one:
    # each power coefficient is C(n, j) times its forward difference, rounded
    # to a float once, so an exact difference does not come out a Fraction
    assert repr(bform_to_power(BPoly(2, UNIT_INTERVAL, (1, 2, 0.5)))) == repr((1.0, 2.0, -2.5))
    assert repr(bform_to_power(BPoly(2, UNIT_INTERVAL, (1.0, 2, 0.5)))) == repr((1.0, 2.0, -2.5))
    got = generalized_dual_apply(10, 0.33, BPoly(1, UNIT_INTERVAL, (2, 2.0)))
    assert type(got) is float and got == 2.0
    rng = random.Random(20261020)
    for n in (1, 2, 5, 12):
        for _ in range(20):
            coeffs = [rng.choice([rng.randint(-9, 9), F(rng.randint(-9, 9), rng.randint(1, 9)),
                                  rng.uniform(-3, 3), 0, 0.0]) for _ in range(n + 1)]
            coeffs[rng.randrange(n + 1)] = rng.uniform(-3, 3)  # at least one float
            q = BPoly(n, UNIT_INTERVAL, coeffs)
            got = bform_to_power(q)
            assert all(type(x) is float for x in got), coeffs
            assert got == _difference_loop(list(map(float, coeffs))), coeffs
            # at a non-integral xn the running ratio reads these floats
            x = rng.choice([0.3, 0.71])
            assert x * n != math.floor(x * n) and type(generalized_dual_apply(n, x, q)) is float


def test_a_b_form_is_all_exact_or_all_float():
    # one inexact coefficient makes every coefficient a float, so what a functional
    # returns does not hang on which coefficients its band reads
    p = BPoly(1, UNIT_INTERVAL, (2, 2.0))
    assert [type(x) for x in p.coeffs] == [float, float]
    for k in (0, 5, 10):
        got = dual_functional_apply(10, k, p)
        assert type(got) is float and got == 2.0, k
    got = generalized_dual_apply(2, 0.5, BPoly(2, UNIT_INTERVAL, (F(-1, 3), F(-8), 1.5)))
    assert type(got) is float and got == -8.0
    assert BPoly(2, UNIT_INTERVAL, [F(-1, 3), F(-8), 1.5]).coeffs == (-1 / 3, -8.0, 1.5)
    # inexact but no float subclass: numpy's float32 and a Decimal
    for x in (np.float32(0.5), Decimal("0.5")):
        r = BPoly(2, UNIT_INTERVAL, (1, F(1, 2), x))
        assert [type(y) for y in r.coeffs] == [float, float, float] and r.coeffs == (1.0, 0.5, 0.5)
        assert bform_to_power(r) == (1.0, -1.0, 0.5)
        assert type(generalized_dual_apply(2, 0.5, r)) is float
    # exact coefficients are kept as given
    q = BPoly(2, UNIT_INTERVAL, [1, F(1, 3), F(2)])
    assert [type(x) for x in q.coeffs] == [int, F, F]


def _naive_pascal_sum(w, count):
    return [sum(math.comb(r, j) * x for j, x in enumerate(w)) for r in range(count)]


def _trimmed(xs):
    xs = list(xs)
    while xs and xs[-1] == 0:
        xs.pop()
    return xs


def _naive_forward_differences(row):
    # the whole diagonal by the alternating-binomial formula, trailing zeros trimmed
    return _trimmed(sum((-1) ** (j - i) * math.comb(j, i) * row[i] for i in range(j + 1))
                    for j in range(len(row)))


def test_difference_kernels_match_the_naive_formulas():
    rng = random.Random(20261022)
    big = 10**40
    ws = [[5], [-7], [0], [0, 0, 0], [3, 0, 0], [0, 0, 4], [1, -1, 1, -1],
          [-big, big + 1, -3, -(big**2)], [rng.randint(-big, big) for _ in range(9)]]
    for w in ws:
        for count in (1, 2, len(w), len(w) + 1, 40):
            row = _int_pascal_sum(w, count)
            assert row == _naive_pascal_sum(w, count), (w, count)
            assert _forward_differences(row) == _naive_forward_differences(row), (w, count)
            if count >= len(w):  # the two kernels are inverse on the diagonal
                assert _forward_differences(row) == _trimmed(w), (w, count)
    for row in ([], [0], [0] * 6, [9], [-big], [2, -big, 0, 5, big**3], [0, 0, 1]):
        assert _forward_differences(row) == _naive_forward_differences(row), row
    # on floats the pass keeps the comprehension's bits
    floats = [rng.uniform(-3, 3) for _ in range(12)] + [0.0, -0.0]
    out, r = [], list(floats)
    while any(r):
        out.append(r[0])
        r = [b - a for a, b in zip(r, r[1:])]
    assert repr(_forward_differences(floats)) == repr(out)


def test_power_to_bform_of_no_coefficients_is_zero():
    for n in (0, 3, 40):
        assert power_to_bform([], n).coeffs == (0,) * (n + 1)
        assert generalized_dual_apply(max(n, 1), F(1, 2), power_to_bform([], n)) == 0


def _gamma(m):
    """gamma_m = m u / (1 - m u), u = 2^-53, as a Fraction."""
    return F(m, 2**53 - m)


def _band_reading(n, k, alpha):
    # row k of the elevation matrix from degree d to n on alpha, summed left
    # to right over its band; a float alpha_j meets its weight rounded to float
    d = len(alpha) - 1
    out = 0
    for j in range(max(0, d - (n - k)), min(k, d) + 1):
        w = F(math.comb(n - k, d - j) * math.comb(k, j), math.comb(n, d))
        out = out + (float(w) if isinstance(alpha[j], float) else w) * alpha[j]
    return out


def _ratio_reading(n, xn, c):
    # the left-endpoint form at a real index: the running ratio
    # C(xn, j)/C(n, j) times the power coefficients c, to min(floor(xn), deg)
    top = min(math.floor(xn), max((j for j, v in enumerate(c) if v != 0), default=0))
    out, ratio = c[0], 1
    for j in range(1, top + 1):
        ratio = ratio * (xn - (j - 1)) / (n - (j - 1))
        out = out + ratio * c[j]
    return out


def test_functionals_match_the_oracle_and_the_float_transcriptions():
    # exact input: lambda_k^n equals both power-form readings of the oracle.
    # float input: the same bits as the band formula written out here, within
    # gamma_{d+2} max|alpha| of the exact value on the float alphas; at a
    # non-integral xn, generalized_dual_apply keeps the bits of the running
    # ratio over the padded power coefficients.  Each p is read at its own
    # degree and nine degrees up.
    rng = random.Random(20261020)
    polys = [power_to_bform(c, n) for exact in (True, False)
             for n, c in _conversion_inputs(rng, exact) if 1 <= n <= 40]
    polys += [BPoly(3, UNIT_INTERVAL, z) for z in ((0,) * 4, (F(0),) * 4, (-0.0, 0.0, 0.0, 0.0))]
    for p in polys:
        d, alpha = p.degree, p.coeffs
        is_float = any(isinstance(v, float) for v in alpha)
        x = 0.3 if is_float else F(3, 10)
        for n in (d, d + 9):
            got = [dual_functional_apply(n, k, p) for k in range(n + 1)]
            if is_float:
                assert repr(got) == repr([_band_reading(n, k, alpha) for k in range(n + 1)]), (n, p)
                exact = left_functionals(n, range(n + 1), [F(v) for v in alpha])
                bound = _gamma(d + 2) * max(abs(F(v)) for v in alpha)
                assert all(abs(F(v) - e) <= bound for v, e in zip(got, exact)), (n, p)
            else:
                assert got == left_functionals(n, range(n + 1), alpha), (n, p)
                assert got == right_functionals(n, range(n + 1), alpha), (n, p)
            xn = x * n
            if xn == math.floor(xn):
                want = dual_functional_apply(n, math.floor(xn), p)
            else:
                want = _ratio_reading(n, xn, bform_to_power(p))
            assert repr(generalized_dual_apply(n, x, p)) == repr(want), (n, p)


def test_power_conversions_keep_float_bits():
    rng = random.Random(20261019)
    for n, c in _conversion_inputs(rng, exact=False):
        if n > 40:
            continue  # the float loops are quadratic in the support
        p = power_to_bform(c, n)
        assert repr(p.coeffs) == repr(_pascal_loop(c, n)), (n, c)
        assert repr(bform_to_power(p)) == repr(_difference_loop(p.coeffs))
    # below the first nonzero power coefficient the alpha sum is empty; it is
    # 0.0, so a float input (an int among floats too) gives a float B-form
    for c, n, want in (([0.0, 2.5], 4, (0.0, 0.625, 1.25, 1.875, 2.5)), ([0.0], 3, (0.0,) * 4),
                       ([0.0, 2], 4, (0.0, 0.5, 1.0, 1.5, 2.0))):
        p = power_to_bform(c, n)
        assert repr(p.coeffs) == repr(want) == repr(_pascal_loop(c, n)), c
        assert all(type(x) is float for x in bform_to_power(p)), c
        for k in range(n + 1):
            got = dual_functional_apply(n, k, p)
            assert type(got) is float and got == want[k], (c, k)
        for x in (0.3, 0.5):
            assert type(generalized_dual_apply(n, x, p)) is float, (c, x)


def test_biorthogonality_left_and_right():
    # lambda_k^n applied to B_j^m gives E(k, j), the Gram identity both
    # duality checks rest on; at m = n it is the Kronecker delta, exactly.
    # The oracle's right-endpoint reading gives the same values.
    for n in range(8):
        for m in range(n + 1):
            e = elevation_matrix(m, n)
            for j in range(m + 1):
                b = BPoly(m, UNIT_INTERVAL, tuple(F(int(r == j)) for r in range(m + 1)))
                right = right_functionals(n, range(n + 1), b.coeffs)
                for k in range(n + 1):
                    want = e[k, j] if m < n else int(j == k)
                    assert dual_functional_apply(n, k, b) == want == right[k], (m, n, k, j)


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
    assert dual_functional_apply(2, 2, p) == right_functionals(2, [2], p.coeffs)[0] == p(F(3))
    assert dual_functional_apply(2, 0, p) == left_functionals(2, [0], p.coeffs)[0] == p(F(1))


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(coeff_fracs, min_size=1, max_size=n + 1),
            st.integers(0, n),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_left_right_functionals_agree(args):
    # a B-form of degree d <= n: the elevation row against both power-form readings
    n, coeffs, k = args
    p = BPoly(len(coeffs) - 1, UNIT_INTERVAL, tuple(coeffs))
    want = left_functionals(n, [k], coeffs)[0]
    assert dual_functional_apply(n, k, p) == want == right_functionals(n, [k], coeffs)[0]


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


def test_float_functionals_on_a_low_degree_polynomial_at_high_degree():
    # 1/2 + u as a float B-form, at degree n and at degree 1, read at the
    # midpoint index: 1.0 within the rounding bound.  Its power-form reading
    # (the running ratio over float power coefficients) is 5.5e13 at n = 200
    # (1.07e14 at the float index 0.5 * n) and nan at n = 1000, and it
    # overflows at n = 2000.
    for n in (60, 200, 1000, 2000):
        for p in (power_to_bform([0.5, 1.0], n), BPoly(1, UNIT_INTERVAL, (0.5, 1.5))):
            bound = _gamma(p.degree + 2) * max(abs(F(v)) for v in p.coeffs)
            for got in (dual_functional_apply(n, n // 2, p), generalized_dual_apply(n, 0.5, p)):
                assert abs(F(got) - 1) <= bound, (n, p.degree, got)


def _linear_product(factors) -> list:
    """Coefficients (lowest first) of prod (a n + b) over the (a, b) in factors."""
    poly = [F(1)]
    for a, b in factors:
        poly = [b * x + a * y for x, y in zip(poly + [0], [0] + poly)]
    return poly


def test_generalized_first_order_term_is_the_voronovskaya_constant():
    # with c the power coefficients of p, of degree d, and floor(xn) >= d,
    # lambda_{xn}^n p = sum_j c_j (xn)_j / (n)_j = N(n) / D(n), where
    # N = sum_j c_j (xn)_j (n - j)_{d-j} and D = (n)_d are of degree d in n and
    # D is monic, so lambda = N_d + (N_{d-1} - N_d D_{d-1}) / n + O(1/n^2): the
    # lead is p(x) and the 1/n term is -x (1 - x) p''(x) / 2
    c = [F(1, 3), 0, -1, 0, F(5, 2)]
    d = len(c) - 1
    den = _linear_product([(1, -t) for t in range(d)])
    for x in (F(1, 3), F(1, 2), F(7, 10)):
        num = [0] * (d + 1)
        for j, cj in enumerate(c):
            factors = [(x, -t) for t in range(j)] + [(1, -t) for t in range(j, d)]
            num = [a + cj * b for a, b in zip(num, _linear_product(factors))]
        for n in (300, 301, 2400):  # xn integral, not integral, integral
            value = (sum(a * n**e for e, a in enumerate(num))
                     / sum(a * n**e for e, a in enumerate(den)))
            for p in (power_to_bform(c, d), power_to_bform(c, n)):
                assert generalized_dual_apply(n, x, p) == value, (x, n, p.degree)
        p_x = sum(cj * x**j for j, cj in enumerate(c))
        p2_x = sum(j * (j - 1) * cj * x ** (j - 2) for j, cj in enumerate(c) if j >= 2)
        assert den[d] == 1 and num[d] == p_x, x
        assert num[d - 1] - num[d] * den[d - 1] == -x * (1 - x) * p2_x / 2, x


def test_xi_nodes():
    assert xi_nodes(2) == (F(0), F(1, 2), F(1))
    iv = Interval(F(0), F(2))
    assert tuple(xi_nodes(4, iv)) == (F(0), F(1, 2), F(1), F(3, 2), F(2))


def test_uniform_nodes_are_from_local():
    # the one node formula against a + Fraction(k, n) (b - a), by type and
    # repr, on exact, float, mixed and overflowing intervals
    intervals = [
        Interval(0, 1), Interval(F(1, 2), 2), Interval(-3, F(7, 5)), Interval(F(-1, 3), F(2, 7)),
        Interval(10**30, 10**30 + 1), Interval(F(-10**20, 3), F(10**19, 7)),
        Interval(0.0, 1.0), Interval(1.0, 3.0), Interval(0.1, 0.7), Interval(-1e308, 1e308),
        Interval(1e16, 1e16 + 2.0), Interval(np.float64(-2.5), np.float64(1e-300)),
        Interval(F(1, 3), 2.5), Interval(0.25, F(7, 3)), Interval(1, 2.5), Interval(-1e308, 10**308),
    ]
    for iv in intervals:
        for n in range(1, 80):
            ks = range(n + 1)
            want = [iv.from_local(F(k, n)) for k in ks]
            got = _uniform_nodes(n, iv, ks)
            assert [(type(x), repr(x)) for x in got] == [(type(x), repr(x)) for x in want], (iv, n)
    assert _uniform_nodes(6, Interval(F(1, 2), 2), (4, 0)) == [F(3, 2), F(1, 2)]


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
    assert generalized_dual_apply(3, F(1, 3), p1) == generalized_dual_apply(3, F(1, 3), p2)
