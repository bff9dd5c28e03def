import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from oracle import is_row_affine, mat_inv

from dualbern.bernstein import (
    UNIT_INTERVAL,
    BPoly,
    Interval,
    bernstein_value,
    collocation_matrix,
    de_casteljau_eval,
    power_to_bform,
    xi_nodes,
)
from dualbern.operators import (
    OperatorReport,
    StabilityReport,
    bernstein_like,
    bernstein_like_report,
    modulus_of_continuity,
    quasi_interpolant,
    quasi_interpolant_report,
    stability_report,
)
from dualbern import bernstein, operators, ratmat
from dualbern.ratmat import Mat, inf_norm
from dualbern.subspace import bernstein_embedding, dual_basis, make_selection, power_embedding

IV13 = Interval(F(1), F(3))


def test_collocation_matrix_goldens():
    assert collocation_matrix(1) == Mat([[1, 0], [0, 1]])
    assert collocation_matrix(2) == Mat([[1, 0, 0], ["1/4", "1/2", "1/4"], [0, 0, 1]])
    with pytest.raises(ValueError):
        collocation_matrix(0)


def test_collocation_matrix_row_affine():
    for n in range(1, 9):
        m = collocation_matrix(n)
        assert is_row_affine(m)
        assert all(x >= 0 for x in m.entries)
    # the integer closed form is the B_j^n(i/n) of its definition
    for n in range(1, 25):
        values = [[bernstein_value(n, j, F(i, n)) for j in range(n + 1)] for i in range(n + 1)]
        assert collocation_matrix(n) == Mat(values), n


def test_colloc_inv_matches_gauss_jordan():
    # the closed form against generic elimination, which stays the reference
    for n in range(1, 25):
        assert bernstein._colloc_inv(n) == mat_inv(collocation_matrix(n)), n
    assert bernstein._colloc_inv(2) == Mat([[1, 0, 0], ["-1/2", 2, "-1/2"], [0, 0, 1]])
    with pytest.raises(ValueError):
        bernstein._colloc_inv(0)


def test_colloc_inv_is_one_shared_cache():
    # callers clear and read one cache through either module
    assert operators._colloc_inv is bernstein._colloc_inv
    assert callable(bernstein._colloc_inv.cache_clear)
    assert callable(bernstein._colloc_inv.cache_info)


def test_colloc_inv_norm_is_computed_once_per_cache_entry(monkeypatch):
    norms = []
    max_abs_row_sum = ratmat._max_abs_row_sum
    monkeypatch.setattr(ratmat, "_max_abs_row_sum",
                        lambda nums, den: norms.append(1) or max_abs_row_sum(nums, den))
    for n in range(1, 17):
        want = inf_norm(mat_inv(collocation_matrix(n)))
        bernstein._colloc_inv.cache_clear()
        for _ in range(2):  # the second pass runs after cache_clear()
            norms.clear()
            assert inf_norm(operators._colloc_inv(n)) == want, n
            assert len(norms) == 1
            assert inf_norm(operators._colloc_inv(n)) == want, n
            assert len(norms) == 1  # the repeat reads the memo
            bernstein._colloc_inv.cache_clear()


def test_reports_read_the_cached_inverse_in_its_integer_view():
    # on float data and on exact data the data map, the dual basis bform and
    # the norms read integers: the cached M_n^{-1} builds no Fraction view
    cases = ((UNIT_INTERVAL, lambda t: t * t), (Interval(F(1, 2), 2), math.sin),
             (Interval(1.0, 3.0), math.exp), (Interval(F(1, 3), 2.5), math.sin))
    bernstein._colloc_inv.cache_clear()
    try:
        for iv, f in cases:
            for m, n in ((2, 8), (3, 24), (4, 40)):
                s = make_selection(m, n, tuple(round(i * n / m) for i in range(m + 1)))
                quasi_interpolant_report(m, n, s, f, iv)
                bernstein_like_report(m, n, s, f, "c1", iv, d1=10.0)
                assert bernstein._colloc_inv(n)._rows is None, (iv, n)
                assert bernstein._colloc_inv(m)._rows is None, (iv, m)
    finally:
        bernstein._colloc_inv.cache_clear()


def _recording(f):
    seen = []

    def g(t):
        seen.append(t)
        return f(t)

    return g, seen


def test_operators_sample_f_only_at_the_nodes_they_read():
    # exact, exact with a Fraction end, float and mixed intervals
    ivs = (UNIT_INTERVAL, Interval(F(1, 2), 2), Interval(1.0, 3.0), Interval(F(1, 2), 2.0))
    for iv in ivs:
        for m, n, sel in ((1, 3, (0, 3)), (2, 8, (0, 3, 8)), (3, 40, (0, 13, 27, 40))):
            s = make_selection(m, n, sel)
            nodes = list(xi_nodes(n, iv))
            g, seen = _recording(lambda t: t)
            bernstein_like(m, n, s, g, iv)
            want = [nodes[k] for k in sel]
            assert seen == want and len(seen) == m + 1
            assert list(map(type, seen)) == list(map(type, want))
            g, seen = _recording(lambda t: t)
            quasi_interpolant(m, n, s, g, iv)
            assert seen == nodes and len(seen) == n + 1
            assert list(map(type, seen)) == list(map(type, nodes))
            # and the reports once per grid point: the quasi report's default
            # 201-point grid is every other point of its 401-point least-squares
            # grid; at 2001 samples the grids do not nest and both are sampled,
            # the least-squares grid first
            lsq_grid = bernstein.uniform_grid(iv, 401).tolist()
            for samples, report_grid in ((201, []), (2001, bernstein.uniform_grid(iv, 2001).tolist())):
                g, seen = _recording(math.sin)
                quasi_interpolant_report(m, n, s, g, iv, samples=samples)
                assert seen[n + 1:] == lsq_grid + report_grid
            for kind, grid_calls in (("c0", 201 + 1025), ("c1", 201), ("c2", 201)):
                g, seen = _recording(math.sin)
                bernstein_like_report(m, n, s, g, kind, iv, d1=1.0, d2=1.0)
                assert len(seen) == m + 1 + grid_calls, kind
                assert all(type(t) is float for t in seen[m + 1:])


def _float_error(v):
    try:
        float(v)
    except Exception as exc:
        return type(exc)
    return None


def test_sample_is_float_of_f_at_every_point():
    ts = bernstein.uniform_grid(IV13, 5)
    values = (0.1, F(1, 3), 7, -(10**30), True, False, np.float32(0.1), np.float64(2.5),
              np.int64(-3), np.bool_(True), -0.0, math.inf, -math.inf, math.nan)
    for v in values:
        got = operators._sample(lambda t: v, ts)
        assert got.dtype == np.float64 and len(got) == len(ts)
        assert [x.hex() for x in got.tolist()] == [float(v).hex()] * len(ts), v
    seen = []
    got = operators._sample(lambda t: seen.append(t) or F(1, 3) * t, ts)
    assert seen == ts.tolist() and all(type(t) is float for t in seen)
    assert [x.hex() for x in got.tolist()] == [float(F(1, 3) * t).hex() for t in seen]
    # the values float() refuses raise as float() does, nan is not made up
    for v in (None, 1 + 2j, 10**400, "x"):
        with pytest.raises(_float_error(v)):
            operators._sample(lambda t: v, ts)


def _data_map(n, f):
    """(tilde-lambda_j^n f)_j: at m = n with s = 0..n, A = I and Q_s f has the
    data map for its coefficients."""
    return quasi_interpolant(n, n, make_selection(n, n, range(n + 1)), f).coeffs


def test_tilde_lambda_duality():
    # applied to the basis elements themselves the data map gives deltas
    for n in range(1, 6):
        for i in range(n + 1):
            f = lambda t, i=i, n=n: bernstein_value(n, i, t)
            assert _data_map(n, f) == tuple(int(i == j) for j in range(n + 1))


def test_tilde_lambda_constant_and_bound():
    assert _data_map(5, lambda t: F(7, 2)) == (F(7, 2),) * 6
    rng = random.Random(11)
    for n in (2, 4, 6):
        norm = inf_norm(mat_inv(collocation_matrix(n)))
        for _ in range(5):
            vals = {i: rng.uniform(-1, 1) for i in range(n + 1)}
            f = lambda t, n=n, vals=vals: vals[int(t * n)]
            sup_f = max(abs(v) for v in vals.values())
            for v in _data_map(n, f):
                assert abs(v) <= float(norm) * sup_f + 1e-12


def test_quasi_interpolant_linear_precision():
    for iv in (UNIT_INTERVAL, IV13):
        s = make_selection(2, 4, (0, 2, 4))
        p = quasi_interpolant(2, 4, s, lambda t: t, iv)
        assert p.coeffs == tuple(xi_nodes(2, iv))


def test_quasi_interpolant_annihilates_excess_degree():
    # m=1 projector applied to t^2: both coefficients vanish
    s = make_selection(1, 2, (0, 1))
    p = quasi_interpolant(1, 2, s, lambda t: t * t)
    assert p.coeffs == (F(0), F(0))


def test_quasi_interpolant_reproduces_polynomials_exactly():
    rng = random.Random(5)
    for m, n, sel in [(1, 3, (0, 3)), (2, 4, (0, 1, 4)), (3, 6, (0, 2, 4, 6))]:
        coeffs = [F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(m + 1)]
        target = power_to_bform(coeffs, m)
        s = make_selection(m, n, sel)
        q = quasi_interpolant(m, n, s, target)
        assert q.coeffs == target.coeffs


def test_quasi_interpolant_idempotent():
    s = make_selection(2, 6, (0, 3, 6))
    q1 = quasi_interpolant(2, 6, s, math.sin)
    q2 = quasi_interpolant(2, 6, s, q1)
    assert max(abs(a - b) for a, b in zip(q1.coeffs, q2.coeffs)) <= 1e-10


def test_quasi_interpolant_report_member_function():
    s = make_selection(2, 4, (0, 2, 4))
    rep = quasi_interpolant_report(2, 4, s, power_to_bform([F(1), F(-2), F(3)], 2))
    assert rep.sup_error <= 1e-10
    assert rep.bound_kind == "operator-norm"


def test_quasi_interpolant_report_bound_and_near_best():
    s = make_selection(2, 4, (0, 2, 4))
    for f in (math.sin, math.exp, lambda t: abs(t - 0.32)):
        rep = quasi_interpolant_report(2, 4, s, f)
        assert rep.sup_error <= rep.bound + 1e-12
        # near-best: sup-error within (1 + ||Q||) of the distance estimate,
        # a few percent slack for the grid estimate of that distance
        assert rep.sup_error <= 1.05 * rep.near_best_bound


def test_quasi_interpolant_report_zero_function():
    s = make_selection(1, 2, (0, 2))
    rep = quasi_interpolant_report(1, 2, s, lambda t: 0.0)
    assert rep.sup_error == 0
    assert rep.bound == 0
    assert rep.near_best_bound == 0


def test_report_json_shape():
    s = make_selection(1, 2, (0, 2))
    rep = quasi_interpolant_report(1, 2, s, math.sin)
    obj = rep.to_json_obj()
    assert sorted(obj) == [
        "bound", "bound_kind", "distance_estimate", "near_best_estimate", "norm_A", "norm_Minv",
        "sup_error",
    ]
    assert obj["bound_kind"] == "operator-norm"
    assert "/" in obj["norm_Minv"] or obj["norm_Minv"].lstrip("-").isdigit()
    assert obj["distance_estimate"] == rep.distance_estimate
    assert obj["near_best_estimate"] == rep.near_best_bound
    # the Bernstein-like report sets no estimates, so its JSON keeps five keys
    bern = bernstein_like_report(1, 2, s, math.sin, "c1", d1=1.0).to_json_obj()
    assert sorted(bern) == ["bound", "bound_kind", "norm_A", "norm_Minv", "sup_error"]


def test_bernstein_like_classical_case():
    # m = n with identity selection is the classical positive operator
    s = make_selection(2, 2, (0, 1, 2))
    p = bernstein_like(2, 2, s, lambda t: t * t)
    assert p.coeffs == (F(0), F(1, 4), F(1))
    assert de_casteljau_eval(p, F(1, 2)) == F(3, 8)


def test_bernstein_like_affine_precision():
    for iv in (UNIT_INTERVAL, IV13):
        s = make_selection(2, 6, (0, 3, 6))
        p = bernstein_like(2, 6, s, lambda t: 2 * t + 1, iv)
        assert p.coeffs == tuple(2 * x + 1 for x in xi_nodes(2, iv))


def test_bernstein_like_constant():
    s = make_selection(3, 6, (0, 2, 4, 6))
    p = bernstein_like(3, 6, s, lambda t: F(5, 3))
    assert p.coeffs == (F(5, 3),) * 4


def test_modulus_of_continuity():
    assert modulus_of_continuity(lambda t: t, 0.3) == pytest.approx(0.3, abs=2e-3)
    assert abs(modulus_of_continuity(lambda t: t * t, 0.25) - 0.4375) <= 1e-12
    assert modulus_of_continuity(lambda t: 4.0, 0.5) == 0
    for h in (0.1, 0.5, 1.0):
        assert modulus_of_continuity(math.sin, h) <= h + 1e-9
    # below one grid step (1/1024) no two samples lie within h
    for h in (1e-9, 1e-4):
        assert modulus_of_continuity(math.sin, h) == 0
    with pytest.raises(ValueError):
        modulus_of_continuity(lambda t: t, 0.0)
    with pytest.raises(ValueError):
        modulus_of_continuity(lambda t: t, 1.5)


def _sliding_modulus(f, h, iv):
    """The sliding-window formula for the grid modulus, window by window."""
    vals = np.array([float(f(t)) for t in bernstein.uniform_grid(iv, 1025).tolist()])
    span = int(float(h) / float(iv.width) * 1024 + 1e-9)
    windows = sliding_window_view(vals, span + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(windows.max(axis=1) - windows.min(axis=1)))


def test_modulus_over_the_whole_interval_is_the_sliding_window_formula():
    # at h = b - a the one window is the whole grid: max - min, nan and inf included
    def spiked(values):
        return lambda t: values.get(round(float(t) * 1024), math.sin(t))

    fns = [math.sin, lambda t: t * t, spiked({3: math.inf}), spiked({3: -math.inf}),
           spiked({3: math.inf, 700: -math.inf}), spiked({5: math.nan}),
           spiked({0: math.nan, 9: math.inf}), lambda t: math.inf, lambda t: -math.inf,
           spiked({1024: 1e308, 0: -1e308})]
    for f in fns:
        for iv, h in ((UNIT_INTERVAL, 1.0), (UNIT_INTERVAL, 1.0 - 1e-13), (UNIT_INTERVAL, 1 / 3),
                      (Interval(0, 1.0), 0.5)):
            got, want = modulus_of_continuity(f, h, iv), _sliding_modulus(f, h, iv)
            assert got.hex() == want.hex() or (math.isnan(got) and math.isnan(want)), (h, got, want)


def test_modulus_off_unit_interval():
    got = modulus_of_continuity(lambda t: t, 0.5, IV13)
    assert got == pytest.approx(0.5, abs=2e-3)


def test_bernstein_like_report_bounds_hold():
    cases = [
        (math.sin, "c0", None, None),
        (math.sin, "c1", 1.0, None),
        (math.sin, "c2", None, 1.0),
        (math.exp, "c1", math.e, None),
        (lambda t: abs(t - 0.32), "c0", None, None),
        (lambda t: abs(t - 0.32), "c1", 1.0, None),
    ]
    s = make_selection(2, 4, (0, 2, 4))
    for f, kind, d1, d2 in cases:
        rep = bernstein_like_report(2, 4, s, f, kind, d1=d1, d2=d2)
        assert rep.sup_error <= rep.bound + 1e-12
        assert rep.bound_kind in ("C0-modulus", "C1", "C2")


def test_bernstein_like_report_linear_function():
    s = make_selection(2, 4, (0, 2, 4))
    rep = bernstein_like_report(2, 4, s, lambda t: 3 * t - 1, "c1", d1=3.0)
    assert rep.sup_error <= 1e-10


def test_bernstein_like_report_validation():
    s = make_selection(1, 2, (0, 2))
    with pytest.raises(ValueError):
        bernstein_like_report(1, 2, s, math.sin, "c1")  # missing d1
    with pytest.raises(ValueError):
        bernstein_like_report(1, 2, s, math.sin, "c2")  # missing d2
    with pytest.raises(ValueError):
        bernstein_like_report(1, 2, s, math.sin, "c3")


def _db(m, n, sel, iv=UNIT_INTERVAL):
    return dual_basis(bernstein_embedding(m, n), make_selection(m, n, sel), iv)


def test_stability_report_zero_and_ones():
    db = _db(2, 4, (0, 2, 4))
    z = stability_report(db, (0, 0, 0))
    assert (z.lower, z.p_norm, z.upper) == (0, 0, 0)
    one = stability_report(db, (1, 1, 1))
    assert one.p_norm == pytest.approx(1.0)
    assert one.lower <= 1.0 <= one.upper


def test_degree_zero_subspace():
    # D_0 and Q_s need no M_0; the reports that print inf_norm(M_m^-1) name m
    s = make_selection(0, 2, (1,))
    assert bernstein_like(0, 2, s, lambda t: t).coeffs == (F(1, 2),)
    assert quasi_interpolant_report(0, 2, s, math.sin).bound_kind == "operator-norm"
    with pytest.raises(ValueError, match="m=0"):
        bernstein_like_report(0, 2, s, math.sin, "c1", d1=1.0)
    with pytest.raises(ValueError, match="m=0"):
        stability_report(_db(0, 2, (1,)), (1,))


def test_quasi_report_takes_an_integer_number_of_samples():
    # 2.5 used to sample f at t = 4/3, past b = 1, and return a report
    s = make_selection(2, 4, (0, 2, 4))
    with pytest.raises(ValueError, match="^a grid needs an integer number of samples, got 2.5$"):
        quasi_interpolant_report(2, 4, s, math.sin, samples=2.5)
    assert quasi_interpolant_report(2, 4, s, math.sin, samples=np.int64(201)) == \
        quasi_interpolant_report(2, 4, s, math.sin)


def test_stability_report_rejects_a_power_kind_basis():
    # the sandwich holds for the Bernstein kind; A . alpha are power coefficients here
    db = dual_basis(power_embedding(2, 4), make_selection(2, 4, (0, 1, 2)))
    with pytest.raises(ValueError, match="Bernstein"):
        stability_report(db, (0, 1, 0))


def test_stability_report_length_check():
    with pytest.raises(ValueError):
        stability_report(_db(2, 4, (0, 2, 4)), (1, 2))


@given(
    st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=4, max_size=4)
)
@settings(max_examples=40, deadline=None)
def test_stability_sandwich_random(alpha):
    db = _db(3, 6, (0, 2, 4, 6))
    rep = stability_report(db, alpha)  # raises RuntimeError on violation
    assert rep.lower <= rep.p_norm * (1 + 1e-9)
    assert rep.p_norm <= rep.upper * (1 + 1e-9)


def test_stability_on_shifted_interval():
    db = _db(2, 6, (0, 3, 6), IV13)
    rep = stability_report(db, (F(1), F(-2), F(1, 2)))
    assert rep.lower <= rep.p_norm * (1 + 1e-9) <= rep.upper * (1 + 1e-9) ** 2


def test_distance_to_subspace_member_is_zero():
    # the quasi report's distance_estimate: the least-squares residual by degree m
    def distance(f, m):
        s = make_selection(m, m, range(m + 1))
        return quasi_interpolant_report(m, m, s, f).distance_estimate

    p = power_to_bform([F(1), F(2), F(-1)], 2)
    assert distance(p, 2) <= 1e-10
    assert distance(math.sin, 3) < distance(math.sin, 1)
