"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
``[acceptance N] <label>: PASS|FAIL`` lines on the terminal.  Tolerances are
pinned in the individual tests and are part of the contract.
"""

import math
import random
from fractions import Fraction as F
from itertools import combinations

from oracle import is_row_affine, mat_inv, mat_mul, mat_sub, right_functionals, row_select
from reference_tables import REFERENCE_TABLES, mat_from_table

from dualbern.bernstein import (
    UNIT_INTERVAL,
    BPoly,
    Interval,
    collocation_matrix,
    de_casteljau_eval,
    dual_functional_apply,
    elevation_matrix,
    generalized_dual_apply,
    power_to_bform,
    xi_nodes,
)
from dualbern.cli import FN_REGISTRY
from dualbern.operators import (
    bernstein_like_report,
    quasi_interpolant,
    quasi_interpolant_report,
    stability_report,
)
from dualbern.ratmat import Mat, SingularMatrixError, inf_norm
from dualbern.subspace import (
    bernstein_embedding,
    dual_basis,
    dual_basis_eval,
    is_complete,
    linear_precision_check,
    make_selection,
    power_embedding,
    verify_duality,
)
from dualbern.symmetric import (
    SymmetricConfig,
    convergence_table,
    rate_constant,
    symmetric_dual_matrix,
)


def _verdict(num: int, label: str, check) -> None:
    """Run the criterion body and print exactly one PASS/FAIL line for it."""
    try:
        check()
    except BaseException:
        print(f"[acceptance {num}] {label}: FAIL")
        raise
    print(f"[acceptance {num}] {label}: PASS")


# ---------------------------------------------------------------------------


def test_acceptance_1_symmetric_reference_tables():
    def check():
        # every transcribed reference matrix matches the exact construction
        for m, k, den, rows in REFERENCE_TABLES:
            assert symmetric_dual_matrix(m, k) == mat_from_table(den, rows)
        # degrees whose tables were not transcribed are still pinned down
        # structurally: inverse pair with the selected elevation rows,
        # row-affine, centro-symmetric, unit endpoint rows
        for m, k in [(5, 2), (5, 5), (6, 2)]:
            a = symmetric_dual_matrix(m, k)
            e_s = bernstein_embedding(m, m * k).rows(SymmetricConfig(m, k).selection())
            assert mat_mul(e_s, a) == Mat.identity(m + 1)
            assert is_row_affine(a)
            for i in range(m + 1):
                for j in range(m + 1):
                    assert a[i, j] == a[m - i, m - j]
            assert a.row(0) == tuple(F(int(j == 0)) for j in range(m + 1))
            assert a.row(m) == tuple(F(int(j == m)) for j in range(m + 1))

    _verdict(1, "symmetric dual matrices match reference tables", check)


def test_acceptance_2_selection_invertibility():
    def check():
        # Bernstein embedding: every selection of m+1 rows of the elevation
        # matrix is invertible (exhaustive for 1 <= m <= n <= 8), as
        # is_complete states without enumerating, and the closed-form A is
        # the Gauss-Jordan inverse of E(s,:)
        for n in range(2, 9):
            for m in range(1, n + 1):
                emb = bernstein_embedding(m, n)
                for sel in combinations(range(n + 1), m + 1):
                    s = make_selection(m, n, sel)
                    assert dual_basis(emb, s).A == mat_inv(row_select(elevation_matrix(m, n), s))
                assert is_complete(emb)
        # power embedding: only the leading selection 0..m survives
        for n in range(2, 9):
            for m in range(1, n + 1):
                emb = power_embedding(m, n)
                leading = tuple(range(m + 1))
                for sel in combinations(range(n + 1), m + 1):
                    try:
                        dual_basis(emb, make_selection(m, n, sel))
                        invertible = True
                    except SingularMatrixError:
                        invertible = False
                    assert invertible == (sel == leading)
                assert is_complete(emb) == (m == n)

    _verdict(2, "all Bernstein selections invertible, power selections rigid", check)


def test_acceptance_3_duality_and_partition_properties():
    def check():
        rng = random.Random(20260817)
        for _ in range(200):
            m = rng.randint(1, 5)
            n = rng.randint(m, m + rng.randint(0, 4))
            sel = tuple(sorted(rng.sample(range(n + 1), m + 1)))
            db = dual_basis(bernstein_embedding(m, n), make_selection(m, n, sel))
            assert verify_duality(db)  # exact biorthogonality
            assert is_row_affine(db.A)  # exact affine rows
            for q in range(11):
                t = q / 10
                total = sum(dual_basis_eval(db, i, t) for i in range(m + 1))
                assert abs(total - 1.0) <= 1e-12
            assert linear_precision_check(db) <= 1e-12

    _verdict(3, "200 random dual bases biorthogonal with partition of unity", check)


def test_acceptance_4_data_map_invariance():
    def check():
        rng = random.Random(31415)
        seen = set()
        while len(seen) < 50:
            m = rng.randint(1, 4)
            n = rng.randint(m, 8)
            sel = tuple(sorted(rng.sample(range(n + 1), m + 1)))
            seen.add((m, n, sel))
        for m, n, sel in sorted(seen):
            # Gram matrices G(i, j) = lambda_{s(i)}^n(B_j^m) of the library's
            # functional and of the oracle's right-endpoint reading, both E(s,:)
            basis = Mat.identity(m + 1).to_lists()
            left = Mat([[dual_functional_apply(n, k, BPoly(m, UNIT_INTERVAL, e)) for e in basis]
                        for k in sel])
            right = Mat(list(zip(*(right_functionals(n, sel, e) for e in basis))))
            assert left == right == bernstein_embedding(m, n).rows(sel), (m, n, sel)

    _verdict(4, "50 random cases: left/right data maps induce the same basis", check)


def test_acceptance_5_rate_constant_law():
    """The scaled distance X(k) = k * (collocation - selected elevation rows)
    approaches the closed-form constant matrix C.

    Entries where C is nonzero are checked to 2% relative accuracy at
    k = 128.  At positions where C has a structural zero strictly inside the
    matrix, X(k) itself is O(1/k) (the next-order term does not vanish), so
    no tiny absolute gate can hold at finite k; those entries are instead
    pinned to the observed first-order size, |X(128)| <= 1e-3, and to the
    halving law |X(128)| <= 0.65 * |X(64)|.  Endpoint rows agree exactly at
    every k.
    """

    def scaled(m, k):
        e_s = bernstein_embedding(m, m * k).rows(SymmetricConfig(m, k).selection())
        diff = mat_sub(collocation_matrix(m), e_s)
        return Mat([[k * x for x in diff.row(i)] for i in range(m + 1)])

    def check():
        for m in (2, 3, 4):
            c = rate_constant(m)
            for k in (2, 3, 5, 16, 64, 128):
                x = scaled(m, k)
                assert all(v == 0 for v in x.row(0))
                assert all(v == 0 for v in x.row(m))
            x64, x128 = scaled(m, 64), scaled(m, 128)
            for i in range(1, m):
                for j in range(m + 1):
                    target = c[i, j]
                    got = x128[i, j]
                    if target != 0:
                        assert abs(float(got - target)) <= 0.02 * abs(float(target))
                    else:
                        assert abs(float(got)) <= 1e-3
                        assert abs(float(got)) <= 0.65 * abs(float(x64[i, j]))
        # closed form at m = 2: the single interior row of C
        assert rate_constant(2).row(1) == (F(1, 8), F(-1, 4), F(1, 8))

    _verdict(5, "scaled Lagrange distance converges to the rate constant", check)


def test_acceptance_6_first_order_convergence():
    def check():
        for rec in convergence_table(1, [1, 2, 4, 8]):
            assert rec.sup_dist == 0  # m = 1 is already the Lagrange basis
        for m in (2, 3, 4):
            table = convergence_table(m, list(range(1, 33)))
            sups = {rec.k: rec.sup_dist for rec in table}
            vals = [sups[k] for k in range(1, 33)]
            assert all(a > b for a, b in zip(vals, vals[1:]))  # strictly decreasing
            for k in (8, 16):
                ratio = sups[2 * k] / sups[k]
                assert 0.40 <= ratio <= 0.60  # halves when k doubles: O(1/k)

    _verdict(6, "sup distance to Lagrange basis decays at first order", check)


def test_acceptance_7_operator_reports():
    def check():
        # (a) the quasi-interpolant reproduces its target space -- exactly on
        # the rational path, to 1e-10 in the float report
        rng = random.Random(777)
        for m, n, sel in [(2, 4, (0, 2, 4)), (3, 6, (0, 3, 4, 6))]:
            s = make_selection(m, n, sel)
            coeffs = [F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(m + 1)]
            p = power_to_bform(coeffs, m)
            assert quasi_interpolant(m, n, s, p).coeffs == p.coeffs
            assert quasi_interpolant_report(m, n, s, p).sup_error <= 1e-10

        # (b) data-map norm bound: sup |Q_s f| <= ||A|| * ||M_n^{-1}|| * max
        # node |f| for 50 seeded continuous functions
        m, n = 2, 4
        s = make_selection(m, n, (0, 2, 4))
        db = dual_basis(bernstein_embedding(m, n), s)
        op_norm = float(inf_norm(db.A) * inf_norm(mat_inv(collocation_matrix(n))))
        nodes = [float(x) for x in xi_nodes(n)]
        for _ in range(50):
            a0, b0, c0, d0 = (rng.uniform(-2, 2) for _ in range(4))
            f = lambda t, a0=a0, b0=b0, c0=c0, d0=d0: a0 * math.sin(b0 * t + c0) + d0
            q = quasi_interpolant(m, n, s, f)
            sup_q = max(abs(de_casteljau_eval(q, t / 200)) for t in range(201))
            node_sup = max(abs(f(x)) for x in nodes)
            assert sup_q <= op_norm * node_sup + 1e-12

        # (c) every declared error bound of the positive-type operator holds,
        # on the unit interval and on [1, 3]
        for iv in (UNIT_INTERVAL, Interval(F(1), F(3))):
            a, b = float(iv.a), float(iv.b)
            for m, k in [(2, 1), (2, 2), (3, 4)]:
                cfg = SymmetricConfig(m, k)
                sel = cfg.selection()
                for name, reg in FN_REGISTRY.items():
                    kinds = ["c0", "c1"] + ([] if reg.d2 is None else ["c2"])
                    for kind in kinds:
                        rep = bernstein_like_report(
                            m, cfg.n, sel, reg.fn, kind, iv,
                            d1=reg.d1(a, b) if kind == "c1" else None,
                            d2=reg.d2(a, b) if kind == "c2" else None,
                        )
                        assert rep.sup_error <= rep.bound + 1e-12, (iv, m, k, name, kind)

        # (d) the two-sided stability sandwich for 100 seeded coefficient
        # vectors (stability_report itself raises on violation)
        for _ in range(100):
            m = rng.randint(1, 4)
            n = rng.randint(m, 8)
            sel = tuple(sorted(rng.sample(range(n + 1), m + 1)))
            db = dual_basis(bernstein_embedding(m, n), make_selection(m, n, sel))
            alpha = [rng.uniform(-5, 5) for _ in range(m + 1)]
            rep = stability_report(db, alpha)
            assert rep.lower <= rep.p_norm * (1 + 1e-9)
            assert rep.p_norm <= rep.upper * (1 + 1e-9)

    _verdict(7, "operator reports: reproduction, norm bound, error bounds, stability", check)


def test_acceptance_8_generalized_functional_rate():
    def check():
        # exact on affine inputs once the probe clears the first node (the
        # weight of the linear coefficient is then the probe point itself)
        p1 = power_to_bform([F(3), F(2)], 8)
        for x in (F(1, 4), F(1, 2), F(3, 4)):
            assert generalized_dual_apply(8, x, p1) == 3 + 2 * x

        # degree-4 polynomial, exact rational errors E(n) = |probe - value|:
        # doubling n halves the error
        p = power_to_bform([F(1), F(-2), F(0), F(3), F(1, 2)], 4)
        exact = {x: 1 - 2 * x + 3 * x**3 + F(1, 2) * x**4 for x in (F(1, 4), F(1, 2), F(3, 4))}
        for x, px in exact.items():
            errs = []
            for n in (625, 1250, 2500, 5000, 10000):
                q = power_to_bform([F(1), F(-2), F(0), F(3), F(1, 2)], n)
                errs.append(abs(generalized_dual_apply(n, x, q) - px))
            assert all(e > 0 for e in errs)
            for e_n, e_2n in zip(errs, errs[1:]):
                ratio = e_n / e_2n
                assert F(8, 5) <= ratio <= F(12, 5)  # 1.6 .. 2.4, exactly evaluated

    _verdict(8, "point-probe functionals converge at first order in degree", check)
