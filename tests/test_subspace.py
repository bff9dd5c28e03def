import dataclasses
import math
import random
import re
from fractions import Fraction as F
from itertools import combinations

import pytest

from dualbern.bernstein import (
    BPoly,
    Interval,
    _ratio_sum,
    bernstein_value,
    bform_to_power,
    elevation_matrix,
)
from dualbern.ratmat import Mat, SingularMatrixError, mat_inv, mat_mul, row_select
from dualbern.subspace import (
    IndexOutOfRangeError,
    NotInjectiveError,
    SelectionError,
    SelectionMap,
    WrongLengthError,
    bernstein_embedding,
    data_map_invariance_check,
    dual_basis,
    dual_basis_eval,
    is_complete,
    linear_precision_check,
    make_selection,
    power_embedding,
    verify_duality,
)


def test_make_selection_valid():
    s = make_selection(2, 6, (0, 3, 6))
    assert (s.m, s.n) == (2, 6)
    assert tuple(s) == (0, 3, 6)


def test_make_selection_errors():
    with pytest.raises(WrongLengthError):
        make_selection(2, 6, (0, 3))
    with pytest.raises(IndexOutOfRangeError):
        make_selection(2, 6, (0, 3, 7))
    with pytest.raises(NotInjectiveError):
        make_selection(2, 6, (0, 3, 3))
    # all three are SelectionError (and ValueError) subclasses
    assert issubclass(WrongLengthError, SelectionError)
    assert issubclass(SelectionError, ValueError)


def test_dual_basis_golden_small():
    emb = bernstein_embedding(1, 2)
    db = dual_basis(emb, make_selection(1, 2, (0, 1)))
    assert db.A == Mat([[1, 0], [-1, 2]])


def test_dual_basis_trivial_selection_is_identity():
    for m in (1, 2, 3):
        emb = bernstein_embedding(m, m)
        db = dual_basis(emb, make_selection(m, m, tuple(range(m + 1))))
        assert db.A == Mat.identity(m + 1)


def test_closed_form_dual_matches_gauss_jordan():
    rng = random.Random(20261018)
    cases = [(0, n, (k,)) for n in (0, 1, 5) for k in (0, n)]  # m = 0
    cases += [(n, n, tuple(rng.sample(range(n + 1), n + 1))) for n in range(1, 9)]  # m = n
    for _ in range(40):  # permuted (unsorted) selections
        n = rng.randint(1, 12)
        m = rng.randint(1, n)
        cases.append((m, n, tuple(rng.sample(range(n + 1), m + 1))))
    for m, k in ((12, 16), (20, 20)):  # the symmetric selections s(i) = i k
        cases.append((m, m * k, tuple(i * k for i in range(m + 1))))
    for m, n in ((12, 40), (20, 400)):
        cases.append((m, n, tuple(sorted(rng.sample(range(n + 1), m + 1)))))
    for m, n, sel in cases:
        emb = bernstein_embedding(m, n)
        s = make_selection(m, n, sel)
        assert dual_basis(emb, s).A == mat_inv(row_select(emb.E, s)), (m, n, sel)


def test_closed_form_dual_rejects_what_gauss_jordan_rejects():
    # a SelectionMap built without make_selection: a repeated index makes
    # E(s,:) singular, an index past n has no row
    emb = bernstein_embedding(2, 4)
    with pytest.raises(SingularMatrixError):
        dual_basis(emb, SelectionMap(2, 4, (0, 3, 3)))
    with pytest.raises(IndexError):
        dual_basis(emb, SelectionMap(2, 4, (0, 3, 5)))
    # the power kind too: an index past n has no row, not a zero row
    with pytest.raises(IndexError):
        dual_basis(power_embedding(2, 4), SelectionMap(2, 4, (0, 1, 5)))


def test_power_embedding_singular_selection():
    emb = power_embedding(2, 4)
    with pytest.raises(SingularMatrixError):
        dual_basis(emb, make_selection(2, 4, (0, 1, 3)))


def test_power_embedding_leading_selection_works():
    emb = power_embedding(2, 4)
    db = dual_basis(emb, make_selection(2, 4, (0, 1, 2)))
    assert mat_mul(row_select(emb.E, (0, 1, 2)), db.A) == Mat.identity(3)
    assert verify_duality(db)


def test_dual_basis_eval():
    emb = bernstein_embedding(1, 2)
    db = dual_basis(emb, make_selection(1, 2, (0, 1)))
    # D_0 = B_0^2 - B_1^2 + ... with A = [[1,0],[-1,2]]: column 0 gives
    # coefficients (1, -1) over the degree-2 basis
    assert dual_basis_eval(db, 0, F(1, 4)) == F(1, 2)
    # the dual system still sums to one wherever the embedding does
    for j in range(21):
        t = j / 20
        total = sum(dual_basis_eval(db, i, t) for i in range(2))
        assert abs(total - 1.0) <= 1e-12


def test_dual_basis_eval_degenerate_is_bernstein():
    emb = bernstein_embedding(2, 2)
    db = dual_basis(emb, make_selection(2, 2, (0, 1, 2)))
    for i in range(3):
        assert dual_basis_eval(db, i, F(2, 5)) == bernstein_value(2, i, F(2, 5))


def test_dual_basis_eval_rejects_power_kind():
    emb = power_embedding(1, 3)
    db = dual_basis(emb, make_selection(1, 3, (0, 1)))
    with pytest.raises(ValueError):
        dual_basis_eval(db, 0, F(1, 2))


def test_verify_duality_and_perturbation():
    for m, n, s in [(1, 3, (1, 2)), (2, 4, (0, 2, 4)), (3, 5, (0, 1, 4, 5)), (4, 8, (0, 2, 4, 6, 8))]:
        emb = bernstein_embedding(m, n)
        db = dual_basis(emb, make_selection(m, n, s))
        assert verify_duality(db)
        # breaking one entry must break duality
        rows = [list(db.A.row(i)) for i in range(m + 1)]
        rows[0][0] += F(1, 7)
        bad = db.__class__(db.m, db.n, db.s, Mat(rows), db.interval, db.kind)
        assert not verify_duality(bad)
    # the power branch rejects a perturbed A as well
    db = dual_basis(power_embedding(2, 4), make_selection(2, 4, (2, 0, 1)))
    assert verify_duality(db)
    rows = [list(db.A.row(i)) for i in range(3)]
    rows[1][2] += F(1, 7)
    bad = db.__class__(db.m, db.n, db.s, Mat(rows), db.interval, db.kind)
    assert not verify_duality(bad)
    # an A of the wrong shape is an error for both kinds, even when it holds
    # the true A in its top-left block
    for emb, sel in [(bernstein_embedding(1, 3), (1, 2)), (bernstein_embedding(2, 4), (0, 2, 4)),
                     (power_embedding(1, 3), (1, 0)), (power_embedding(2, 4), (2, 0, 1))]:
        db = dual_basis(emb, make_selection(emb.m, emb.n, sel))
        size = emb.m + 1
        grown = Mat([[*db.A.row(i), 0] for i in range(size)] + [[0] * size + [1]])
        shrunk = Mat([db.A.row(i)[:-1] for i in range(size - 1)])
        for a in (grown, shrunk):
            with pytest.raises(ValueError, match="n x n"):
                verify_duality(dataclasses.replace(db, A=a))


def test_is_complete():
    assert is_complete(bernstein_embedding(2, 6))
    assert is_complete(bernstein_embedding(3, 3))
    assert not is_complete(power_embedding(2, 4))
    assert is_complete(power_embedding(3, 3))
    # completeness is a theorem, so there is no size cap
    assert is_complete(bernstein_embedding(2, 13))
    assert is_complete(bernstein_embedding(20, 400))
    assert not is_complete(power_embedding(20, 400))


def _det(rows):
    """Exact determinant by Fraction elimination with row swaps."""
    a, det = [list(map(F, row)) for row in rows], F(1)
    for c in range(len(a)):
        p = next((r for r in range(c, len(a)) if a[r][c]), None)
        if p is None:
            return F(0)
        if p != c:
            a[c], a[p], det = a[p], a[c], -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            a[r] = [x - a[r][c] / a[c][c] * y for x, y in zip(a[r], a[c])]
    return det


def test_elevation_minor_determinant():
    # det E(s,:) = prod_{i<r} (s_r - s_i) * prod_j C(m, j) / prod_j (n)_j
    # for every increasing selection with n <= 8 (1012 of them)
    checked = 0
    for n in range(1, 9):
        for m in range(n + 1):
            e = bernstein_embedding(m, n).E
            scale = F(math.prod(math.comb(m, j) for j in range(m + 1)),
                      math.prod(math.perm(n, j) for j in range(m + 1)))
            for s in combinations(range(n + 1), m + 1):
                vandermonde = math.prod(s[r] - s[i] for r in range(m + 1) for i in range(r))
                assert _det(row_select(e, s).to_lists()) == vandermonde * scale, (m, n, s)
                checked += 1
    assert checked == 1012


def test_data_map_invariance():
    assert data_map_invariance_check(1, 2, (0, 1))
    assert data_map_invariance_check(2, 4, (0, 2, 4))
    assert data_map_invariance_check(3, 3, (0, 1, 2, 3))
    assert data_map_invariance_check(3, 7, (0, 2, 5, 7))
    # equal Grams mean equal dual bases only when s is a selection
    with pytest.raises(NotInjectiveError):
        data_map_invariance_check(1, 2, (0, 0))


def test_linear_precision():
    emb = bernstein_embedding(3, 4)
    db = dual_basis(emb, make_selection(3, 4, (0, 1, 3, 4)))
    assert linear_precision_check(db) <= 1e-12
    assert linear_precision_check(db) == 0.0  # exact interval: exact reproduction
    # off the unit interval too
    db2 = dual_basis(emb, make_selection(3, 4, (0, 1, 3, 4)), Interval(F(1), F(3)))
    assert linear_precision_check(db2) <= 1e-12


def test_selection_permutation_permutes_columns():
    # reordering the selection indices permutes the dual elements, nothing more
    emb = bernstein_embedding(2, 5)
    a = dual_basis(emb, make_selection(2, 5, (0, 2, 5))).A
    b = dual_basis(emb, make_selection(2, 5, (5, 0, 2))).A
    for j, idx in enumerate((5, 0, 2)):
        assert b.col(j) == a.col((0, 2, 5).index(idx))


def test_dual_basis_rows_affine():
    from dualbern.ratmat import is_row_affine

    for m, n, s in [(1, 4, (0, 4)), (2, 6, (1, 3, 5)), (3, 6, (0, 2, 4, 6))]:
        emb = bernstein_embedding(m, n)
        db = dual_basis(emb, make_selection(m, n, s))
        assert is_row_affine(db.A)


def _fraction_duality_check(db):
    """The Bernstein duality check in Fractions: each column of A to power
    form, then lambda_k^n by the running-ratio sum, against the identity."""
    powers = [bform_to_power(BPoly(db.m, db.interval, db.A.col(c))) for c in range(db.m + 1)]
    return all(
        _ratio_sum(db.n, F(k), c) == int(i == j)
        for i, k in enumerate(db.s)
        for j, c in enumerate(powers)
    )


def _nudged(db, rng):
    """db with one entry of A moved by 1/q, q random up to 10^6."""
    rows = db.A.to_lists()
    rows[rng.randrange(db.m + 1)][rng.randrange(db.m + 1)] += F(1, rng.randint(1, 10**6))
    return dataclasses.replace(db, A=Mat(rows))


def test_integer_duality_check_matches_the_fraction_check():
    rng = random.Random(8)
    cases = [(m, n, sel) for n in range(9) for m in range(n + 1)
             for sel in combinations(range(n + 1), m + 1)]
    assert len(cases) == 1013
    for m, n in [(12, 40), (20, 400)]:
        cases.append((m, n, tuple(round(i * n / m) for i in range(m + 1))))
        cases.append((m, n, tuple(rng.sample(range(n + 1), m + 1))))
    for m, n, sel in cases:
        db = dual_basis(bernstein_embedding(m, n), make_selection(m, n, sel))
        assert verify_duality(db) is _fraction_duality_check(db) is True, (m, n, sel)
        bad = _nudged(db, rng)
        assert verify_duality(bad) is _fraction_duality_check(bad) is False, (m, n, sel)


def test_embeddings_build_E_on_first_read():
    emb = bernstein_embedding(12, 400)
    assert "E" not in vars(emb)
    # the Bernstein dual basis and its check never read E
    db = dual_basis(emb, make_selection(12, 400, range(0, 361, 30)))
    assert verify_duality(db)
    assert "E" not in vars(emb)
    assert emb.E == elevation_matrix(12, 400)
    assert "E" in vars(emb)
    assert power_embedding(2, 4).E == Mat([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0]])
    # rows(s) builds E(s,:) alone, for permuted selections of both kinds
    rng = random.Random(9)
    for factory in (bernstein_embedding, power_embedding):
        for m, n in [(0, 3), (1, 1), (2, 4), (3, 7), (5, 9), (6, 6)]:
            emb = factory(m, n)
            sel = tuple(rng.sample(range(n + 1), m + 1))
            rows = emb.rows(sel)
            assert "E" not in vars(emb)
            assert rows == row_select(emb.E, sel), (factory, m, n, sel)
        for bad in (-1, 5):
            msg = f"row index {bad} out of range for 5-row matrix"
            with pytest.raises(IndexError, match=re.escape(msg)):
                factory(2, 4).rows((0, bad, 1))
    for factory, m, n, msg in [
        (bernstein_embedding, 5, 3, "elevation needs m <= n, got m=5 n=3"),
        (bernstein_embedding, -1, 3, "degrees must be nonnegative"),
        (power_embedding, 5, 3, "embedding needs m <= n, got m=5 n=3"),
        (power_embedding, -1, 3, "degrees must be nonnegative"),
    ]:
        with pytest.raises(ValueError, match=re.escape(msg)):
            factory(m, n)
