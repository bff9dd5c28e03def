import dataclasses
import math
import random
import re
from fractions import Fraction as F
from itertools import combinations, permutations, product

import numpy as np
import pytest
from oracle import is_row_affine, left_functionals, mat_inv, mat_mul, right_functionals, row_select

from dualbern.bernstein import (
    BPoly,
    Interval,
    bernstein_value,
    collocation_matrix,
    de_casteljau_eval,
    dual_functional_apply,
    elevation_matrix,
    generalized_dual_apply,
    power_to_bform,
    xi_nodes,
)
from dualbern.ratmat import Mat, SingularMatrixError
from dualbern.subspace import (
    DualBasis,
    Embedding,
    IndexOutOfRangeError,
    NotInjectiveError,
    SelectionError,
    SelectionMap,
    WrongLengthError,
    bernstein_embedding,
    dual_basis,
    dual_basis_eval,
    is_complete,
    linear_precision_check,
    make_selection,
    power_embedding,
    verify_duality,
)
from dualbern.symmetric import SymmetricConfig


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
    # a non-integral index is an error, not truncated to another index; ints,
    # bools and numpy integers pass through operator.index
    for bad in (2.7, 2.0, "2", F(2)):
        message = f"^selection index {re.escape(repr(bad))} is not an integer$"
        with pytest.raises(SelectionError, match=message):
            make_selection(2, 4, (0, bad, 4))
    assert make_selection(2, 4, (0, True, np.int64(4))).indices == (0, 1, 4)
    assert all(type(i) is int for i in make_selection(2, 4, (np.int32(0), True, 4)))
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
    # every increasing selection with m <= n <= 8
    cases = [(m, n, sel) for n in range(9) for m in range(n + 1)
             for sel in combinations(range(n + 1), m + 1)]
    assert len(cases) == 1013  # m = 0 included
    cases += [(n, n, tuple(rng.sample(range(n + 1), n + 1))) for n in range(1, 9)]  # m = n
    for _ in range(40):  # permuted (unsorted) selections
        n = rng.randint(1, 12)
        m = rng.randint(1, n)
        cases.append((m, n, tuple(rng.sample(range(n + 1), m + 1))))
    for m, k in ((12, 16), (20, 20)):  # the symmetric selections s(i) = i k
        cases.append((m, m * k, tuple(i * k for i in range(m + 1))))
    for m, n in ((12, 40), (20, 400)):
        cases.append((m, n, tuple(sorted(rng.sample(range(n + 1), m + 1)))))
    for m in range(9, 15):  # past the sweep: n = m+1 and n = 2m, with indices in [n-m, m],
        for n in (m + 1, 2 * m):  # whose quotient runs both up and down
            inner = rng.sample(range(n - m, m + 1), min(3, 2 * m - n + 1))
            rest = rng.sample([k for k in range(n + 1) if k not in inner], m + 1 - len(inner))
            cases.append((m, n, tuple(rng.sample(inner + rest, m + 1))))
    cases += [(m, m, tuple(rng.sample(range(m + 1), m + 1))) for m in range(9, 13)]  # E = I
    for m, n, sel in cases:
        emb = bernstein_embedding(m, n)
        s = make_selection(m, n, sel)
        assert dual_basis(emb, s).A == mat_inv(row_select(elevation_matrix(m, n), s)), (m, n, sel)


def test_symmetric_selections_build_the_oracle_inverse():
    # s(i) + s(m-i) = n in the given order: the kernel builds half the columns and
    # reverses them; the result is still the inverse of E(s,:)
    rng = random.Random(20261019)
    cases = [(m, m * k, tuple(range(0, m * k + 1, k))) for m in range(7) for k in (1, 2, 5)]
    for m in range(9):  # non-uniform symmetric selections, m odd and even, m = 0 and 1
        for n in (2 * m, 2 * m + 1, 3 * m + 4, 40):
            half = sorted(rng.sample(range((n + 1) // 2), (m + 1) // 2))
            if m % 2 == 0:  # the middle index is n / 2, so n is even
                n += n % 2
                half.append(n // 2)
            sel = tuple(half) + tuple(n - x for x in reversed(half[:(m + 1) // 2]))
            cases += [(m, n, sel), (m, n, sel[::-1])]  # and in reversed order
    for m, n, sel in cases:
        assert len(sel) == m + 1 and all(sel[i] + sel[m - i] == n for i in range(m + 1)), sel
        emb = bernstein_embedding(m, n)
        db = dual_basis(emb, make_selection(m, n, sel))
        assert db.A == mat_inv(row_select(elevation_matrix(m, n), sel)), (m, n, sel)
        assert verify_duality(db)
    # a repeated index names the first index that repeats, symmetric or not
    for sel, first in (((2, 2, 2), 2), ((1, 3, 1, 3), 1), ((0, 2, 2, 4), 2), ((0, 3, 3), 3)):
        with pytest.raises(SingularMatrixError, match=f"^singular matrix: selection index {first} repeats$"):
            dual_basis(bernstein_embedding(len(sel) - 1, 4), SelectionMap(len(sel) - 1, 4, sel))


def test_dual_basis_is_the_bernstein_operator_on_the_lagrange_basis():
    # D_i^m = B_n[l_i(n .)]: the degree-n B-form E A of D_i holds l_i(k) at
    # every k = 0..n, not only at the selected k; l_i(k) = N_i(k) / D_i with
    # N_i(x) = prod_{r != i} (x - s(r)) and D_i = N_i(s(i)), and the check runs
    # on integers: E C(n, m) and A den are integer matrices
    rng = random.Random(20261022)
    cases = []
    for _ in range(300):  # unsorted selections
        m = rng.randint(0, 8)
        n = rng.randint(m, m + 20)
        cases.append((m, n, tuple(rng.sample(range(n + 1), m + 1))))
    cases += [(m, m * k, SymmetricConfig(m, k).selection().indices)
              for m in range(1, 9) for k in (1, 2, 3, 5, 8)]
    for m, n, sel in cases:
        A = dual_basis(bernstein_embedding(m, n), make_selection(m, n, sel)).A
        den = math.lcm(*(x.denominator for x in A.entries))
        a = [[int(x * den) for x in A.row(j)] for j in range(m + 1)]
        e = [[math.comb(n - k, m - j) * math.comb(k, j) for j in range(m + 1)] for k in range(n + 1)]
        scale = math.comb(n, m) * den
        for i, si in enumerate(sel):
            d_i = math.prod(si - r for r in sel if r != si)
            for k in range(n + 1):
                n_ik = math.prod(k - r for r in sel if r != si)
                assert sum(x * y[i] for x, y in zip(e[k], a)) * d_i == n_ik * scale, (m, n, sel, i, k)


def test_closed_form_dual_rejects_what_gauss_jordan_rejects():
    # a SelectionMap built without make_selection: a repeated index makes
    # E(s,:) singular, an index past n has no row
    emb = bernstein_embedding(2, 4)
    with pytest.raises(SingularMatrixError):
        dual_basis(emb, SelectionMap(2, 4, (0, 3, 3)))
    # at n = m (E = I) too, before the permutation is built
    with pytest.raises(SingularMatrixError, match="^singular matrix: selection index 2 repeats$"):
        dual_basis(bernstein_embedding(2, 2), SelectionMap(2, 2, (2, 2, 2)))
    # a symmetric selection (s(i) + s(m-i) = n) forms only its first m/2 + 1
    # node denominators; its first repeated index lies among them
    for m, n, sel, first in [(4, 8, (2, 6, 4, 2, 6), 2), (3, 4, (1, 1, 3, 3), 1),
                             (4, 8, (0, 4, 4, 4, 8), 4), (5, 9, (0, 4, 5, 4, 5, 9), 4)]:
        with pytest.raises(SingularMatrixError, match=f"^singular matrix: selection index {first} repeats$"):
            dual_basis(bernstein_embedding(m, n), SelectionMap(m, n, sel))
    with pytest.raises(IndexError):
        dual_basis(emb, SelectionMap(2, 4, (0, 3, 5)))
    # the power kind too: an index past n has no row, not a zero row
    with pytest.raises(IndexError):
        dual_basis(power_embedding(2, 4), SelectionMap(2, 4, (0, 1, 5)))


@pytest.mark.parametrize("embedding", [bernstein_embedding, power_embedding])
@pytest.mark.parametrize("m, n, sel", [(2, 5, (0, 1, 3, 4)), (2, 4, (0, 4)), (2, 5, (0, 1))])
def test_dual_basis_rejects_a_selection_of_the_wrong_length(embedding, m, n, sel):
    # a SelectionMap built without make_selection: one index too many, one
    # too few, and one too few where the power kind would find no pivot
    with pytest.raises(WrongLengthError) as expected:
        make_selection(m, n, sel)
    with pytest.raises(WrongLengthError) as caught:
        dual_basis(embedding(m, n), SelectionMap(m, n, sel))
    assert str(caught.value) == str(expected.value) == f"selection needs {m + 1} indices, got {len(sel)}"


def test_power_dual_basis_matches_gauss_jordan():
    # the closed form (A = E(s,:)^T, or the first column missing from s) against
    # elimination on E(s,:): every ordered selection with n <= 5, and with n <= 3
    # every index tuple, repeats included (a SelectionMap not from make_selection)
    cases = [(m, n, sel) for n in range(6) for m in range(n + 1)
             for sel in permutations(range(n + 1), m + 1)]
    cases += [(m, n, sel) for n in range(4) for m in range(n + 1)
              for sel in product(range(n + 1), repeat=m + 1) if len(set(sel)) <= m]
    singular = 0
    for m, n, sel in cases:
        emb = power_embedding(m, n)
        try:
            want = mat_inv(emb.rows(sel))
        except SingularMatrixError as exc:
            with pytest.raises(SingularMatrixError, match=f"^{re.escape(str(exc))}$"):
                dual_basis(emb, SelectionMap(m, n, sel))
            singular += 1
            continue
        db = dual_basis(emb, SelectionMap(m, n, sel))
        assert db.A == want, (m, n, sel)
        assert verify_duality(db)
    assert (len(cases), singular) == (2667, 1595)
    # an index past n has no row, before any singularity is found
    with pytest.raises(IndexError, match="row index 5 out of range for 5-row matrix"):
        dual_basis(power_embedding(2, 4), SelectionMap(2, 4, (3, 4, 5)))


def test_power_embedding_singular_selection():
    emb = power_embedding(2, 4)
    with pytest.raises(SingularMatrixError):
        dual_basis(emb, make_selection(2, 4, (0, 1, 3)))


def test_power_embedding_leading_selection_works():
    emb = power_embedding(2, 4)
    db = dual_basis(emb, make_selection(2, 4, (0, 1, 2)))
    assert mat_mul(emb.rows((0, 1, 2)), db.A) == Mat.identity(3)
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


def test_dual_basis_eval_is_de_casteljau_on_a_column_at_exact_points():
    # column i of A holds the B-form coefficients of D_i^m: at an exact point the
    # basis sum and de Casteljau on that column are the same Fraction
    rng = random.Random(28)
    for m in range(13):
        n = m + 3
        db0 = dual_basis(bernstein_embedding(m, n), make_selection(m, n, rng.sample(range(n + 1), m + 1)))
        for iv in (Interval(0, 1), Interval(F(1, 3), F(5, 2))):
            db = dataclasses.replace(db0, interval=iv)
            for t in (iv.a, iv.a + iv.width * F(2, 7), iv.b):
                for i in range(m + 1):
                    got = dual_basis_eval(db, i, t)
                    assert type(got) is F and got == de_casteljau_eval(BPoly(m, iv, db.A.col(i)), t)


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


def test_embedding_checks_its_degrees_on_construction():
    # the constructor checks what the factories check, so neither rows nor
    # is_complete ever sees m > n or a negative degree
    for make, msg in [
        (lambda: Embedding("bernstein", 5, 3), "elevation needs m <= n, got m=5 n=3"),
        (lambda: is_complete(Embedding("bernstein", 5, 3)), "elevation needs m <= n, got m=5 n=3"),
        (lambda: Embedding("power", 5, 3), "embedding needs m <= n, got m=5 n=3"),
        (lambda: Embedding("bernstein", -1, 3), "degrees must be nonnegative"),
        (lambda: Embedding("power", -1, 3), "degrees must be nonnegative"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            make()


def test_embedding_kind_is_bernstein_or_power():
    # only these two kinds have a row formula; any other is refused, not read
    # as the power basis
    for kind in ("Bernstein", "", "Power"):
        msg = f"embedding kind must be 'bernstein' or 'power', got {kind!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            Embedding(kind, 2, 4)
    # verify_duality rebuilds the embedding from the basis's kind
    sel = make_selection(2, 4, (0, 1, 2))
    db = dual_basis(power_embedding(2, 4), sel)
    with pytest.raises(ValueError, match="got 'Power'$"):
        verify_duality(DualBasis(db.m, db.n, db.s, db.A, db.interval, kind="Power"))
    # the two real kinds are unchanged
    for kind, factory, complete in [("bernstein", bernstein_embedding, True),
                                    ("power", power_embedding, False)]:
        emb = Embedding(kind, 2, 4)
        assert emb == factory(2, 4) and is_complete(emb) is complete
        assert emb.rows(sel) == row_select(emb.rows(range(5)), sel)
        db = dual_basis(emb, sel)
        assert db.kind == kind and verify_duality(db)
    assert Embedding("bernstein", 2, 4).rows(sel) == row_select(elevation_matrix(2, 4), sel)
    assert Embedding("power", 2, 4).rows(sel) == Mat.identity(3)


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
            e = elevation_matrix(m, n)
            scale = F(math.prod(math.comb(m, j) for j in range(m + 1)),
                      math.prod(math.perm(n, j) for j in range(m + 1)))
            for s in combinations(range(n + 1), m + 1):
                vandermonde = math.prod(s[r] - s[i] for r in range(m + 1) for i in range(r))
                assert _det(row_select(e, s).to_lists()) == vandermonde * scale, (m, n, s)
                checked += 1
    assert checked == 1012


def test_linear_precision():
    emb = bernstein_embedding(3, 4)
    db = dual_basis(emb, make_selection(3, 4, (0, 1, 3, 4)))
    assert linear_precision_check(db) <= 1e-12
    assert linear_precision_check(db) == 0.0  # exact interval: exact reproduction
    # off the unit interval too
    db2 = dual_basis(emb, make_selection(3, 4, (0, 1, 3, 4)), Interval(F(1), F(3)))
    assert linear_precision_check(db2) <= 1e-12
    # a degree-0 basis cannot reproduce t: the message names m, where it used
    # to come from xi_nodes(0) and name an n
    with pytest.raises(ValueError, match=r"^linear precision needs m >= 1 \(nodes i/m\), got m=0$"):
        linear_precision_check(dual_basis(bernstein_embedding(0, 2), make_selection(0, 2, (1,))))


def test_power_kind_basis_is_not_read_as_a_b_form():
    # D = Phi^m A with Phi the power basis, so A . v holds power coefficients:
    # bform([0, 1, 0]) read them as 2u(1-u), 3/8 at u = 1/4, where D_1 = u
    db = dual_basis(power_embedding(2, 4), make_selection(2, 4, (0, 1, 2)))
    with pytest.raises(ValueError, match="Bernstein"):
        db.bform([0, 1, 0])
    with pytest.raises(ValueError, match="Bernstein"):
        linear_precision_check(db)
    bern = dual_basis(bernstein_embedding(2, 4), make_selection(2, 4, (0, 1, 2)))
    assert bern.bform([0, 1, 0]).coeffs == bern.A.col(1)


def test_selection_permutation_permutes_columns():
    # reordering the selection indices permutes the dual elements, nothing more
    emb = bernstein_embedding(2, 5)
    a = dual_basis(emb, make_selection(2, 5, (0, 2, 5))).A
    b = dual_basis(emb, make_selection(2, 5, (5, 0, 2))).A
    for j, idx in enumerate((5, 0, 2)):
        assert b.col(j) == a.col((0, 2, 5).index(idx))


def test_dual_basis_rows_affine():
    for m, n, s in [(1, 4, (0, 4)), (2, 6, (1, 3, 5)), (3, 6, (0, 2, 4, 6))]:
        emb = bernstein_embedding(m, n)
        db = dual_basis(emb, make_selection(m, n, s))
        assert is_row_affine(db.A)


def _fraction_duality_check(db):
    """The Bernstein duality check in Fractions: lambda_{s(i)}^n of each column
    of A by both power-form readings of the oracle, against the identity."""
    delta = [[int(i == j) for i in range(db.m + 1)] for j in range(db.m + 1)]
    return all(
        read(db.n, db.s, db.A.col(j)) == delta[j]
        for j in range(db.m + 1)
        for read in (left_functionals, right_functionals)
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


def test_embedding_rows_are_rows_of_E():
    # E itself is rows(0..n): the elevation matrix, or the identity block I(:, 0:m)
    assert bernstein_embedding(12, 400).rows(range(401)) == elevation_matrix(12, 400)
    identity_block = Mat([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0]])
    assert power_embedding(2, 4).rows(range(5)) == identity_block
    # rows(s) builds E(s,:) alone, for permuted selections of both kinds
    rng = random.Random(9)
    for factory in (bernstein_embedding, power_embedding):
        for m, n in [(0, 3), (1, 1), (2, 4), (3, 7), (5, 9), (6, 6)]:
            if factory is bernstein_embedding:
                e = elevation_matrix(m, n)
            else:
                e = Mat([[int(k == j) for j in range(m + 1)] for k in range(n + 1)])
            sel = tuple(rng.sample(range(n + 1), m + 1))
            assert factory(m, n).rows(sel) == row_select(e, sel), (factory, m, n, sel)
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


_P = power_to_bform([1, 2], 3)


_DB = dual_basis(bernstein_embedding(3, 3), make_selection(3, 3, (0, 1, 2, 3)))


@pytest.mark.parametrize("name, call", [
    pytest.param("m", lambda d: bernstein_embedding(d, 3), id="bernstein_embedding-m"),
    pytest.param("n", lambda d: bernstein_embedding(1, d), id="bernstein_embedding-n"),
    pytest.param("m", lambda d: power_embedding(d, 3), id="power_embedding-m"),
    pytest.param("m", lambda d: make_selection(d, 3, (0, 1, 2, 3)), id="make_selection-m"),
    pytest.param("n", lambda d: make_selection(1, d, (0, 3)), id="make_selection-n"),
    pytest.param("m", lambda d: elevation_matrix(d, 3), id="elevation_matrix-m"),
    pytest.param("n", lambda d: elevation_matrix(1, d), id="elevation_matrix-n"),
    pytest.param("n", xi_nodes, id="xi_nodes"),
    pytest.param("n", collocation_matrix, id="collocation_matrix"),
    pytest.param("n", lambda d: power_to_bform([1, 2], d), id="power_to_bform"),
    pytest.param("n", lambda d: dual_functional_apply(d, 1, _P), id="dual_functional_apply"),
    pytest.param("k", lambda d: dual_functional_apply(3, d, _P), id="dual_functional_apply-k"),
    pytest.param("n", lambda d: generalized_dual_apply(d, F(1, 2), _P), id="generalized_dual_apply"),
    pytest.param("degree", lambda d: BPoly(d, Interval(0, 1), (1, 2, 3, 4)), id="BPoly"),
    pytest.param("m", lambda d: bernstein_value(d, 1, F(1, 2)), id="bernstein_value-m"),
    pytest.param("i", lambda d: bernstein_value(3, d, F(1, 2)), id="bernstein_value-i"),
    pytest.param("i", lambda d: dual_basis_eval(_DB, d, F(1, 2)), id="dual_basis_eval-i"),
])
def test_degrees_are_integers(name, call):
    # degrees and indices go through operator.index: a float or a str is one
    # ValueError naming it, and a numpy integer is taken and kept as an int
    for bad in (1.0, "3"):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(bad))}$"):
            call(bad)
    out = call(np.int64(3))
    for field in ("m", "n", "degree"):  # kept as ints
        assert type(getattr(out, field, 0)) is int
