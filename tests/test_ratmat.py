import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualbern.bernstein import elevation_matrix
from dualbern.ratmat import (
    Mat,
    SingularMatrixError,
    binomial,
    inf_norm,
    is_inverse,
    is_row_affine,
    mat_from_json_obj,
    mat_inv,
    mat_mul,
    mat_sub,
    mat_to_json_obj,
    row_select,
    transpose,
)


def test_binomial_values():
    assert binomial(4, 2) == 6
    assert binomial(5, 0) == 1
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0
    assert isinstance(binomial(4, 2), F)


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_mat_construction_and_access():
    a = Mat([[1, "1/2"], [F(3, 4), 0]])
    assert (a.rows, a.cols) == (2, 2)
    assert a[0, 1] == F(1, 2)
    assert a.entries == (F(1), F(1, 2), F(3, 4), F(0))
    assert a.row(1) == (F(3, 4), F(0))
    assert a.col(0) == (F(1), F(3, 4))


def test_mat_rejects_ragged_and_float():
    with pytest.raises(ValueError):
        Mat([[1, 2], [3]])
    with pytest.raises(TypeError):
        Mat([[0.5]])


def test_mat_mul_identity_and_golden():
    m = Mat([[1, 2], [3, 4], [5, 6]])
    assert mat_mul(Mat.identity(3), m) == m
    # hand multiplication: [[1,0],[1/2,1/2]] x [[1,0],[-1,2]] = I
    a = Mat([[1, 0], ["1/2", "1/2"]])
    b = Mat([[1, 0], [-1, 2]])
    assert mat_mul(a, b) == Mat.identity(2)


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_mul(Mat([[1, 2]]), Mat([[1, 2]]))


def test_mat_inv_golden_and_roundtrip():
    a = Mat([[1, 0], ["1/2", "1/2"]])
    assert mat_inv(a) == Mat([[1, 0], [-1, 2]])
    assert mat_inv(Mat.identity(4)) == Mat.identity(4)
    assert mat_mul(a, mat_inv(a)) == Mat.identity(2)


def test_mat_inv_singular():
    with pytest.raises(SingularMatrixError):
        mat_inv(Mat([[1, 2], [2, 4]]))


def test_row_select():
    e = elevation_matrix(1, 2)
    assert row_select(e, (0, 2)) == Mat.identity(2)
    assert row_select(e, (0, 1)) == Mat([[1, 0], ["1/2", "1/2"]])
    sq = Mat([[1, 2], [3, 4]])
    assert row_select(sq, (0, 1)) == sq
    with pytest.raises(IndexError):
        row_select(sq, (0, 5))


def test_inf_norm():
    assert inf_norm(Mat.identity(3)) == 1
    a = Mat([[1, 0, 0], ["-1/4", "6/4", "-1/4"], [0, 0, 1]])
    assert inf_norm(a) == 2
    assert inf_norm(Mat.zero(2, 3)) == 0


def test_inf_norm_is_the_abs_row_sum():
    rng = random.Random(20261018)
    for _ in range(200):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        a = Mat(
            [[F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) if rng.random() < 0.8 else 0
              for _ in range(cols)] for _ in range(rows)]
        )
        got = inf_norm(a)
        assert got == max(sum(abs(x) for x in a.row(i)) for i in range(rows))
        assert isinstance(got, F)


def test_inf_norm_memo_is_invisible_to_eq_and_hash():
    rows = [[1, "-1/3"], ["5/2", 0]]
    a, b = Mat(rows), Mat(rows)
    assert inf_norm(a) == F(5, 2)
    assert inf_norm(a) == F(5, 2)  # read back from the memo
    assert a == b and b == a
    assert hash(a) == hash(b)
    assert {a: "a"}[b] == "a"
    assert a != Mat([[1, "-1/3"], ["5/2", 1]])
    assert inf_norm(b) == inf_norm(a)


def test_is_inverse_is_the_product_check():
    rng = random.Random(20261018)

    def rand_mat(n):
        return Mat([[F(rng.randint(-50, 50), rng.randint(1, 30)) if rng.random() < 0.7 else 0
                     for _ in range(n)] for _ in range(n)])

    def nudged(a):
        rows = a.to_lists()
        rows[rng.randrange(a.rows)][rng.randrange(a.cols)] += F(1, rng.randint(1, 10**6))
        return Mat(rows)

    verdicts = []
    for _ in range(150):
        n = rng.randint(1, 6)
        a = rand_mat(n)
        try:
            b = mat_inv(a)
        except SingularMatrixError:
            continue
        for x, y in [(a, b), (b, a), (nudged(a), b), (a, nudged(b)), (a, rand_mat(n)),
                     (Mat.identity(n), Mat.identity(n))]:
            got = is_inverse(x, y)
            assert got == (mat_mul(x, y) == Mat.identity(n)), (x, y)
            verdicts.append(got)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100
    for (r1, c1), (r2, c2) in [((2, 3), (3, 2)), ((3, 2), (2, 3)), ((2, 2), (3, 3)),
                               ((2, 2), (2, 3)), ((3, 3), (3, 2))]:
        with pytest.raises(ValueError, match="is_inverse needs n x n matrices"):
            is_inverse(Mat.zero(r1, c1), Mat.zero(r2, c2))


def test_is_row_affine():
    assert is_row_affine(elevation_matrix(2, 4))
    assert is_row_affine(Mat.identity(5))
    assert not is_row_affine(Mat([[1, 1], [0, 1]]))


def test_json_roundtrip():
    a = Mat([[F(-3, 7), 2], [0, F(5)]])
    obj = mat_to_json_obj(a)
    assert obj == {"rows": 2, "cols": 2, "entries": ["-3/7", "2", "0", "5"]}
    assert mat_from_json_obj(obj) == a
    with pytest.raises(ValueError):
        mat_from_json_obj({"rows": 2, "cols": 2, "entries": ["1"]})


# ---------------------------------------------------------------------------
# property-based checks

fracs = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def square(n):
    return st.lists(st.lists(fracs, min_size=n, max_size=n), min_size=n, max_size=n).map(Mat)


def row_affine_square(n):
    # free first n-1 entries per row; last entry completes the sum to 1
    def fix(rows):
        return Mat([row[:-1] + [1 - sum(row[:-1])] for row in rows])

    return st.lists(st.lists(fracs, min_size=n, max_size=n), min_size=n, max_size=n).map(fix)


@given(st.integers(2, 4).flatmap(lambda n: st.tuples(square(n), square(n), square(n))))
@settings(max_examples=40, deadline=None)
def test_mat_mul_associative(abc):
    a, b, c = abc
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


@given(st.integers(2, 5).flatmap(lambda n: st.tuples(row_affine_square(n), row_affine_square(n))))
@settings(max_examples=40, deadline=None)
def test_row_affine_closed_under_product(ab):
    a, b = ab
    assert is_row_affine(mat_mul(a, b))


@given(st.integers(2, 5).flatmap(row_affine_square))
@settings(max_examples=40, deadline=None)
def test_row_affine_inverse_and_involution(a):
    try:
        inv = mat_inv(a)
    except SingularMatrixError:
        assume(False)
    assert is_row_affine(inv)
    assert mat_inv(inv) == a
    assert mat_mul(a, inv) == Mat.identity(a.rows)


@given(st.integers(2, 4).flatmap(lambda n: st.tuples(square(n), square(n))))
@settings(max_examples=25, deadline=None)
def test_sub_and_transpose_consistency(ab):
    a, b = ab
    assert mat_sub(a, a) == Mat.zero(a.rows, a.cols)
    assert transpose(transpose(a)) == a
    assert transpose(mat_mul(a, b)) == mat_mul(transpose(b), transpose(a))
