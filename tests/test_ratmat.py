import math
import random
from itertools import product
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle import (
    canonical_pair,
    is_row_affine,
    mat_from_json_obj,
    mat_inv,
    mat_mul,
    mat_sub,
    row_select,
    transpose,
)

from dualbern.bernstein import elevation_matrix
from dualbern.subspace import bernstein_embedding
from dualbern.symmetric import symmetric_dual_matrix
from dualbern.ratmat import (
    Mat,
    SingularMatrixError,
    _apply_rows,
    _float_rows,
    _from_common_denominator,
    inf_norm,
    is_inverse,
    mat_to_json_obj,
)


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


def _integer_cases(rng):
    """(rows, den) pairs: random shapes and signs, zero rows, negative and
    non-canonical denominators (a common factor on every numerator)."""
    for _ in range(120):
        r = rng.randint(1, 5)
        c = r if rng.random() < 0.5 else rng.randint(1, 5)
        nums = [[0] * c if rng.random() < 0.15 else
                [rng.randint(-10**5, 10**5) if rng.random() < 0.8 else 0 for _ in range(c)]
                for _ in range(r)]
        den = rng.choice([1, -1, 6, -12, rng.randint(-10**6, -1), rng.randint(1, 10**6), 3 * 2**70])
        f = rng.choice([1, 1, 2, -5, 2**40])
        yield [[f * x for x in row] for row in nums], f * den


def _views(nums, den):
    """Makers of one value: built from the integers or from Fractions, each
    fresh or after a memo has been filled (the Fraction view of the one, the
    norm of the other, whose Fractions are its input)."""
    def from_ints():
        return _from_common_denominator(nums, den)

    def from_fractions():
        return Mat([[F(x, den) for x in row] for row in nums])

    def ints_read():
        a = from_ints()
        a.entries
        return a

    def fractions_read():
        a = from_fractions()
        inf_norm(a)
        return a

    return from_ints, ints_read, from_fractions, fractions_read


def test_integer_and_fraction_views_agree():
    rng = random.Random(20261019)
    observers = {
        "==": lambda x, y: x == y and y == x and not x != y,
        "hash": lambda x, y: hash(x) == hash(y) and {x: 1}[y] == 1,
        "repr": lambda x, y: repr(x) == repr(y),
        "str": lambda x, y: [str(e) for e in x.entries] == [str(e) for e in y.entries],
        "inf_norm": lambda x, y: inf_norm(x) == inf_norm(y) and type(inf_norm(x)) is F,
    }
    for nums, den in _integer_cases(rng):
        want = [F(x, den) for row in nums for x in row]
        square = len(nums) == len(nums[0])
        if square:
            try:
                other = mat_inv(Mat([[F(x, den) for x in row] for row in nums]))
            except SingularMatrixError:
                other = Mat.identity(len(nums))
            observers["is_inverse"] = lambda x, y: (
                is_inverse(x, other) == is_inverse(y, other) == (mat_mul(x, other) == Mat.identity(x.rows))
                and is_inverse(other, x) == is_inverse(other, y))
        else:
            observers.pop("is_inverse", None)
        for name, observe in observers.items():
            for make_x in _views(nums, den):
                for make_y in _views(nums, den):
                    x, y = make_x(), make_y()
                    assert observe(x, y), (name, make_x.__name__, make_y.__name__, nums, den)
        a = _from_common_denominator(nums, den)
        sign = 1 if den > 0 else -1
        assert a._pair == (tuple(tuple(sign * x for x in row) for row in nums), abs(den))
        numer, canon = canonical_pair(a)
        assert canon > 0 and math.gcd(canon, *(x for row in numer for x in row)) == 1
        assert canon == math.lcm(*(x.denominator for x in want))  # the lcm of the reduced ones
        assert Mat([[F(x, den) for x in row] for row in nums])._pair == (numer, canon)
        assert a.entries == tuple(want) and (a.rows, a.cols) == (len(nums), len(nums[0]))
        if not square:
            for x in _views(nums, den):
                with pytest.raises(ValueError, match="is_inverse needs n x n matrices"):
                    is_inverse(x(), x())
    with pytest.raises(ZeroDivisionError):
        _from_common_denominator([[1]], 0)
    with pytest.raises(ValueError):
        _from_common_denominator([[1, 2], [3]], 1)


def test_value_readers_read_the_pair_as_handed_over():
    # a pair with a common factor g on den and every numerator against its
    # canonical twin (built from Fractions): construction keeps the pair, and
    # every value reader gives the twin's result bit for bit, both before and
    # after == and hash have read the matrix, which leave the pair as it was
    rng = random.Random(20261020)

    def floats(c):
        return [rng.choice(_FLOATS) if rng.random() < 0.4 else rng.uniform(-1e3, 1e3) for _ in range(c)]

    def hexes(xs):
        return [float.hex(x) for x in xs]

    for nums, den in _integer_cases(rng):
        g = rng.choice([2, -3, 10**20, -(2**61 - 1)])
        wide, wide_den = [[g * x for x in row] for row in nums], g * den
        sign = 1 if wide_den > 0 else -1
        twin = Mat([[F(x, den) for x in row] for row in nums])
        r, c = len(nums), len(nums[0])
        rows = rng.sample(range(r), rng.randint(1, r))
        vf = floats(c)
        vx = [F(rng.randint(-99, 99), rng.randint(1, 10**9)) for _ in range(c)]
        vm = vx[:-1] + [0.25]
        partners = []  # is_inverse partners of a square matrix: a random one and its inverse
        if r == c:
            partners.append(Mat([[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(r)]
                                 for _ in range(r)]))
            try:
                partners.append(mat_inv(twin))
            except SingularMatrixError:
                pass
        with np.errstate(all="ignore"):  # numpy scalars warn on inf - inf, in both
            want = (hexes(x for row in _float_rows(twin) for x in row),
                    hexes(_apply_rows(twin, rows, vf)),
                    _apply_rows(twin, rows, vx), _apply_rows(twin, rows, vm))
        handed = (tuple(tuple(sign * x for x in row) for row in wide), abs(wide_den))
        for compared in (False, True):
            a = _from_common_denominator(wide, wide_den)
            assert a._pair == handed  # no gcd pass at construction
            if compared:
                assert a == twin and hash(a) == hash(twin)
                assert canonical_pair(a) == canonical_pair(twin) == twin._pair
            with np.errstate(all="ignore"):
                got = (hexes(x for row in _float_rows(a) for x in row),
                       hexes(_apply_rows(a, rows, vf)),
                       _apply_rows(a, rows, vx), _apply_rows(a, rows, vm))
            assert got == want and [type(x) for x in got[2]] == [type(x) for x in want[2]]
            got_norm = inf_norm(a)
            assert got_norm == inf_norm(twin) and type(got_norm) is F
            for b in partners:
                assert is_inverse(a, b) == is_inverse(twin, b), (nums, den, g)
                assert is_inverse(b, a) == is_inverse(b, twin), (nums, den, g)
            assert a.entries == twin.entries and repr(a) == repr(twin)
            assert mat_to_json_obj(a) == mat_to_json_obj(twin)
            assert a._pair == handed


def _row_loop(a, rows, v):
    return [sum(c * y for c, y in zip(a.row(r), v)) for r in rows]


_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 2.2250738585072014e-308,
           1e308, -1.5, 0.1, np.float64(0.3), np.float64(-0.0), np.float64(math.inf))


def test_apply_rows_matches_the_fraction_row_loop():
    # value, type and float repr (which tells -0.0 from 0.0 and shows nan)
    # against the Fraction-row loop, on float, exact and mixed data
    rng = random.Random(20261019)

    def floats(c):
        return [rng.choice(_FLOATS) if rng.random() < 0.4 else rng.uniform(-1e3, 1e3) for _ in range(c)]

    def exact(c):
        return [rng.choice([True, False, 0, rng.randint(-10**30, 10**30),
                            F(rng.randint(-99, 99), rng.randint(1, 10**9))]) for _ in range(c)]

    def mixed(c):  # a float and an exact value whenever c >= 2
        v = rng.sample(floats(c) + exact(c), max(c - 2, 0)) + [rng.uniform(-1, 1), F(1, 3)]
        return rng.sample(v, c)

    for nums, den in _integer_cases(rng):
        c = len(nums[0])
        rows = rng.sample(range(len(nums)), rng.randint(1, len(nums)))
        for make in (floats, exact, mixed):
            v = make(c)
            a = _from_common_denominator(nums, den)
            with np.errstate(all="ignore"):  # numpy scalars warn on inf - inf, in both
                got, want = _apply_rows(a, rows, v), _row_loop(a, rows, v)
            assert [(type(x), repr(x)) for x in got] == [(type(x), repr(x)) for x in want], (nums, den, v)
            if make is not mixed:
                b = _from_common_denominator(nums, den)
                with np.errstate(all="ignore"):
                    _apply_rows(b, rows, v)
                assert b._rows is None  # float and exact data read the integer view only
    a = Mat([["1/3", "-2/7"], [0, "5/2"]])
    assert _apply_rows(a, [1, 0], [1, F(1, 2)]) == [F(5, 4), F(4, 21)]
    assert _apply_rows(a, [0], [3.0, 0.0]) == [1.0]


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

    def check(x, y):
        got = is_inverse(x, y)
        assert got == (mat_mul(x, y) == Mat.identity(x.rows)), (x, y)
        return got

    # near misses of the packed product: every entry of a true inverse's integer
    # view moved by +-1, one at a time, on dual matrices and on entries of 2^200
    # and more (a determinant -1 matrix times 3 / 2^250 and its inverse, and a
    # unimodular pair with 2^300 entries); the integer view is the pair the
    # matrix holds and, where that differs, its lowest-terms form
    big = 1 << 200
    pairs = [(bernstein_embedding(m, m * k).rows(range(0, m * k + 1, k)),
              symmetric_dual_matrix(m, k)) for m, k in ((3, 4), (6, 8))]
    pairs.append((_from_common_denominator([[3 * big + 3, 3 * big], [3 * big, 3 * big - 3]], 1 << 250),
                  _from_common_denominator([[(1 - big) << 250, big << 250],
                                            [big << 250, -(big + 1) << 250]], 3)))
    u = _from_common_denominator([[1, big << 100, 3], [0, 1, big], [0, 0, 1]], 1)
    pairs.append((u, mat_inv(u)))
    for a, b in pairs:
        assert check(a, b) and check(b, a)
        for nums, den in {b._pair, canonical_pair(b)}:
            for i, j in product(range(b.rows), range(b.cols)):
                for step in (1, -1):
                    moved = [list(row) for row in nums]
                    moved[i][j] += step
                    assert not check(a, _from_common_denominator(moved, den)), (i, j, step)

    # a . b = [[one - K, 1, 0], [0, one, 0], [0, 0, one]] with K = 2^(B - 1): the
    # error -K in slot 0 of row 0 is cancelled by the +1 in slot 1 when the slots
    # are one bit narrower than B = bits(max|a|) + bits(max|b|) + bits(3) + 1
    # (57 + 5 + 2 + 1 bits here, and bits(one) = 64)
    a_rows = [[-64134830667709815, -135557710274932109, -138570103836597267],
              [132705228566596260, 68489814593546684, -137277843183872236],
              [138570103836580664, -131114753917108964, 73261238542008572]]
    one = 9328034414577398084
    b = _from_common_denominator([[14, 31, 31], [31, 16, -30], [29, -30, 15]], 1)
    narrow = 57 + 5 + 2
    packed = [sum(x << (c * narrow) for c, x in enumerate(row)) for row in b._pair[0]]
    assert all(sum(x * y for x, y in zip(row, packed)) == one << (i * narrow)
               for i, row in enumerate(a_rows))
    a = _from_common_denominator(a_rows, one)
    assert a._pair == canonical_pair(a) == (tuple(map(tuple, a_rows)), one)
    assert not check(a, b)
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


int_rows = st.integers(1, 4).flatmap(
    lambda c: st.lists(st.lists(st.integers(-10**6, 10**6), min_size=c, max_size=c),
                       min_size=1, max_size=4))
nonzero = st.integers(-10**6, 10**6).filter(bool)


@given(int_rows, nonzero, st.integers(-10**4, 10**4).filter(bool))
@settings(max_examples=60, deadline=None)
def test_eq_and_hash_are_by_value(nums, den, g):
    # one value as its pair, the pair scaled by g (a negative g flips every
    # sign) and the Fraction-built twin; any numerator moved by +-1 is another
    # value, and a different shape is another matrix
    pairs = [(nums, den), ([[g * x for x in row] for row in nums], g * den)]
    mats = [_from_common_denominator(*p) for p in pairs]
    mats.append(Mat([[F(x, den) for x in row] for row in nums]))
    for x in mats:
        for y in mats:
            assert x == y and not x != y and hash(x) == hash(y)
    for p, i, j, step in product(pairs, range(len(nums)), range(len(nums[0])), (1, -1)):
        moved = [list(row) for row in p[0]]
        moved[i][j] += step
        other = _from_common_denominator(moved, p[1])
        for x in mats:
            assert x != other and other != x and not x == other, (p, i, j, step)
    wider = _from_common_denominator([row + [0] for row in nums], den)
    taller = _from_common_denominator(nums + [[0] * len(nums[0])], den)
    assert all(x != y and y != x for x in mats for y in (wider, taller))
    assert mats[0] != nums and mats[0] != (tuple(map(tuple, nums)), den)


@given(st.lists(st.integers(-50, 50), min_size=4, max_size=4), nonzero)
@settings(max_examples=40, deadline=None)
def test_eq_tells_shapes_apart(xs, den):
    shapes = [_from_common_denominator([xs], den),
              _from_common_denominator([xs[:2], xs[2:]], den),
              _from_common_denominator([[x] for x in xs], den)]
    assert [x.entries for x in shapes] == [shapes[0].entries] * 3
    for i, j in product(range(3), repeat=2):
        assert (shapes[i] == shapes[j]) == (i == j), (i, j)
