"""Exact rational scalars and small dense matrices.

Everything structural in this package (elevation matrices, dual-basis
matrices, collocation matrices, rate constants) is computed over the
rationals, so printed reference tables can be matched bit-exactly and
algebraic identities (duality, row-affineness) can be asserted with ``==``
instead of tolerances.  Floating point enters only where functions are
sampled.

The scalar type is :class:`fractions.Fraction`: it already guarantees the
canonical form we need — positive denominator, fully reduced, arbitrary
precision.  A :class:`Mat` holds one value, set when it is built: integer
rows over one positive common denominator, the form the closed forms
compute.  They hand over their integers (:func:`_from_common_denominator`),
which are kept as they are, with no gcd pass.  The value readers —
:func:`inf_norm`, :func:`is_inverse`, the float view :func:`_float_rows`,
:func:`_apply_rows` (rows of a matrix times float or exact data) and the
Fraction view — read those integers over whatever common denominator they
were handed; each result is reduced on its own (a Fraction reduces itself,
and x / den is correctly rounded for any den).  ``==`` cross-multiplies two
pairs and ``hash`` reads the Fractions, so no canonical form is ever built.
``entries``, ``row``, ``col``, ``to_lists``, indexing, ``repr`` and the JSON
writer read Fractions, built when an entry is first read.  This module holds
the :class:`Mat` container, the exact inf-norm, the exact inverse test, the
common-denominator helpers and the JSON writer the CLI uses.  No library path
eliminates: every inverse the package needs has a closed form.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import chain
from typing import Iterable, Union

__all__ = ("SingularMatrixError", "Mat", "is_inverse", "inf_norm", "mat_to_json_obj")

# Accepted scalar inputs for matrix construction.
Scalar = Union[int, str, Fraction]


class SingularMatrixError(ValueError):
    """Raised when a square matrix the package needs to invert is singular.

    :func:`~dualbern.subspace.dual_basis` raises it for power-basis
    selections that are not linearly independent, with the message exact
    elimination would give.  This is an expected outcome for some inputs, so
    callers may catch it and proceed.
    """


def _coerce(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"matrix entries must be exact (int, str or Fraction), got {type(x).__name__}")


class Mat:
    """Immutable dense matrix of exact rationals.

    Construct from an iterable of rows; entries may be ints, Fractions or
    strings like ``"3/4"``.  Row-major flat access is available through
    ``entries`` (this is also the JSON wire order).

    A matrix holds one value, ``_pair = (nums, den)``: integer rows over one
    positive common denominator, set when it is built.  The closed forms
    build a matrix by :func:`_from_common_denominator`, which keeps the pair
    it is handed; ``Mat(rows)`` computes the canonical pair (``den`` the lcm
    of the reduced denominators).  Two memos sit beside it: ``_rows``, the
    entries as Fractions, built when an entry is first read, and
    ``_inf_norm``, the memo of :func:`inf_norm`.  Equality cross-multiplies
    the two pairs and hashing reads the Fractions, so no canonical form is
    ever built.
    """

    __slots__ = ("_pair", "_rows", "_inf_norm")

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        data = tuple(tuple(_coerce(x) for x in row) for row in rows)
        _check_shape(data)
        den = math.lcm(*(x.denominator for row in data for x in row))
        nums = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in data)
        self._pair, self._rows, self._inf_norm = (nums, den), data, None

    def _fractions(self) -> tuple[tuple[Fraction, ...], ...]:
        if self._rows is None:
            nums, den = self._pair
            self._rows = tuple(tuple(Fraction(x, den) for x in row) for row in nums)
        return self._rows

    # -- basic shape/access ------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self._pair[0])

    @property
    def cols(self) -> int:
        return len(self._pair[0][0])

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """Row-major flat tuple of entries."""
        return tuple(x for row in self._fractions() for x in row)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self._fractions()[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._fractions()[i]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self._fractions())

    def to_lists(self) -> list[list[Fraction]]:
        return [list(r) for r in self._fractions()]

    # -- equality / repr ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Same shape and x / aden == y / bden entry by entry, checked as
        x * bden == y * aden on the two pairs."""
        if not isinstance(other, Mat):
            return False
        (a, aden), (b, bden) = self._pair, other._pair
        return (len(a) == len(b) and len(a[0]) == len(b[0])
                and all(x * bden == y * aden for ra, rb in zip(a, b) for x, y in zip(ra, rb)))

    def __hash__(self) -> int:
        return hash(self._fractions())  # a Fraction hashes by value

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._fractions())
        return f"Mat[{self.rows}x{self.cols}: {body}]"

    # -- constructors --------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Mat":
        return _from_common_denominator([[int(i == j) for j in range(n)] for i in range(n)], 1)

    @staticmethod
    def zero(rows: int, cols: int) -> "Mat":
        return _from_common_denominator([[0] * cols for _ in range(rows)], 1)


def _check_shape(data):
    if not data or not data[0]:
        raise ValueError("matrix must have at least one row and one column")
    width = len(data[0])
    if any(len(r) != width for r in data):
        raise ValueError("ragged rows in matrix constructor")


def _from_common_denominator(rows, den: int) -> Mat:
    """The Mat with entries rows[i][j] / den, rows integers and den a nonzero
    integer: its pair is the one handed over (signs flipped when den < 0),
    with no gcd pass and no Fraction built."""
    if den == 0:
        raise ZeroDivisionError("matrix denominator is zero")
    nums = tuple(map(tuple, rows))
    _check_shape(nums)
    if den < 0:
        nums, den = tuple(tuple(map(operator.neg, row)) for row in nums), -den
    a = Mat.__new__(Mat)
    a._pair, a._rows, a._inf_norm = (nums, den), None, None
    return a


def is_inverse(a: Mat, b: Mat) -> bool:
    """True iff a . b is exactly the identity; a and b must both be n x n.

    The Mat front end of :func:`_is_inverse_over`, on a's pair."""
    return _is_inverse_over(*a._pair, b)


def _is_inverse_over(rows, den: int, b: Mat) -> bool:
    """True iff (rows / den) . b is exactly the identity, rows integer rows
    (the numerators of a over a common denominator den).

    b is read in its pair, over whichever common denominator it holds, and
    its rows are packed into integers (Kronecker substitution),
    P_j = sum_c b(j, c) 2^(cB), so row i of a times the P_j is
    sum_c (a . b)(i, c) 2^(cB), compared with one 2^(iB) for one = den * bden.
    With B = max(bits(max|a|) + bits(max|b|) + bits(n), bits(one)) + 1, every
    slot d of a . b - one I has |d| <= n max|a| max|b| + |one| < 2^B (for any
    common denominators of a and b), and such base-2^B digits are unique
    (the lowest nonzero d_c of a zero sum would be a multiple of 2^B), so the
    packed equality holds exactly when every entry does.  That is n^2 integer
    products; no product matrix and no Fraction is built.  ValueError unless
    a and b are both n x n."""
    n = len(rows)
    if not len(rows[0]) == b.rows == b.cols == n:
        raise ValueError(f"is_inverse needs n x n matrices: {n}x{len(rows[0])}, {b.rows}x{b.cols}")
    bnums, bden = b._pair
    one = den * bden
    width = 1 + max(_max_abs(rows).bit_length() + _max_abs(bnums).bit_length() + n.bit_length(),
                    abs(one).bit_length())
    shifts = range(0, n * width, width)
    packed = [sum(map(operator.lshift, row, shifts)) for row in bnums]
    return all(sum(map(operator.mul, ra, packed)) == one << shift
               for ra, shift in zip(rows, shifts))


def _max_abs(rows) -> int:
    return max(map(abs, chain.from_iterable(rows)))


def inf_norm(a: Mat) -> Fraction:
    """Max over rows of the sum of absolute entries (exact).

    The row sums run on the integer view, so the norm is one Fraction.  A
    Mat is immutable, so the norm is computed once per matrix and kept on
    it: a cached matrix such as the collocation inverse pays for its norm
    once per cache entry."""
    if a._inf_norm is None:
        a._inf_norm = _max_abs_row_sum(*a._pair)
    return a._inf_norm


def _max_abs_row_sum(nums, den: int) -> Fraction:
    return Fraction(max(sum(map(abs, row)) for row in nums), den)


def _float_rows(a: Mat) -> list[list[float]]:
    """The entries of a as floats, read off the integer view: x / den is
    correctly rounded int division for any common denominator, so each float
    equals float(entry)."""
    nums, den = a._pair
    return [[x / den for x in row] for row in nums]


def _apply_rows(a: Mat, rows, v) -> list:
    """[sum(c * y for c, y in zip(a.row(r), v)) for r in rows], value and type,
    read off the integer view.

    On all-float v each product is x / den * y, which is float(entry) * y as
    Fraction * float computes it, summed from 0 like the loop.  On exact v (ints
    and Fractions) v goes over one denominator and each row is one integer
    dot product and one Fraction.  Mixed v keeps the Fraction-row loop."""
    nums, den = a._pair
    if all(isinstance(y, float) for y in v):
        return [sum(map(operator.mul, map(den.__rtruediv__, nums[r]), v)) for r in rows]
    if all(isinstance(y, (int, Fraction)) for y in v):
        vn, vd = _over_common_denominator(v)
        return [Fraction(sum(map(operator.mul, nums[r], vn)), den * vd) for r in rows]
    return [sum(c * y for c, y in zip(a.row(r), v)) for r in rows]


def _over_common_denominator(xs) -> tuple[list[int], int]:
    """(nums, den) with xs[i] == nums[i] / den, den the lcm of the denominators."""
    den = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


# -- JSON wire format ---------------------------------------------------------
#
# {"rows": r, "cols": c, "entries": ["p/q", ...]} with entries row-major and
# each entry a canonical rational string ("3" allowed for integers); this is
# exactly str(Fraction).


def mat_to_json_obj(a: Mat) -> dict:
    return {
        "rows": a.rows,
        "cols": a.cols,
        "entries": [str(x) for x in a.entries],
    }
