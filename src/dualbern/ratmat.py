"""Exact rational scalars and small dense matrices.

Everything structural in this package (elevation matrices, dual-basis
matrices, collocation matrices, rate constants) is computed over the
rationals, so printed reference tables can be matched bit-exactly and
algebraic identities (duality, row-affineness) can be asserted with ``==``
instead of tolerances.  Floating point enters only where functions are
sampled.

The scalar type is :class:`fractions.Fraction`: it already guarantees the
canonical form we need — positive denominator, fully reduced, arbitrary
precision.  This module holds the :class:`Mat` container, the exact
inf-norm, the exact inverse test, the common-denominator helpers that let
the closed forms elsewhere run on integer numerators, and the JSON writer
the CLI uses.  No library path eliminates: every inverse the package needs
has a closed form.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Union

# Accepted scalar inputs for matrix construction.
Scalar = Union[int, str, Fraction]


class SingularMatrixError(ValueError):
    """Raised when a square matrix the package needs to invert is singular.

    :func:`~dualbern.subspace.dual_basis` raises it for power-basis
    selections that are not linearly independent, with the message exact
    elimination would give.  This is an expected outcome for some inputs, so
    callers may catch it and proceed.
    """


def binomial(n: int, k: int) -> Fraction:
    """Exact binomial coefficient C(n, k); 0 when k < 0 or k > n.

    n must be nonnegative.
    """
    if n < 0:
        raise ValueError(f"binomial: n must be >= 0, got {n}")
    if k < 0 or k > n:
        return Fraction(0)
    return Fraction(math.comb(n, k))


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
    ``entries`` (this is also the JSON wire order).  ``_inf_norm`` is the
    memo of :func:`inf_norm`, filled on first use; equality and hashing
    read the entries only.
    """

    __slots__ = ("_rows", "_inf_norm")

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        data = tuple(tuple(_coerce(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise ValueError("ragged rows in matrix constructor")
        object.__setattr__(self, "_rows", data)
        object.__setattr__(self, "_inf_norm", None)

    # -- basic shape/access ------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return len(self._rows[0])

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """Row-major flat tuple of entries."""
        return tuple(x for row in self._rows for x in row)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self._rows[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._rows[i]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self._rows)

    def to_lists(self) -> list[list[Fraction]]:
        return [list(r) for r in self._rows]

    # -- equality / repr ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Mat) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._rows)
        return f"Mat[{self.rows}x{self.cols}: {body}]"

    # -- constructors --------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "Mat":
        return Mat([[Fraction(0)] * cols for _ in range(rows)])


def is_inverse(a: Mat, b: Mat) -> bool:
    """True iff a . b is exactly the identity; a and b must both be n x n.

    The Mat front end of :func:`_is_inverse_over`: a is put over one common
    denominator first."""
    nums, den = _over_common_denominator(a.entries)
    return _is_inverse_over([nums[i * a.cols:(i + 1) * a.cols] for i in range(a.rows)], den, b)


def _is_inverse_over(rows, den: int, b: Mat) -> bool:
    """True iff (rows / den) . b is exactly the identity, rows a list of lists
    of integers (the numerators of a over its common denominator den).

    Each column of b is put over one common denominator, and each integer
    dot product is compared with the product of the two denominators on the
    diagonal and with 0 off it: no product matrix and no per-entry Fraction
    is built.  ValueError unless a and b are both n x n."""
    n = len(rows)
    if not len(rows[0]) == b.rows == b.cols == n:
        raise ValueError(f"is_inverse needs n x n matrices: {n}x{len(rows[0])}, {b.rows}x{b.cols}")
    cols = [_over_common_denominator(b.col(j)) for j in range(n)]
    return all(sum(map(operator.mul, ra, cb)) == (den * db if i == j else 0)
               for i, ra in enumerate(rows) for j, (cb, db) in enumerate(cols))


def inf_norm(a: Mat) -> Fraction:
    """Max over rows of the sum of absolute entries (exact).

    Each row sum runs on integer numerators over the lcm of the row's
    denominators, so it builds one Fraction per row.  A Mat is immutable, so
    the norm is computed once per matrix and kept on it: a cached matrix
    such as the collocation inverse pays for its norm once per cache entry."""
    if a._inf_norm is None:
        object.__setattr__(a, "_inf_norm", max(_abs_row_sum(a.row(i)) for i in range(a.rows)))
    return a._inf_norm


def _abs_row_sum(row) -> Fraction:
    nums, den = _over_common_denominator(row)
    return Fraction(sum(map(abs, nums)), den)


def _over_common_denominator(xs) -> tuple[list[int], int]:
    """(nums, den) with xs[i] == nums[i] / den, den the lcm of the denominators."""
    den = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


def _from_common_denominator(rows, den: int) -> Mat:
    """The Mat with entries rows[i][j] / den, rows lists of integers: the
    inverse of :func:`_over_common_denominator`, one Fraction per entry."""
    return Mat([[Fraction(x, den) for x in row] for row in rows])


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
