"""Generic exact matrix algebra and the power-form dual functionals, kept as
the tests' independent oracle.

No library path calls these: the library builds its dual bases, collocation
inverses and duality checks in closed form, and applies the dual functionals
as rows of the elevation matrix.  The tests compare those closed forms with
the generic routines here (Gauss–Jordan inversion, products, row selection,
the lowest-terms integer form of a matrix, the Pascal matrix, the left- and
right-endpoint readings of lambda_k^n on power coefficients computed here),
so the two must never share code beyond the :class:`~dualbern.ratmat.Mat`
container; binomial coefficients come from :func:`math.comb`.

It also keeps the CLI's SVG plot writer as it was when curves were lists of
(x, y) pairs, mapped to pixels one scalar call per coordinate: the array
writer in :mod:`dualbern.cli` must return the same text, byte for byte, or
raise the same ValueError.  Only the palette and the version comment are
taken from the CLI.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from dualbern.cli import PALETTE, SVG_VERSION_COMMENT
from dualbern.ratmat import Mat, SingularMatrixError


def mat_mul(a: Mat, b: Mat) -> Mat:
    """Exact matrix product."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    bt = [b.col(j) for j in range(b.cols)]
    return Mat(
        [[sum(x * y for x, y in zip(a.row(i), bt[j])) for j in range(b.cols)]
         for i in range(a.rows)]
    )


def mat_inv(a: Mat) -> Mat:
    """Exact inverse by Gauss–Jordan elimination.

    Pivot rule: first nonzero entry in the column — with exact arithmetic no
    numerical pivoting is needed.  Raises :class:`SingularMatrixError` when a
    column has no usable pivot.
    """
    if a.rows != a.cols:
        raise ValueError(f"mat_inv needs a square matrix, got {a.rows}x{a.cols}")
    n = a.rows
    work = [list(a.row(i)) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        pivot_row = next((r for r in range(c, n) if work[r][c] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError(f"singular matrix: no pivot in column {c}")
        if pivot_row != c:
            work[c], work[pivot_row] = work[pivot_row], work[c]
        piv = work[c][c]
        if piv != 1:
            work[c] = [x / piv for x in work[c]]
        for r in range(n):
            if r != c and work[r][c] != 0:
                f = work[r][c]
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    return Mat([row[n:] for row in work])


def mat_sub(a: Mat, b: Mat) -> Mat:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("dimension mismatch in mat_sub")
    return Mat([[x - y for x, y in zip(a.row(i), b.row(i))] for i in range(a.rows)])


def transpose(a: Mat) -> Mat:
    return Mat([a.col(j) for j in range(a.cols)])


def row_select(a: Mat, indices: Iterable[int]) -> Mat:
    """Matrix whose i-th row is ``a.row(indices[i])``.

    ``indices`` is any iterable of row indices (a selection map works
    directly).  Raises IndexError on an out-of-range index.
    """
    rows = []
    for i in indices:
        if not 0 <= i < a.rows:
            raise IndexError(f"row index {i} out of range for {a.rows}-row matrix")
        rows.append(a.row(i))
    return Mat(rows)


def is_row_affine(a: Mat) -> bool:
    """True iff every row sums exactly to 1."""
    return all(sum(a.row(i)) == 1 for i in range(a.rows))


def canonical_pair(a: Mat) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(integer rows, den) with a[i, j] == rows[i][j] / den in lowest terms:
    den is the lcm of the reduced denominators of the entries, so no prime
    divides den and every numerator."""
    den = math.lcm(*(x.denominator for x in a.entries))
    return tuple(tuple(x.numerator * (den // x.denominator) for x in a.row(i))
                 for i in range(a.rows)), den


def mat_from_json_obj(obj: dict) -> Mat:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    entries: Sequence[str] = obj["entries"]
    if len(entries) != rows * cols:
        raise ValueError("entries length does not match rows*cols")
    it = iter(entries)
    return Mat([[Fraction(next(it)) for _ in range(cols)] for _ in range(rows)])


def pascal_matrix(n: int) -> Mat:
    """Lower-triangular Pascal matrix T(i, j) = C(i, j), size (n+1) x (n+1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return Mat([[math.comb(i, j) for j in range(n + 1)] for i in range(n + 1)])


def power_coefficients(alpha: Sequence) -> list:
    """Local power coefficients c of the B-form alpha of degree d = len(alpha) - 1:
    c_j = C(d, j) (Delta^j alpha)(0), the forward difference by its
    alternating-binomial sum."""
    d = len(alpha) - 1
    return [math.comb(d, j) * sum((-1) ** (j - i) * math.comb(j, i) * alpha[i] for i in range(j + 1))
            for j in range(d + 1)]


def left_functionals(n: int, ks: Iterable[int], alpha: Sequence) -> list:
    """[lambda_k^n p for k in ks], p the B-form alpha of degree d <= n, by the
    left-endpoint reading sum_{j <= min(k, d)} [C(k, j)/C(n, j)] c_j."""
    c = power_coefficients(alpha)
    d = len(c) - 1
    return [sum(Fraction(math.comb(k, j), math.comb(n, j)) * c[j] for j in range(min(k, d) + 1))
            for k in ks]


def right_functionals(n: int, ks: Iterable[int], alpha: Sequence) -> list:
    """The same functionals by the right-endpoint reading
    sum_{j <= min(n-k, d)} (-1)^j [C(n-k, j)/C(n, j)] e_j, where
    e_j = sum_{l >= j} C(l, j) c_l are the local Taylor coefficients at u = 1."""
    c = power_coefficients(alpha)
    d = len(c) - 1
    e = [sum(math.comb(l, j) * c[l] for l in range(j, d + 1)) for j in range(d + 1)]
    return [sum(Fraction((-1) ** j * math.comb(n - k, j), math.comb(n, j)) * e[j]
                for j in range(min(n - k, d) + 1))
            for k in ks]


def svg_document_pairs(curves, points_groups, x_range) -> str:
    """The pair-based SVG writer: curves and points_groups are lists of
    (pts, dashed), pts a list of (x, y) floats; the y range spans the
    curves' values.  ValueError when a curve value is not finite or the
    padded y range has no finite positive width."""
    if not all(math.isfinite(v) for pts, _ in curves for pt in pts for v in pt):
        raise ValueError("plot values are not finite")
    width, height = 800, 600
    left, right, top, bottom = 60, 20, 20, 40
    x0, x1 = x_range
    ys = [y for pts, _ in curves for _, y in pts]
    y0, y1 = min(ys), max(ys)
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 1.0, y1 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    if not 0 < y1 - y0 < math.inf:
        raise ValueError(f"cannot scale the plot's y range [{min(ys)}, {max(ys)}]")

    def sx(x):
        return left + (x - x0) / (x1 - x0) * (width - left - right)

    def sy(y):
        return height - bottom - (y - y0) / (y1 - y0) * (height - top - bottom)

    def fmt(v):
        return format(v, ".3f")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        SVG_VERSION_COMMENT,
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{left}" y="{top}" width="{width - left - right}" '
        f'height="{height - top - bottom}" fill="none" stroke="#333" stroke-width="1"/>',
    ]
    for label, val, anchor, xx, yy in (
        ("xmin", x0, "start", left, height - bottom + 16),
        ("xmax", x1, "end", width - right, height - bottom + 16),
        ("ymin", y0, "end", left - 6, height - bottom),
        ("ymax", y1, "end", left - 6, top + 10),
    ):
        parts.append(
            f'<text x="{xx}" y="{yy}" font-family="sans-serif" font-size="12" '
            f'text-anchor="{anchor}" fill="#333">{fmt(val)}</text>'
        )
    for idx, (pts, dashed) in enumerate(curves):
        rows = [(sx(x), sy(y)) for x, y in pts]
        coords = " ".join(["%.3f,%.3f"] * len(rows)) % tuple(v for row in rows for v in row)
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        color = PALETTE[idx % len(PALETTE)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash} points="{coords}"/>'
        )
    for idx, (pts, dashed) in enumerate(points_groups):
        color = PALETTE[idx % len(PALETTE)]
        for x, y in pts:
            parts.append(
                f'<circle cx="{fmt(sx(x))}" cy="{fmt(sy(y))}" r="3.5" fill="{color}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
