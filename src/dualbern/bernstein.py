"""Bernstein basis machinery over a general interval [a, b].

The degree-m Bernstein basis in the local parameter u = (t - a)/(b - a) is

    B_i^m(t) = C(m, i) * (1 - u)^(m - i) * u^i,          i = 0..m,

a nonnegative partition of unity.  This module provides evaluation (direct
and de Casteljau), the degree-elevation matrix E with B^m = B^n E (one row
formula, which also builds any chosen rows E(s,:) alone), the collocation
matrix (likewise one integer row formula) and its cached inverse,
power-basis conversion, the dual functionals lambda_k^n (row k of the
elevation matrix applied to the B-form coefficients) and their real-index
generalization, and the uniform nodes.  On exact input the two
power-basis conversions work on integer numerators over one common
denominator; B-form to power runs one forward-difference routine for exact
and float input alike and builds one Fraction per output coefficient.  The
exact :func:`power_to_bform` leaves on the BPoly it builds the power
coefficients it was given and the Pascal diagonal w_j = c_j / C(n, j) as
integers over one denominator, so a polynomial built from its power form is
never converted back, each dual functional sums the Pascal rows of its band
straight off that diagonal (d+1 integer terms), and the n+1 B-form
coefficients are built only when read.  The matrices are handed to
:class:`~dualbern.ratmat.Mat` as integer rows over one denominator.

The collocation inverse has a closed form rather than a generic elimination:
its columns are the B-form coefficients of the Lagrange polynomials on the
nodes k/n, and since nu - k = (n-k)u - k(1-u), each Lagrange numerator
prod_{k != i} (nu - k) is an integer combination of u^j (1-u)^(n-j), which is
C(n, j)^{-1} B_j^n.  Building it is O(n^2) integer arithmetic.

Exactness convention: whenever inputs are ints or Fractions, results are
exact Fractions; float inputs flow through as floats.  All matrices returned
here are exact (:class:`dualbern.ratmat.Mat`).  The one float layer is
:func:`uniform_grid` with :func:`bform_eval` and :func:`_basis_sum_eval` (the
scalar basis sum, which the basis plot reads): every float sample grid and
every grid evaluation of a B-form polynomial in the package goes through it,
and each reads the interval's endpoints as floats once per interval
(``Interval._float_aw``).  It is the only part of this module that uses
numpy, and it imports numpy when first called, so the exact layer loads
without it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat
from typing import TYPE_CHECKING, Sequence

from .ratmat import Mat, _from_common_denominator, _over_common_denominator

if TYPE_CHECKING:
    import numpy as np


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction))


@dataclass(frozen=True)
class Interval:
    """A nondegenerate interval [a, b], a < b.

    Endpoints may be ints/Fractions (exact mode) or floats.
    """

    a: object = 0
    b: object = 1

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"interval needs a < b, got [{self.a}, {self.b}]")

    @property
    def width(self):
        return self.b - self.a

    @functools.cached_property
    def _float_aw(self) -> tuple[float, float]:
        """(float(a), float(width)), the two floats every grid formula reads;
        computed on first read and kept on the instance (it is not a field,
        so equality, hashing and ``repr`` do not see it)."""
        return float(self.a), float(self.width)

    def is_exact(self) -> bool:
        return _is_exact(self.a) and _is_exact(self.b)

    def to_local(self, t):
        """Map t in [a,b] to u in [0,1].  Exact when everything is exact."""
        if self.is_exact() and _is_exact(t):
            return Fraction(t - self.a, 1) / Fraction(self.b - self.a, 1)
        return (t - self.a) / (self.b - self.a)

    def from_local(self, u):
        return self.a + u * (self.b - self.a)


UNIT_INTERVAL = Interval(0, 1)


@dataclass(frozen=True)
class BPoly:
    """A polynomial in B-form: degree, interval, and m+1 coefficients.

    p(t) = sum_i coeffs[i] * B_i^m(t) with the basis taken over `interval`.
    The degree goes through ``operator.index`` (see :func:`_degree`).  The
    coefficients are all exact (ints and Fractions) or all floats: when any
    is not exact, every one is converted to float.

    When the exact :func:`power_to_bform` built the polynomial, ``_power``
    holds the result of :func:`_power_diagonal` and ``_diag`` the pair
    (w, den) with coeffs[i] == sum_j C(i, j) w[j] / den, w the d+1 integers
    of the Pascal diagonal; both are None otherwise.  Such a polynomial is
    built without its ``coeffs`` field, which ``__getattr__`` fills by the
    Pascal sum of ``_diag`` on first read.  The two are class
    attributes, not fields, so equality, hashing, ``repr``,
    ``dataclasses.asdict`` and ``dataclasses.replace`` read the three fields
    only.
    """

    degree: int
    interval: Interval
    coeffs: tuple
    _power = None
    _diag = None

    def __post_init__(self):
        degree = _degree(self.degree, "degree")
        if degree < 0:
            raise ValueError("degree must be >= 0")
        object.__setattr__(self, "degree", degree)
        coeffs = tuple(self.coeffs)
        if not all(_is_exact(x) for x in coeffs):
            coeffs = tuple(map(float, coeffs))
        object.__setattr__(self, "coeffs", coeffs)
        if len(self.coeffs) != self.degree + 1:
            raise ValueError(
                f"need {self.degree + 1} coefficients for degree {self.degree}, "
                f"got {len(self.coeffs)}"
            )

    def __getattr__(self, name):
        if name != "coeffs" or self._diag is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        w, den = self._diag
        coeffs = tuple(Fraction(x, den) for x in _int_pascal_sum(w, self.degree + 1))
        object.__setattr__(self, "coeffs", coeffs)
        return coeffs

    def __call__(self, t):
        return de_casteljau_eval(self, t)


def bernstein_value(m: int, i: int, t, iv: Interval = UNIT_INTERVAL):
    """Value of B_i^m(t) over the interval; exact for exact inputs."""
    if not 0 <= i <= m:
        raise IndexError(f"basis index {i} out of range 0..{m}")
    u = iv.to_local(t)
    return math.comb(m, i) * (1 - u) ** (m - i) * u**i


def de_casteljau_eval(p: BPoly, t):
    """Evaluate a B-form polynomial by repeated affine combinations.

    Works in the local parameter u = (t-a)/(b-a); each sweep replaces
    b_i <- (1-u) b_i + u b_{i+1}.  Numerically stable for u in [0,1] (convex
    combinations) and exact on exact inputs.
    """
    u = p.interval.to_local(t)
    b = list(p.coeffs)
    w = 1 - u
    for sweep in range(1, len(b)):
        for i in range(len(b) - sweep):
            b[i] = w * b[i] + u * b[i + 1]
    return b[0]


def uniform_grid(iv: Interval, samples: int) -> np.ndarray:
    """samples >= 2 equally spaced floats a + w*q/(samples-1), q = 0..samples-1.

    The operation order is fixed, so the grid is bit-for-bit the scalar
    formula with a = float(iv.a) and w = float(iv.width).  samples goes
    through ``operator.index``, so a numpy integer is taken and a float is
    refused.  ValueError when samples is not an integer or samples < 2, or
    when two consecutive points round to the same float (the spacing is
    below the float resolution at the endpoints, so a sample would be
    repeated); OverflowError when w*(samples-1), the largest product of that
    order, is not finite."""
    import numpy as np

    try:
        samples = operator.index(samples)
    except TypeError:
        raise ValueError(f"a grid needs an integer number of samples, got {samples!r}") from None
    if samples < 2:
        raise ValueError(f"a grid needs samples >= 2, got {samples}")
    a, w = iv._float_aw
    if not math.isfinite(w * (samples - 1)):
        raise OverflowError(f"grid of {samples} points on [{iv.a}, {iv.b}] overflows")
    grid = a + w * np.arange(samples) / (samples - 1)
    if (grid[1:] == grid[:-1]).any():
        raise ValueError(f"grid of {samples} points on [{iv.a}, {iv.b}] repeats a point: "
                         "its spacing is below the float resolution there")
    return grid


def bform_eval(coeffs, iv: Interval, ts) -> np.ndarray:
    """de Casteljau on a float grid, vectorised over the points.

    ``coeffs`` is one coefficient vector (result shape (len(ts),)) or an
    (m+1) x k array whose columns are k polynomials (result (len(ts), k));
    ``ts`` is flattened.  Entries are converted to float first, which is what
    the scalar sweep of :func:`de_casteljau_eval` does with exact coefficients
    at a float point; the sweeps use only elementwise * and + in the scalar
    order, so every value equals ``de_casteljau_eval`` at that point bit for
    bit.  The points sit on the last axis: the first sweep reads the
    coefficients broadcast over them, and the later sweeps overwrite its
    array in place through one scratch buffer; the result is its transpose.
    """
    import numpy as np

    a, width = iv._float_aw
    u = (np.asarray(ts, dtype=float).ravel() - a) / width
    b = np.array(coeffs, dtype=float)[..., np.newaxis]
    w = 1.0 - u
    # like the scalar sweep, overflow and inf * 0 give inf/nan without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        x = w * b[:-1] + u * b[1:] if len(b) > 1 else b * np.ones_like(u)
        scratch = np.empty_like(x[1:])
        for top in range(len(x) - 1, 0, -1):
            np.multiply(u, x[1:top + 1], out=scratch[:top])
            x[:top] *= w
            x[:top] += scratch[:top]
    return x[0].T


def _basis_sum_eval(coeffs, iv: Interval, ts) -> np.ndarray:
    """sum_j B_j^m(t) coeffs[j] on a float grid, as the scalar basis sum forms it.

    ``coeffs`` is an (m+1) x k array whose columns are k polynomials; the
    result is (len(ts), k).  Each value equals ``sum(bernstein_value(m, j, t,
    iv) * coeffs[j][i] for j in range(m + 1))`` bit for bit (the sum of
    :func:`~dualbern.subspace.dual_basis_eval` when the columns are its
    float A): u is the float :meth:`Interval.to_local` computes, the powers
    are Python's ``**`` per point (``pow`` over each column of u and 1 - u),
    and the sum runs over j from 0.0 with elementwise * and +."""
    import numpy as np

    a, width = iv._float_aw
    u = (np.asarray(ts, dtype=float).ravel() - a) / width
    us, vs = u.tolist(), (1.0 - u).tolist()
    c = np.array(coeffs, dtype=float)
    m = len(c) - 1
    acc = np.zeros((len(us), c.shape[1]))
    for j, row in enumerate(c):
        vp = np.fromiter(map(pow, vs, repeat(m - j)), float, len(vs))
        up = np.fromiter(map(pow, us, repeat(j)), float, len(us))
        acc = acc + (float(math.comb(m, j)) * vp * up)[:, np.newaxis] * row
    return acc


def collocation_matrix(n: int) -> Mat:
    """Exact M_n = [B_j^n(i/n)]_{ij}, rows summing to 1; interval-invariant.

    Its inverse carries the B-form coefficients of the Lagrange basis on the
    uniform nodes (L^n = B^n M_n^{-1}) and turns node values into the data
    map of the quasi-interpolant.  n goes through ``operator.index``."""
    n = _degree(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1")
    return _from_common_denominator(*_collocation_int_rows(n))


def _collocation_int_rows(n: int) -> tuple[list[list[int]], int]:
    """The rows of :func:`collocation_matrix` as integer numerators
    C(n, j) i^j (n-i)^(n-j) over their common denominator n^n: the one row
    formula of M_n, as :func:`_elevation_int_rows` is that of E."""
    nums = [[math.comb(n, j) * i**j * (n - i) ** (n - j) for j in range(n + 1)]
            for i in range(n + 1)]
    return nums, n**n


@functools.lru_cache(maxsize=None)
def _colloc_inv(n: int) -> Mat:
    """M_n^{-1}, computed once per n: the Lagrange coefficients L^n = B^n M_n^{-1}.

    Column i holds the B-form coefficients of the Lagrange polynomial L_i on
    the nodes k/n.  Since nu - k = (n-k)u - k(1-u), the numerator
    prod_{k != i} (nu - k) is sum_j P_j^(i) u^j (1-u)^(n-j) with integers
    P_j^(i), and the denominator is prod_{k != i} (i - k) = (-1)^(n-i) i! (n-i)!,
    so M_n^{-1}(j, i) = P_j^(i) / (C(n, j) (-1)^(n-i) i! (n-i)!).  The full
    product over k = 0..n is formed once; each P^(i) is its exact integer
    quotient by the i-th factor.  O(n^2) integer work, equal to Gauss–Jordan
    on :func:`collocation_matrix`.  It is the quotient recurrence of
    :func:`~dualbern.subspace.dual_basis` in the continuous basis, its step-0
    case: with x = nu, u^j (1-u)^(n-j) is x^j (n-x)^(n-j) / n^n, the discrete
    basis (x)_j (n-x)_{n-j} with every falling step 0, and the factors
    n - d + j - 1 - c and j - c of its recurrence become n - k and -k.  The
    nodes are symmetric, k/n <-> 1 - k/n, so L_{n-i}(u) = L_i(1-u) and
    M_n^{-1} is centrosymmetric, M_n^{-1}(j, n-i) = M_n^{-1}(n-j, i):
    columns 0..floor(n/2) are built and reversed for the rest, as
    :func:`~dualbern.subspace.dual_basis` does for a symmetric selection.  The Mat gets signed integers over n! lcm_j C(n, j),
    unreduced (it is reduced only if compared or hashed), and builds no
    Fraction until an entry is read.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    # full[j]: coefficient of u^j (1-u)^(n+1-j) in prod_{k=0}^{n} ((n-k)u - k(1-u))
    # a plain loop carrying full[j-1]: a comprehension over zip([0] + full, full + [0])
    # costs about twice as much per step
    full = [1]
    for k in range(n + 1):
        a, prev, nxt = n - k, 0, []
        for y in full:
            nxt.append(a * prev - k * y)
            prev = y
        nxt.append(a * prev)
        full = nxt
    # over n! lcm_j C(n, j): 1 / ((-1)^(n-i) i! (n-i)!) = (-1)^(n-i) C(n, i) / n!
    lcm = math.lcm(*(math.comb(n, j) for j in range(n + 1)))
    scale = [lcm // math.comb(n, j) for j in range(n + 1)]
    cols = []
    for i in range(n // 2 + 1):
        # full = ((n-i)u - i(1-u)) * P, so full[j] = (n-i) P[j-1] - i P[j]
        if i:
            p, prev, a = [], 0, n - i
            for q in full[:-1]:
                prev = (a * prev - q) // i
                p.append(prev)
        else:  # the factor is n u
            p = [q // n for q in full[1:]]
        c = (-1) ** (n - i) * math.comb(n, i)
        cols.append([c * x * w for x, w in zip(p, scale)])
    cols += [col[::-1] for col in reversed(cols[:n + 1 - len(cols)])]
    return _from_common_denominator(zip(*cols), math.factorial(n) * lcm)


def elevation_matrix(m: int, n: int) -> Mat:
    """The (n+1) x (m+1) degree-elevation matrix E with B^m = B^n E.

    E(i, j) = C(n-i, m-j) * C(i, j) / C(n, m).  Every row sums to 1
    (Chu–Vandermonde), rows 0 and n are unit rows e_0 and e_m, and all
    entries are nonnegative.
    """
    m, n = _check_degrees(m, n)
    return _from_common_denominator(*_elevation_int_rows(m, n, range(n + 1)))


def _degree(x, name: str) -> int:
    """x through ``operator.index``: a bool or a numpy integer is taken as an
    int, and anything else (a float, a str) is one ValueError naming x."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {x!r}") from None


def _check_degrees(m: int, n: int, what: str = "elevation") -> tuple[int, int]:
    """(m, n) as ints (see :func:`_degree`) when 0 <= m <= n; ValueError otherwise."""
    m, n = _degree(m, "m"), _degree(n, "n")
    if m > n:
        raise ValueError(f"{what} needs m <= n, got m={m} n={n}")
    if m < 0:
        raise ValueError("degrees must be nonnegative")
    return m, n


def _elevation_int_rows(m: int, n: int, rows) -> tuple[list[list[int]], int]:
    """The rows of :func:`elevation_matrix` with the given indices, in order,
    as integer numerators C(n-i, m-j) C(i, j) over their common denominator
    C(n, m): the one row formula of E."""
    nums = [[math.comb(n - i, m - j) * math.comb(i, j) for j in range(m + 1)] for i in rows]
    return nums, math.comb(n, m)


def power_to_bform(power_coeffs: Sequence, n: int, iv: Interval = UNIT_INTERVAL) -> BPoly:
    """B-form of p(u) = sum_j c_j u^j (local parameter), elevated to degree n.

    Shorter coefficient lists are zero-padded; the exactness and degree
    scans read only the given coefficients.  The conversion is
    alpha_i = sum_j [C(i, j)/C(n, j)] c_j  (i.e. alpha = T_n D_n^{-1} c with
    T_n the Pascal matrix and D_n = diag C(n, j)).

    Exact input (ints and Fractions) gives exact output in integers: the
    w_j = c_j / C(n, j) up to the degree d of p are put over one common
    denominator, and the result keeps their d+1 integer numerators and that
    denominator (``_diag``) in O(d) work.  The Pascal sum, a difference table
    read forwards from this diagonal (O(n d) additions), runs only when the
    Fraction coeffs are first read; the dual functionals read the diagonal
    itself.  The power-form memo is set to c_0..c_d as Fractions, which is
    what :func:`_power_diagonal` would compute from the alphas.  Any float
    coefficient keeps the loop of Fraction ratios times coefficients, each
    sum started at 0.0, so every alpha_i is a float with the bits of that
    loop, and sets no memo.  n goes through ``operator.index``.
    """
    n = _degree(n, "n")
    c = list(power_coeffs) or [0]
    if len(c) > n + 1:
        raise ValueError(f"{len(c)} power coefficients exceed degree {n}")
    if all(_is_exact(x) for x in c):
        c = [Fraction(x) for x in c[: _support_degree(c) + 1]]
        w, den = _over_common_denominator([x / math.comb(n, j) for j, x in enumerate(c)])
        p = object.__new__(BPoly)  # coeffs is filled from _diag on first read
        vars(p).update(degree=n, interval=iv, _power=tuple(c), _diag=(w, den))
        return p
    support = [j for j, v in enumerate(c) if v != 0]  # zero terms add nothing
    alpha = [
        sum((Fraction(math.comb(i, j), math.comb(n, j)) * c[j] for j in support if j <= i), 0.0)
        for i in range(n + 1)
    ]
    return BPoly(n, iv, tuple(alpha))


def bform_to_power(p: BPoly) -> tuple:
    """Local power coefficients c with p(u) = sum_j c_j u^j, u the local parameter.

    c_j = C(n, j) * (Delta^j alpha)(0), the j-th forward difference of the
    B-form coefficient sequence (equivalently c = D_n T_n^{-1} alpha with the
    closed-form Pascal inverse T^{-1}(j, i) = (-1)^(j-i) C(j, i)).  When a
    difference row vanishes identically every remaining coefficient is
    provably zero, so a low-degree polynomial carried at high degree converts
    in O(n * true degree) arithmetic instead of O(n^2).

    Exact coefficients are put over one common denominator, the difference
    table runs on the integer numerators, and each c_j is one Fraction.  Any
    float coefficient runs the same difference table on the coefficients
    themselves and makes every c_j a float, the padding zeros included, so
    float results keep their bits.
    """
    c = _power_diagonal(p)
    # the zero of the coefficient arithmetic, read off the memo when p keeps one
    zero = (c[0] if p._diag is not None else p.coeffs[0]) * 0
    return c + (zero,) * (p.degree + 1 - len(c))


def _power_diagonal(p: BPoly) -> tuple:
    """:func:`bform_to_power` up to the last nonzero coefficient, unpadded: a
    single zero for the zero polynomial, so c[0] always exists.

    Returns ``p._power`` when the exact :func:`power_to_bform` left it there;
    otherwise computes it and leaves p as it was."""
    if p._power is not None:
        return p._power
    n = p.degree
    if _is_exact(p.coeffs[0]):  # then every coefficient is (see BPoly)
        nums, den = _over_common_denominator(p.coeffs)
        out = tuple(Fraction(math.comb(n, j) * d, den) for j, d in enumerate(_forward_differences(nums)))
    else:
        out = tuple(math.comb(n, j) * d for j, d in enumerate(_forward_differences(list(p.coeffs))))
    return out or (p.coeffs[0] * 0,)  # 0, Fraction(0) or a float zero, as coeffs[0] is


def _forward_differences(row) -> list:
    """[(Delta^j row)(0) for j = 0, 1, ...] of a sequence, up to the last
    nonzero one: once a difference row vanishes, every later one does."""
    out = []
    while any(row):
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return out


def _int_pascal_sum(w, count: int) -> list:
    """[sum_j C(r, j) w_j for r = 0..count-1] for integers w.

    The inverse of :func:`_forward_differences`: w is the diagonal
    (Delta^j b)(0) of the difference table of b.  Row len(w)-1 of the table
    is constant, and row j is the running sum of row j+1 started at w_j
    (Delta^j b(r+1) = Delta^j b(r) + Delta^(j+1) b(r)).  The rows are
    chained ``accumulate`` iterators from the last up, and the first count
    entries of row 0 are drawn through them: count * len(w) additions at C
    speed, with no intermediate row built."""
    row = repeat(w[-1])
    for wj in reversed(w[:-1]):
        row = accumulate(row, initial=wj)
    return list(islice(row, count))


def _support_degree(c) -> int:
    """Largest index with a nonzero entry (0 for the zero sequence)."""
    for j in range(len(c) - 1, -1, -1):
        if c[j] != 0:
            return j
    return 0


def _check_degree(n: int, p: BPoly):
    if p.degree > n:
        raise ValueError(f"polynomial degree {p.degree} exceeds ambient degree {n}")


def dual_functional_apply(n: int, k: int, p: BPoly):
    """The dual functional lambda_k^n applied to p: row k of the elevation matrix.

    The lambda_k^n are dual to B^n, and p of degree d <= n with B-form
    coefficients alpha is B^n E alpha, E the elevation matrix from d to n, so

        lambda_k^n p = (E alpha)_k = sum_j C(n-k, d-j) C(k, j) / C(n, d) alpha_j

    over the band max(0, d-(n-k)) <= j <= min(k, d) where row k is nonzero.
    This is the value of the left-endpoint form
    sum_j [C(k,j)/C(n,j)] (b-a)^j / j! (D^j p)(a) and of the right-endpoint
    form.  It reads only the coefficients, so it is interval-invariant.  Each
    weight is one Fraction: exact alpha give an exact Fraction, and float
    alpha a convex combination of correctly rounded weights, summed left to
    right, within gamma_{d+2} max|alpha_j| of its exact value
    (gamma_m = m u / (1 - m u), u = 2^-53).  A polynomial that keeps its
    Pascal diagonal (``p._diag``, alpha_j = sum_i C(j, i) w_i / den) never
    builds its coefficients: the band's Pascal rows, weighted by row k of E,
    sum to sum_i C(k, i) C(n-i, d-i) w_i (Chu–Vandermonde), one integer term
    per diagonal entry.  The weights start at C(n, d), and each is the last
    times (k-i+1)(d-i+1) / (i (n-i+1)), an exact integer quotient.  The value
    is one Fraction.  n and k go through ``operator.index``.
    """
    n, k = _degree(n, "n"), _degree(k, "k")
    if not 0 <= k <= n:
        raise ValueError(f"functional index {k} out of range 0..{n}")
    _check_degree(n, p)
    d = p.degree
    den = math.comb(n, d)
    if p._diag is not None:
        w, pden = p._diag
        num, t = den * w[0], den
        for i in range(1, len(w)):
            t = t * (k - i + 1) * (d - i + 1) // (i * (n - i + 1))
            num += t * w[i]
        return Fraction(num, den * pden)
    out = 0
    for j in range(max(0, d - (n - k)), min(k, d) + 1):
        out = out + Fraction(math.comb(n - k, d - j) * math.comb(k, j), den) * p.coeffs[j]
    return out


def generalized_dual_apply(n: int, x, p: BPoly):
    """Real-index dual functional lambda_{xn}^n applied to p, 0 <= x <= 1.

    At an integer xn = k (exact, or a float equal to its floor) this is
    :func:`dual_functional_apply` at k, exact whenever p is.  Otherwise the
    ratio C(k, j)/C(n, j) of the left-endpoint form becomes the falling-
    factorial ratio prod_{t<j} (xn - t)/(n - t), which multiplies the local
    power coefficients c_j of p for j <= min(floor(xn), deg p).  That sum is
    Newton's forward series of the degree-n control points of p, cut at
    floor(xn) and read at xn: an extrapolation, so on float input at high
    degree it is ill-conditioned by definition (it amplifies the rounding
    noise of the control points).

    For 0 < x < 1 it converges to p(x) at first order,
    n (lambda_{xn}^n p - p(x)) -> -x (1 - x) p''(x) / 2: Voronovskaya's
    constant of the Bernstein operator with the sign reversed.  ValueError
    when p has degree above n, as for :func:`dual_functional_apply`.  n goes
    through ``operator.index``.
    """
    n = _degree(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= x <= 1:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    _check_degree(n, p)
    xn = Fraction(x) * n if _is_exact(x) else x * n
    k = math.floor(xn)
    if k == xn:
        return dual_functional_apply(n, k, p)
    c = _power_diagonal(p)
    out = c[0]
    ratio = 1
    for j in range(1, min(k, len(c) - 1) + 1):
        ratio = ratio * (xn - (j - 1)) / (n - (j - 1))
        out = out + ratio * c[j]
    return out


def xi_nodes(n: int, iv: Interval = UNIT_INTERVAL) -> tuple:
    """Uniform nodes xi_i = a + (i/n)(b-a), i = 0..n, as a tuple; exact for
    exact intervals.  n goes through ``operator.index``."""
    n = _degree(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(_uniform_nodes(n, iv, range(n + 1)))


def _uniform_nodes(n: int, iv: Interval, ks) -> list:
    """[iv.from_local(Fraction(k, n)) for k in ks], value and type: the one node
    formula.  On an exact interval a = p/d and (b - a)/n = step/d over one d,
    so each node is one Fraction(p + k step, d).  Otherwise each is
    a + (k / n) (b - a): k / n is float(Fraction(k, n)), which is what
    Fraction times a float width computes."""
    a, w = iv.a, iv.b - iv.a
    if iv.is_exact():
        d = a.denominator * w.denominator * n
        p, step = a.numerator * (d // a.denominator), w.numerator * a.denominator
        return [Fraction(p + k * step, d) for k in ks]
    return [a + (k / n) * w for k in ks]
