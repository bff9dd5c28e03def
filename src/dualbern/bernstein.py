"""Bernstein basis machinery over a general interval [a, b].

The degree-m Bernstein basis in the local parameter u = (t - a)/(b - a) is

    B_i^m(t) = C(m, i) * (1 - u)^(m - i) * u^i,          i = 0..m,

a nonnegative partition of unity.  This module provides evaluation (direct
and de Casteljau), the degree-elevation matrix E with B^m = B^n E (one row
formula, which also builds any chosen rows E(s,:) alone), the collocation
matrix, one Fraction per entry, and its cached inverse, the Pascal matrix
and power-basis conversion, the endpoint dual functionals lambda_k^n (left
and right forms) and their real-index generalization, which share one
running-ratio sum, and uniform node vectors.  On exact input the two
power-basis conversions work on integer numerators over one common
denominator and build one Fraction per output coefficient; B-form to power
runs one forward-difference routine for exact and float input alike.

The collocation inverse has a closed form rather than a generic elimination:
its columns are the B-form coefficients of the Lagrange polynomials on the
nodes k/n, and since nu - k = (n-k)u - k(1-u), each Lagrange numerator
prod_{k != i} (nu - k) is an integer combination of u^j (1-u)^(n-j), which is
C(n, j)^{-1} B_j^n.  Building it is O(n^2) integer arithmetic.

Exactness convention: whenever inputs are ints or Fractions, results are
exact Fractions; float inputs flow through as floats.  All matrices returned
here are exact (:class:`dualbern.ratmat.Mat`).  The one float layer is
:func:`uniform_grid` with :func:`bform_eval`: every float sample grid and
every grid evaluation of a B-form polynomial in the package goes through it.
It is the only part of this module that uses numpy, and it imports numpy
when first called, so the exact layer loads without it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .ratmat import Mat, _over_common_denominator, binomial

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
    """

    degree: int
    interval: Interval
    coeffs: tuple

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) != self.degree + 1:
            raise ValueError(
                f"need {self.degree + 1} coefficients for degree {self.degree}, "
                f"got {len(self.coeffs)}"
            )

    def __call__(self, t):
        return de_casteljau_eval(self, t)


@dataclass(frozen=True)
class NodeVector:
    """Uniform nodes xi_i = a + (i/n)(b - a), i = 0..n (strictly increasing)."""

    n: int
    interval: Interval
    nodes: tuple

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if len(self.nodes) != self.n + 1:
            raise ValueError("node count must be n+1")
        if any(x >= y for x, y in zip(self.nodes, self.nodes[1:])):
            raise ValueError("nodes must be strictly increasing")

    def __iter__(self):
        return iter(self.nodes)

    def __getitem__(self, i):
        return self.nodes[i]


def bernstein_value(m: int, i: int, t, iv: Interval = UNIT_INTERVAL):
    """Value of B_i^m(t) over the interval; exact for exact inputs."""
    if not 0 <= i <= m:
        raise IndexError(f"basis index {i} out of range 0..{m}")
    u = iv.to_local(t)
    return binomial(m, i) * (1 - u) ** (m - i) * u**i


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
    formula with a = float(iv.a) and w = float(iv.width).  ValueError when
    samples < 2; OverflowError when w*(samples-1), the largest product of
    that order, is not finite."""
    import numpy as np

    if samples < 2:
        raise ValueError(f"a grid needs samples >= 2, got {samples}")
    a, w = float(iv.a), float(iv.width)
    if not math.isfinite(w * (samples - 1)):
        raise OverflowError(f"grid of {samples} points on [{iv.a}, {iv.b}] overflows")
    return a + w * np.arange(samples) / (samples - 1)


def bform_eval(coeffs, iv: Interval, ts) -> np.ndarray:
    """de Casteljau on a float grid, vectorised over the points.

    ``coeffs`` is one coefficient vector (result shape (len(ts),)) or an
    (m+1) x k array whose columns are k polynomials (result (len(ts), k)).
    Entries are converted to float first, which is what the scalar sweep of
    :func:`de_casteljau_eval` does with exact coefficients at a float point;
    the sweeps use only elementwise * and + in the scalar order, so every
    value equals ``de_casteljau_eval`` at that point bit for bit.
    """
    import numpy as np

    u = (np.asarray(ts, dtype=float) - float(iv.a)) / float(iv.width)
    b = np.array(coeffs, dtype=float)
    u = u.reshape((-1,) + (1,) * (b.ndim - 1))
    w = 1.0 - u
    b = b[:, np.newaxis] * np.ones_like(u)
    # like the scalar sweep, overflow and inf * 0 give inf/nan without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(len(b) - 1):
            b = w * b[:-1] + u * b[1:]
    return b[0]


def collocation_matrix(n: int) -> Mat:
    """Exact M_n = [B_j^n(i/n)]_{ij}, rows summing to 1; interval-invariant.

    Its inverse carries the B-form coefficients of the Lagrange basis on the
    uniform nodes (L^n = B^n M_n^{-1}) and turns node values into the data
    map of the quasi-interpolant."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # B_j^n(i/n) = C(n, j) i^j (n-i)^(n-j) / n^n, one Fraction per entry
    nn = n**n
    return Mat([[Fraction(math.comb(n, j) * i**j * (n - i) ** (n - j), nn) for j in range(n + 1)]
                for i in range(n + 1)])


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
    on :func:`collocation_matrix`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    # full[j]: coefficient of u^j (1-u)^(n+1-j) in prod_{k=0}^{n} ((n-k)u - k(1-u))
    full = [1]
    for k in range(n + 1):
        full = [(n - k) * x - k * y for x, y in zip([0] + full, full + [0])]
    cols = []
    for i in range(n + 1):
        # full = ((n-i)u - i(1-u)) * P, so full[j] = (n-i) P[j-1] - i P[j]
        if i:
            p, prev = [], 0
            for q in full[:-1]:
                prev = ((n - i) * prev - q) // i
                p.append(prev)
        else:  # the factor is n u
            p = [q // n for q in full[1:]]
        denom = (-1) ** (n - i) * math.factorial(i) * math.factorial(n - i)
        cols.append([Fraction(p[j], math.comb(n, j) * denom) for j in range(n + 1)])
    return Mat(zip(*cols))


def elevation_matrix(m: int, n: int) -> Mat:
    """The (n+1) x (m+1) degree-elevation matrix E with B^m = B^n E.

    E(i, j) = C(n-i, m-j) * C(i, j) / C(n, m).  Every row sums to 1
    (Chu–Vandermonde), rows 0 and n are unit rows e_0 and e_m, and all
    entries are nonnegative.
    """
    _check_degrees(m, n)
    return _elevation_rows(m, n, range(n + 1))


def _check_degrees(m: int, n: int, what: str = "elevation"):
    if m > n:
        raise ValueError(f"{what} needs m <= n, got m={m} n={n}")
    if m < 0:
        raise ValueError("degrees must be nonnegative")


def _elevation_rows(m: int, n: int, rows) -> Mat:
    """The rows of :func:`elevation_matrix` with the given indices, in order."""
    denom = math.comb(n, m)
    return Mat(
        [[Fraction(math.comb(n - i, m - j) * math.comb(i, j), denom) for j in range(m + 1)]
         for i in rows]
    )


def pascal_matrix(n: int) -> Mat:
    """Lower-triangular Pascal matrix T(i, j) = C(i, j), size (n+1) x (n+1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return Mat([[binomial(i, j) for j in range(n + 1)] for i in range(n + 1)])


def power_to_bform(power_coeffs: Sequence, n: int, iv: Interval = UNIT_INTERVAL) -> BPoly:
    """B-form of p(u) = sum_j c_j u^j (local parameter), elevated to degree n.

    Shorter coefficient lists are zero-padded.  The conversion is
    alpha_i = sum_j [C(i, j)/C(n, j)] c_j  (i.e. alpha = T_n D_n^{-1} c with
    T_n the Pascal matrix and D_n = diag C(n, j)).

    Exact input (ints and Fractions) gives exact output in integers: the
    w_j = c_j / C(n, j) up to the degree d of p are put over one common
    denominator, the Pascal sum runs on their integer numerators as a
    difference table read forwards from its diagonal (O(n d) additions), and
    each alpha_i is one Fraction.  Any float coefficient keeps the loop of
    Fraction ratios times coefficients, so float results keep their bits.
    """
    c = list(power_coeffs)
    if len(c) > n + 1:
        raise ValueError(f"{len(c)} power coefficients exceed degree {n}")
    c += [0] * (n + 1 - len(c))
    if all(_is_exact(x) for x in c):
        w, den = _over_common_denominator(
            [Fraction(x) / math.comb(n, j) for j, x in enumerate(c[: _support_degree(c) + 1])]
        )
        return BPoly(n, iv, tuple(Fraction(x, den) for x in _int_pascal_sum(w, n + 1)))
    support = [j for j, v in enumerate(c) if v != 0]  # zero terms add nothing
    alpha = [
        sum((binomial(i, j) / binomial(n, j)) * c[j] for j in support if j <= i)
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
    themselves, so float results keep their bits.
    """
    n = p.degree
    zero = p.coeffs[0] * 0  # 0 or 0.0, matching the coefficient arithmetic
    if all(_is_exact(x) for x in p.coeffs):
        nums, den = _over_common_denominator(p.coeffs)
        diffs = _forward_differences(nums)
        out = tuple(Fraction(math.comb(n, j) * d, den) for j, d in enumerate(diffs))
    else:
        out = tuple(binomial(n, j) * d for j, d in enumerate(_forward_differences(list(p.coeffs))))
    return out + (zero,) * (n + 1 - len(out))


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
    (Delta^j b)(0) of the difference table of b, and each step
    Delta^j b(r+1) = Delta^j b(r) + Delta^(j+1) b(r) reads off the next b(r),
    so the cost is count * len(w) additions."""
    v = list(w)
    out = []
    for _ in range(count):
        out.append(v[0])
        for j in range(len(v) - 1):
            v[j] += v[j + 1]
    return out


def _support_degree(c) -> int:
    """Largest index with a nonzero entry (0 for the zero sequence)."""
    for j in range(len(c) - 1, -1, -1):
        if c[j] != 0:
            return j
    return 0


def _check_degree(n: int, p: BPoly):
    if p.degree > n:
        raise ValueError(f"polynomial degree {p.degree} exceeds ambient degree {n}")


def _check_functional_args(n: int, k: int, p: BPoly):
    if not 0 <= k <= n:
        raise ValueError(f"functional index {k} out of range 0..{n}")
    _check_degree(n, p)


def _ratio_sum(n: int, xn, c):
    """sum_{j=0}^{min(floor(xn), deg)} [prod_{t=0}^{j-1} (xn - t)/(n - t)] c_j.

    The running product is C(xn, j)/C(n, j), exact for an exact xn; c are the
    local power coefficients of the polynomial."""
    top = min(math.floor(xn), _support_degree(c))
    out = c[0]
    ratio = 1
    for j in range(1, top + 1):
        ratio = ratio * (xn - (j - 1)) / (n - (j - 1))
        out = out + ratio * c[j]
    return out


def dual_functional_apply(n: int, k: int, p: BPoly):
    """The left-endpoint dual functional lambda_k^n applied to p.

    lambda_k^n = sum_{j=0}^{k} [C(k,j)/C(n,j)] (b-a)^j / j! * (D^j at a);
    in terms of the local power coefficients c of p this collapses to

        lambda_k^n p = sum_{j=0}^{min(k, deg p)} [C(k,j)/C(n,j)] c_j

    because the (b-a)^j factor cancels the chain rule exactly: the integer
    case xn = k of :func:`generalized_dual_apply`.  These functionals are
    dual to the Bernstein basis: lambda_k^n B_i^n = delta_ki.
    """
    _check_functional_args(n, k, p)
    return _ratio_sum(n, Fraction(k), bform_to_power(p))


def dual_functional_apply_right(n: int, k: int, p: BPoly):
    """The same functional in its right-endpoint form.

    lambda_k^n p = sum_{j=0}^{n-k} (-1)^j [C(n-k,j)/C(n,j)] d_j where
    d_j = q^{(j)}(1)/j! = sum_{l>=j} C(l,j) c_l are the local Taylor
    coefficients at u = 1: the running-ratio sum at xn = n - k over the
    signed (-1)^j d_j.  Agrees with the left form for every p of degree
    <= n; for higher-degree arguments the two forms may disagree (the
    functionals only coincide on that space).
    """
    _check_functional_args(n, k, p)
    c = bform_to_power(p)
    deg = _support_degree(c)  # entries beyond it contribute nothing
    top = min(n - k, deg)
    d = [(-1) ** j * sum(binomial(l, j) * c[l] for l in range(j, deg + 1)) for j in range(top + 1)]
    return _ratio_sum(n, Fraction(n - k), d)


def generalized_dual_apply(n: int, x, p: BPoly):
    """Real-index dual functional lambda_{xn}^n applied to p, 0 <= x <= 1.

    The binomial ratio generalizes through falling factorials:

        C(xn, j)/C(n, j) = prod_{t=0}^{j-1} (xn - t)/(n - t),

    so no gamma function is needed.  The sum runs to min(floor(xn), deg p).
    As n grows, lambda_{xn}^n p -> p(x) at rate O(1/n).  Like
    :func:`dual_functional_apply`, it raises ValueError when p has degree
    above n (the functional is defined on the degree-n space only).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= x <= 1:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    _check_degree(n, p)
    xn = Fraction(x) * n if _is_exact(x) else x * n
    return _ratio_sum(n, xn, bform_to_power(p))


def xi_nodes(n: int, iv: Interval = UNIT_INTERVAL) -> NodeVector:
    """Uniform node vector xi_i = a + (i/n)(b-a); exact for exact intervals."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return NodeVector(n, iv, tuple(iv.from_local(Fraction(i, n)) for i in range(n + 1)))
