"""Selection-based dual bases of polynomial subspaces.

A degree-m subspace sits inside degree n through an embedding matrix E with
Phi^m = Phi^n E (Bernstein: the elevation matrix; power basis: the identity
block I(:, 0:m)).  Picking m+1 of the n+1 ambient dual functionals via an
injective selection map s gives the square matrix E(s,:); when it is
invertible, the dual basis of the subspace is

    D^m = B^m A,      A = E(s,:)^{-1},

biorthogonal to the selected functionals; :func:`dual_basis` is the one
place that forms A.  For the Bernstein embedding every selection works
(completeness: det E(s,:) has a closed form, nonzero for distinct indices;
see :func:`is_complete`); for the power basis only s = (0..m) does.

Both facts come from one identity.  With c the local power coefficients of
p, lambda_k^n p = sum_j c_j (k)_j / (n)_j, so lambda_k^n is evaluation at k
after the map T: u^j -> (x)_j / (n)_j, and

    E(s,:) = [(s_i)_j] diag(1/(n)_j) P,

P holding the power coefficients of the B_j^m.  E(s,:) is therefore the
evaluation matrix of T B^m at the integer nodes s, and column i of A is the
B-form of T^{-1} l_i, l_i the Lagrange polynomial on s.  The Bernstein A is
built from that closed form in integers; no elimination runs.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .bernstein import (
    BPoly,
    Interval,
    UNIT_INTERVAL,
    _check_degrees,
    _int_forward_differences,
    _int_pascal_sum,
    bernstein_value,
    dual_functional_apply,
    dual_functional_apply_right,
    elevation_matrix,
    xi_nodes,
)
from .ratmat import Mat, SingularMatrixError, mat_inv, mat_mul, row_select


class SelectionError(ValueError):
    """Invalid selection map."""


class NotInjectiveError(SelectionError):
    pass


class IndexOutOfRangeError(SelectionError):
    pass


class WrongLengthError(SelectionError):
    pass


@dataclass(frozen=True)
class SelectionMap:
    """Injective map s : {0..m} -> {0..n}, stored as the tuple (s(0), ..., s(m)).

    Iterating yields the selected indices, so a SelectionMap can be passed
    anywhere a list of row indices is expected.
    """

    m: int
    n: int
    indices: tuple

    def __iter__(self):
        return iter(self.indices)

    def __len__(self):
        return len(self.indices)

    def __getitem__(self, i):
        return self.indices[i]


def make_selection(m: int, n: int, indices) -> SelectionMap:
    """Validate and build a selection map; raises a SelectionError subclass."""
    idx = tuple(int(i) for i in indices)
    if len(idx) != m + 1:
        raise WrongLengthError(f"selection needs {m + 1} indices, got {len(idx)}")
    for i in idx:
        if not 0 <= i <= n:
            raise IndexOutOfRangeError(f"selection index {i} outside 0..{n}")
    if len(set(idx)) != len(idx):
        raise NotInjectiveError(f"selection indices must be distinct, got {idx}")
    return SelectionMap(m, n, idx)


@dataclass(frozen=True)
class Embedding:
    """An embedding of the degree-m space into degree n: Phi^m = Phi^n E.

    E is built from (kind, m, n) on first read and kept: the Bernstein dual
    basis and its checks never read it, so an embedding costs nothing until
    something asks for the (n+1) x (m+1) matrix.
    """

    kind: str  # "bernstein" | "power"
    m: int
    n: int

    @functools.cached_property
    def E(self) -> Mat:
        if self.kind == "bernstein":
            return elevation_matrix(self.m, self.n)
        # the power basis: the identity block I(:, 0:m)
        return Mat([[Fraction(int(i == j)) for j in range(self.m + 1)] for i in range(self.n + 1)])


def bernstein_embedding(m: int, n: int) -> Embedding:
    _check_degrees(m, n)
    return Embedding("bernstein", m, n)


def power_embedding(m: int, n: int) -> Embedding:
    """Power-basis embedding: E = I(:, 0:m), an (n+1) x (m+1) identity block."""
    _check_degrees(m, n, "embedding")
    return Embedding("power", m, n)


@dataclass(frozen=True)
class DualBasis:
    """The basis D^m = B^m A with A = E(s,:)^{-1}, over an interval.

    Element i has B-form coefficients A(:, i); duality means E(s,:) A = I,
    i.e. the selected ambient functionals are biorthogonal to the D_i.
    """

    m: int
    n: int
    s: SelectionMap
    A: Mat
    interval: Interval
    kind: str = "bernstein"

    def bform(self, v) -> BPoly:
        """sum_i v_i D_i^m as a B-form polynomial: its coefficients are A . v
        (exact for exact v)."""
        if len(v) != self.m + 1:
            raise ValueError(f"need {self.m + 1} values, got {len(v)}")
        coeffs = (sum(a * x for a, x in zip(self.A.row(r), v)) for r in range(self.m + 1))
        return BPoly(self.m, self.interval, coeffs)


def dual_basis(emb: Embedding, s: SelectionMap, iv: Interval = UNIT_INTERVAL) -> DualBasis:
    """Construct the dual basis for a selection; raises SingularMatrixError
    when the selected functionals are not linearly independent on the
    subspace (expected for power-basis selections other than (0..m)).

    Bernstein embedding: A = E(s,:)^{-1} in closed form (see the module
    docstring).  With N_i(t) = prod_{r != i} (t - s(r)) and
    D_i = N_i(s(i)), the Lagrange polynomial is l_i = N_i / D_i, and
    Newton's forward formula gives its falling-factorial coefficients
    Delta^j N_i(0) / (j! D_i).  T^{-1} maps (x)_j / j! to C(n, j) u^j, and
    the power-to-B-form step at degree m finishes

        A(r, i) = sum_{j<=r} C(r, j) / C(m, j) * C(n, j) Delta^j N_i(0) / D_i,

    summed in integers over lcm_j C(m, j), one Fraction per entry.  Power
    embedding: E(s,:) is a 0/1 matrix, inverted by :func:`mat_inv`.
    """
    if (s.m, s.n) != (emb.m, emb.n):
        raise SelectionError(
            f"selection ({s.m},{s.n}) does not match embedding ({emb.m},{emb.n})"
        )
    if emb.kind == "bernstein":
        A = _bernstein_dual_matrix(emb.m, emb.n, s.indices)
    else:
        A = mat_inv(row_select(emb.E, s))
    return DualBasis(emb.m, emb.n, s, A, iv, emb.kind)


def _bernstein_dual_matrix(m: int, n: int, s: tuple) -> Mat:
    """E(s,:)^{-1} for the Bernstein embedding by the closed form of :func:`dual_basis`."""
    for k in s:
        if not 0 <= k <= n:
            raise IndexError(f"row index {k} out of range for {n + 1}-row matrix")
    lcm = math.lcm(*(math.comb(m, j) for j in range(m + 1)))
    scale = [lcm // math.comb(m, j) * math.comb(n, j) for j in range(m + 1)]
    cols = []
    for i, si in enumerate(s):
        others = s[:i] + s[i + 1:]
        denom = math.prod(si - x for x in others) * lcm
        if denom == 0:
            raise SingularMatrixError(f"singular matrix: selection index {si} repeats")
        diffs = _int_forward_differences([math.prod(t - x for x in others) for t in range(m + 1)])
        nums = _int_pascal_sum([d * c for d, c in zip(diffs, scale)], m + 1)
        cols.append([Fraction(x, denom) for x in nums])
    return Mat(zip(*cols))


def dual_basis_eval(db: DualBasis, i: int, t):
    """D_i^m(t) = sum_j B_j^m(t) A(j, i).  (B-form evaluation; Bernstein kind.)"""
    if db.kind != "bernstein":
        raise ValueError("dual_basis_eval evaluates Bernstein-embedding bases only")
    if not 0 <= i <= db.m:
        raise IndexError(f"dual basis index {i} out of range 0..{db.m}")
    return sum(bernstein_value(db.m, j, t, db.interval) * db.A[j, i] for j in range(db.m + 1))


def verify_duality(db: DualBasis) -> bool:
    """Exact check that the selected functionals are biorthogonal to D^m.

    Bernstein embedding: applies the left-endpoint functionals
    lambda_{s(i)}^n to each basis element (a degree-m polynomial inside the
    degree-n space) and compares with the identity matrix, exactly, in
    integers.  Column c of A is put over one common denominator den; the
    forward differences of its numerators times C(m, j) are the integer
    power coefficients P_j = den * c_j.  As lambda_k^n p = sum_j c_j (k)_j / (n)_j
    and (n)_m / (n)_j = (n-j)_{m-j}, duality scaled by the nonzero integer
    (n)_m * den reads

        sum_j (k)_j (n-j)_{m-j} P_j == (n)_m * den * [i == c],   k = s(i),

    with the row weights (k)_j (n-j)_{m-j} formed once per k; (k)_j = 0 for
    j > k, where the running-ratio sum of :func:`dual_functional_apply`
    stops.  The check applies lambda, not the inverse of the map T, so it is
    independent of the closed form that built A.  For the
    power embedding (whose dual functionals are endpoint derivatives against
    monomials rather than the Bernstein family) the equivalent exact matrix
    identity E(s,:) A = I is checked instead.
    """
    m, n = db.m, db.n
    if db.kind != "bernstein":
        E = power_embedding(m, n).E
        return mat_mul(row_select(E, db.s), db.A) == Mat.identity(m + 1)
    powers, scales = [], []
    for c in range(m + 1):
        col = db.A.col(c)
        den = math.lcm(*(x.denominator for x in col))
        diffs = _int_forward_differences([x.numerator * (den // x.denominator) for x in col])
        powers.append([math.comb(m, j) * d for j, d in enumerate(diffs)])
        scales.append(math.perm(n, m) * den)
    tail = [math.perm(n - j, m - j) for j in range(m + 1)]
    for i, k in enumerate(db.s):
        weights = [math.perm(k, j) * t for j, t in enumerate(tail)]
        for c, p in enumerate(powers):
            if sum(map(operator.mul, weights, p)) != scales[c] * (i == c):
                return False
    return True


def _gram(n: int, s, polys, apply_fn) -> Mat:
    """G(i, j) = lambda_{s(i)}^n(polys[j]), with lambda applied by apply_fn."""
    return Mat([[apply_fn(n, k, p) for p in polys] for k in s])


def is_complete(emb: Embedding) -> bool:
    """True iff EVERY selection of m+1 ambient functionals is linearly
    independent on the subspace, i.e. every E(s,:) is invertible.

    Bernstein embedding: always.  lambda_k^n maps the local power
    coefficients c of p to sum_j c_j (k)_j / (n)_j, so E(s,:) factors as
    [(s_i)_j] diag(1/(n)_j) P, where P, the power coefficients of the B_j^m,
    is triangular with diagonal C(m, j).  The falling-factorial Vandermonde
    has the ordinary Vandermonde determinant, so for increasing s

        det E(s,:) = prod_{i<r} (s_r - s_i) * prod_j C(m, j) / prod_j (n)_j,

    nonzero for distinct indices (reordering s only flips the sign).

    Power embedding: E(s,:) holds the unit rows e_{s(i)} (zero rows for
    s(i) > m), so it is invertible only for {s(i)} = {0..m}, which is every
    selection only when m == n.
    """
    return emb.kind == "bernstein" or emb.m == emb.n


def data_map_invariance_check(m: int, n: int, s: SelectionMap) -> bool:
    """Compare the Gram matrices G(i, j) = lambda_{s(i)}^n(B_j^m) of the
    left- and right-endpoint functional families exactly.

    Both equal E(s,:) since the two families are dual to the same ambient
    basis; as A = G^{-1}, equal Grams give the same dual basis.  This check
    exercises both functional code paths end to end.  Raises a
    SelectionError when s is not a selection map into 0..n.
    """
    s = make_selection(m, n, s)
    basis = [BPoly(m, UNIT_INTERVAL, e) for e in Mat.identity(m + 1).to_lists()]
    left = _gram(n, s, basis, dual_functional_apply)
    return left == _gram(n, s, basis, dual_functional_apply_right)


def linear_precision_check(db: DualBasis) -> float:
    """Max deviation of sum_i xi^n_{s(i)} D_i^m from the identity t.

    The dual basis reproduces t with the SELECTED ambient nodes as
    coefficients: in B-form that reads A . xi^n_s = xi^m, the degree-m nodes.
    The result is max_r |(A . xi^n_s)_r - xi^m_r|, which bounds the deviation
    everywhere on [a, b] (the B_r^m are a nonnegative partition of unity); it
    is exactly 0.0 on an exact interval and rounding-sized on a float one.
    """
    nodes = xi_nodes(db.n, db.interval)
    p = db.bform([nodes[k] for k in db.s])
    return float(max(abs(c - x) for c, x in zip(p.coeffs, xi_nodes(db.m, db.interval))))
