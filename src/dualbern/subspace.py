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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bernstein import (
    BPoly,
    Interval,
    UNIT_INTERVAL,
    bernstein_value,
    dual_functional_apply,
    dual_functional_apply_right,
    elevation_matrix,
    xi_nodes,
)
from .ratmat import Mat, mat_inv, mat_mul, row_select


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
    """An embedding of the degree-m space into degree n: Phi^m = Phi^n E."""

    kind: str  # "bernstein" | "power"
    m: int
    n: int
    E: Mat


def bernstein_embedding(m: int, n: int) -> Embedding:
    return Embedding("bernstein", m, n, elevation_matrix(m, n))


def power_embedding(m: int, n: int) -> Embedding:
    """Power-basis embedding: E = I(:, 0:m), an (n+1) x (m+1) identity block."""
    if m > n:
        raise ValueError(f"embedding needs m <= n, got m={m} n={n}")
    E = Mat([[Fraction(int(i == j)) for j in range(m + 1)] for i in range(n + 1)])
    return Embedding("power", m, n, E)


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
    subspace (expected for power-basis selections other than (0..m))."""
    if (s.m, s.n) != (emb.m, emb.n):
        raise SelectionError(
            f"selection ({s.m},{s.n}) does not match embedding ({emb.m},{emb.n})"
        )
    A = mat_inv(row_select(emb.E, s))
    return DualBasis(emb.m, emb.n, s, A, iv, emb.kind)


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
    degree-n space) and compares with the identity matrix, exactly.  For the
    power embedding (whose dual functionals are endpoint derivatives against
    monomials rather than the Bernstein family) the equivalent exact matrix
    identity E(s,:) A = I is checked instead.
    """
    if db.kind != "bernstein":
        E = power_embedding(db.m, db.n).E
        return mat_mul(row_select(E, db.s), db.A) == Mat.identity(db.m + 1)
    columns = [BPoly(db.m, db.interval, db.A.col(c)) for c in range(db.m + 1)]
    return _gram(db.n, db.s, columns, dual_functional_apply) == Mat.identity(db.m + 1)


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
