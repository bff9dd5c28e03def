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

Both facts come from one identity.  The elevation entries are
E(k, j) = C(m, j) psi_j(k) / (n)_m, with the discrete Bernstein basis
psi_j(x) = (x)_j (n - x)_{m-j} of degree m, so lambda_k^n is evaluation at
k after the map T: B_j^m -> C(m, j) psi_j / (n)_m, and E(s,:) is the
evaluation matrix of T B^m at the integer nodes s.  For m <= n the psi_j
are a basis, so E(s,:) is invertible exactly when the nodes are distinct,
and column i of A is the B-form of T^{-1} l_i, l_i the Lagrange polynomial
on s.  The Bernstein A is built from that closed form in integers; no
elimination runs.  In the psi basis of degree d, psi_j^{(d)}(x) =
(x)_j (n - x)_{d-j}, a linear factor acts by a two-term recurrence,

    (n - d)(x - c) psi_j^{(d)} = (n - d + j - c) psi_{j+1}^{(d+1)} + (j - c) psi_j^{(d+1)},

so one product over the nodes holds every Lagrange numerator, and each is
its exact quotient by one factor: O(m^2) integer work for all columns,
with no change of basis after it (:func:`dual_basis`).  The power A is
E(s,:)^T, as E(s,:) holds unit rows.  Both A and E(s,:) are handed to
:class:`~dualbern.ratmat.Mat` as integer rows over one denominator, and
the duality check runs on those integers.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

from .bernstein import (
    BPoly,
    Interval,
    UNIT_INTERVAL,
    _check_degrees,
    _degree,
    _elevation_int_rows,
    bernstein_value,
    xi_nodes,
)
from .ratmat import Mat, SingularMatrixError, _apply_rows, _from_common_denominator, _is_inverse_over


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
    """Validate and build a selection map; raises a SelectionError subclass.
    m, n and the indices go through ``operator.index``, so a float is refused,
    not truncated; a non-integer m or n is a ValueError naming it."""
    m, n = _degree(m, "m"), _degree(n, "n")
    idx = tuple(map(_selection_index, indices))
    if len(idx) != m + 1:
        raise WrongLengthError(f"selection needs {m + 1} indices, got {len(idx)}")
    for i in idx:
        if not 0 <= i <= n:
            raise IndexOutOfRangeError(f"selection index {i} outside 0..{n}")
    if len(set(idx)) != len(idx):
        raise NotInjectiveError(f"selection indices must be distinct, got {idx}")
    return SelectionMap(m, n, idx)


def _selection_index(i) -> int:
    try:
        return operator.index(i)
    except TypeError:
        raise SelectionError(f"selection index {i!r} is not an integer") from None


@dataclass(frozen=True)
class Embedding:
    """An embedding of the degree-m space into degree n: Phi^m = Phi^n E.

    :meth:`rows` builds only the selected rows E(s,:), from one integer row
    formula per kind (:meth:`_int_rows`); the full (n+1) x (m+1) matrix E is
    those rows for s = 0..n, built on first read and kept.  The dual bases
    and the duality check never read E, so an embedding costs nothing until
    something asks for it.  Construction checks the kind and 0 <= m <= n,
    and keeps m and n as ints (taken through ``operator.index``).
    """

    kind: str  # "bernstein" | "power"
    m: int
    n: int

    def __post_init__(self):
        if self.kind not in ("bernstein", "power"):
            raise ValueError(f"embedding kind must be 'bernstein' or 'power', got {self.kind!r}")
        m, n = _check_degrees(self.m, self.n, "elevation" if self.kind == "bernstein" else "embedding")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)

    def rows(self, s) -> Mat:
        """E(s,:): row s(i) of E as row i; IndexError for an index outside 0..n."""
        return _from_common_denominator(*self._int_rows(s))

    def _int_rows(self, s) -> tuple[list[list[int]], int]:
        """E(s,:) as (integer rows, common denominator): the elevation entries
        C(n-k, m-j) C(k, j) over C(n, m) for the Bernstein kind, the unit
        rows e_k of the identity block I(:, 0:m) over 1 (zero rows for k > m)
        for the power kind.  IndexError for an index outside 0..n."""
        s = tuple(s)
        _check_row_indices(s, self.n)
        if self.kind == "bernstein":
            return _elevation_int_rows(self.m, self.n, s)
        return [[int(k == j) for j in range(self.m + 1)] for k in s], 1

    @functools.cached_property
    def E(self) -> Mat:
        return self.rows(range(self.n + 1))


def _check_row_indices(s, n: int):
    for k in s:
        if not 0 <= k <= n:
            raise IndexError(f"row index {k} out of range for {n + 1}-row matrix")


def bernstein_embedding(m: int, n: int) -> Embedding:
    return Embedding("bernstein", m, n)


def power_embedding(m: int, n: int) -> Embedding:
    """Power-basis embedding: E = I(:, 0:m), an (n+1) x (m+1) identity block."""
    return Embedding("power", m, n)


@dataclass(frozen=True)
class DualBasis:
    """The basis D^m = Phi^m A with A = E(s,:)^{-1}, over an interval.

    Phi^m is the basis of the embedding's kind: B^m for the Bernstein kind,
    where element i has B-form coefficients A(:, i), and the power basis for
    the power kind.  Duality means E(s,:) A = I, i.e. the selected ambient
    functionals are biorthogonal to the D_i.
    """

    m: int
    n: int
    s: SelectionMap
    A: Mat
    interval: Interval
    kind: str = "bernstein"

    def bform(self, v) -> BPoly:
        """sum_i v_i D_i^m as a B-form polynomial: its coefficients are A . v
        (exact for exact v).  Bernstein kind only: for the power kind A . v
        holds power coefficients, so ValueError."""
        if self.kind != "bernstein":
            raise ValueError("bform builds B-forms of Bernstein-embedding bases only")
        if len(v) != self.m + 1:
            raise ValueError(f"need {self.m + 1} values, got {len(v)}")
        return BPoly(self.m, self.interval, _apply_rows(self.A, range(self.m + 1), v))


def dual_basis(emb: Embedding, s: SelectionMap, iv: Interval = UNIT_INTERVAL) -> DualBasis:
    """Construct the dual basis for a selection; raises SingularMatrixError
    when the selected functionals are not linearly independent on the
    subspace (expected for power-basis selections other than (0..m)).

    Bernstein embedding: A = E(s,:)^{-1} in closed form (see the module
    docstring).  With N_i(x) = prod_{r != i} (x - s(r)) and
    D_i = N_i(s(i)), the Lagrange polynomial is l_i = N_i / D_i, and
    column i of A is the B-form of T^{-1} l_i.  The coefficients of
    F = (n)_{m+1} prod_r (x - s(r)) = sum_{j<=m+1} F_j psi_j^{(m+1)} are
    built one node at a time by the recurrence of the module docstring: at
    the d-th node c, F'_j = (n - d + j - 1 - c) F_{j-1} + (j - c) F_j.  For
    column i, with c = s(i), the quotient G = F / ((n - m)(x - c)) =
    (n)_m N_i = sum_{j<=m} G_j psi_j^{(m)} solves
    F_j = (n - m + j - 1 - c) G_{j-1} + (j - c) G_j: upward for j < c,
    dividing by j - c, and downward for j - 1 >= c, dividing by
    n - m + j - 1 - c >= n - m > 0.  T^{-1} takes C(m, j) psi_j / (n)_m to
    B_j^m, so T^{-1} N_i has B-form coefficients G_j / C(m, j), and

        A(r, i) = G_r / (C(m, r) D_i).

    Every division is exact: T^{-1} also takes (x)_j to (n)_j u^j, and N_i
    has integer coefficients in the falling factorials (x)_j, so the G_j,
    the coefficients of T^{-1} N_i in the u^j (1-u)^(m-j), are integers.
    Column i is over lcm_r C(m, r) D_i, and each column's scale takes it
    to the lcm of those denominators, so A is handed over as integers.  At
    n = m the factor n - m vanishes, but there E = I and A is the
    transposed permutation, A(r, i) = [r = s(i)].  A symmetric
    selection, s(i) + s(m-i) = n in the given order, has a centrosymmetric
    A, A(r, m-i) = A(m-r, i): the reflection R p(u) = p(1-u) maps B_j^m to
    B_{m-j}^m and satisfies lambda_k^n(R p) = lambda_{n-k}^n(p), so
    R D_i is dual to the selection at m-i and equals D_{m-i}.  Columns
    0..floor(m/2) are built and reversed for the rest.  Power
    embedding: E(s,:) holds the unit rows e_{s(i)} (zero rows for s(i) > m),
    so A = E(s,:)^T when {s(i)} = {0..m}; otherwise SingularMatrixError
    names the first column c not in s, where elimination finds no pivot.
    """
    if (s.m, s.n) != (emb.m, emb.n):
        raise SelectionError(
            f"selection ({s.m},{s.n}) does not match embedding ({emb.m},{emb.n})"
        )
    if emb.kind == "bernstein":
        A = _bernstein_dual_matrix(emb.m, emb.n, s.indices)
    else:
        A = _power_dual_matrix(emb, s.indices)
    return DualBasis(emb.m, emb.n, s, A, iv, emb.kind)


def _bernstein_dual_matrix(m: int, n: int, s: tuple) -> Mat:
    """E(s,:)^{-1} for the Bernstein embedding by the closed form of
    :func:`dual_basis`; a symmetric selection builds half the columns and
    half the node denominators.  A repeated index raises SingularMatrixError,
    at n = m too."""
    _check_row_indices(s, n)
    combs = [math.comb(m, j) for j in range(m + 1)]
    lcm = math.lcm(*combs)
    # a symmetric selection builds columns 0..m/2; |D_{m-i}| = |D_i|, so their
    # denominators have the lcm of all m + 1, and the first index that repeats
    # lies among them (a repeat s(i) = s(r) with m/2 < i < r mirrors to m-r, m-i)
    symmetric = all(si + s[m - i] == n for i, si in enumerate(s))
    nodes = s[:m // 2 + 1] if symmetric else s
    # plain loops over the entries, here and below: a comprehension over zipped,
    # enumerated or concatenated lists costs about twice as much per step
    denoms = []  # lcm D_i, D_i = prod_{r != i} (s(i) - s(r)); node i is left out by position
    for i, si in enumerate(nodes):
        d = lcm
        for x in s[:i]:
            d *= si - x
        for x in s[i + 1:]:
            d *= si - x
        denoms.append(d)
    if 0 in denoms:
        raise SingularMatrixError(f"singular matrix: selection index {s[denoms.index(0)]} repeats")
    den = math.lcm(*denoms)  # column i is over denoms[i]: scaled by den // denoms[i]
    if n == m:  # E = I, so A is the transposed permutation
        return _from_common_denominator([[den * (r == si) for si in s] for r in range(m + 1)], den)
    scale = [lcm // x for x in combs]
    full = [1]  # F = (n)_{m+1} prod_r (x - s(r)) in the psi_j^{(m+1)}
    for d, c in enumerate(s):
        # F'_j = (n-d+j-1-c) F_{j-1} + (j-c) F_j: both factors step by 1 with j
        up, down, prev, nxt = n - d - 1 - c, -c, 0, []
        for y in full:
            nxt.append(up * prev + down * y)
            up += 1
            down += 1
            prev = y
        nxt.append(up * prev)
        full = nxt
    cols = []
    for c, d in zip(nodes, denoms):
        # G = F / ((n-m)(x - c)) = (n)_m N_i from F_j = (n-m+j-1-c) G_{j-1} + (j-c) G_j
        w, q, f, b = [0] * (m + 1), 0, den // d, n - m - 1 - c
        for j in range(min(c, m + 1)):  # upward while j < c
            q = (full[j] - (b + j) * q) // (j - c)
            w[j] = q * scale[j] * f
        q = 0
        for j in range(m, c - 1, -1):  # downward while j >= c: b+j+1 = n-m+j-c >= n-m > 0
            q = (full[j + 1] - (j + 1 - c) * q) // (b + j + 1)
            w[j] = q * scale[j] * f
        cols.append(w)
    cols += [col[::-1] for col in reversed(cols[:m + 1 - len(cols)])]
    return _from_common_denominator(zip(*cols), den)


def _power_dual_matrix(emb: Embedding, s: tuple) -> Mat:
    """E(s,:)^{-1} for the power embedding by the closed form of :func:`dual_basis`."""
    rows, _ = emb._int_rows(s)  # unit rows over 1; IndexError for an index past n
    missing = set(range(emb.m + 1)).difference(s)
    if missing:
        raise SingularMatrixError(f"singular matrix: no pivot in column {min(missing)}")
    return _from_common_denominator(zip(*rows), 1)


def dual_basis_eval(db: DualBasis, i: int, t):
    """D_i^m(t) = sum_j B_j^m(t) A(j, i).  (B-form evaluation; Bernstein kind.)"""
    if db.kind != "bernstein":
        raise ValueError("dual_basis_eval evaluates Bernstein-embedding bases only")
    if not 0 <= i <= db.m:
        raise IndexError(f"dual basis index {i} out of range 0..{db.m}")
    return sum(bernstein_value(db.m, j, t, db.interval) * db.A[j, i] for j in range(db.m + 1))


def verify_duality(db: DualBasis) -> bool:
    """Exact check that the selected functionals are biorthogonal to D^m.

    The ambient functional dual to Phi_k^n takes Phi_j^m = sum_r Phi_r^n E(r, j)
    to E(k, j), so it takes D_c = sum_j Phi_j^m A(j, c) to (E(s,:) A)(i, c)
    for k = s(i): duality is the identity E(s,:) A = I, for either
    embedding.  It is checked on integers: E(s,:) comes as integer rows over
    one common denominator (elevation entries C(n-k, m-j) C(k, j) over
    C(n, m), or unit rows over 1) from the row formula of E itself, built
    independently of the kernel that computed the Bernstein A, so the check
    does not rest on that closed form; A is read in its integer view, and the
    integer dot products are compared with the identity (the routine behind
    :func:`~dualbern.ratmat.is_inverse`).
    Raises ValueError unless A is (m+1) x (m+1) and the kind is bernstein or power.
    """
    return _is_inverse_over(*Embedding(db.kind, db.m, db.n)._int_rows(db.s), db.A)


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


def linear_precision_check(db: DualBasis) -> float:
    """Max deviation of sum_i xi^n_{s(i)} D_i^m from the identity t.

    The dual basis reproduces t with the SELECTED ambient nodes as
    coefficients: in B-form that reads A . xi^n_s = xi^m, the degree-m nodes.
    The result is max_r |(A . xi^n_s)_r - xi^m_r|, which bounds the deviation
    everywhere on [a, b] (the B_r^m are a nonnegative partition of unity); it
    is exactly 0.0 on an exact interval and rounding-sized on a float one.
    Needs m >= 1, like :func:`~dualbern.operators.stability_report` (a
    degree-0 basis cannot reproduce t), and the Bernstein kind, like
    :meth:`DualBasis.bform` (ValueError otherwise).
    """
    if db.m < 1:
        raise ValueError(f"linear precision needs m >= 1 (nodes i/m), got m={db.m}")
    nodes = xi_nodes(db.n, db.interval)
    p = db.bform([nodes[k] for k in db.s])
    return float(max(abs(c - x) for c, x in zip(p.coeffs, xi_nodes(db.m, db.interval))))
