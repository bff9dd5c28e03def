"""The symmetric configuration: s(i) = i*k inside degree n = m*k.

Refining k spreads the m+1 selected functionals evenly across the ambient
degree.  The resulting dual bases D^{m,k} = B^m A_{m,k} converge to the
Lagrange basis on the uniform nodes i/m at rate 1/k, with an explicit
entrywise limit

    lim_k  k * (A^{-1} - A_k^{-1})(i, j) = C(i, j),

where A^{-1} = [B_j^m(i/m)] is the collocation matrix and A_k^{-1} = E(s,:)
the selected elevation rows, ``bernstein_embedding(m, n).rows(cfg.selection())``
for ``cfg = SymmetricConfig(m, k)``.  This module builds A_{m,k}, the rate
constant C, and convergence diagnostics.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .bernstein import (
    UNIT_INTERVAL,
    _collocation_int_rows,
    _colloc_inv,
    _elevation_int_rows,
    bform_eval,
    uniform_grid,
)
from .ratmat import Mat, _float_rows, _from_common_denominator
from .subspace import SelectionMap, _bernstein_dual_matrix, make_selection

__all__ = (
    "SymmetricConfig", "symmetric_dual_matrix", "rate_constant", "ConvergenceRecord",
    "convergence_table", "convergence_csv",
)


@dataclass(frozen=True)
class SymmetricConfig:
    """m, refinement k >= 1; ambient degree n = m*k; selection s(i) = i*k.

    m and k go through ``operator.index`` and are kept as ints, so a bool or
    a numpy integer is taken and a float is refused; every refusal is one
    ValueError."""

    m: int
    k: int

    def __post_init__(self):
        try:
            m, k = operator.index(self.m), operator.index(self.k)
        except TypeError:
            m = k = 0
        if m < 1 or k < 1:
            raise ValueError(f"need integers m >= 1 and k >= 1, got m={self.m!r}, k={self.k!r}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)

    @property
    def n(self) -> int:
        return self.m * self.k

    def selection(self) -> SelectionMap:
        return make_selection(self.m, self.n, tuple(i * self.k for i in range(self.m + 1)))


def symmetric_dual_matrix(m: int, k: int) -> Mat:
    """A_{m,k} = E(s,:)^{-1}, exact; the identity when k = 1.  The kernel
    builds half its columns, as for every symmetric selection."""
    cfg = SymmetricConfig(m, k)
    return _bernstein_dual_matrix(cfg.m, cfg.n, tuple(range(0, cfg.n + 1, cfg.k)))


def rate_constant(m: int) -> Mat:
    """Exact first-order constant C for the symmetric configuration, the
    (m+1) x (m+1) limit matrix below; m is checked as :class:`SymmetricConfig`
    checks it.

    With n = mk, E(ik, j) = C(m, j) ((m-i)k)_{m-j} (ik)_j / (mk)_m, and each
    falling factorial expands as (xk)_r = (xk)^r (1 - r(r-1)/(2xk) + O(1/k^2)).
    The powers of k multiply out to the collocation entry M_m(i, j), so
    k (M_m(i, j) - E(ik, j)) -> C(i, j) with, for 0 < i < m,

        C(i, j) = M_m(i, j)/2 * [ j(j-1)/i + (m-j)(m-j-1)/(m-i) - (m-1) ],

    the last term from the denominator (mk)_m.  The boundary rows i in {0, m}
    are zero: there E(ik, :) and M_m(i, :) are the same unit row.  Every row
    sums to zero, as C is the difference of two row-affine matrices.
    """
    m = SymmetricConfig(m, 1).m
    rows, den = _collocation_int_rows(m)
    # i (m-i) times the bracket is an integer; every row goes over 2 den lcm_i i (m-i)
    lcm = math.lcm(*(i * (m - i) for i in range(1, m)))
    C = [[0] * (m + 1) for _ in range(m + 1)]
    for i in range(1, m):
        w = lcm // (i * (m - i))
        for j in range(m + 1):
            bracket = j * (j - 1) * (m - i) + (m - j) * (m - j - 1) * i - (m - 1) * i * (m - i)
            C[i][j] = rows[i][j] * bracket * w
    return _from_common_denominator(C, 2 * den * lcm)


@dataclass(frozen=True)
class ConvergenceRecord:
    k: int
    sup_dist: float
    scaled_mat_dist: float


def _scaled_elevation_distance(colloc: list[list[int]], mm: int, k: int) -> Fraction:
    """k * inf_norm(collocation_matrix(m) - E(s,:)) for the symmetric selection, exact.

    ``colloc, mm`` is ``_collocation_int_rows(m)``, which depends on m only,
    so a table over many k builds it once.  Both matrices come as integer
    rows over a common denominator (m^m and C(mk, m)), so each row's abs-sum
    is an integer over m^m C(mk, m) and the norm is one Fraction.  Both are
    centrosymmetric, entry (m-i, m-j) equal to (i, j), so row m-i of the
    difference has the abs-sum of row i: only rows 0..floor(m/2) are read."""
    m = len(colloc) - 1
    elev, cnm = _elevation_int_rows(m, m * k, range(0, m // 2 * k + 1, k))
    top = 0  # plain loops: cheaper per entry than nested generator expressions
    for cr, er in zip(colloc, elev):
        row = 0
        for x, y in zip(cr, er):
            row += abs(x * cnm - y * mm)
        if row > top:
            top = row
    return Fraction(k * top, mm * cnm)


# values per sweep array of one bform_eval call in convergence_table: a group
# of k holds at most this many, so memory does not grow with the k list or grid
_GROUP_VALUES = 1 << 16


def convergence_table(m: int, k_list, samples: int = 201) -> list[ConvergenceRecord]:
    """Distance diagnostics of D^{m,k} from the Lagrange basis, per k.

    sup_dist: max over basis index i and a uniform grid of
    |D_i^{m,k}(t) - L_i^m(t)|.  scaled_mat_dist: k * inf-norm of
    (collocation_matrix(m) - E(s,:)), which stabilizes near inf_norm(C).
    The grid is the only float work here; numpy is imported on first call.
    The float matrix of each A_{m,k} is read off its integer view, so its
    Fraction entries are never built.  The differences A_k - A_L of a group
    of k sit side by side in one block for one :func:`bform_eval` call, and
    each k takes the maximum of its own columns (exact, so no bit moves); a
    group's sweep array holds at most ``_GROUP_VALUES`` values, or one k.
    ``k_list`` may be any iterable; m and every k are checked as
    :class:`SymmetricConfig` checks them before any work.
    """
    import numpy as np

    configs = [SymmetricConfig(m, k) for k in k_list]
    if not configs:
        raise ValueError("k_list must be nonempty")
    m, k_list = configs[0].m, [cfg.k for cfg in configs]
    lagrange = np.array(_float_rows(_colloc_inv(m)))
    grid = uniform_grid(UNIT_INTERVAL, samples)
    colloc = _collocation_int_rows(m)
    group = max(1, _GROUP_VALUES // (m * (m + 1) * samples))
    out = []
    for g in range(0, len(k_list), group):
        ks = k_list[g:g + group]
        diffs = np.array([_float_rows(symmetric_dual_matrix(m, k)) for k in ks]) - lagrange
        block = diffs.transpose(1, 0, 2).reshape(m + 1, -1)  # column (m+1) j + i: D_i - L_i of the j-th k
        col_sups = np.abs(bform_eval(block, UNIT_INTERVAL, grid)).max(axis=0)
        sups = col_sups.reshape(len(ks), m + 1).max(axis=1)
        for k, sup in zip(ks, sups):
            scaled = float(_scaled_elevation_distance(*colloc, k))
            out.append(ConvergenceRecord(k=k, sup_dist=float(sup), scaled_mat_dist=scaled))
    return out


def convergence_csv(records) -> str:
    """CSV with header ``k,sup_dist,scaled_mat_dist`` (floats at 17 significant digits)."""
    return "k,sup_dist,scaled_mat_dist\n" + "".join(
        f"{r.k},{r.sup_dist:.17g},{r.scaled_mat_dist:.17g}\n" for r in records)
