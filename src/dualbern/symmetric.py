"""The symmetric configuration: s(i) = i*k inside degree n = m*k.

Refining k spreads the m+1 selected functionals evenly across the ambient
degree.  The resulting dual bases D^{m,k} = B^m A_{m,k} converge to the
Lagrange basis on the uniform nodes i/m at rate 1/k, with an explicit
entrywise limit

    lim_k  k * (A^{-1} - A_k^{-1})(i, j) = C(i, j),

where A^{-1} = [B_j^m(i/m)] is the collocation matrix and A_k^{-1} = E(s,:)
the selected elevation rows.  This module builds A_{m,k}, the rate constant
C, and convergence diagnostics.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction

from .bernstein import UNIT_INTERVAL, _colloc_inv, bernstein_value, bform_eval, uniform_grid
from .ratmat import Mat, inf_norm
from .subspace import SelectionMap, bernstein_embedding, dual_basis, make_selection


@dataclass(frozen=True)
class SymmetricConfig:
    """m, refinement k >= 1; ambient degree n = m*k; selection s(i) = i*k."""

    m: int
    k: int

    def __post_init__(self):
        if self.m < 1 or self.k < 1:
            raise ValueError("need m >= 1 and k >= 1")

    @property
    def n(self) -> int:
        return self.m * self.k

    def selection(self) -> SelectionMap:
        return make_selection(self.m, self.n, tuple(i * self.k for i in range(self.m + 1)))


@dataclass(frozen=True)
class RateConstant:
    """The (m+1) x (m+1) first-order limit matrix C; boundary rows are zero
    and every row sums to zero (difference of two row-affine matrices)."""

    m: int
    C: Mat


def selected_elevation_rows(m: int, k: int) -> Mat:
    """E(s,:) for the symmetric selection — this is exactly A_{m,k}^{-1}.

    Only the m+1 selected rows are built, by
    :meth:`~dualbern.subspace.Embedding.rows`."""
    cfg = SymmetricConfig(m, k)
    return bernstein_embedding(m, cfg.n).rows(cfg.selection())


def symmetric_dual_matrix(m: int, k: int) -> Mat:
    """A_{m,k} = E(s,:)^{-1}, exact; the identity when k = 1."""
    cfg = SymmetricConfig(m, k)
    return dual_basis(bernstein_embedding(m, cfg.n), cfg.selection()).A


def rate_constant(m: int) -> RateConstant:
    """Exact first-order constant C for the symmetric configuration.

    For 0 < i < m and with w = B_j^m(i/m):

        C(i, j) = (w/2) * [ (j-1) j (m-i) / (i m) * [j > 0]
                            - (m-j)(2 m j - i m + i - i j) / (m (m-i)) * [j < m] ]

    and the boundary rows i in {0, m} are identically zero.  The relative
    MINUS between the two bracket terms is forced by the exact k -> infinity
    expansion of the elevation entries E(ik, j).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    rows = []
    for i in range(m + 1):
        if i == 0 or i == m:
            rows.append([Fraction(0)] * (m + 1))
            continue
        row = []
        for j in range(m + 1):
            w = bernstein_value(m, j, Fraction(i, m)) / 2
            first = Fraction((j - 1) * j * (m - i), i * m) if j > 0 else Fraction(0)
            second = (
                Fraction((m - j) * (2 * m * j - i * m + i - i * j), m * (m - i))
                if j < m
                else Fraction(0)
            )
            row.append(w * (first - second))
        rows.append(row)
    return RateConstant(m, Mat(rows))


@dataclass(frozen=True)
class ConvergenceRecord:
    k: int
    sup_dist: float
    scaled_mat_dist: float


def _scaled_elevation_distance(m: int, k: int) -> Fraction:
    """k * inf_norm(collocation_matrix(m) - selected_elevation_rows(m, k)), exact.

    With n = mk, M_m(i, j) = C(m, j) i^j (m-i)^(m-j) / m^m and
    E(ik, j) = C(n-ik, m-j) C(ik, j) / C(n, m) share the denominator
    m^m C(n, m), so each row's abs-sum is an integer over it and the norm is
    one Fraction."""
    n, mm, cnm = m * k, m**m, math.comb(m * k, m)
    top = max(
        sum(abs(math.comb(m, j) * i**j * (m - i) ** (m - j) * cnm
                - math.comb(n - i * k, m - j) * math.comb(i * k, j) * mm)
            for j in range(m + 1))
        for i in range(m + 1)
    )
    return Fraction(k * top, mm * cnm)


def convergence_table(m: int, k_list, samples: int = 201) -> list[ConvergenceRecord]:
    """Distance diagnostics of D^{m,k} from the Lagrange basis, per k.

    sup_dist: max over basis index i and a uniform grid of
    |D_i^{m,k}(t) - L_i^m(t)|.  scaled_mat_dist: k * inf-norm of
    (collocation_matrix(m) - E(s,:)), which stabilizes near inf_norm(C).
    The grid is the only float work here; numpy is imported on first call.
    """
    import numpy as np

    if m < 1:
        raise ValueError("m must be >= 1")
    if not k_list:
        raise ValueError("k_list must be nonempty")
    lagrange = np.array(_colloc_inv(m).to_lists(), dtype=float)
    grid = uniform_grid(UNIT_INTERVAL, samples)
    out = []
    for k in k_list:
        diff = np.array(symmetric_dual_matrix(m, k).to_lists(), dtype=float) - lagrange
        sup = float(np.max(np.abs(bform_eval(diff, UNIT_INTERVAL, grid))))
        scaled = float(_scaled_elevation_distance(m, k))
        out.append(ConvergenceRecord(k=k, sup_dist=sup, scaled_mat_dist=scaled))
    return out


def rate_bound(m: int, k: int) -> float:
    """The leading-order estimate  inf_norm(A_L)^2 * inf_norm(C) / k  of the
    sup-distance between D^{m,k} and the Lagrange basis, where
    A_L = collocation_matrix(m)^{-1}.

    It is not a bound: it keeps only the 1/k term of A_k - A_L, and the
    exact scaled distance k * inf_norm(M_m - E(s,:)) exceeds inf_norm(C) for
    every m = 2..9 and k = 1..64, so no finite-k argument covers it.  It has
    exceeded the grid sup-distance in every case measured (9x at m = 2,
    630x at m = 5, 2.5e5x at m = 9)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    norm_al = inf_norm(_colloc_inv(m))
    return float(norm_al * norm_al * inf_norm(rate_constant(m).C) / k)


def convergence_csv(records) -> str:
    """CSV with header ``k,sup_dist,scaled_mat_dist`` (floats at 17 significant digits)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "sup_dist", "scaled_mat_dist"])
    for r in records:
        writer.writerow([r.k, format(r.sup_dist, ".17g"), format(r.scaled_mat_dist, ".17g")])
    return buf.getvalue()
