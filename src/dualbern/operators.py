"""Approximation operators on C[a, b] built from dual bases.

Two operators share the dual basis D^m = B^m A of a selection s:

* the quasi-interpolant  Q_s f = sum_i (tilde-lambda_{s(i)}^n f) D_i^m — a
  linear projector onto the degree-m space whose data map tilde-Lambda^n
  needs only point values of f at the uniform degree-n nodes (no
  derivatives): tilde-lambda_j^n f = sum_i M_n^{-1}(j, i) f(xi_i^n) with
  M_n = [B_j^n(i/n)] the collocation matrix;

* the Bernstein-like operator  D_m f = sum_i f(xi^n_{s(i)}) D_i^m, which
  generalizes the classical Bernstein operator (the k = 1 symmetric case).

Reports pair a measured sup-error with the bound of the declared smoothness
class, plus the two exact norms entering every bound.  The bound is not
certified: where it takes sup|f| or omega(f, w) from a grid it is an
estimate (see :class:`OperatorReport`).

Per call, a report builds the dual basis of its selection and the norm of
its A, and samples f once per point, each grid in one C-level loop: at the
nodes the operator reads (n+1 for Q_s, m+1 for D_m), on the report grid, and
on the least-squares grid (Q_s) or the modulus grid (the C0 bound).  At the
default 201 samples the report grid of Q_s is every other point of its
401-point least-squares grid, so Q_s samples n+1+401 points (n+1+samples+401
otherwise); D_m samples m+1+samples, plus 1025 for the C0 bound, whose
omega(f, b - a) is max - min over the whole modulus grid (one window).
Once per degree it builds M_n^{-1} (the cache
of :func:`~dualbern.bernstein._colloc_inv`) and its exact norm, which
:func:`~dualbern.ratmat.inf_norm` keeps on that cached matrix, so clearing
the cache drops both.  Both operators turn data into coefficients in one
place, :func:`~dualbern.ratmat._apply_rows` (the data map on M_n^{-1}, then
:meth:`~dualbern.subspace.DualBasis.bform` on A): it reads the integer view
of the matrix, so float or exact data build no Fraction entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bernstein import (
    BPoly,
    Interval,
    UNIT_INTERVAL,
    _colloc_inv,
    _uniform_nodes,
    bform_eval,
    uniform_grid,
)
from .ratmat import _apply_rows, inf_norm
from .subspace import DualBasis, SelectionMap, bernstein_embedding, dual_basis

# A sampled function is any deterministic callable on [a, b]; it may be
# called with Fraction arguments when the interval is exact (return exact
# values to stay on the rational path, or floats otherwise).
SampledFunction = Callable


@dataclass(frozen=True)
class OperatorReport:
    """Measured sup-error on a grid, the declared bound, and the norms in it.

    bound_kind is "operator-norm" for the quasi-interpolant report and one of
    "C0-modulus" | "C1" | "C2" for the Bernstein-like report.  norm_minv is
    the inf-norm of the inverse collocation matrix at the degree relevant to
    the bound (ambient n for the quasi-interpolant's data map, subspace m for
    the stability-style constants).

    The "operator-norm" bound, ||A|| ||M_n^{-1}|| sup|f|, bounds ||Q_s f||
    and not the error ||f - Q_s f||: at m = n = 1, sin on [pi/2, 5 pi/2]
    gives sup_error 2 and bound 1.  The other three classes bound the error.

    Exact: norm_a and norm_minv.  Not certified: bound, the formula of its
    class evaluated in round-to-nearest floats.  The "operator-norm" and
    "C0-modulus" bounds are estimates: they take sup|f| and omega(f, w) from
    a grid, which can only under-estimate them, so bound may fall below the
    true error.  The "C1" and "C2" bounds hold up to float rounding when the
    caller's d1 / d2 are true derivative sups.
    Measured: sup_error, on a grid.  Estimates, set by the quasi-interpolant
    report only and omitted from JSON when unset: distance_estimate, the
    least-squares residual of distance_to_subspace, and near_best_bound
    (JSON key near_best_estimate) = (1 + operator norm) * distance_estimate.
    """

    sup_error: float
    bound: float
    bound_kind: str
    norm_a: Fraction
    norm_minv: Fraction
    near_best_bound: Optional[float] = None
    distance_estimate: Optional[float] = None

    def to_json_obj(self) -> dict:
        obj = {
            "sup_error": self.sup_error,
            "bound": self.bound,
            "bound_kind": self.bound_kind,
            "norm_A": str(self.norm_a),
            "norm_Minv": str(self.norm_minv),
        }
        estimates = (("distance_estimate", self.distance_estimate),
                     ("near_best_estimate", self.near_best_bound))
        obj.update((key, v) for key, v in estimates if v is not None)
        return obj


def _at_nodes(f: SampledFunction, n: int, ks, iv: Interval) -> list:
    """f(xi_k^n) for each k in ks, with xi_k^n computed as xi_nodes computes it."""
    return [f(x) for x in _uniform_nodes(n, iv, ks)]


def _tilde_lambdas(n: int, indices, f: SampledFunction, iv: Interval) -> list:
    """tilde-lambda_j^n f for each j in indices, sampling f once per node."""
    return _apply_rows(_colloc_inv(n), indices, _at_nodes(f, n, range(n + 1), iv))


def tilde_lambda_apply(n: int, j: int, f: SampledFunction, iv: Interval = UNIT_INTERVAL):
    """tilde-lambda_j^n f = sum_i M_n^{-1}(j, i) f(xi_i^n).

    Dual to B^n using point values only; exact when f returns exact values
    at the exact uniform nodes.  |result| <= sup|f| * inf_norm(M_n^{-1}).
    """
    if not 0 <= j <= n:
        raise ValueError(f"index {j} out of range 0..{n}")
    return _tilde_lambdas(n, (j,), f, iv)[0]


def _dual(m: int, n: int, s: SelectionMap, iv: Interval) -> DualBasis:
    return dual_basis(bernstein_embedding(m, n), s, iv)


def _quasi(db: DualBasis, f: SampledFunction) -> BPoly:
    return db.bform(_tilde_lambdas(db.n, db.s, f, db.interval))


def quasi_interpolant(
    m: int, n: int, s: SelectionMap, f: SampledFunction, iv: Interval = UNIT_INTERVAL
) -> BPoly:
    """Q_s f as a degree-m B-form polynomial: coefficients A . v with
    v_i = tilde-lambda_{s(i)}^n f.  Reproduces every polynomial of degree
    <= m (it is a linear projector onto that space)."""
    return _quasi(_dual(m, n, s, iv), f)


def _sample(f: SampledFunction, ts: np.ndarray) -> np.ndarray:
    """float(f(t)) on the grid, in one C-level loop; f sees Python floats,
    never numpy scalars.  ``float`` is applied before numpy sees a value, so
    an f that returns None or a complex raises TypeError, as float() does."""
    return np.fromiter(map(float, map(f, ts.tolist())), float, len(ts))


def _grid_error(fs: np.ndarray, ts: np.ndarray, p: BPoly) -> float:
    """The grid sup of |f - p|, from the samples fs of f at ts."""
    return float(np.max(np.abs(fs - bform_eval(p.coeffs, p.interval, ts))))


_LSTSQ_SAMPLES = 401


def _lstsq_residual(ts: np.ndarray, vals: np.ndarray, m: int, iv: Interval) -> float:
    """Max residual of the least-squares fit of vals at ts by degree m."""
    a, width = iv._float_aw
    vand = np.vander((ts - a) / width, m + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(vand, vals, rcond=None)
    return float(np.max(np.abs(vals - vand @ coef)))


def distance_to_subspace(f: SampledFunction, m: int, iv: Interval = UNIT_INTERVAL) -> float:
    """Max grid residual of the discrete least-squares fit of f by degree m.

    The fit is a Vandermonde least-squares solve in the local parameter on
    a uniform grid of 401 points.  The returned max residual is an
    upper bound on the minimax distance over that grid; it is not a
    certified bound on the true sup-distance over [a, b]."""
    ts = uniform_grid(iv, _LSTSQ_SAMPLES)
    return _lstsq_residual(ts, _sample(f, ts), m, iv)


def quasi_interpolant_report(
    m: int,
    n: int,
    s: SelectionMap,
    f: SampledFunction,
    iv: Interval = UNIT_INTERVAL,
    samples: int = 201,
) -> OperatorReport:
    """Report for Q_s: grid sup-error |f - Q_s f|, the operator-norm bound
    inf_norm(A) * inf_norm(M_n^{-1}) * sup|f| (which dominates ||Q_s f||),
    and the near-best bound (1 + that operator norm) * d(f, degree-m).

    At the default 201 samples the report grid is every other point of the
    401-point least-squares grid, bit for bit (w*(2q)/400 rounds as w*q/200),
    so f is sampled once per point and the report reads the even samples."""
    db = _dual(m, n, s, iv)
    p = _quasi(db, f)
    ts = uniform_grid(iv, samples)
    lsq_ts = uniform_grid(iv, _LSTSQ_SAMPLES)
    lsq_vals = _sample(f, lsq_ts)
    fs = lsq_vals[::2] if 2 * (samples - 1) == _LSTSQ_SAMPLES - 1 else _sample(f, ts)
    sup_err = _grid_error(fs, ts, p)
    norm_a = inf_norm(db.A)
    norm_minv = inf_norm(_colloc_inv(n))
    sup_f = float(np.max(np.abs(fs)))
    op_norm = float(norm_a * norm_minv)
    dist = _lstsq_residual(lsq_ts, lsq_vals, m, iv)
    return OperatorReport(
        sup_error=sup_err,
        bound=op_norm * sup_f,
        bound_kind="operator-norm",
        norm_a=norm_a,
        norm_minv=norm_minv,
        near_best_bound=(1.0 + op_norm) * dist,
        distance_estimate=dist,
    )


def _bernop(db: DualBasis, f: SampledFunction) -> BPoly:
    return db.bform(_at_nodes(f, db.n, db.s, db.interval))


def bernstein_like(
    m: int, n: int, s: SelectionMap, f: SampledFunction, iv: Interval = UNIT_INTERVAL
) -> BPoly:
    """D_m f = sum_i f(xi^n_{s(i)}) D_i^m, as a degree-m B-form polynomial.

    Coefficients are A . (f at the selected ambient nodes); reproduces affine
    functions exactly (linear precision of the dual basis)."""
    return _bernop(_dual(m, n, s, iv), f)


def modulus_of_continuity(f: SampledFunction, h, iv: Interval = UNIT_INTERVAL) -> float:
    """Grid approximation of omega(f, h) = max |f(x) - f(y)| over |x - y| <= h.

    Samples 1025 uniform points (1024 steps) and takes the largest (max - min) over
    windows spanning parameter distance <= h; a lower bound for the true
    modulus.  Below one grid step no two samples are within h, and the grid
    value is 0.
    """
    _, width = iv._float_aw
    if not 0 < h <= width:
        raise ValueError(f"need 0 < h <= b - a = {width}, got h={h}")
    span = int(float(h) / width * 1024 + 1e-9)  # indices within distance h, at most 1024
    if span == 0:
        return 0.0
    vals = _sample(f, uniform_grid(iv, 1025))
    # like bform_eval, overflow and inf - inf give inf/nan without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if span == 1024:  # one window, the whole grid (h = b - a, the reports' h)
            return float(vals.max() - vals.min())
        windows = sliding_window_view(vals, span + 1)
        return float(np.max(windows.max(axis=1) - windows.min(axis=1)))


_BOUND_KINDS = {"c0": "C0-modulus", "c1": "C1", "c2": "C2"}


def _subspace_minv_norm(m: int) -> Fraction:
    """inf_norm(M_m^{-1}) at the subspace degree; M_m is built on the nodes i/m."""
    if m < 1:
        raise ValueError(f"inf_norm(M_m^-1) needs m >= 1 (nodes i/m), got m={m}")
    return inf_norm(_colloc_inv(m))


def bernstein_like_report(
    m: int,
    n: int,
    s: SelectionMap,
    f: SampledFunction,
    smoothness: str,
    iv: Interval = UNIT_INTERVAL,
    d1: Optional[float] = None,
    d2: Optional[float] = None,
    samples: int = 201,
) -> OperatorReport:
    """Report for the Bernstein-like operator with the bound of the declared
    smoothness class (w = b - a, ||A|| = inf_norm(A)):

        c0:  ||f - D_m f|| <= ||A|| * omega(f, w)
        c1:  ||f - D_m f|| <= w * ||A|| * ||f'||      (d1 = analytic sup|f'|)
        c2:  ||f - D_m f|| <= w^2/2 * ||A|| * ||f''||  (d2 = analytic sup|f''|)

    Derivative norms are caller-supplied closed-form values; nothing is
    differentiated numerically.  norm_minv is inf_norm(M_m^{-1}), so the
    report needs m >= 1 (ValueError otherwise)."""
    kind = _BOUND_KINDS.get(smoothness.lower())
    if kind is None:
        raise ValueError(f"smoothness must be one of c0|c1|c2, got {smoothness!r}")
    norm_minv = _subspace_minv_norm(m)
    db = _dual(m, n, s, iv)
    p = _bernop(db, f)
    ts = uniform_grid(iv, samples)
    sup_err = _grid_error(_sample(f, ts), ts, p)
    norm_a = inf_norm(db.A)
    _, w = iv._float_aw
    if kind == "C0-modulus":
        bound = float(norm_a) * modulus_of_continuity(f, w, iv)
    elif kind == "C1":
        if d1 is None:
            raise ValueError("c1 bound needs d1 = sup|f'| over the interval")
        bound = w * float(norm_a) * d1
    else:
        if d2 is None:
            raise ValueError("c2 bound needs d2 = sup|f''| over the interval")
        bound = 0.5 * w * w * float(norm_a) * d2
    return OperatorReport(
        sup_error=sup_err,
        bound=bound,
        bound_kind=kind,
        norm_a=norm_a,
        norm_minv=norm_minv,
    )


@dataclass(frozen=True)
class StabilityReport:
    lower: float
    p_norm: float
    upper: float


def stability_report(db: DualBasis, alpha: Sequence) -> StabilityReport:
    """Two-sided stability of the dual basis: for p = sum_i alpha_i D_i^m,

        max|alpha| / inf_norm(M_m^{-1})  <=  ||p||  <=  inf_norm(A) * max|alpha|.

    p is sampled on a grid that includes the uniform nodes i/m (the points
    through which the lower bound is proved), and the sandwich is checked
    with multiplicative slack 1 + 1e-9; violation raises RuntimeError since
    it would signal an internal inconsistency.  Needs m >= 1, like the
    norm_Minv of :func:`bernstein_like_report`, and a Bernstein-kind basis,
    like :meth:`~dualbern.subspace.DualBasis.bform` (ValueError otherwise)."""
    norm_minv = _subspace_minv_norm(db.m)
    iv = db.interval
    ts = np.concatenate([uniform_grid(iv, 201), uniform_grid(iv, db.m + 1)])
    p_norm = float(np.max(np.abs(bform_eval(db.bform(alpha).coeffs, iv, ts))))
    alpha_norm = max(abs(float(x)) for x in alpha)
    lower = alpha_norm / float(norm_minv)
    upper = float(inf_norm(db.A)) * alpha_norm
    slack = 1 + 1e-9
    if not (lower <= p_norm * slack and p_norm <= upper * slack):
        raise RuntimeError(
            f"stability sandwich violated: lower={lower} p_norm={p_norm} upper={upper}"
        )
    return StabilityReport(lower=lower, p_norm=p_norm, upper=upper)
