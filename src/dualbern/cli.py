"""Command-line front end.

Subcommands: elevate, dual-basis, convergence, plot, operator.  Output is
deterministic: floats are printed with 17 significant digits, matrices as
exact rational strings, SVG plots are self-contained (fixed 800x600 viewBox,
no external assets) and always come with a CSV sidecar holding the sampled
values.  Exit codes: 0 success, 2 usage/precondition error, 3 singular
selection (reported as structured JSON).

``main()`` is the process entry (``python -m dualbern.cli`` and the
``dualbern`` script): it runs with the cyclic collector off and freezes the
heap before it exits, so shutdown does not walk the modules again.
``run()`` is GC-neutral: it leaves the collector's state and the frozen
generation as it found them, so in-process callers see no change.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Optional

from .bernstein import Interval, _basis_sum_eval, bform_eval, elevation_matrix, uniform_grid
from .ratmat import SingularMatrixError, _float_rows, mat_to_json_obj
from .subspace import (
    SelectionMap,
    bernstein_embedding,
    dual_basis,
    make_selection,
    power_embedding,
    verify_duality,
)
from .symmetric import SymmetricConfig, convergence_csv, convergence_table

DEFAULT_GRID = 201
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")
SVG_VERSION_COMMENT = "<!-- dualbern svg v1 -->"


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _format_rows(row_fmt: str, rows, sep: str = "\n") -> str:
    """The rows, each written by the %-template row_fmt and joined by sep, in
    one % operation over the flat tuple of their values: "%.3f" and "%.17g"
    run the float formatter that format() runs, so the text is the same."""
    return sep.join([row_fmt] * len(rows)) % tuple(v for row in rows for v in row)


def _json_text(obj, indent: int = 0) -> str:
    """Tiny JSON writer: floats carry 17 significant digits; inf and nan raise ValueError."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {_json_text(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {_json_text(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"result is not finite ({obj}); JSON has no such number")
        return _fmt_float(obj)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(text: str, out: Optional[str]) -> None:
    """Write text, which ends with a newline, to the --out file or stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# built-in function registry with analytic derivative bounds


def _has_point(a: float, b: float, offset: float, period: float) -> bool:
    """Is offset + q*period inside [a, b] for some integer q?"""
    return math.ceil((a - offset) / period) * period + offset <= b


def _sup_abs_sin(a: float, b: float) -> float:
    if _has_point(a, b, math.pi / 2, math.pi):
        return 1.0
    return max(abs(math.sin(a)), abs(math.sin(b)))


def _sup_abs_cos(a: float, b: float) -> float:
    if _has_point(a, b, 0.0, math.pi):
        return 1.0
    return max(abs(math.cos(a)), abs(math.cos(b)))


@dataclass(frozen=True)
class RegistryFn:
    name: str
    fn: Callable
    d1: Callable  # (a, b) -> sup|f'|
    d2: Optional[Callable]  # (a, b) -> sup|f''|, None when unbounded


FN_REGISTRY = {
    "sin": RegistryFn("sin", math.sin, _sup_abs_cos, _sup_abs_sin),
    "exp": RegistryFn("exp", math.exp, lambda a, b: math.exp(b), lambda a, b: math.exp(b)),
    "sq": RegistryFn(
        "sq", lambda t: t * t, lambda a, b: 2.0 * max(abs(a), abs(b)), lambda a, b: 2.0
    ),
    # |t - 1/2|^(3/2): C1 but not C2 when 1/2 is inside the interval
    "abs32": RegistryFn(
        "abs32",
        lambda t: abs(t - 0.5) ** 1.5,
        lambda a, b: 1.5 * max(abs(a - 0.5), abs(b - 0.5)) ** 0.5,
        None,
    ),
}


# ---------------------------------------------------------------------------
# argument handling


class _Parser(argparse.ArgumentParser):
    # no abbreviations: _join_signed_values matches option names in full, and
    # the subparsers are built from this class too
    def __init__(self, *args, allow_abbrev=False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def error(self, message):  # keep exit-code handling in run()
        raise UsageError(message)


# Options whose value may be negative.  argparse reads a token such as
# "-1e5" or "-7/3" after them as an option string (it takes only plain
# "-digits[.digits]" for a number), so run() joins such a pair into one
# "--a=-1e5" token before parsing.
_SIGNED_OPTIONS = frozenset({"--a", "--b", "--coeffs"})


def _join_signed_values(argv: list[str]) -> list[str]:
    """argv with each of _SIGNED_OPTIONS followed by a token that starts with
    a single "-" written as one "--opt=value" token.  An option with no token
    after it, or with a "--" token after it, is left as it is, so argparse
    still reports its value missing."""
    out, i = [], 0
    while i < len(argv):
        arg = argv[i]
        if (arg in _SIGNED_OPTIONS and i + 1 < len(argv) and argv[i + 1].startswith("-")
                and not argv[i + 1].startswith("--")):
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def _number(text: str):
    """Parse a CLI number: integers and p/q fractions stay exact, the rest is a float."""
    for parse in (Fraction if "/" in text else int, float):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError):  # ZeroDivisionError: "1/0"
            pass
    raise UsageError(f"not a number: {text!r}")


def _build_parser() -> _Parser:
    p = _Parser(prog="dualbern", description="Dual bases in Bernstein form")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, dual=True, grid=True, fmt=None):
        """dual: the command builds a dual basis from a selection on [a, b]."""
        if dual:
            sp.add_argument("--n", type=int, default=None)
            sp.add_argument("--k", type=int, default=None)
            sp.add_argument("--selection", default=None, help="comma-separated indices, e.g. 0,2,4")
            sp.add_argument("--symmetric", action="store_true", help="use s(i) = i*k with n = m*k")
            sp.add_argument("--a", default="0", help="interval left endpoint: an integer, p/q or "
                            "decimal (default 0)")
            sp.add_argument("--b", default="1", help="interval right endpoint (default 1)")
        if grid:
            sp.add_argument("--grid", type=int, default=DEFAULT_GRID, help="sample grid size")
        if fmt:
            sp.add_argument("--format", choices=fmt, default=fmt[0])
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    sp = sub.add_parser("elevate", help="degree elevation matrix (B^m = B^n E)")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    common(sp, dual=False, grid=False, fmt=["json", "csv"])

    sp = sub.add_parser("dual-basis", help="dual-basis matrix A = E(s,:)^{-1} for a selection")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--basis", choices=["bernstein", "power"], default="bernstein")
    common(sp, grid=False)

    sp = sub.add_parser("convergence", help="distance to the Lagrange basis for k = 1..kmax")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--k", type=int, required=True, help="largest refinement k")
    common(sp, dual=False, fmt=["csv", "json"])

    sp = sub.add_parser("plot", help="SVG plot (with CSV sidecar) of basis curves or a control polygon")
    sp.add_argument("--kind", choices=["basis", "polygon"], required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--coeffs", default=None, help="comma-separated control ordinates (polygon)")
    common(sp)

    sp = sub.add_parser("operator", help="quasi-interpolant / Bernstein-like operator report")
    sp.add_argument("--which", choices=["quasi", "bernop"], required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--fn", required=True, help="|".join(FN_REGISTRY))
    sp.add_argument("--smoothness", choices=["c0", "c1", "c2"], default="c0")
    common(sp)
    return p


def _grid_size(args) -> int:
    if args.grid < 2:
        raise UsageError("--grid must be >= 2")
    return args.grid


def _interval(args) -> Interval:
    a, b = _number(args.a), _number(args.b)
    if not a < b:
        raise UsageError(f"need a < b, got a={args.a} b={args.b}")
    if not math.isfinite(b - a):
        raise UsageError(f"need a finite interval, got a={args.a} b={args.b}")
    return Interval(a, b)


def _resolve_selection(args) -> tuple[int, SelectionMap]:
    """Shared --symmetric/--selection handling; returns (n, selection)."""
    m = args.m
    if m < 1:
        raise UsageError("--m must be >= 1")
    if args.symmetric and args.selection:
        raise UsageError("--symmetric and --selection are mutually exclusive")
    if args.symmetric:
        if args.k is None or args.k < 1:
            raise UsageError("--symmetric needs --k >= 1")
        cfg = SymmetricConfig(m, args.k)
        if args.n is not None and args.n != cfg.n:
            raise UsageError(f"--symmetric implies n = m*k = {cfg.n}, got --n {args.n}")
        return cfg.n, cfg.selection()
    if args.selection is None:
        raise UsageError("need --selection i0,i1,... or --symmetric --k K")
    if args.n is None:
        raise UsageError("--selection needs --n")
    try:
        indices = tuple(int(x) for x in args.selection.split(","))
    except ValueError:
        raise UsageError(f"bad --selection {args.selection!r}")
    return args.n, make_selection(m, args.n, indices)


# ---------------------------------------------------------------------------
# commands


def _cmd_elevate(args) -> int:
    if args.m < 0 or args.n < 0:
        raise UsageError("degrees must be nonnegative")
    E = elevation_matrix(args.m, args.n)  # raises ValueError when m > n
    if args.format == "json":
        _emit(_json_text(mat_to_json_obj(E)) + "\n", args.out)
    else:
        lines = [",".join(str(E[i, j]) for j in range(E.cols)) for i in range(E.rows)]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_dual_basis(args) -> int:
    n, sel = _resolve_selection(args)
    iv = _interval(args)
    emb = bernstein_embedding(args.m, n) if args.basis == "bernstein" else power_embedding(args.m, n)
    db = dual_basis(emb, sel, iv)
    payload = {
        "A": mat_to_json_obj(db.A),
        "s": list(sel.indices),
        "dual_check": verify_duality(db),
    }
    _emit(_json_text(payload) + "\n", args.out)
    return 0


def _cmd_convergence(args) -> int:
    if args.m < 1:
        raise UsageError("--m must be >= 1")
    if args.k < 1:
        raise UsageError("--k must be >= 1")
    records = convergence_table(args.m, list(range(1, args.k + 1)), samples=_grid_size(args))
    if args.format == "csv":
        _emit(convergence_csv(records), args.out)
    else:
        _emit(_json_text([asdict(r) for r in records]) + "\n", args.out)
    return 0


# -- SVG helpers -------------------------------------------------------------


def _svg_document(curves, points_groups, x_range) -> str:
    """Self-contained 800x600 SVG: framed plot area, polyline curves, and
    optional marker groups (list of (pts, dashed)).  The y range spans the
    curves' values; ValueError when one is not finite or the padded range
    has no finite positive width."""
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
        coords = _format_rows("%.3f,%.3f", [(sx(x), sy(y)) for x, y in pts], " ")
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


def _sidecar_path(out: str) -> str:
    root, ext = os.path.splitext(out)
    return (root if ext.lower() == ".svg" else out) + ".csv"


def _cmd_plot(args) -> int:
    if args.out is None:
        raise UsageError("plot needs --out (an SVG path; a CSV sidecar is written next to it)")
    n, sel = _resolve_selection(args)
    iv = _interval(args)
    samples = _grid_size(args)
    db = dual_basis(bernstein_embedding(args.m, n), sel, iv)
    ts = uniform_grid(iv, samples).tolist()

    if args.kind == "basis":
        # dual_basis_eval's sum on A converted to float once: Fraction * float
        # already goes through float()
        values = _basis_sum_eval(_float_rows(db.A), iv, ts).tolist()
        curves = [
            ([(t, row[i]) for t, row in zip(ts, values)], False) for i in range(args.m + 1)
        ]
        svg = _svg_document(curves, [], (ts[0], ts[-1]))
        header = "t," + ",".join(f"D{i}" for i in range(args.m + 1))
        row_fmt = ",".join(["%.17g"] * (args.m + 2))
        rows = [(t, *row) for t, row in zip(ts, values)]
        sidecar = header + "\n" + _format_rows(row_fmt, rows) + "\n"
    else:
        if args.coeffs is None:
            raise UsageError("plot --kind polygon needs --coeffs c0,c1,...,cm")
        try:
            alpha = [float(x) for x in args.coeffs.split(",")]
        except ValueError:
            raise UsageError(f"bad --coeffs {args.coeffs!r}")
        if len(alpha) != args.m + 1:
            raise UsageError(f"--coeffs needs {args.m + 1} values for m={args.m}")
        if not all(math.isfinite(x) for x in alpha):
            raise UsageError(f"--coeffs must be finite, got {args.coeffs!r}")
        transformed = list(db.bform(alpha).coeffs)
        xs = uniform_grid(iv, args.m + 1).tolist()
        curve_pts = list(zip(ts, bform_eval(transformed, iv, ts).tolist()))
        original = list(zip(xs, alpha))
        moved = list(zip(xs, transformed))
        svg = _svg_document(
            [(original, False), (moved, True), (curve_pts, False)],
            [(original, False), (moved, True)],
            (ts[0], ts[-1]),
        )
        lines = ["kind,x,y"]
        lines += [_format_rows(f"{kind},%.17g,%.17g", pts)
                  for kind, pts in (("original", original), ("transformed", moved),
                                    ("curve", curve_pts))]
        sidecar = "\n".join(lines) + "\n"

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    with open(_sidecar_path(args.out), "w", encoding="utf-8") as fh:
        fh.write(sidecar)
    return 0


def _cmd_operator(args) -> int:
    # the one command whose module needs numpy at import; the others skip it
    from .operators import bernstein_like_report, quasi_interpolant_report

    n, sel = _resolve_selection(args)
    iv = _interval(args)
    reg = FN_REGISTRY.get(args.fn)
    if reg is None:
        raise UsageError(f"unknown --fn {args.fn!r}; choose from {', '.join(FN_REGISTRY)}")
    samples = _grid_size(args)
    a, b = float(iv.a), float(iv.b)
    if args.which == "quasi":
        report = quasi_interpolant_report(args.m, n, sel, reg.fn, iv, samples=samples)
    else:
        d1 = d2 = None
        if args.smoothness == "c1":
            d1 = reg.d1(a, b)
        elif args.smoothness == "c2":
            if reg.d2 is None:
                raise UsageError(
                    f"--fn {reg.name} has no bounded second derivative; use c0 or c1"
                )
            d2 = reg.d2(a, b)
        report = bernstein_like_report(
            args.m, n, sel, reg.fn, args.smoothness, iv, d1=d1, d2=d2, samples=samples
        )
    _emit(_json_text(report.to_json_obj()) + "\n", args.out)
    return 0


_COMMANDS = {
    "elevate": _cmd_elevate,
    "dual-basis": _cmd_dual_basis,
    "convergence": _cmd_convergence,
    "plot": _cmd_plot,
    "operator": _cmd_operator,
}


def run(argv=None) -> int:
    """Parse and dispatch; returns the process exit code (0, 2 or 3)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_signed_values(sys.argv[1:] if argv is None else list(argv)))
        return _COMMANDS[args.command](args)
    except SingularMatrixError as exc:
        sys.stdout.write(
            _json_text({"error": "singular", "message": str(exc)}) + "\n"
        )
        return 3
    # usage, library preconditions (SelectionError is a ValueError), float
    # overflow while sampling, a sample grid too large to allocate, and
    # output files that cannot be written
    except (UsageError, ValueError, OverflowError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    # a one-shot process never gains from cyclic collection: reference counting frees
    # the per-command objects, and all that is alive at exit would be walked again at shutdown
    gc.disable()
    code = run()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
