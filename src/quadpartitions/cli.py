"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 violated
internal invariant.  All output is deterministic: repeated runs of the same
command produce identical bytes.
"""

from __future__ import annotations

import argparse
import sys

from .contfrac import build_context, floor_ratio_eps
from .errors import BudgetExceeded, DivisibilityViolation, InvariantViolation
from .field import Field, QElement
from .fixtures import builtin_documents, load_documents, verify_documents
from .oracle import enumerate_partitions
from .parity import cumulative_P, parity_check
from .partition import GridPool, ParityGrid, PartitionGrid, asymptotic_estimate
from .search import (
    dm_scan,
    exhaustive_scan_range,
    search_m,
    slice_element,
    witness_m4,
    witness_m6,
)
from .serialize import dumps_canonical, element_to_obj, report_to_obj

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{self.prog}: {message}")


def _field(args: argparse.Namespace) -> Field:
    try:
        return Field(args.D)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# ----- formatting helpers ----------------------------------------------------


def _tex_element(e: QElement) -> str:
    A, B, den = e.sqrt_coords()
    if den == 2 and A % 2 == 0 and B % 2 == 0:
        A, B, den = A // 2, B // 2, 1
    if B == 0:
        return str(A // den)
    root = f"\\sqrt{{{e.field.D}}}"
    coef = "" if abs(B) == 1 else str(abs(B))
    sign = "+" if B > 0 else "-"
    num = f"{A}{sign}{coef}{root}" if A else f"{'-' if B < 0 else ''}{coef}{root}"
    if den == 1:
        return num
    return f"\\frac{{{num}}}{{{den}}}"


def _matrix_pretty(rows: list[list[int]], row_label: str, col_label: str) -> str:
    width = max(len(str(v)) for row in rows for v in row)
    width = max(width, len(str(len(rows[0]) - 1)))
    head = f"{row_label}\\{col_label}".rjust(6)
    lines = [head + " | " + " ".join(str(c).rjust(width) for c in range(len(rows[0])))]
    lines.append("-" * len(lines[0]))
    for i in range(len(rows) - 1, -1, -1):
        lines.append(
            str(i).rjust(6) + " | " + " ".join(str(v).rjust(width) for v in rows[i])
        )
    return "\n".join(lines)


def _matrix_csv(rows: list[list[int]], row_label: str, col_label: str) -> str:
    lines = [f"{row_label}\\{col_label}," + ",".join(str(c) for c in range(len(rows[0])))]
    for i, row in enumerate(rows):
        lines.append(f"{i}," + ",".join(str(v) for v in row))
    return "\n".join(lines)


def _matrix_tex(rows: list[list[int]], row_label: str, col_label: str) -> str:
    ncols = len(rows[0])
    lines = [
        "\\begin{tabular}{|l||" + "r|" * ncols + "}",
        "\\hline",
        f"&\\multicolumn{{{ncols}}}{{c|}}{{${col_label}$}}\\\\",
        "\\hline",
        f"${row_label}$&" + "&".join(f"${c}$" for c in range(ncols)) + "\\\\",
        "\\hline\\hline",
    ]
    for i, row in enumerate(rows):
        lines.append(f"${i}$&" + "&".join(f"${v}$" for v in row) + "\\\\")
        lines.append("\\hline")
    lines.append("\\end{tabular}")
    return "\n".join(lines)


def _emit_matrix(rows: list[list[int]], fmt: str, doc: dict, row_label: str, col_label: str) -> None:
    if fmt == "json":
        print(dumps_canonical(doc))
    elif fmt == "csv":
        print(_matrix_csv(rows, row_label, col_label))
    elif fmt == "tex":
        print(_matrix_tex(rows, row_label, col_label))
    else:
        print(_matrix_pretty(rows, row_label, col_label))


# ----- subcommands -----------------------------------------------------------


def cmd_grid(args: argparse.Namespace) -> int:
    field = _field(args)
    grid = PartitionGrid(field)
    if args.view == "xy":
        if args.max_x is None:
            raise UsageError("grid: --max-x is required for the xy view")
        M = args.max_x
        grid.ensure(M)
        y_top = field.floor_div_xi(M)
        rows = [
            [(grid.value(x, y) or 0) for x in range(M + 1)] for y in range(y_top + 1)
        ]
        doc = {"D": field.D, "view": "xy", "max_x": M, "y_max": y_top, "rows": rows}
        _emit_matrix(rows, args.format, doc, "y", "x")
        return 0
    if args.kmax is None or args.ymax is None:
        raise UsageError("grid: --kmax and --ymax are required for the ky view")
    grid.ensure(field.ceil_xi_mult(args.ymax) + args.kmax)
    rows = []
    for y in range(args.ymax + 1):
        row = []
        for k in range(args.kmax + 1):
            if y == 0 and k == 0:
                row.append(grid.value(0, 0))
                continue
            e = slice_element(field, k, y)
            row.append(grid.value(e.a, e.b))
        rows.append(row)
    doc = {"D": field.D, "view": "ky", "k_max": args.kmax, "y_max": args.ymax, "rows": rows}
    _emit_matrix(rows, args.format, doc, "y", "k")
    return 0


def cmd_indecomposables(args: argparse.Namespace) -> int:
    field = _field(args)
    ctx = build_context(field)
    if args.format == "json":
        print(
            dumps_canonical(
                {
                    "D": field.D,
                    "period": list(ctx.period),
                    "indecomposables": [element_to_obj(e) for e in ctx.indecomposables],
                }
            )
        )
        return 0
    print(f"D = {field.D}, continued fraction period {list(ctx.period)}")
    print("indecomposables for one unit period (with conjugates implied):")
    for e in ctx.indecomposables:
        print(f"  {e}")
    return 0


def cmd_units(args: argparse.Namespace) -> int:
    field = _field(args)
    ctx = build_context(field)
    s = len(ctx.period)
    if args.format == "json":
        print(
            dumps_canonical(
                {
                    "D": field.D,
                    "period": list(ctx.period),
                    "convergents": [list(pq) for pq in ctx.convergents],
                    "eps": element_to_obj(ctx.eps),
                    "eps_norm": ctx.eps.norm(),
                    "eps_plus": element_to_obj(ctx.eps_plus),
                    "floor_ratio": floor_ratio_eps(ctx),
                }
            )
        )
        return 0
    print(f"D = {field.D}, discriminant {ctx.discriminant}")
    print(f"continued fraction period {list(ctx.period)} (length {s})")
    print(f"eps      = {ctx.eps}  (norm {ctx.eps.norm()})")
    print(f"eps_plus = {ctx.eps_plus}")
    print(f"floor(eps_plus / (xi + omega)) = {floor_ratio_eps(ctx)}")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    field = _field(args)
    ctx = build_context(field)
    report = search_m(ctx, args.m)
    if args.format == "json":
        print(dumps_canonical(report_to_obj(report)))
        return 0
    if args.format == "csv":
        lines = ["m,elements"]
        for m in range(1, report.m_max + 1):
            lines.append(f"{m}," + ";".join(str(e) for e in report.representatives[m]))
        print("\n".join(lines))
        return 0
    if args.format == "tex":
        lines = ["\\begin{tabular}{|l|l|}", "\\hline", "$m$&elements\\\\", "\\hline\\hline"]
        for m in range(1, report.m_max + 1):
            reps = report.representatives[m]
            cell = ", ".join(f"${_tex_element(e)}$" for e in reps) if reps else "--"
            lines.append(f"${m}$&{cell}\\\\")
            lines.append("\\hline")
        lines.append("\\end{tabular}")
        print("\n".join(lines))
        return 0
    print(f"D = {field.D}: k_max = {report.k_max}, y_max = {report.y_max}")
    print("elements with exactly m partitions, up to units and conjugation:")
    for m in range(1, report.m_max + 1):
        reps = report.representatives[m]
        body = ", ".join(str(e) for e in reps) if reps else "(none)"
        print(f"  m = {m}: {body}")
    if args.explain:
        grid = PartitionGrid(field)
        print("partitions of the small representatives:")
        for m in range(1, report.m_max + 1):
            for e in report.representatives[m]:
                if e.a > 12:
                    continue
                count = grid.count(e)
                if count != m:
                    raise InvariantViolation(f"{e} has {count} partitions, listed under m = {m}")
                for part_list in enumerate_partitions(e):
                    print(f"  {e} = " + " + ".join(str(p) for p in part_list))
    return 0


def cmd_dm(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise UsageError(f"dm: --jobs must be >= 1, got {args.jobs}")
    if args.Dmax is not None:
        scan = tuple(D for D in range(2, args.Dmax + 1) if _try_squarefree(D))
        complete = False
        try:
            complete = set(exhaustive_scan_range(args.m)) <= set(scan)
        except ValueError:
            complete = False
    else:
        try:
            scan = exhaustive_scan_range(args.m)
        except ValueError as exc:
            raise UsageError(f"dm: {exc}; pass an explicit --Dmax") from None
        complete = True
    missing = dm_scan(args.m, list(scan), jobs=args.jobs)
    if args.format == "json":
        print(
            dumps_canonical(
                {
                    "m": args.m,
                    "scanned": list(scan),
                    "missing": list(missing),
                    "complete": complete,
                }
            )
        )
        return 0
    if args.format == "csv":
        lines = ["D,attains_m"]
        for D in scan:
            lines.append(f"{D},{0 if D in missing else 1}")
        print("\n".join(lines))
        return 0
    print(f"m = {args.m}: scanned D in {list(scan)}")
    print(f"fields where no element has exactly {args.m} partitions: "
          + (str(list(missing)) if missing else "(none)"))
    if complete:
        print("the scan range is exhaustive: every other squarefree D attains m "
              "at a rational integer")
    else:
        print("partial scan; membership outside the range is not decided here")
    return 0


def _try_squarefree(D: int) -> bool:
    try:
        Field(D)
        return True
    except ValueError:
        return False


def cmd_parity(args: argparse.Namespace) -> int:
    field = _field(args)
    report = parity_check(field, args.N, ParityGrid(field))
    profile = report.profile
    if args.format == "json":
        print(
            dumps_canonical(
                {
                    "D": field.D,
                    "N": args.N,
                    "a": list(profile.a),
                    "P": list(profile.P),
                    "P_parity": list(profile.parity_bits),
                    "p_parity": list(report.p_parity),
                    "odd_count": report.odd_count,
                    "even_count": report.even_count,
                }
            )
        )
        return 0
    if args.format == "csv":
        lines = ["n,a_n,P_n,P_parity,p_parity"]
        for n in range(args.N + 1):
            a_n = profile.a[n - 1] if n >= 1 else ""
            lines.append(
                f"{n},{a_n},{profile.P[n]},{profile.parity_bits[n]},{report.p_parity[n]}"
            )
        print("\n".join(lines))
        return 0
    print(f"D = {field.D}, N = {args.N}")
    print(f"P(n)      : {list(profile.P)}")
    print(f"P(n) mod 2: {list(profile.parity_bits)}")
    print(f"p(n) mod 2: {list(report.p_parity)}")
    print(f"congruent: {report.congruent} "
          f"(odd p(n) for {report.odd_count} of n = 1..{args.N})")
    if field.one_mod4:
        print("note: D = 1 (mod 4); values are reported without any parity claim")
    return 0


def cmd_witness(args: argparse.Namespace) -> int:
    field = _field(args)
    grid = PartitionGrid(field)
    if args.m == 4:
        alpha, count = witness_m4(field, grid)
        payload = {"D": field.D, "m": 4, "alpha": element_to_obj(alpha), "count": count}
        if args.format == "json":
            print(dumps_canonical(payload))
        else:
            print(f"D = {field.D}: p({alpha}) = {count}")
        return 0
    if field.D == 5:
        alpha = slice_element(field, 2, 2)
        count = grid.count(alpha)
        if count != 10:
            raise InvariantViolation(f"expected 10 partitions at {alpha}, got {count}")
        if args.format == "json":
            print(
                dumps_canonical(
                    {
                        "D": 5,
                        "m": 6,
                        "alpha": element_to_obj(alpha),
                        "count": count,
                        "branch": "excluded",
                    }
                )
            )
        else:
            print(f"D = 5 is excluded from the 6-or-9 dichotomy: p({alpha}) = {count}")
        return 0
    alpha, count, branch = witness_m6(field, grid)
    if args.format == "json":
        print(
            dumps_canonical(
                {
                    "D": field.D,
                    "m": 6,
                    "alpha": element_to_obj(alpha),
                    "count": count,
                    "branch": branch,
                }
            )
        )
    else:
        print(f"D = {field.D}: p({alpha}) = {count} ({branch})")
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    field = _field(args)
    alpha = QElement(field, args.a, args.b)
    if not alpha.is_totally_positive():
        raise UsageError(f"estimate: {alpha} is not totally positive")
    est = asymptotic_estimate(alpha)
    payload = {
        "D": field.D,
        "alpha": element_to_obj(alpha),
        "norm": alpha.norm(),
        "log_p_estimate": est,
    }
    if args.compare:
        import math

        grid = PartitionGrid(field)
        exact = grid.count(alpha)
        payload["p_exact"] = exact
        payload["log_p_exact"] = math.log(exact) if exact > 1 else 0.0
    if args.format == "json":
        print(dumps_canonical(payload))
        return 0
    print(f"alpha = {alpha}, norm {payload['norm']}")
    print(f"leading-order estimate of log p(alpha): {est:.6f}")
    if args.compare:
        print(f"exact p(alpha) = {payload['p_exact']}, log = {payload['log_p_exact']:.6f}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.fixtures is not None:
        try:
            docs = load_documents(args.fixtures)
        except (OSError, ValueError) as exc:
            print(f"cannot load fixtures from {args.fixtures}: {exc}", file=sys.stderr)
            return 1
    else:
        docs = builtin_documents()
    if not docs:
        print("no fixture documents found", file=sys.stderr)
        return 1
    pool = GridPool()
    failures = 0
    for name, diffs in verify_documents(docs, pool):
        if diffs:
            failures += 1
            print(f"FAIL {name}")
            for line in diffs:
                print(f"  {line}")
        else:
            print(f"PASS {name}")
    total = len(docs)
    if failures:
        print(f"{failures} of {total} documents failed")
        return 2
    print(f"all {total} documents reproduce exactly")
    return 0


# ----- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadpartitions",
        description="Exact partition counts for totally positive elements "
        "of real quadratic fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_format(p: argparse.ArgumentParser, choices=("pretty", "csv", "json", "tex")) -> None:
        p.add_argument("--format", choices=choices, default="pretty")

    p = sub.add_parser("grid", help="partition counts over a rectangle of the cone")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--max-x", type=int, dest="max_x")
    p.add_argument("--view", choices=("xy", "ky"), default="xy")
    p.add_argument("--kmax", type=int)
    p.add_argument("--ymax", type=int)
    add_format(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("indecomposables", help="indecomposables for one unit period")
    p.add_argument("--D", type=int, required=True)
    add_format(p, choices=("pretty", "json"))
    p.set_defaults(func=cmd_indecomposables)

    p = sub.add_parser("units", help="continued fraction, eps and eps_plus")
    p.add_argument("--D", type=int, required=True)
    add_format(p, choices=("pretty", "json"))
    p.set_defaults(func=cmd_units)

    p = sub.add_parser("search", help="all elements with at most m partitions")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--explain", action="store_true")
    add_format(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("dm", help="fields with no element of exactly m partitions")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--Dmax", type=int)
    p.add_argument("--jobs", type=int, default=1)
    add_format(p, choices=("pretty", "csv", "json"))
    p.set_defaults(func=cmd_dm)

    p = sub.add_parser("parity", help="cumulative counts P(n) and their parity")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    add_format(p, choices=("pretty", "csv", "json"))
    p.set_defaults(func=cmd_parity)

    p = sub.add_parser("witness", help="elements with exactly 4, and 6 or 9, partitions")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--m", type=int, choices=(4, 6), default=4)
    add_format(p, choices=("pretty", "json"))
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("estimate", help="leading-order size of log p(alpha)")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--compare", action="store_true")
    add_format(p, choices=("pretty", "json"))
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("verify", help="recompute and diff the reference datasets")
    p.add_argument("--fixtures", type=str, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (DivisibilityViolation, InvariantViolation) as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except BudgetExceeded as exc:
        print(str(exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
