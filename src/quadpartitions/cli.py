"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 violated
internal invariant, 4 a run over its cost budget (BudgetExceeded), 141
(128 + SIGPIPE) when the reader closes stdout before the output ends, with
nothing on stderr.  All output is deterministic: repeated runs of the same
command produce identical bytes.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from itertools import chain
from types import SimpleNamespace
from typing import Callable, Iterable

from .contfrac import build_context, coordinate_bound, floor_ratio_eps, indecomposables
from .errors import BudgetExceeded, DivisibilityViolation, InvariantViolation
from .field import Field, QElement, is_squarefree
from .oracle import enumerate_partitions
from .parity import parity_check
from .partition import PartitionGrid, asymptotic_estimate, cone_rows, diagonal_parity
from .search import (
    _price_search,
    check_scan,
    classify_m,
    dm_scan,
    exhaustive_scan_range,
    search_m,
    slice_rows,
    witness_m4,
    witness_m6,
)
from .serialize import dumps_canonical, element_to_obj, report_to_obj

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    pass


def _at_least(low: int) -> Callable[[str], int]:
    """argparse type for an int no smaller than low; a smaller one is a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            from argparse import ArgumentTypeError

            raise ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _field(args: SimpleNamespace) -> Field:
    try:
        return Field(args.D)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# ----- formatting helpers ----------------------------------------------------


def _tex_element(e: QElement) -> str:
    A, B, den = e.reduced_sqrt_coords()
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


def _check_digits(D: int, bound: int, printed: Iterable[int]) -> None:
    """Raise BudgetExceeded, naming D, when one of printed has more digits than Python turns into a string.

    printed, every int a command prints for D (units, indecomposables,
    estimate), is read only when bound, which none of them exceeds in
    absolute value, comes near sys.get_int_max_str_digits() (0, or a Python
    without the limit: none), before anything is formatted.
    """
    limit = getattr(sys, "get_int_max_str_digits", int)()
    # 2^(3*limit) < 10^limit, so a shorter bound needs no power of ten.
    if limit and bound.bit_length() > 3 * limit and max(map(abs, printed)) >= 10**limit:
        raise BudgetExceeded(
            f"the output of D={D} is over the cost budget: it holds an int of more than "
            f"{limit} digits, the most Python prints"
        )


def _element_ints(e: QElement) -> tuple[int, ...]:
    """The ints printed for e: its coordinates, and its sqrt coordinates or their reduced form."""
    return (e.a, e.b, *e.sqrt_coords()[:2])


def _emit(fmt: str, doc: Callable[[], object], **render: Callable[[], str]) -> None:
    """Print doc() as canonical JSON for json, else the text render[fmt]() builds; doc runs only for json."""
    print(dumps_canonical(doc()) if fmt == "json" else render[fmt]())


# ----- subcommands -----------------------------------------------------------


def cmd_grid(args: SimpleNamespace) -> int:
    field = _field(args)
    if args.view == "xy":
        if args.max_x is None:
            raise UsageError("grid: --max-x is required for the xy view")
        M = args.max_x
        rows = cone_rows(field, M)
        doc = {"D": field.D, "view": "xy", "max_x": M, "y_max": len(rows) - 1, "rows": rows}
        col = "x"
    else:
        if args.kmax is None or args.ymax is None:
            raise UsageError("grid: --kmax and --ymax are required for the ky view")
        rows = slice_rows(field, args.kmax, args.ymax)
        doc = {"D": field.D, "view": "ky", "k_max": args.kmax, "y_max": args.ymax, "rows": rows}
        col = "k"
    _emit(
        args.format,
        lambda: doc,
        pretty=lambda: _matrix_pretty(rows, "y", col),
        csv=lambda: _matrix_csv(rows, "y", col),
        tex=lambda: _matrix_tex(rows, "y", col),
    )
    return 0


def cmd_indecomposables(args: SimpleNamespace) -> int:
    field = _field(args)
    ctx = build_context(field)
    # The last element listed, eps_plus - alpha_e for eps_plus = alpha_(e+1),
    # holds the largest printed ints (see indecomposables).
    s = len(ctx.period)
    p, q = ctx.convergents[s * (1 + s % 2) - 1]  # alpha_e
    last = ctx.eps_plus - QElement(field, p - field.t * q, q)
    _check_digits(field.D, coordinate_bound(ctx), _element_ints(last))
    elements = indecomposables(ctx)
    doc = {
        "D": field.D,
        "period": list(ctx.period),
        "indecomposables": [element_to_obj(e) for e in elements],
    }

    def pretty() -> str:
        lines = [
            f"D = {field.D}, continued fraction period {doc['period']}",
            "indecomposables for one unit period (with conjugates implied):",
        ]
        lines += [f"  {obj['text']}" for obj in doc["indecomposables"]]
        return "\n".join(lines)

    _emit(args.format, lambda: doc, pretty=pretty)
    return 0


def cmd_units(args: SimpleNamespace) -> int:
    field = _field(args)
    ctx = build_context(field)
    floor_ratio = floor_ratio_eps(ctx)
    units = chain.from_iterable(map(_element_ints, (ctx.eps, ctx.eps_plus)))
    _check_digits(field.D, coordinate_bound(ctx), chain(chain.from_iterable(ctx.convergents), units, (floor_ratio,)))
    doc = {
        "D": field.D,
        "period": list(ctx.period),
        "convergents": [list(pq) for pq in ctx.convergents],
        "eps": element_to_obj(ctx.eps),
        "eps_norm": ctx.eps.norm(),
        "eps_plus": element_to_obj(ctx.eps_plus),
        "floor_ratio": floor_ratio,
    }

    def pretty() -> str:
        return "\n".join([
            f"D = {field.D}, discriminant {field.discriminant}",
            f"continued fraction period {doc['period']} (length {len(ctx.period)})",
            f"eps      = {doc['eps']['text']}  (norm {doc['eps_norm']})",
            f"eps_plus = {doc['eps_plus']['text']}",
            f"floor(eps_plus / (xi + omega)) = {doc['floor_ratio']}",
        ])

    _emit(args.format, lambda: doc, pretty=pretty)
    return 0


# search prints a line, or a JSON key, for every m <= m_max, nearly all of
# them empty at a large m.  The JSON document, a dict with a key per m, is
# the largest: at m = 2^19 the search of D=2 peaked at 146 MB in json, 85 MB
# in pretty and 75 MB in tex, 15 MB of it the interpreter's.  A table of
# more than 2^19 rows is refused, so none passes about 150 MB, inside the
# 256 MB that the convergents of a field may take (contfrac).
_TABLE_ROWS = 1 << 19


def cmd_search(args: SimpleNamespace) -> int:
    field = _field(args)
    ctx = build_context(field)
    if args.m > _TABLE_ROWS:
        _price_search(ctx, args.m)  # what search_m refuses before its first count is refused first
        raise BudgetExceeded(
            f"the table of D={field.D} up to m = {args.m} is over the cost budget: "
            f"it would print {args.m} rows, more than {_TABLE_ROWS}"
        )
    # json prints the slice matrix, so it folds the whole box; the tables
    # print only the cells with p <= m, which classify_m walks to.
    report = (search_m if args.format == "json" else classify_m)(ctx, args.m)
    ms = range(1, report.m_max + 1)
    reps = report.representatives
    # The explanation is built before anything prints, so a refusal or a
    # violated invariant leaves stdout empty.
    explained = []
    if args.explain and args.format == "pretty":
        explained.append("partitions of the small representatives:")
        for m, found in reps.items():
            for e in found:
                if e.a > 12:
                    continue
                parts = enumerate_partitions(e)
                if len(parts) != m:
                    raise InvariantViolation(
                        f"{e} has {len(parts)} partitions, listed under m = {m}"
                    )
                explained += (f"  {e} = " + " + ".join(map(str, part_list)) for part_list in parts)

    def csv() -> str:
        return "\n".join(["m,elements"] + [f"{m}," + ";".join(map(str, reps.get(m, ()))) for m in ms])

    def tex() -> str:
        lines = ["\\begin{tabular}{|l|l|}", "\\hline", "$m$&elements\\\\", "\\hline\\hline"]
        for m in ms:
            cell = ", ".join(f"${_tex_element(e)}$" for e in reps.get(m, ())) or "--"
            lines += [f"${m}$&{cell}\\\\", "\\hline"]
        return "\n".join(lines + ["\\end{tabular}"])

    def pretty() -> str:
        lines = [
            f"D = {field.D}: k_max = {report.k_max}, y_max = {report.y_max}",
            "elements with exactly m partitions, up to units and conjugation:",
        ]
        for m in ms:
            lines.append(f"  m = {m}: " + (", ".join(str(e) for e in reps.get(m, ())) or "(none)"))
        return "\n".join(lines + explained)

    _emit(args.format, lambda: report_to_obj(report), csv=csv, tex=tex, pretty=pretty)
    return 0


def cmd_dm(args: SimpleNamespace) -> int:
    if args.Dmax is not None:
        check_scan(args.m, args.Dmax)
    try:
        known = exhaustive_scan_range(args.m)
    except ValueError as exc:
        if args.Dmax is None:
            raise UsageError(f"dm: {exc}; pass an explicit --Dmax") from None
        known = None
    scan = known if args.Dmax is None else tuple(D for D in range(2, args.Dmax + 1) if is_squarefree(D))
    complete = known is not None and set(known) <= set(scan)
    missing = dm_scan(args.m, list(scan))
    doc = {"m": args.m, "scanned": list(scan), "missing": list(missing), "complete": complete}
    lines = [
        f"m = {args.m}: scanned D in {list(scan)}",
        f"fields where no element has exactly {args.m} partitions: "
        + (str(list(missing)) if missing else "(none)"),
    ]
    if complete:
        lines.append("the scan range is exhaustive: every other squarefree D attains m "
                     "at a rational integer")
    else:
        lines.append("partial scan; membership outside the range is not decided here")
    _emit(
        args.format,
        lambda: doc,
        csv=lambda: "\n".join(["D,attains_m"] + [f"{D},{0 if D in missing else 1}" for D in scan]),
        pretty=lambda: "\n".join(lines),
    )
    return 0


def cmd_parity(args: SimpleNamespace) -> int:
    field = _field(args)
    report = parity_check(field, args.N, diagonal_parity(field, args.N))
    P_bits = [v % 2 for v in report.P]
    odd = sum(report.p_parity[1:])
    doc = {
        "D": field.D,
        "N": args.N,
        "a": list(report.a),
        "P": list(report.P),
        "P_parity": P_bits,
        "p_parity": list(report.p_parity),
        "odd_count": odd,
        "even_count": args.N - odd,
    }

    def csv() -> str:
        lines = ["n,a_n,P_n,P_parity,p_parity"]
        for n in range(args.N + 1):
            a_n = report.a[n - 1] if n >= 1 else ""
            lines.append(
                f"{n},{a_n},{report.P[n]},{P_bits[n]},{report.p_parity[n]}"
            )
        return "\n".join(lines)

    def pretty() -> str:
        lines = [
            f"D = {field.D}, N = {args.N}",
            f"P(n)      : {doc['P']}",
            f"P(n) mod 2: {doc['P_parity']}",
            f"p(n) mod 2: {doc['p_parity']}",
            # parity_check has raised on any disagreement, and main then exits 3.
            f"congruent: True (odd p(n) for {odd} of n = 1..{args.N})",
        ]
        if field.one_mod4:
            lines.append("note: D = 1 (mod 4); values are reported without any parity claim")
        return "\n".join(lines)

    _emit(args.format, lambda: doc, csv=csv, pretty=pretty)
    return 0


def cmd_witness(args: SimpleNamespace) -> int:
    field = _field(args)
    grid = PartitionGrid(field)
    if args.m == 4:
        alpha, count = witness_m4(field, grid)
        branch = None
    else:
        alpha, count, branch = witness_m6(field, grid)
    doc = {"D": field.D, "m": args.m, "alpha": element_to_obj(alpha), "count": count}
    if branch is None:
        sentence = f"D = {field.D}: p({alpha}) = {count}"
    else:
        doc["branch"] = branch
        if branch == "excluded":
            sentence = f"D = {field.D} is excluded from the 6-or-9 dichotomy: p({alpha}) = {count}"
        else:
            sentence = f"D = {field.D}: p({alpha}) = {count} ({branch})"
    _emit(args.format, lambda: doc, pretty=lambda: sentence)
    return 0


def cmd_estimate(args: SimpleNamespace) -> int:
    field = _field(args)
    alpha = QElement(field, args.a, args.b)
    # Its coordinates and sqrt coordinates are at most 2|a| + |b|; a norm too
    # large for a float is a usage error before it is printed.
    _check_digits(field.D, 3 * max(abs(args.a), abs(args.b)), _element_ints(alpha))
    if not alpha.is_totally_positive():
        raise UsageError(f"estimate: {alpha} is not totally positive")
    try:
        est = asymptotic_estimate(alpha)
    except OverflowError:
        raise UsageError(f"estimate: the norm of {alpha} is too large for a float") from None
    doc = {
        "D": field.D,
        "alpha": element_to_obj(alpha),
        "norm": alpha.norm(),
        "log_p_estimate": est,
    }
    lines = [
        f"alpha = {alpha}, norm {doc['norm']}",
        f"leading-order estimate of log p(alpha): {est:.6f}",
    ]
    if args.compare:
        exact = PartitionGrid(field).count(alpha)
        doc["p_exact"] = exact
        doc["log_p_exact"] = math.log(exact) if exact > 1 else 0.0
        lines.append(f"exact p(alpha) = {exact}, log = {doc['log_p_exact']:.6f}")
    _emit(args.format, lambda: doc, pretty=lambda: "\n".join(lines))
    return 0


def cmd_verify(args: SimpleNamespace) -> int:
    from .fixtures import builtin_documents, load_documents, verify_documents  # only verify runs them

    if args.fixtures == "":  # Path("") is the working directory
        raise UsageError("verify: --fixtures is an empty path")
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
    failures = 0
    for name, diffs in verify_documents(docs):
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

# The one declaration of the commands: each command's function, help line
# and options, in the order help lists them.  An option is (option string,
# type, choices, default, required); a flag has neither type nor choices and
# stores True, and each other option takes one value.  Its dest is derived
# as argparse derives it.  No option has a string default with a type,
# which argparse would convert when the option is absent; tests/test_cli.py
# holds the table to both rules.
_D = ("--D", int, None, None, True)


def _format(*choices: str) -> tuple:
    return ("--format", None, choices, "pretty", False)


_COMMANDS = {
    "grid": (cmd_grid, "partition counts over a rectangle of the cone", (
        _D,
        ("--max-x", _at_least(0), None, None, False),
        ("--view", None, ("xy", "ky"), "xy", False),
        ("--kmax", _at_least(0), None, None, False),
        ("--ymax", _at_least(0), None, None, False),
        _format("pretty", "csv", "json", "tex"),
    )),
    "indecomposables": (cmd_indecomposables, "indecomposables for one unit period", (_D, _format("pretty", "json"))),
    "units": (cmd_units, "continued fraction, eps and eps_plus", (_D, _format("pretty", "json"))),
    "search": (cmd_search, "all elements with at most m partitions", (
        _D,
        ("--m", _at_least(1), None, None, True),
        ("--explain", None, None, False, False),
        _format("pretty", "csv", "json", "tex"),
    )),
    "dm": (cmd_dm, "fields with no element of exactly m partitions", (
        ("--m", _at_least(1), None, None, True),
        ("--Dmax", _at_least(2), None, None, False),
        _format("pretty", "csv", "json"),
    )),
    "parity": (cmd_parity, "cumulative counts P(n) and their parity", (
        _D,
        ("--N", _at_least(0), None, None, True),
        _format("pretty", "csv", "json"),
    )),
    "witness": (cmd_witness, "elements with exactly 4, and 6 or 9, partitions", (
        _D,
        ("--m", int, (4, 6), 4, False),
        _format("pretty", "json"),
    )),
    "estimate": (cmd_estimate, "leading-order size of log p(alpha)", (
        _D,
        ("--a", int, None, None, True),
        ("--b", int, None, None, True),
        ("--compare", None, None, False, False),
        _format("pretty", "json"),
    )),
    "verify": (cmd_verify, "recompute and diff the reference datasets", (("--fixtures", str, None, None, False),)),
}


def build_parser() -> dict[str, tuple[dict, dict, frozenset]]:
    """Each command's maps for _read_plain, read from _COMMANDS.

    A command's maps are its option strings, each with its dest, type and
    choices; what argparse sets before it reads any word (each option's
    default, then func); and the dests of its required options.  Help is
    not among the options, so -h and --help go to argparse.
    """
    table = {}
    for name, (func, _, options) in _COMMANDS.items():
        plain, defaults, required = {}, {}, set()
        for option, kind, choices, default, needed in options:
            dest = option.lstrip("-").replace("-", "_")
            plain[option] = (dest, kind, choices)
            defaults[dest] = default
            if needed:
                required.add(dest)
        defaults["func"] = func
        table[name] = (plain, defaults, frozenset(required))
    return table


def _read_plain(command: tuple[dict, dict, frozenset], words: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives for words, or None where words are not plain.

    Plain words are whole option strings of command, each a flag or
    followed by one value that does not start with "-", whose type accepts
    it and whose choices hold it, with every required option present.  As
    argparse does, a flag stores True, an option its converted value, and
    the last repeat wins.
    """
    options, defaults, required = command
    values = dict(defaults)
    seen = set()
    rest = iter(words)
    for word in rest:
        option = options.get(word)
        if option is None:
            return None
        dest, kind, choices = option
        seen.add(dest)
        if kind is None and choices is None:
            values[dest] = True
            continue
        text = next(rest, "-")  # a missing value declines like an option
        if text.startswith("-"):
            return None
        try:
            value = text if kind is None else kind(text)
        except Exception:  # argparse converts text again and reports or raises what it does
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    return SimpleNamespace(**values) if required <= seen else None


@functools.cache
def _parser() -> dict[str, tuple[dict, dict, frozenset]]:
    """The maps main reads, built once per process.

    They depend on no input, and each reading returns a new namespace, so
    nothing else is kept between calls of main.
    """
    return build_parser()


@functools.cache
def _argparser():
    """The argparse parser of _COMMANDS, built once per process when first needed.

    Its commands attribute maps each command name to that command's parser.
    Every parser raises UsageError with its usage error instead of exiting.
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message: str) -> None:  # type: ignore[override]
            raise UsageError(f"{self.prog}: {message}")

    parser = Parser(
        prog="quadpartitions",
        description="Exact partition counts for totally positive elements "
        "of real quadratic fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Parser)
    for name, (func, help_line, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for option, kind, choices, default, required in options:
            if kind is None and choices is None:
                command.add_argument(option, action="store_true")
            else:
                command.add_argument(option, type=kind, choices=choices, default=default, required=required)
        command.set_defaults(func=func)
    parser.commands = sub.choices
    return parser


def _parse(argv: list[str]) -> SimpleNamespace:
    """The namespace of argv, read for the command that argv[0] names.

    A plain argv, each later word a whole option of that command and each
    value valid and not starting with "-", is read from the command's
    maps (_read_plain) in 1-5 us, without importing argparse, and gets the
    namespace argparse would give.  Any other argv, help, "--D=7",
    "--form", a negative value, "--" and usage errors among them, imports
    argparse and goes to that command's parser, built from the same table
    (_argparser).  The top-level parser would hand it every later argument,
    "--" included, and add only its own unrecognized-arguments error for
    the leftovers, so this prints the same for every argv while skipping
    the top-level pass.  An argv that names no command (none at all, an
    option first, an unknown name) goes to the top-level parser, which
    prints its help or its usage error.
    """
    command = _parser().get(argv[0]) if argv else None
    args = None if command is None else _read_plain(command, argv[1:])
    if args is not None:
        return args
    parser = _argparser()
    if command is None:
        return parser.parse_args(argv, SimpleNamespace())
    args, extras = parser.commands[argv[0]].parse_known_args(argv[1:], SimpleNamespace())
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (DivisibilityViolation, InvariantViolation) as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except BudgetExceeded as exc:
        print(str(exc), file=sys.stderr)
        return 4
    except BrokenPipeError:
        # Point stdout at devnull, so that the interpreter's final flush of
        # what is left in its buffer cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    raise SystemExit(main())
