"""Correctness checks on each job's stdout, run outside the timed region.

Every job's stdout must match the digest pinned in table.json.  On top of
that, the outputs of grid, search and parity jobs are parsed back into
numbers and checked against algorithms independent of the recurrence:

- grid:   p(alpha) = p(eps_plus * conj(alpha)) wherever both cells are shown
          (conjugation composed with a totally positive unit, which maps the
          shown half of the cone onto itself), brute-force enumeration on every
          cell with x <= 6, and the packaged grid-xy-D2 / slice-D* documents on
          their common prefix;
- search: every representative's brute-force partition count equals its m,
          --explain lists exactly m partitions of each small representative,
          and tabulated fields agree with the packaged representatives-* and
          slice-* documents;
- parity: P(n) mod 2 equals the printed parity bits, P(n) = p(n) (mod 2), and
          p(n) has the parity of the classical partition number above the E_n /
          F_n threshold, where p(n) collapses to it.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys

from harness import ROOT, SRC

ORACLE_MAX_X = 6


class Checker:
    """Independent checks; caches brute-force counts across the jobs of a run."""

    def __init__(self) -> None:
        import quadpartitions as qp
        from quadpartitions.fixtures import builtin_documents

        self.qp = qp
        self._oracle: dict[tuple[int, int, int], int] = {}
        self._refs = {doc["name"]: doc for doc in builtin_documents()}

    # ----- dispatch -------------------------------------------------------

    def check(self, argv: tuple[str, ...], stdout: bytes) -> list[str]:
        """Problems found in one job's output; an empty list means it passed."""
        handler = {"grid": self._grid, "search": self._search, "parity": self._parity}.get(argv[0])
        if handler is None:
            return []
        opts = _options(argv)
        try:
            return handler(opts, stdout.decode("utf-8"))
        except (ValueError, KeyError, IndexError, SyntaxError) as exc:
            return [f"unparseable output: {exc!r}"]

    def oracle(self, field, a: int, b: int) -> int:
        key = (field.D, a, b)
        if key not in self._oracle:
            self._oracle[key] = self.qp.count_partitions(self.qp.QElement(field, a, b))
        return self._oracle[key]

    # ----- grid -------------------------------------------------------------

    def _grid(self, opts: dict, text: str) -> list[str]:
        qp = self.qp
        field = qp.Field(int(opts["--D"]))
        rows = parse_matrix(text, opts.get("--format", "pretty"))
        problems = []
        if opts.get("--view", "xy") == "xy":
            cell = {(x, y): v for y, row in enumerate(rows) for x, v in enumerate(row)}
            eps = qp.build_context(field).eps_plus
            if eps.norm() != 1 or not eps.is_totally_positive():
                return [f"eps_plus {eps} is not a totally positive unit"]
            for (x, y), v in cell.items():
                twin = eps * qp.QElement(field, x, y).conjugate()
                w = cell.get((twin.a, twin.b))
                if w is not None and w != v:
                    problems.append(f"p({x},{y})={v} but p({twin.a},{twin.b})={w}")
                if 1 <= x <= ORACLE_MAX_X:
                    problems += self._against_oracle(field, x, y, v)
            ref = self._refs["grid-xy-D2"] if field.D == 2 else None
        else:
            cell = {}
            for y, row in enumerate(rows):
                for k, v in enumerate(row):
                    e = qp.slice_element(field, k, y) if (k, y) != (0, 0) else field.element(0)
                    cell[(k, y)] = v
                    if 1 <= e.a <= ORACLE_MAX_X:
                        problems += self._against_oracle(field, e.a, e.b, v)
            ref = self._refs.get(f"slice-D{field.D}")
        if ref is not None:
            for y, row in enumerate(ref["rows"]):
                for i, expected in enumerate(row):
                    got = cell.get((i, y))
                    if got is not None and got != expected:
                        problems.append(f"{ref['name']} has {expected} at ({i},{y}), output {got}")
        return problems

    def _against_oracle(self, field, x: int, y: int, shown: int) -> list[str]:
        e = self.qp.QElement(field, x, y)
        want = self.oracle(field, x, y) if e.is_totally_positive() else 0
        return [] if want == shown else [f"p({x},{y}) shown {shown}, brute force {want}"]

    # ----- search -------------------------------------------------------------

    def _search(self, opts: dict, text: str) -> list[str]:
        qp = self.qp
        field = qp.Field(int(opts["--D"]))
        m_max = int(opts["--m"])
        fmt = opts.get("--format", "pretty")
        reps, slice_rows = parse_search(text, fmt, field)
        problems = []
        if sorted(reps) != list(range(1, m_max + 1)):
            problems.append(f"rows for m={sorted(reps)}, expected 1..{m_max}")
        for m, elems in reps.items():
            for a, b in elems:
                got = self.oracle(field, a, b)
                if got != m:
                    problems.append(f"representative ({a},{b}) listed at m={m}, brute force {got}")
        if "--explain" in opts:
            explained: dict[str, int] = {}
            for line in text.split("partitions of the small representatives:\n", 1)[1].splitlines():
                lhs = line.strip().split(" = ", 1)[0]
                explained[lhs] = explained.get(lhs, 0) + 1
            for m, elems in reps.items():
                for a, b in elems:
                    e = qp.QElement(field, a, b)
                    if a <= 12 and explained.get(str(e)) != m:
                        problems.append(f"--explain lists {explained.get(str(e))} partitions of {e}, expected {m}")
        for doc in self._refs.values():
            if doc["kind"] != "representatives":
                continue
            for entry in doc["fields"]:
                if entry["D"] != field.D:
                    continue
                for m in range(1, min(m_max, doc["m_max"]) + 1):
                    want = sorted((o["a"], o["b"]) for o in entry["by_m"][str(m)])
                    if sorted(reps.get(m, [])) != want:
                        problems.append(f"{doc['name']}: m={m} representatives differ")
        ref = self._refs.get(f"slice-D{field.D}")
        if ref is not None and slice_rows is not None:
            for y, row in enumerate(ref["rows"][: len(slice_rows)]):
                for k, expected in enumerate(row[: len(slice_rows[y])]):
                    if slice_rows[y][k] != expected:
                        problems.append(f"{ref['name']}: slice ({k},{y}) {slice_rows[y][k]} != {expected}")
        return problems

    # ----- parity -------------------------------------------------------------

    def _parity(self, opts: dict, text: str) -> list[str]:
        D, N = int(opts["--D"]), int(opts["--N"])
        P, P_par, p_par = parse_parity(text, opts.get("--format", "pretty"))
        if not len(P) == len(P_par) == len(p_par) == N + 1:
            return [f"expected {N + 1} values of P and both parities"]
        problems = []
        if [v % 2 for v in P] != P_par:
            problems.append("printed P(n) mod 2 disagrees with P(n)")
        if P_par != p_par:
            problems.append("P(n) and p(n) differ mod 2")
        classical = classical_partitions(N)
        for n in range(1, N + 1):
            half = n // 2
            bound = ((n - 1) ** 2 if n % 2 == 0 else n * n) if D % 4 == 1 else half * half
            if D > bound and p_par[n] != classical[n] % 2:
                problems.append(f"p({n}) mod 2 = {p_par[n]} above the threshold, classical p({n}) = {classical[n]}")
        return problems


def fidelity(argv: tuple[str, ...], rc: int, stdout: bytes) -> str | None:
    """Compare an in-process run with `python -m quadpartitions` in a subprocess."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "quadpartitions", *argv],
        cwd=ROOT, env=env, capture_output=True, timeout=150,
    )
    if proc.returncode != rc:
        return f"subprocess exit {proc.returncode}, in-process {rc}"
    if proc.stdout != stdout:
        return "subprocess stdout differs from the in-process stdout"
    return None


# ----- parsers -------------------------------------------------------------------


def _options(argv: tuple[str, ...]) -> dict:
    out: dict = {}
    i = 1
    while i < len(argv):
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[argv[i]] = argv[i + 1]
            i += 2
        else:
            out[argv[i]] = True
            i += 1
    return out


def parse_matrix(text: str, fmt: str) -> list[list[int]]:
    """Rows (index y) of a grid table printed in any of the four formats."""
    if fmt == "json":
        return json.loads(text)["rows"]
    lines = text.strip("\n").splitlines()
    if fmt == "csv":
        return [[int(v) for v in line.split(",")[1:]] for line in lines[1:]]
    if fmt == "tex":
        body = [line for line in lines if re.match(r"^\$\d+\$&", line)]
        return [[int(v.strip("$")) for v in line[:-2].split("&")[1:]] for line in body]
    rows = {}
    for line in lines[2:]:
        left, right = line.split("|")
        rows[int(left)] = [int(v) for v in right.split()]
    return [rows[y] for y in range(len(rows))]


_SURD = re.compile(r"^(?:(-?\d+)(?=[+-]))?([+-])?(\d*)√(\d+)$")


def parse_element(text: str, field) -> tuple[int, int]:
    """(a, b) coordinates of an element printed as str(QElement)."""
    text = text.strip()
    if "√" not in text:
        return int(text), 0
    den = 1
    if text.startswith("(") and text.endswith(")/2"):
        text, den = text[1:-3], 2
    match = _SURD.match(text)
    if match is None or int(match.group(4)) != field.D:
        raise ValueError(f"not an element of Q(sqrt({field.D})): {text!r}")
    A = int(match.group(1) or 0)
    B = int(match.group(3) or 1) * (-1 if match.group(2) == "-" else 1)
    if not field.one_mod4:
        return A, B
    if den == 1:
        A, B = 2 * A, 2 * B
    return (A - B) // 2, B


def _tex_to_str(text: str, D: int) -> str:
    text = text.strip().strip("$").replace(f"\\sqrt{{{D}}}", f"√{D}")
    match = re.match(r"^\\frac\{(.*)\}\{2\}$", text)
    return f"({match.group(1)})/2" if match else text


def parse_search(text: str, fmt: str, field) -> tuple[dict[int, list[tuple[int, int]]], list | None]:
    """({m: [(a, b), ...]}, slice rows or None) from a search job's stdout."""
    if fmt == "json":
        doc = json.loads(text)
        reps = {int(m): [(o["a"], o["b"]) for o in items] for m, items in doc["representatives"].items()}
        return reps, doc["slice"]
    reps = {}
    if fmt == "csv":
        for line in text.strip().splitlines()[1:]:
            m, _, body = line.partition(",")
            reps[int(m)] = [parse_element(e, field) for e in body.split(";") if e]
    elif fmt == "tex":
        for line in text.splitlines():
            match = re.match(r"^\$(\d+)\$&(.*)\\\\$", line)
            if match:
                body = match.group(2)
                items = [] if body == "--" else body.split(", ")
                reps[int(match.group(1))] = [parse_element(_tex_to_str(e, field.D), field) for e in items]
    else:
        for line in text.splitlines():
            match = re.match(r"^  m = (\d+): (.*)$", line)
            if match:
                body = match.group(2)
                items = [] if body == "(none)" else body.split(", ")
                reps[int(match.group(1))] = [parse_element(e, field) for e in items]
    return reps, None


def parse_parity(text: str, fmt: str) -> tuple[list[int], list[int], list[int]]:
    """(P, P mod 2, p mod 2) from a parity job's stdout."""
    if fmt == "json":
        doc = json.loads(text)
        return doc["P"], doc["P_parity"], doc["p_parity"]
    if fmt == "csv":
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        return [int(r[2]) for r in rows], [int(r[3]) for r in rows], [int(r[4]) for r in rows]
    found = {}
    for line in text.splitlines():
        label, sep, value = line.partition(": ")
        if sep and value.startswith("["):
            found[label.strip()] = ast.literal_eval(value)
    return found["P(n)"], found["P(n) mod 2"], found["p(n) mod 2"]


def classical_partitions(n: int) -> list[int]:
    """p(0..n) for rational integers, by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n
    for k in range(1, n + 1):
        total, j = 0, 1
        while True:
            g1 = j * (3 * j - 1) // 2
            if g1 > k:
                break
            sign = 1 if j % 2 else -1
            total += sign * p[k - g1]
            g2 = j * (3 * j + 1) // 2
            if g2 <= k:
                total += sign * p[k - g2]
            j += 1
        p[k] = total
    return p

