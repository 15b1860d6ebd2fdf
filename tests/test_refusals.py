"""Every refusal that tier-1 checks: one table of argvs, run in one child in little memory."""

import json
import sys

from quadpartitions import Field, errors, partition

from conftest import REFERENCE, finish, start_python


def _fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a, b


# F(20575) and F(20576) have 4,300 digits, the most Python prints, and
# alpha = phi^20576 = (2a + b + b*sqrt(5))/2 prints 2a + b, of 4,301.
FIB_A, FIB_B = _fibonacci(20576)
LIMIT = sys.get_int_max_str_digits()
PRINTS = f"is over the cost budget: it holds an int of more than {LIMIT} digits, the most Python prints"
BUDGET = "more than 120 s"
BAND = "is over the cost budget: its Euler product would take"
INTERVAL = "is over the cost budget: its recurrence would take"
PERIOD = "are over the cost budget: its period is longer than 23170, so they would take more than 256 MB"

# (argv, the one stderr line it prints) for every input refused with exit 4:
# the first x and N refused, and inputs that once printed a traceback, hung,
# ran out of memory or worked for minutes before their refusal.  verify reads
# the units documents the test writes: D=2's row with y_max = 10^6, whose
# corner's interval is thin, and with y_max = 9*10^4299, whose corner has an
# x of 4,301 digits.
REFUSALS = (
    # A cone or an ideal priced in O(1); the estimate is rounded up, so a
    # refusal never reads "about 120 s, more than 120 s".
    ("grid --D 2 --max-x 100000",
     f"the cone up to x = 100000 is over the cost budget: building it would take at least 239 s, {BUDGET}"),
    ("grid --D 2 --max-x 417",
     f"the cone up to x = 417 is over the cost budget: its recurrence would take about 121 s, {BUDGET}"),
    ("grid --D 5 --max-x 332",
     f"the cone up to x = 332 is over the cost budget: its recurrence would take about 122 s, {BUDGET}"),
    ("parity --D 2 --N 100000",
     f"the ideal below (100000, 0) of D=2 is over the cost budget: building it would take at least 39460 s, {BUDGET}"),
    ("parity --D 2 --N 1548",
     f"the ideal below (1548, 0) of D=2 is over the cost budget: its parity product would take about 121 s, {BUDGET}"),
    ("parity --D 5 --N 1376",
     f"the ideal below (1376, 0) of D=5 is over the cost budget: its parity product would take about 121 s, {BUDGET}"),
    # Slice bands, estimated from X, K and their slot layout before any O(X)
    # work.  D = 1000000007's first corner band runs to an x of 6,382
    # digits, so its size is named.  m = 10^30 once ran about 100 s of
    # counts before its box's band refused it; search now prices a band
    # inside the box, B(286, 192), first.  dm prices every field before it
    # searches any: the scan to 1001 once searched every field below D=73.
    ("search --D 97 --m 11",
     f"the slice band of D=97 up to x = 56432286 {BAND} about 1.5e+06 s, {BUDGET}"),
    ("grid --view ky --D 2 --kmax 6 --ymax 10000000",
     f"the slice band of D=2 up to x = 14142142 {BAND} about 3.6e+07 s, {BUDGET}"),
    ("search --D 1000000007 --m 11",
     f"the slice band of D=1000000007 up to an x of 21198 bits {BAND} about over 1e+300 s, {BUDGET}"),
    (f"search --D 2 --m {10**30}", f"the slice band of D=2 up to x = 286 {BAND} about 172 s, {BUDGET}"),
    ("dm --m 11 --Dmax 1001", f"the slice band of D=73 up to x = 2014253 {BAND} about 2933 s, {BUDGET}"),
    # Intervals [0, alpha] of a point count, priced in O(1).  At D = 2 the
    # trace sums P(n) stay below m = 10^300 up to n = 256, so k_max > 256.
    (f"search --D 2 --m {10**300}", f"the interval [0, 257] of D=2 {INTERVAL} about 274 s, {BUDGET}"),
    (f"dm --m {10**300} --Dmax 3", f"the interval [0, 257] of D=2 {INTERVAL} about 274 s, {BUDGET}"),
    ("witness --D 100000000000000000039",
     "the interval [0, 10000000003+√100000000000000000039] of D=100000000000000000039 "
     f"{INTERVAL} about 2.5e+13 s, {BUDGET}"),
    ("estimate --D 2 --a 2000 --b 0 --compare", f"the interval [0, 2000] of D=2 {INTERVAL} about 1.0e+06 s, {BUDGET}"),
    ("verify --fixtures y1000000", f"the interval [0, 1414214+1000000√2] of D=2 {INTERVAL} about 500001 s, {BUDGET}"),
    ("verify --fixtures y9e4299",
     f"the interval [0, alpha] of D=2 up to an x of 14285 bits {INTERVAL} about over 1e+300 s, {BUDGET}"),
    # Outputs past Python's digit limit, refused before anything is formatted.
    ("units --D 1000000007", f"the output of D=1000000007 {PRINTS}"),
    ("indecomposables --D 1000000007", f"the output of D=1000000007 {PRINTS}"),
    (f"estimate --D 5 --a {FIB_A} --b {FIB_B}", f"the output of D=5 {PRINTS}"),
    (f"estimate --D 5 --a {FIB_A} --b {FIB_B} --format json", f"the output of D=5 {PRINTS}"),
    # Fields: D = 10000000019 has period 124,134, whose convergents would
    # take about 7.8 GB, and the squarefree test of 10^30 + 57 would divide
    # about 5e9 times.
    ("units --D 10000000019", f"the convergents of D=10000000019 {PERIOD}"),
    ("indecomposables --D 10000000019", f"the convergents of D=10000000019 {PERIOD}"),
    ("search --D 10000000019 --m 11", f"the convergents of D=10000000019 {PERIOD}"),
    (f"units --D {10**30 + 57}",
     f"the squarefree test of D={10**30 + 57} is over the cost budget: its trial divisions would take about 500 s, {BUDGET}"),
    # A dm scan to 10^17 is priced from the fewest fields it holds, before
    # any is listed, and search a table it cannot print, before any count.
    (f"dm --m 2 --Dmax {10**17}",
     f"the dm scan of the squarefree D <= {10**17} at m = 2 is over the cost budget: "
     f"its searches would take at least 2.5e+12 s, {BUDGET}"),
    ("search --D 2 --m 100000000",
     "the table of D=2 up to m = 100000000 is over the cost budget: it would print 100000000 rows, more than 524288"),
)

# Runs each argv of sys.argv[1] through main in one interpreter whose address
# space is limited to 1 GB (1,000,000 KiB), then prints its peak RSS: VmHWM,
# where Linux reports it, as ru_maxrss would carry over the forking process's.
CHILD = """\
import contextlib, io, json, pathlib, resource, sys, time, traceback
resource.setrlimit(resource.RLIMIT_AS, (1_000_000 * 1024, resource.getrlimit(resource.RLIMIT_AS)[1]))
from quadpartitions.cli import main
for argv in json.loads(sys.argv[1]):
    out, err, code = io.StringIO(), io.StringIO(), None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv.split())
        except Exception:
            traceback.print_exc()
    print(json.dumps([code, time.perf_counter() - start, out.getvalue(), err.getvalue()]))
status = pathlib.Path('/proc/self/status')
print(status.read_text().split('VmHWM:')[1].split()[0] if status.exists() else 0)
"""


def test_every_refusal_exits_4_at_once_in_little_memory(tmp_path):
    # Each argv exits 4 within 2 s, with no stdout and exactly its line, and
    # the child's peak RSS stays under 200 MB.
    assert 10 ** (LIMIT - 1) <= FIB_A < FIB_B < 10**LIMIT <= 2 * FIB_A + FIB_B
    doc = json.loads((REFERENCE / "units-summary.json").read_text())
    assert doc["rows"][0]["D"] == 2
    for name, y_max in (("y1000000", 10**6), ("y9e4299", 9 * 10**4299)):
        (tmp_path / name).mkdir()
        row = dict(doc["rows"][0], y_max=y_max)
        (tmp_path / name / "units-summary.json").write_text(json.dumps(dict(doc, rows=[row])))
    code, out, err = finish(start_python("-c", CHILD, json.dumps([argv for argv, _ in REFUSALS]), cwd=tmp_path))
    assert (code, err) == (0, "")
    *runs, rss_kb = out.splitlines()
    assert len(runs) == len(REFUSALS)
    for (argv, line), run in zip(REFUSALS, runs):
        code, secs, out, err = json.loads(run)
        assert (code, out, err) == (4, "", line + "\n"), argv
        assert secs < 2, argv
    assert int(rss_kb) < 200 * 1024


def _cone_ms(D, X):
    f = Field(D)
    sizes = [f.floor_div_omega(x) + f.floor_div_xi(x) + 1 for x in range(X + 1)]
    return partition._madds_ms(partition._recurrence_madds(sizes))


def _parity_ms(D, N):
    # The XOR steps of parity's fold below (N, 0), one per cell with u or v
    # odd, in the band layout at K = N.
    f = Field(D)
    a, _ = partition._band_layout(f, N)
    steps = sum((u | v) & 1 for v, first, last in partition._RowEdges(f).rows(N, 0) for u in range(first, last + 1))
    return partition._fold_ms(steps, a * N + 1)


def test_the_estimates_at_the_budget_s_edge():
    # The xy view runs up to x = 416 for D=2 and 331 for D=5, and parity up
    # to N = 1547 and 1375; the table holds the refusals one step beyond.
    # The largest argvs of the benchmark pool stay well inside the budget.
    for D, X in ((2, 260), (5, 210), (2, 316), (5, 251), (2, 416), (5, 331), (15, 100)):
        assert _cone_ms(D, X) <= errors.BUDGET_MS, (D, X)
    assert min(_cone_ms(2, 417), _cone_ms(5, 332)) > errors.BUDGET_MS
    for D, N in ((2, 1547), (5, 1375), (2, 90)):
        assert _parity_ms(D, N) <= errors.BUDGET_MS, (D, N)
    assert min(_parity_ms(2, 1548), _parity_ms(5, 1376)) > errors.BUDGET_MS
    # The box bands of the pinned wide-unit searches stay inside the budget at
    # the slots where their folds end: values of 46, 63, 58 and 39 bits in
    # whole value bytes under a guard byte.
    for D, k_max, y_max, bits in ((31, 6, 274, 56), (41, 6, 641, 72), (43, 6, 532, 72), (61, 6, 196, 48)):
        f = Field(D)
        X, K = f.ceil_xi_mult(y_max) + k_max, k_max + 1
        assert partition._band_ms(f, X, K, *partition._band_layout(f, K), bits) <= errors.BUDGET_MS, D
