"""Seeded job lists for the four benchmark workloads.

A workload is a list of strata: a group of work keys (a field and a size)
and how many of them one run draws.  dense-grid, slice-search and parity
draw every key of their pool at the reference run length, so each run does
the same computations and only the seed-chosen argv variant of each key
(output format, and m in slice-search) and the job order differ: with per-job costs
that span two orders of magnitude, sampling the keys would move run time and
the median and tail jobs by 15-35% between seeds.  field-sweep has over a
thousand millisecond jobs and samples each stratum, which costs well under 1%
of spread.  Other --seconds values scale every stratum's draw.

Work keys are distinct within a run, and in dense-grid, slice-search and
parity no two keys share a field, so a cross-job memo in the program cannot
turn repeated work into free hits.  Only the argv lists built here reach the
program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt
from typing import Callable

WORKLOADS = ("dense-grid", "slice-search", "parity", "field-sweep")

# The pools below take about this long per run; --seconds scales the draws.
REFERENCE_SECONDS = 10

Argv = tuple[str, ...]


@dataclass(frozen=True)
class Stratum:
    keys: tuple
    count: int


def squarefree(lo: int, hi: int) -> tuple[int, ...]:
    """Squarefree D with lo <= D < hi; the fields the CLI accepts."""
    out = []
    for n in range(max(lo, 2), hi):
        d = 2
        while d * d <= n and n % (d * d):
            d += 1
        if d * d > n:
            out.append(n)
    return tuple(out)


# ----- dense-grid -------------------------------------------------------------
# Keys are ("xy", D, max_x) or ("ky", D, kmax, ymax): 56 fields at max_x=100,
# the classical small fields at max_x 45-80, and one ky view.  Every stored
# cell is built and every cell with y >= 0 is printed, so the partition kernel
# and the table output do the work.  Many jobs of 0.05-0.3 s each, rather than
# a few long ones, keep the median and the tail job inside groups of similar
# cost, so those order statistics do not follow a single job's noise.

_DENSE_WIDE = (15, 22, 26, 31, 35, 39, 43, 47, 55, 59, 62, 67, 70, 73, 77, 79, 83, 86, 89, 93, 95,
               101, 103, 106, 109, 111, 114, 118, 123, 133, 139, 142, 145, 149, 154, 157, 161, 170,
               177, 185, 193, 197, 201, 206, 210, 213, 215, 218, 221, 223, 227, 230, 233, 237, 249,
               257)

_DENSE_KEYS = (tuple(("xy", D, 100) for D in _DENSE_WIDE)
               + tuple(("xy", D, X) for D, X in ((2, 60), (3, 60), (5, 45), (6, 80), (7, 80),
                                                 (13, 60), (17, 60)))
               + (("ky", 21, 6, 46),))

_DENSE = (Stratum(_DENSE_KEYS, len(_DENSE_KEYS)),)


def _dense_variants(key: tuple) -> list[Argv]:
    if key[0] == "xy":
        _, D, X = key
        return [("grid", "--view", "xy", "--D", str(D), "--max-x", str(X), "--format", f)
                for f in ("pretty", "csv", "json", "tex")]
    _, D, K, Y = key
    return [("grid", "--view", "ky", "--D", str(D), "--kmax", str(K), "--ymax", str(Y),
             "--format", f) for f in ("pretty", "csv", "json", "tex")]


# ----- slice-search -------------------------------------------------------------
# Keys are fields D: 53 of the 61 squarefree D < 200 on which the dense
# search_m finishes.  Left out are the five slowest (82: 7 s, 22: 4 s, 146:
# 3-4 s, 101: 2.5 s, 123: 2 s), which would more than double the run, and 167,
# 173 and 65 (0.7-0.9 s), which would put the tail job (the eleventh slowest)
# between two sparse cost groups.  The heavy tail is kept: 19, 102, 57 and 194
# take 1-2.5 s against a median near 0.05 s.  m=10 searches the same box as
# m=11 on every field costlier than 0.05 s.

_SLICE_FIELDS = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 23, 26, 29, 30, 33, 34,
                 35, 37, 38, 39, 42, 47, 51, 53, 55, 57, 62, 66, 69, 77, 78, 79, 83, 85,
                 87, 93, 95, 102, 105, 110, 119, 133, 138, 141, 142, 143, 165, 182, 194,
                 195)

_SLICE = (Stratum(_SLICE_FIELDS, len(_SLICE_FIELDS)),)


_EXPLAIN = (2, 5, 13, 21, 38)


def _slice_variants(D: int) -> list[Argv]:
    # --explain enumerates partitions and can triple a light job, so it runs on
    # a fixed few fields; elsewhere the seed picks a format, and m=10 for one
    # variant in three.
    base = ("search", "--D", str(D))
    if D in _EXPLAIN:
        return [base + ("--m", "11", "--explain")]
    return ([base + ("--m", "11", "--format", f) for f in ("pretty", "csv", "json", "tex")]
            + [base + ("--m", "10", "--format", f) for f in ("pretty", "json")])


# ----- parity ---------------------------------------------------------------------
# Keys are (D, N) over both congruence classes of D: 76 fields, N = 60-90.  Only the diagonal y=0 of the grid is
# read, but today the whole cone up to x=N is built.

_PARITY_WIDE = (10, 11, 14, 15, 19, 23, 29, 30, 33, 34, 37, 38, 41, 42, 46, 51, 53, 57, 58, 61, 62,
                65, 67, 70, 73, 77, 79, 83, 86, 89, 93, 94, 97, 102, 105, 107, 110, 113, 118, 123,
                133, 139, 142, 145, 149, 154, 157, 165, 173, 181, 190, 193, 195, 199, 205, 209,
                211, 214, 217, 219, 222, 226, 229, 231, 235, 241, 249, 254, 257, 259)

# N is raised on the costliest fields and set on the classical ones so that
# about twenty jobs take about 0.2 s: the tail job (the eleventh slowest) then
# sits inside that group.
_PARITY_TOP = ((29, 80), (33, 81), (65, 83), (37, 83), (41, 84), (10, 84), (11, 85), (61, 85),
               (19, 86), (93, 87), (14, 89), (57, 89), (53, 90), (2, 60), (3, 62), (6, 75),
               (7, 71), (13, 60), (17, 60), (21, 67))
_PARITY_KEYS = _PARITY_TOP + tuple(
    (D, 80) for D in _PARITY_WIDE if D not in {d for d, _ in _PARITY_TOP})

_PARITY = (Stratum(_PARITY_KEYS, len(_PARITY_KEYS)),)


def _parity_variants(key: tuple) -> list[Argv]:
    D, N = key
    return [("parity", "--D", str(D), "--N", str(N), "--format", f)
            for f in ("pretty", "csv", "json")]


# ----- field-sweep ------------------------------------------------------------------
# Keys are (command, D) or (command, m).  Every job takes milliseconds and its
# grids stay tiny, so continued fractions, field arithmetic, fixtures and the
# fixed cost of each CLI call do the work.

_SWEEP_FIELDS = squarefree(2, 1000)
_BIG_UNIT = (97, 139, 151, 163, 166, 193, 199)
_ESTIMATE = tuple((D, y) for D in squarefree(2, 200) for y in (2, 4))
# Larger estimates, 15-30 ms each on grids up to x=50: with verify and dm they
# put more than ten real jobs above the millisecond bulk, so job_s_tail reads
# a job's cost instead of a scheduling hiccup of the host.
_ESTIMATE_WIDE = ((2, 16), (3, 16), (6, 12), (7, 12), (10, 12), (11, 12), (14, 10), (15, 10),
                  (19, 10), (21, 16), (23, 10), (26, 10), (29, 16), (30, 8), (31, 8), (33, 16),
                  (34, 8), (35, 8))

_SWEEP = (
    Stratum(tuple(("units", D) for D in _SWEEP_FIELDS), 540),
    Stratum(tuple(("indecomposables", D) for D in _SWEEP_FIELDS if D not in _BIG_UNIT), 540),
    Stratum(tuple(("indecomposables", D) for D in _BIG_UNIT), 4),
    Stratum(tuple(("witness4", D) for D in _SWEEP_FIELDS), 540),
    Stratum(tuple(("witness6", D) for D in _SWEEP_FIELDS), 540),
    Stratum(tuple(("estimate",) + k for k in _ESTIMATE), 220),
    Stratum(tuple(("estimate",) + k for k in _ESTIMATE_WIDE), len(_ESTIMATE_WIDE)),
    Stratum(tuple(("dm", m) for m in (1, 2, 3, 5, 7, 11)), 6),
    Stratum((("verify",),), 1),
)


def _ceil_xi_mult(D: int, y: int) -> int:
    # ceil(y*xi) with xi = sqrt(D), or (sqrt(D)-1)/2 when D = 1 (mod 4).
    f = isqrt(y * y * D)
    return ((f - y) // 2 if D % 4 == 1 else f) + 1


def _sweep_variants(key: tuple) -> list[Argv]:
    kind = key[0]
    if kind == "verify":
        return [("verify",)]
    if kind == "dm":
        return [("dm", "--m", str(key[1]), "--format", f) for f in ("pretty", "csv", "json")]
    D = str(key[1])
    if kind in ("units", "indecomposables"):
        return [(kind, "--D", D, "--format", f) for f in ("pretty", "json")]
    if kind in ("witness4", "witness6"):
        return [("witness", "--D", D, "--m", kind[-1], "--format", f) for f in ("pretty", "json")]
    # estimate: the slice element (ceil(y*xi) + 3) + y*w, compared with p exactly.
    y = key[2]
    a = str(_ceil_xi_mult(key[1], y) + 3)
    return [("estimate", "--D", D, "--a", a, "--b", str(y), "--compare", "--format", f)
            for f in ("pretty", "json")]


_SPECS: dict[str, tuple[tuple[Stratum, ...], Callable[[object], list[Argv]]]] = {
    "dense-grid": (_DENSE, _dense_variants),
    "slice-search": (_SLICE, _slice_variants),
    "parity": (_PARITY, _parity_variants),
    "field-sweep": (_SWEEP, _sweep_variants),
}


def strata(workload: str) -> tuple[Stratum, ...]:
    return _SPECS[workload][0]


def variants(workload: str, key: object) -> list[Argv]:
    return _SPECS[workload][1](key)


def pool(workload: str) -> list[Argv]:
    """Every argv a run of this workload can draw, in a fixed order."""
    return [argv for s in strata(workload) for key in s.keys for argv in variants(workload, key)]


def job_list(workload: str, seed: int, seconds: float) -> list[Argv]:
    """The seeded argv list of one run; equal seeds give equal lists."""
    if workload not in _SPECS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    scale = seconds / REFERENCE_SECONDS
    jobs: list[Argv] = []
    for s in strata(workload):
        n = min(len(s.keys), max(1, round(s.count * scale)))
        for key in rng.sample(s.keys, n):
            jobs.append(rng.choice(variants(workload, key)))
    rng.shuffle(jobs)
    return jobs
