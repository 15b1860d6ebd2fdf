"""The sha256 of the stdout of the largest outputs, pinned byte for byte.

Each pin was printed by a kernel that the program no longer runs, so each
checks the kernel that prints it now against an independent one.  The
comment above each group names that kernel and what the group covers.
The walks (WALKS) are the exception: where no other kernel finishes, they
pin the capped walk's answers, whose representatives are recounted
independently, and each runs once, in a child of its own that also bounds
its time and memory.

To add a pin: run the argv with the kernel being replaced, then put the
sha256 of its stdout and the argv under a comment that says which kernel
printed it and what the argv covers, for example

    PYTHONPATH=src python -m quadpartitions parity --D 3 --N 200 --format json | sha256sum
"""

import hashlib
import json

import pytest

from quadpartitions import cli

from conftest import CHILD, finish, start_python

# (sha256 of stdout, argv)
PINS = [
    # Large xy views: printed by the exact Euler-product kernel, an algorithm
    # independent of the packed recurrence that prints them now.
    ("042d0744e26d985d6f377acd28b87bc85d21da776a0bc8974fb9fdf9eadd306e", "grid --D 2 --max-x 200 --format json"),
    ("b54257630f79ef2000d00f7c91cf930b9fb89a584a10230ffb655aed54695cb7", "grid --D 5 --max-x 160 --format json"),
    # Thin-slice searches: D=31 and D=43 are not in the benchmark's
    # slice-search pool, and their thin intervals leave the most room between
    # the cells a search stores.
    ("fd80c53c3b50704968e30da5d4346d0799df614dfdad9b94ee50abe56613ec9e", "search --D 31 --m 11 --format json"),
    ("c765dccf29e0c000032563d2dabfd62fa1862a09dc22dc408ff7bc645099ed1d", "search --D 43 --m 11 --format json"),
    # Wide-unit searches: slice boxes up to x = 1,742 whose values need more
    # than 32-bit slots; the pins were printed by the per-cell recurrence.
    # The D=2 box lies in the band B(89, 61): the only pin whose band is wide
    # enough (K > 13) to fill its corner u <= K, rows below 0 included, at
    # width; that pin was printed by the band's per-cell chain walk.  D=41 at
    # m = 42 widens its band's slots to 88 bits, the widest of any pin; that
    # pin was printed by the band that refolded at doubled widths from 32 bits.
    ("79c187a106239fbe940e789abb1635bdad46c4bca285a6dd327d3f6c00f11587", "search --D 41 --m 11 --format json"),
    ("c4a9c972e67383289813a4ca76f86b9c0eb07e985600bf77ff3508207830e9b2", "search --D 41 --m 42 --format json"),
    ("e7cacea0cf10dcf11cfb9f355a71e8d26c08b123d2df14cba4df7d50e4a533c0", "search --D 61 --m 11 --format json"),
    ("5c02c6cc38cd8b7f34971dcf68abef8891daf7d4f7db9744e8f9f25e70485242", "grid --view ky --D 31 --kmax 6 --ymax 274 --format json"),
    ("2dfcd9d40dab69e0ab681a4f2aace969deffc0a26db31cebe8e420f31bb610eb", "grid --view ky --D 2 --kmax 60 --ymax 20 --format json"),
    # Bands of each sign of the slot layout: a band places its cell (u, v) at
    # slot a*u + b*v: D=195 at K = 1 has (a, b) = (1, -11), and D=19 at K = 2
    # has (1, 0), one cell a column.  The pins were printed by the layout
    # u*W + v.
    ("f06a3c2633b40199570ae6ae1284180c2fce3a400f08a6221c39ca1d90b6af49", "grid --view ky --D 195 --kmax 0 --ymax 300 --format json"),
    ("65426c2ea1568bb39b408d41395dc85dbf2e6357567ea720232c89528a53dfc2", "grid --view ky --D 19 --kmax 1 --ymax 120 --format json"),
    # Searches at large xi: a band is walked by rows of at most K cells each,
    # where a walk by columns visits about xi columns a row.  D = 82, 101 and
    # 146 are outside the benchmark's slice-search pool, cover both classes
    # of D (101 = 1 mod 4) and have xi = 9.06, 4.52 and 12.08; the pins were
    # printed by the band walked column by column.
    ("d06dd6ea6b6b68a6c19145685536098695ca1828088465de7828cb087f2aa2ac", "search --D 82 --m 11 --format json"),
    ("a3d5f50cabe3c5094040f5c58ce8430d8f16360a6d8db85d4a33373129024d19", "search --D 101 --m 11 --format json"),
    ("3a723d267d79e70ff69ec96548305a33967eb2fac8d2d878f969de0de297328a", "search --D 146 --m 11 --format json"),
    # Searches whose k_max is below the rational bound: k_max is at most the
    # least n with p_rational(n) >= m, as every rational partition is one in
    # the field; only for D = 2, 3 and 5 does it stop short of that bound at
    # m = 10 and 11.  The benchmark pool holds D=3's searches but D = 2 and 5
    # only with --explain; the pins were printed by the loop that counted
    # n = 1, 2, ...
    ("dcbacd36a0056518dd43115d84857357f28e3cb02c6c49facbf7fc621be48149", "search --D 2 --m 10 --format json"),
    ("121ea77df46e7e199ab00f17493e49c4b2803699aa09e9e1cd85c7642941c9ca", "search --D 5 --m 10 --format json"),
    ("7ae420704e64e8e5c940fac15cc2e67d1a32a2bc29536d11225b1d29810521ec", "search --D 5 --m 11 --format json"),
    # Long continued fractions, beyond the benchmark's D < 1000: D=4999 has
    # period 152 and 370 indecomposables, D=9949 period 73 and 399; the pins
    # were printed by the QElement construction of the context that integer
    # pairs replace.  Each command runs in both congruence classes (9949 = 1,
    # 4999 = 3 mod 4), and the witnesses take one branch each (wide-gap 6 at
    # 9949, narrow-gap 9 at 4999); the pins of the second class and of the
    # witnesses were printed by the Field whose every method branched on the
    # class of D.
    ("edf444fd0053b4b2e383d420a06a00d96a436c1eaffe8cd6a5bc636694b3ffd2", "units --D 9949 --format json"),
    ("c227a4be9a768217b44455c164cad7a005198cae98ffb461d7ac9a4b73006b03", "indecomposables --D 4999 --format json"),
    ("8a19dc7d512ac940be59af7ef0b4d0811a5ad9e431c5365c6493f360f70e7489", "indecomposables --D 4999"),
    ("47e6ba919a75e79d29ab9fb6d132921bbd5294845b68e5115e3b0c8cad8641c1", "units --D 4999 --format json"),
    ("a41dc2e43abb3bd22a6b8bd1e177ed90cd794ea225263e443f459de6b52bc18f", "indecomposables --D 9949 --format json"),
    ("96092c0a9ea2d667f2962d09a4ebbf97eea20437e08faf18980f8a70c2346351", "witness --D 9949 --m 6 --format json"),
    ("f4277007cc3c57ba2851ca6421429ff92f4b6aaca8f2cdfd763b8cee1e8cf1bd", "witness --D 4999 --m 6 --format json"),
    # Large parity checks, beyond the benchmark's N <= 90, two fields from
    # each class of D; the pins of D=2 and D=13 were computed with the
    # whole-cone parity fold.  D=5 at N = 600 was pinned by the fold at the
    # ideal's own stride u*W + v, which differs most from the band layout for
    # D = 1 mod 4.  D=101 at N = 400 and D=21 at N = 500 run the trace-layer
    # transform in packed blocks from zero odd weights: both are D = 1 mod 4,
    # so it runs T = 2N = 800 and 1,000 terms, and w(k) = 0 for odd
    # k < sqrt(D); its slots widen many times.  Their pins were printed by
    # commit 90215e2, which summed the transform one coefficient at a time.
    ("0909c4ea15a30befef64426a97c1c214a3640664fa6b5e751123d38af1d6e7cb", "parity --D 3 --N 200 --format json"),
    ("742ad344526b0f01d28a043d1cf5f1d19090a12ecdd47d4e0fc1d62dec8ef23a", "parity --D 5 --N 150 --format json"),
    ("f3be26f0cd91ae5376036d6b4d115dabd88c04a1a23412ac3f90b3f244bd1b89", "parity --D 2 --N 400 --format json"),
    ("3fa035071b3818f4d4734c75d0e6befeb3503d402fe33dfc0a43157bf0b0b958", "parity --D 13 --N 300 --format json"),
    ("f8ed2c65ddabcb7f15f9526421166d84b6c6d2804cb7265892efc207f7570e22", "parity --D 5 --N 600 --format json"),
    ("ba6f5490e530ade172752c7a303340bddb1aeefa5c0a775668139ca2fb043e20", "parity --D 101 --N 400 --format json"),
    ("632228e017331e1dc9d75ce9c4461b609aa51e7b7965bdc6a86c321f7cf3ff6b", "parity --D 21 --N 500 --format json"),
    # Parity checks whose layout has b < 0: diagonal_parity folds the rows of
    # the ideal below (N, 0) at slot a*u + b*v; these layouts have b < 0:
    # (a, b) = (8, -129) for D=970, (4, -1) for D=919 at N = 60 and (7, -2)
    # for D=683 at N = 90.  The pins were printed by commit af6f4e8, which
    # folded the ideal's columns.
    ("c74a810b606c79548cc2ee86f8d16d3ff8c1be473e8565b98ac58fb19c1315de", "parity --D 970 --N 60 --format json"),
    ("b9c32bb4376d0c57ac5fc343feb38113df23f7e2b5daa247f4a7bd1919172d00", "parity --D 919 --N 60 --format csv"),
    ("19973fdc8e440f775819597f5256fac033a0cadefd1c2870144f1cade0bd4c6c", "parity --D 683 --N 90 --format json"),
    # Point counts: PartitionGrid.count walks the rows of [0, alpha]; the pins
    # were printed by the column walk it replaced.  Both classes of D, an
    # element with b < 0 (D=13), wide elements of small D (D=2, and D=5,
    # whose intervals hold more rows than columns) and a witness at
    # xi ~ 1000, far beyond the benchmark's D < 1000.
    ("eee2b964e2206bb30a5669f47ee83055885f4bbd6c8f8dfe5594d9c8e4dbc14a", "estimate --D 13 --a 40 --b -9 --compare --format json"),
    ("4b081911ea6dbdb83d7d4d99477f76b97c1f020583ad7bf35fbf95b4fc5cb49e", "estimate --D 2 --a 40 --b 25 --compare --format json"),
    ("fb82c322b315f945f4867f2a005b14a4c7990b8b11f4b3c53fc3d8b3d62438e6", "estimate --D 5 --a 30 --b 20 --compare --format json"),
    ("4ba9f06d7c55bc1fc9db4795194ed67cb576cb72bfa57fa2e655d6fb22787627", "witness --D 1000003 --m 6 --format json"),
]

# Answers of the walk capped at m (search.classify_m), which reads only the
# cells with p <= m of boxes whose fold takes seconds or is refused.  The pin
# of D=46 was printed by search_m's fold of the whole box B(24348, 7), in
# 26.5 s; the others have no second kernel that finishes (D=67 at m = 11
# and D=109 at m = 56 are refused by their box's fold), and their
# representatives are recounted by tests/test_search.py's coin-change count.
WALKS = [
    ("404afac5e29cf64f59b93cd5a1f15ea98b863674932e3dd4e4d5bb1a658a4ec5", "search --D 46 --m 11"),
    ("3d37cecc76b0766d079695382fd6c70820454f2f799c099f00f4535655400bb9", "search --D 67 --m 11"),
    ("e6a18a6e2f23b148c0c6e6ae29b684868f692d33d4f813fc9a551b9b6efe80b0", "search --D 109 --m 56 --format csv"),
    ("8e12ce53c71b0cc6ba75fe6568ee3b43655a2112f133503eba335481837289ea", "dm --m 11 --Dmax 72"),
    ("d1534e64b1ca2ea2b4eb9b4d66f55a2001a09a7610cf7576724628a5a3e107c1", "dm --m 42 --Dmax 72"),
]


@pytest.mark.parametrize("digest, argv", PINS, ids=[argv for _, argv in PINS])
def test_output_matches_its_pin(capsys, digest, argv):
    code = cli.main(argv.split())
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


@pytest.mark.parametrize("digest, argv", WALKS, ids=[argv for _, argv in WALKS])
def test_the_walks_finish_at_once_in_little_memory(digest, argv):
    # Each walk, run in its own child with 1 GB of address space, exits 0
    # within 10 s with its pinned stdout, and the child peaks under 200 MB.
    code, out, err = finish(start_python("-c", CHILD, json.dumps([argv])))
    assert (code, err) == (0, "")
    run, rss_kb = out.splitlines()
    code, secs, out, err = json.loads(run)
    assert (code, err) == (0, "")
    assert secs < 10
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert int(rss_kb) < 200 * 1024
