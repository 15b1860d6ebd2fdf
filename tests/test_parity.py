from math import isqrt

import pytest

from quadpartitions import (
    Field,
    InvariantViolation,
    cone_columns,
    cumulative_P,
    diagonal_parity,
    is_squarefree,
    parity_check,
    trace_layer_count,
)
from quadpartitions.partition import euler_transform

from conftest import dense_counts, diagonal

PARITY_D = (2, 3, 6, 7)


def direct_trace_layer(field: Field, t: int) -> int:
    # all elements of trace t: a determined by b, so scan b
    count = 0
    for b in range(-2 * t - 4, 2 * t + 5):
        if field.one_mod4:
            if (t - b) % 2:
                continue
            e = field.element((t - b) // 2, b)
        else:
            if t % 2:
                continue
            e = field.element(t // 2, b)
        if e.trace() == t and e.is_totally_positive():
            count += 1
    return count


def direct_P(field: Field, n: int) -> int:
    # sum of the counts over the full trace layer 2n, all with x <= 2n
    total = 0
    for (x, y), c in dense_counts(field, 2 * n).items():
        if field.element(x, y).trace() == 2 * n:
            total += c
    return total


def test_even_trace_layers_are_odd_for_2_3_mod_4():
    for D in range(2, 40):
        if not is_squarefree(D) or D % 4 == 1:
            continue
        f = Field(D)
        for n in range(1, 201):
            assert trace_layer_count(f, 2 * n) % 2 == 1, (D, n)


def test_count_trace_matches_enumeration_both_classes():
    for D in (2, 3, 5, 6, 13, 17, 21):
        f = Field(D)
        for n in range(1, 40):
            assert trace_layer_count(f, 2 * n) == direct_trace_layer(f, 2 * n), (D, n)
    # Every element of trace 2n is n + t*sqrt(D) for an integer t (b = 2t
    # when D = 1 mod 4), so scanning t in [-n, n] enumerates the whole layer.
    for D in range(2, 60):
        if not is_squarefree(D):
            continue
        f = Field(D)
        for n in range(1, 51):
            want = sum(f.from_sqrt(n, t).is_totally_positive() for t in range(-n, n + 1))
            assert trace_layer_count(f, 2 * n) == want, (D, n)


def test_trace_layer_count_matches_enumeration():
    for D in (2, 3, 5, 13, 21):
        f = Field(D)
        for t in range(1, 61):
            assert trace_layer_count(f, t) == direct_trace_layer(f, t), (D, t)
    # a_n = 2*floor(n/sqrt(D)) + 1 in both classes of D
    for D in range(2, 400):
        if is_squarefree(D):
            f = Field(D)
            for n in range(1, 300):
                assert trace_layer_count(f, 2 * n) == 2 * isqrt(n * n // D) + 1, (D, n)
    # odd traces occur only in the 1 mod 4 class
    assert trace_layer_count(Field(2), 3) == 0
    assert trace_layer_count(Field(5), 1) == 0
    assert trace_layer_count(Field(5), 3) == 2
    with pytest.raises(ValueError):
        trace_layer_count(Field(5), 0)


def test_cumulative_P_matches_direct_sum():
    for D in PARITY_D:
        f = Field(D)
        P = cumulative_P(f, 25)
        assert P[0] == 1
        for n in range(1, 26):
            assert P[n] == direct_P(f, n), (D, n)


def test_cumulative_P_matches_direct_sum_one_mod4():
    for D in (5, 13, 17, 21):
        f = Field(D)
        P = cumulative_P(f, 18)
        for n in range(1, 19):
            assert P[n] == direct_P(f, n), (D, n)


def test_trace_layer_transform_matches_the_even_trace_branch():
    # For D = 2, 3 (mod 4) the odd trace layers are empty, so the transform over
    # all layers is 0 at odd traces and the transform of (a_n) at even ones.
    for D in PARITY_D:
        f = Field(D)
        Q = euler_transform([0] + [trace_layer_count(f, t) for t in range(1, 81)])
        assert Q[1::2] == [0] * 40, D
        assert tuple(Q[::2]) == cumulative_P(f, 40), D


def test_parity_congruence_holds():
    for D in PARITY_D:
        f = Field(D)
        report = parity_check(f, 40, diagonal(f, cone_columns(f, 40)))
        assert report.p_parity == tuple(v % 2 for v in report.P)
        assert (len(report.a), len(report.P)) == (40, 41)
        assert report.p_parity[0] == 1


def test_parity_check_names_where_the_columns_disagree():
    f = Field(3)
    for n in (0, 7, 12):
        bits = list(diagonal_parity(f, 12))
        bits[n] ^= 1
        with pytest.raises(InvariantViolation, match=rf"for D=3 at n in \[{n}\]$"):
            parity_check(f, 12, bits)


def test_parity_check_agrees_for_both_grids():
    # The Euler product mod 2 and the exact diagonal give one report.
    for D in PARITY_D:
        f = Field(D)
        exact = diagonal(f, cone_columns(f, 40))
        assert parity_check(f, 40, diagonal_parity(f, 40)) == parity_check(f, 40, exact), D


def test_parity_bits_frozen_for_sqrt2():
    report = parity_check(Field(2), 10, diagonal_parity(Field(2), 10))
    assert tuple(v % 2 for v in report.P)[1:] == (1, 0, 1, 0, 0, 1, 0, 0, 0, 0)
    assert report.P == (1, 1, 4, 9, 20, 42, 91, 176, 354, 676, 1282)
    assert report.a == (1, 3, 5, 5, 7, 9, 9, 11, 13, 15)


def test_report_lists_the_even_trace_layers():
    # The report's a_n come from the layers the recurrence ran on, in both classes of D.
    for D in (2, 3, 5, 13, 17, 21):
        f = Field(D)
        report = parity_check(f, 30, diagonal_parity(f, 30))
        assert report.a == tuple(trace_layer_count(f, 2 * n) for n in range(1, 31)), D
        assert report.P == cumulative_P(f, 30), D


def test_both_parities_occur_in_window():
    # finite-window stand-in for the infinitude statement
    for D in PARITY_D:
        bits = parity_check(Field(D), 40, diagonal_parity(Field(D), 40)).p_parity[1:]
        assert bits.count(1) >= 3
        assert bits.count(0) >= 3


def test_bad_arguments():
    f = Field(2)
    with pytest.raises(ValueError):
        trace_layer_count(f, 0)
    with pytest.raises(ValueError):
        cumulative_P(f, -1)
