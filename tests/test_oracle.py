import random

import pytest

from quadpartitions import (
    BudgetExceeded,
    Field,
    count_partitions,
    enumerate_partitions,
)
from quadpartitions import oracle

from conftest import TABULATED_D


def as_multisets(partitions):
    return {tuple(sorted((p.a, p.b) for p in parts)) for parts in partitions}


def test_partitions_of_four_in_sqrt3():
    f = Field(3)
    got = enumerate_partitions(f.element(4))
    assert len(got) == 6
    want = {
        ((4, 0),),
        ((1, 0), (3, 0)),
        ((2, 0), (2, 0)),
        ((1, 0), (1, 0), (2, 0)),
        ((1, 0), (1, 0), (1, 0), (1, 0)),
        ((2, -1), (2, 1)),
    }
    assert as_multisets(got) == want


def test_worked_example_sixteen_plus_four_sqrt14():
    f = Field(14)
    alpha = f.from_sqrt(16, 4)
    got = enumerate_partitions(alpha)
    want = {
        ((16, 4),),
        ((1, 0), (15, 4)),
        ((4, 1), (12, 3)),
        ((8, 2), (8, 2)),
        ((4, 1), (4, 1), (8, 2)),
        ((4, 1), (4, 1), (4, 1), (4, 1)),
    }
    assert len(got) == 6
    assert as_multisets(got) == want


def test_partition_structure():
    rng = random.Random(0x0AC1E)
    for _ in range(60):
        D = rng.choice(TABULATED_D)
        f = Field(D)
        x = rng.randint(1, 6)
        y = rng.randint(-f.floor_div_omega(x), f.floor_div_xi(x))
        alpha = f.element(x, y)
        parts_lists = enumerate_partitions(alpha)
        seen = set()
        for parts in parts_lists:
            assert sum(parts[1:], parts[0]) == alpha
            assert all(p.is_totally_positive() for p in parts)
            keys = [p.lex_key for p in parts]
            assert keys == sorted(keys, reverse=True)  # canonical part order
            ms = tuple(sorted((p.a, p.b) for p in parts))
            assert ms not in seen  # no duplicate multisets
            seen.add(ms)


def test_count_matches_enumeration():
    rng = random.Random(0xC027)
    for _ in range(40):
        D = rng.choice(TABULATED_D)
        f = Field(D)
        x = rng.randint(1, 6)
        y = rng.randint(-f.floor_div_omega(x), f.floor_div_xi(x))
        alpha = f.element(x, y)
        assert count_partitions(alpha) == len(enumerate_partitions(alpha))


def test_budget_exhaustion(monkeypatch):
    # The walker reads DEFAULT_BUDGET at each call.
    f = Field(2)
    monkeypatch.setattr(oracle, "DEFAULT_BUDGET", 50)
    with pytest.raises(BudgetExceeded, match="partition enumeration budget exhausted"):
        enumerate_partitions(f.element(30, 0))
    with pytest.raises(BudgetExceeded, match="partition enumeration budget exhausted"):
        count_partitions(f.element(30, 0))
    # The walk over the 6 partitions of 4 in Q(sqrt(3)) visits 9 nodes.
    monkeypatch.setattr(oracle, "DEFAULT_BUDGET", 9)
    assert count_partitions(Field(3).element(4)) == 6
    monkeypatch.setattr(oracle, "DEFAULT_BUDGET", 8)
    with pytest.raises(BudgetExceeded):
        count_partitions(Field(3).element(4))


def test_rejects_non_totally_positive():
    f = Field(2)
    for bad in (f.element(1, 1), f.element(0, 0), f.element(-3, 0)):
        with pytest.raises(ValueError):
            enumerate_partitions(bad)
        with pytest.raises(ValueError):
            count_partitions(bad)
