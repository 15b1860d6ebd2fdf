from decimal import Decimal, getcontext

import pytest

from quadpartitions import (
    Field,
    build_context,
    expand_sigma,
    floor_ratio_eps,
    fundamental_representative,
    is_squarefree,
)

from conftest import dense_counts

getcontext().prec = 100

# Hand-checked periods of sigma = omega + floor(xi).
KNOWN_PERIODS = {
    2: (2,),
    3: (2, 1),
    5: (1,),
    6: (4, 2),
    7: (4, 1, 1, 1),
    13: (3,),
    17: (3, 1, 1),
    19: (8, 2, 1, 3, 1, 2),
    21: (3, 1),
    22: (8, 1, 2, 4, 2, 1),
}

# Table rows (a, b) of eps_plus in the (1, omega) basis plus the eps norm.
KNOWN_UNITS = {
    2: ((3, 2), -1, 2),
    3: ((2, 1), 1, 1),
    5: ((1, 1), -1, 1),
    6: ((5, 2), 1, 2),
    7: ((8, 3), 1, 3),
    13: ((4, 3), -1, 3),
    17: ((25, 16), -1, 16),
    21: ((2, 1), 1, 1),
}


def decimal_quotients(field: Field, count: int) -> list[int]:
    sq = Decimal(field.D).sqrt()
    if field.one_mod4:
        sigma = (1 + sq) / 2 + field.floor_xi()
    else:
        sigma = sq + field.floor_xi()
    out = []
    x = sigma
    for _ in range(count):
        q = int(x)
        out.append(q)
        x = 1 / (x - q)
    return out


def test_known_periods():
    for D, period in KNOWN_PERIODS.items():
        assert expand_sigma(Field(D)) == period, D


def test_periods_against_decimal_expansion():
    for D in range(2, 80):
        if not is_squarefree(D):
            continue
        period = expand_sigma(Field(D))
        s = len(period)
        got = decimal_quotients(Field(D), 2 * s)
        assert tuple(got) == period + period, (D, period, got)


def test_convergent_recurrence_and_bounds(contexts):
    for ctx in contexts.values():
        s = len(ctx.period)
        pq = ctx.convergents
        assert len(pq) == 2 * s + 2
        assert pq[0] == (1, 0)
        assert pq[1] == ((ctx.period[0] + 1) // 2, 1)
        for j in range(2, len(pq)):
            u = ctx.period[(j - 1) % s]
            assert pq[j][0] == u * pq[j - 1][0] + pq[j - 2][0]
            assert pq[j][1] == u * pq[j - 1][1] + pq[j - 2][1]


def test_alphas_are_convergent_elements(contexts):
    for D, ctx in contexts.items():
        f = ctx.field
        xi = f.xi()
        for (p, q), alpha in zip(ctx.convergents, ctx.alphas):
            assert f.element(p) + q * xi == alpha
        assert ctx.alphas[0] == f.element(1)  # alpha_(-1)


def test_units_match_known_table(contexts):
    for D, ((a, b), eps_norm, ratio) in KNOWN_UNITS.items():
        ctx = contexts[D]
        assert (ctx.eps_plus.a, ctx.eps_plus.b) == (a, b), D
        assert ctx.eps.norm() == eps_norm, D
        assert ctx.eps_plus.norm() == 1
        assert ctx.eps_plus.is_totally_positive()
        assert floor_ratio_eps(ctx) == ratio, D
        s = len(ctx.period)
        if s % 2 == 0:
            assert ctx.eps_plus == ctx.eps
        else:
            assert ctx.eps_plus == ctx.eps * ctx.eps


def test_eps_plus_is_smallest_totally_positive_unit(contexts):
    # No totally positive unit lies strictly between 1 and eps_plus: every
    # convergent alpha_i with -1 <= i < index(eps_plus) has |norm| != 1 or
    # fails total positivity, and the alphas shrink toward the unit.
    for ctx in contexts.values():
        s = len(ctx.period)
        top = s - 1 if s % 2 == 0 else 2 * s - 1
        for i in range(0, top):
            a = ctx.alphas[i + 1]
            if abs(a.norm()) == 1:
                assert not (a.is_totally_positive() and a.norm() == 1), (ctx.field.D, i)


def test_conjugate_magnitudes_strictly_decrease(contexts):
    # |alpha_i'| is strictly decreasing, which drives indecomposability.
    for ctx in contexts.values():
        conj_sq = [a.conjugate() * a.conjugate() for a in ctx.alphas]
        for c1, c2 in zip(conj_sq, conj_sq[1:]):
            assert (c1 - c2).sign() > 0, ctx.field.D


def test_shift_by_eps(contexts):
    for ctx in contexts.values():
        s = len(ctx.period)
        for i in range(-1, s + 1):
            assert ctx.alphas[i + s + 1] == ctx.eps * ctx.alphas[i + 1], (ctx.field.D, i)


def test_indecomposables_have_count_one(contexts, pool):
    for ctx in contexts.values():
        grid = pool.grid(ctx.field)
        for e in ctx.indecomposables:
            assert e.is_totally_positive()
            assert grid.count(e) == 1, (ctx.field.D, e)


def test_indecomposables_cover_all_small_count_one_cells(contexts):
    # Any cell with p = 1 must reduce into the stored eps_plus-period.
    for ctx in contexts.values():
        reduced = {fundamental_representative(e, ctx) for e in ctx.indecomposables}
        for (x, y), c in dense_counts(ctx.field, 12).items():
            if c == 1:
                e = ctx.field.element(x, y)
                assert fundamental_representative(e, ctx) in reduced, (ctx.field.D, x, y)


def test_period_invariant_violation_unreachable_for_valid_d():
    for D in range(2, 300):
        if is_squarefree(D):
            expand_sigma(Field(D))  # must not raise
