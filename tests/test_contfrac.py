from decimal import Decimal, getcontext

import pytest

from quadpartitions import (
    BudgetExceeded,
    Field,
    QElement,
    build_context,
    expand_sigma,
    floor_ratio_eps,
    fundamental_representative,
    indecomposables,
    is_squarefree,
)

from quadpartitions.contfrac import _MAX_PERIOD, _convergent_bits, coordinate_bound

from conftest import convergent_elements, dense_counts, reference_context

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
    # alpha_i = p_i + q_i*xi in sqrt coordinates, and eps, eps_plus are among them.
    for D, ctx in contexts.items():
        f = ctx.field
        alphas = convergent_elements(ctx)
        for (p, q), alpha in zip(ctx.convergents, alphas):
            assert alpha.sqrt_coords() == ((2 * p - q, q, 2) if f.one_mod4 else (p, q, 1)), D
        assert alphas[0] == f.element(1)  # alpha_(-1)
        s = len(ctx.period)
        assert ctx.eps == alphas[s], D  # alpha_(s-1)
        assert ctx.eps_plus == alphas[s if s % 2 == 0 else 2 * s], D


def test_context_matches_the_qelement_reference():
    # Integer pairs against the QElement construction, for every squarefree D < 2000.
    for D in range(2, 2000):
        if not is_squarefree(D):
            continue
        f = Field(D)
        ctx, ref = build_context(f), reference_context(f)
        assert ctx.field == f
        assert (ctx.period, ctx.convergents) == (ref.period, ref.convergents), D
        assert (ctx.eps, ctx.eps_plus) == (ref.eps, ref.eps_plus), D
        assert indecomposables(ctx) == ref.indecomposables, D


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
        alphas = convergent_elements(ctx)
        for i in range(0, top):
            a = alphas[i + 1]
            if abs(a.norm()) == 1:
                assert not (a.is_totally_positive() and a.norm() == 1), (ctx.field.D, i)


def test_conjugate_magnitudes_strictly_decrease(contexts):
    # |alpha_i'| is strictly decreasing, which drives indecomposability.
    for ctx in contexts.values():
        conj_sq = [a.conjugate() * a.conjugate() for a in convergent_elements(ctx)]
        for c1, c2 in zip(conj_sq, conj_sq[1:]):
            assert (c1 - c2).sign() > 0, ctx.field.D


def test_shift_by_eps(contexts):
    for ctx in contexts.values():
        s = len(ctx.period)
        alphas = convergent_elements(ctx)
        for i in range(-1, s + 1):
            assert alphas[i + s + 1] == ctx.eps * alphas[i + 1], (ctx.field.D, i)


def test_indecomposables_have_count_one(contexts, pool):
    for ctx in contexts.values():
        grid = pool.grid(ctx.field)
        for e in indecomposables(ctx):
            assert e.is_totally_positive()
            assert grid.count(e) == 1, (ctx.field.D, e)


def test_indecomposables_cover_all_small_count_one_cells(contexts):
    # Any cell with p = 1 must reduce into the stored eps_plus-period.
    for ctx in contexts.values():
        reduced = {fundamental_representative(e, ctx) for e in indecomposables(ctx)}
        for (x, y), c in dense_counts(ctx.field, 12).items():
            if c == 1:
                e = ctx.field.element(x, y)
                assert fundamental_representative(e, ctx) in reduced, (ctx.field.D, x, y)


def test_period_invariant_violation_unreachable_for_valid_d():
    for D in range(2, 300):
        if is_squarefree(D):
            expand_sigma(Field(D))  # must not raise


def test_coordinate_bound_bounds_every_printed_int():
    # units and indecomposables check only this bound before they print,
    # unless it comes near Python's digit limit for int -> str; then
    # indecomposables reads only its last element, eps_plus - alpha_e, as a,
    # b and the sqrt coordinates, which bound their reduced form, are
    # nonnegative and nondecreasing in listing order.
    def ints(e):
        return (e.a, e.b, *e.sqrt_coords()[:2])

    for D in range(2, 1000):
        if not is_squarefree(D):
            continue
        ctx = build_context(Field(D))
        listed = indecomposables(ctx)
        elements = (ctx.eps, ctx.eps_plus, *listed)
        coords = [c for e in elements for c in (*ints(e), *e.reduced_sqrt_coords()[:2])]
        printed = [*coords, *(c for pq in ctx.convergents for c in pq), floor_ratio_eps(ctx)]
        assert max(map(abs, printed)) <= coordinate_bound(ctx), D
        assert all(0 <= c <= d for e, f in zip(listed, listed[1:]) for c, d in zip(ints(e), ints(f))), D
        s = len(ctx.period)
        p, q = ctx.convergents[s * (1 + s % 2) - 1]
        assert listed[-1] == ctx.eps_plus - QElement(ctx.field, p - ctx.field.t * q, q), D


def test_convergent_bits_bound_every_context_from_its_period():
    for D in range(2, 3000):
        if not is_squarefree(D):
            continue
        ctx = build_context(Field(D))
        bits = sum(p.bit_length() + q.bit_length() for p, q in ctx.convergents)
        assert bits <= _convergent_bits(ctx.period), D


def test_a_context_over_its_memory_bound_is_refused_before_any_convergent():
    # D = 10000000019 has period 124,134, so expand_sigma stops past
    # _MAX_PERIOD; D = 1000000031 has period 15,884, whose convergents are
    # bounded at 270 MB.  D = 1000000007 (period 12,352, bounded at 164 MB)
    # is built.
    assert _MAX_PERIOD == 23170
    with pytest.raises(BudgetExceeded) as exc:
        build_context(Field(10000000019))
    assert str(exc.value) == (
        "the convergents of D=10000000019 are over the cost budget: its period is longer than 23170, "
        "so they would take more than 256 MB"
    )
    with pytest.raises(BudgetExceeded) as exc:
        build_context(Field(1000000031))
    assert str(exc.value) == (
        "the convergents of D=1000000031 are over the cost budget: they would take up to 270 MB, "
        "more than 256 MB"
    )
    assert len(expand_sigma(Field(1000000007))) == 12352
    assert _convergent_bits(expand_sigma(Field(1000000007))) // 8 >> 20 == 164
