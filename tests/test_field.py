import random
from decimal import Decimal, getcontext

import pytest

from quadpartitions import Field, QElement, is_squarefree

getcontext().prec = 80

SOME_D = (2, 3, 5, 6, 7, 13, 17, 21, 19, 22, 23, 29, 33, 199)


def decimal_sign(e: QElement) -> int:
    A, B, _ = e.sqrt_coords()
    v = Decimal(A) + Decimal(B) * Decimal(e.field.D).sqrt()
    if v == 0:
        raise AssertionError("decimal oracle hit exact zero")
    return 1 if v > 0 else -1


def factor_squarefree(n: int) -> bool:
    # independent reference: full factorization, all exponents equal one
    m, d = n, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return False
            while m % d == 0:
                m //= d
        d += 1
    return True


def test_is_squarefree_matches_factorization():
    for n in range(1, 3000):
        assert is_squarefree(n) == factor_squarefree(n), n
    assert not is_squarefree(0)
    assert not is_squarefree(-4)


def test_field_rejects_bad_d():
    for bad in (1, 0, -3, 4, 8, 9, 12, 18, 50):
        with pytest.raises(ValueError):
            Field(bad)
    with pytest.raises(ValueError):
        Field(True)
    with pytest.raises(ValueError):
        Field(2.0)


def test_discriminant_and_omega():
    assert Field(2).discriminant == 8
    assert Field(3).discriminant == 12
    assert Field(5).discriminant == 5
    assert Field(13).discriminant == 13
    f = Field(13)
    w = f.omega()
    assert w * w == w + f.element((13 - 1) // 4)  # w^2 = w + 3
    g = Field(6)
    assert g.omega() * g.omega() == g.element(6)


def test_sign_matches_decimal_oracle():
    rng = random.Random(0xF1E1D)
    for _ in range(10_000):
        D = rng.choice(SOME_D)
        a = rng.randint(-(10**6), 10**6)
        b = rng.randint(-(10**6), 10**6)
        e = QElement(Field(D), a, b)
        if e.a == 0 and e.b == 0:
            continue
        assert e.sign() == decimal_sign(e), (D, a, b)


def test_total_positivity_matches_decimal():
    rng = random.Random(0xACE)
    for _ in range(4_000):
        D = rng.choice(SOME_D)
        e = QElement(Field(D), rng.randint(-50, 50), rng.randint(-50, 50))
        if e.a == 0 and e.b == 0:
            continue
        want = decimal_sign(e) > 0 and decimal_sign(e.conjugate()) > 0
        assert e.is_totally_positive() == want, (D, e.a, e.b)


def test_conjugation_trace_norm_identities():
    rng = random.Random(0xBEE)
    for _ in range(3_000):
        D = rng.choice(SOME_D)
        f = Field(D)
        e = f.element(rng.randint(-40, 40), rng.randint(-40, 40))
        g = f.element(rng.randint(-40, 40), rng.randint(-40, 40))
        assert e.conjugate().conjugate() == e
        assert (e + g).conjugate() == e.conjugate() + g.conjugate()
        assert (e * g).conjugate() == e.conjugate() * g.conjugate()
        assert e + e.conjugate() == f.element(e.trace())
        assert e * e.conjugate() == f.element(e.norm())
        assert e.conjugate().norm() == e.norm()
        assert (e * g).norm() == e.norm() * g.norm()


def test_omega_xi_relation():
    for D in SOME_D:
        f = Field(D)
        # xi = -conj(omega), and omega * xi = (D - 1)/4 or D by class
        assert f.xi() == -f.omega().conjugate()
        prod = f.omega() * f.xi()
        if f.one_mod4:
            assert prod == f.element((D - 1) // 4)
        else:
            assert prod == f.element(D)


def test_floor_functions_match_decimal():
    for D in SOME_D:
        f = Field(D)
        sq = Decimal(D).sqrt()
        xi = (sq - 1) / 2 if f.one_mod4 else sq
        om = (sq + 1) / 2 if f.one_mod4 else sq
        assert f.floor_xi() == int(xi)
        for y in range(0, 400):
            assert f.floor_xi_mult(y) == int(y * xi), (D, y)
            want_ceil = 0 if y == 0 else int(y * xi) + 1
            assert f.ceil_xi_mult(y) == want_ceil, (D, y)
        for u in range(0, 400):
            assert f.floor_div_xi(u) == int(Decimal(u) / xi), (D, u)
            assert f.floor_div_omega(u) == int(Decimal(u) / om), (D, u)
        with pytest.raises(ValueError):
            f.floor_xi_mult(-1)
        with pytest.raises(ValueError):
            f.floor_div_xi(-2)


def test_from_sqrt_and_half_sqrt():
    f = Field(17)
    e = f.from_sqrt(5, 1)  # 5 + sqrt(17) = 4 + 2*omega
    assert (e.a, e.b) == (4, 2)
    h = f.from_half_sqrt(13, 3)  # (13 + 3*sqrt(17))/2 = 5 + 3*omega
    assert (h.a, h.b) == (5, 3)
    with pytest.raises(ValueError):
        f.from_half_sqrt(4, 3)
    g = Field(2)
    assert g.from_sqrt(3, 2) == g.element(3, 2)
    assert g.from_half_sqrt(6, 4) == g.element(3, 2)
    with pytest.raises(ValueError):
        g.from_half_sqrt(3, 2)


def test_sqrt_coords_roundtrip():
    rng = random.Random(0xC0)
    for _ in range(2_000):
        D = rng.choice(SOME_D)
        f = Field(D)
        e = f.element(rng.randint(-30, 30), rng.randint(-30, 30))
        A, B, den = e.sqrt_coords()
        if f.one_mod4:
            assert den == 2 and (A - B) % 2 == 0
            assert f.from_half_sqrt(A, B) == e
        else:
            assert den == 1
            assert f.from_sqrt(A, B) == e


def test_succ_order_embeds_in_lex():
    rng = random.Random(0x5EED)
    for _ in range(10_000):
        D = rng.choice(SOME_D)
        f = Field(D)
        e = f.element(rng.randint(-60, 60), rng.randint(-30, 30))
        g = f.element(rng.randint(-60, 60), rng.randint(-30, 30))
        if e.succ_gt(g):
            assert g.lex_key < e.lex_key, (D, e, g)
        if e.succ_ge(g) and g.succ_ge(e):
            assert e == g


def test_mixed_field_operations_rejected():
    e = Field(2).element(1, 1)
    g = Field(3).element(1, 1)
    with pytest.raises(ValueError):
        e + g


def test_str_rendering():
    assert str(Field(2).element(3, 2)) == "3+2√2"
    assert str(Field(2).element(4, -1)) == "4-√2"
    assert str(Field(13).element(4, 3)) == "(11+3√13)/2"
    assert str(Field(5).element(4, 2)) == "5+√5"
    assert str(Field(5).element(1, 0)) == "1"
    assert str(Field(21).element(0, 1)) == "(1+√21)/2"
    assert str(Field(3).element(0, -2)) == "-2√3"
