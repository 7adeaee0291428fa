"""Field tower arithmetic: identities, frozen small-field values, and
cross-checks against an independent schoolbook multiplication oracle."""

import random

import pytest

from rankdec import FieldContext
from rankdec.fields import divisors, gaussian_binomial, is_prime
from rankdec.gfpoly import is_irreducible, smallest_irreducible


def schoolbook_mul(ctx, x, y):
    """Independent oracle: convolve digit vectors, reduce by the modulus."""
    xd, yd = list(ctx.digits(x)), list(ctx.digits(y))
    prod = [0] * (2 * ctx.n)
    for i, a in enumerate(xd):
        for j, b in enumerate(yd):
            prod[i + j] = (prod[i + j] + a * b) % ctx.p
    mod = list(ctx.modulus)
    for i in range(len(prod) - 1, ctx.n - 1, -1):
        c = prod[i]
        if c:
            for j in range(ctx.n + 1):
                prod[i - ctx.n + j] = (prod[i - ctx.n + j] - c * mod[j]) % ctx.p
    return ctx.from_digits(prod[: ctx.n])


class TestF4:
    """Everything in GF(4) is small enough to state by hand.

    With modulus x^2 + x + 1 the class w of x satisfies w^2 = w + 1,
    so w has encoding 2 and w^2 encoding 3.
    """

    def test_modulus_is_deterministic(self, f4):
        assert f4.modulus == (1, 1, 1)

    def test_add(self, f4):
        w, w2 = 2, 3
        assert f4.add(w, w2) == 1
        for x in range(4):
            assert f4.add(x, 0) == x
            assert f4.add(x, x) == 0  # characteristic 2

    def test_mul_inv(self, f4):
        w = 2
        assert f4.mul(w, w) == 3
        for x in range(1, 4):
            assert f4.mul(x, 1) == x
            assert f4.mul(x, f4.inv(x)) == 1
        with pytest.raises(ZeroDivisionError):
            f4.inv(0)

    def test_trace_norm(self, f4):
        w = 2
        assert f4.trace_rel(w, 1) == 1  # w + w^2 = 1
        assert f4.norm_rel(w, 1) == 1   # w * w^2 = w^3 = 1
        assert f4.trace_rel(0, 1) == 0
        assert f4.norm_rel(1, 1) == 1

    def test_minimal_polynomial(self, f4):
        w = 2
        assert f4.minimal_polynomial(w) == (1, 1, 1)
        assert f4.derivative_at(f4.minimal_polynomial(w), w) == 1
        assert f4.minimal_polynomial(0) == (0, 1)        # x
        assert f4.minimal_polynomial(1) == (f4.neg(1), 1)  # x - 1

    def test_degree(self, f4):
        assert f4.degree_over_q(0) == 1
        assert f4.degree_over_q(1) == 1
        assert f4.degree_over_q(2) == 2


@pytest.mark.parametrize("p,a,m", [(2, 1, 4), (2, 1, 6), (3, 1, 3), (2, 2, 2), (3, 2, 2)])
def test_mul_against_schoolbook(p, a, m):
    ctx = FieldContext(p, a, m)
    rng = random.Random(7)
    for _ in range(300):
        x, y = rng.randrange(ctx.order), rng.randrange(ctx.order)
        assert ctx.mul(x, y) == schoolbook_mul(ctx, x, y)


@pytest.mark.parametrize("p,a,m", [(2, 1, 5), (3, 1, 2), (2, 2, 3)])
def test_field_axioms_sampled(p, a, m):
    ctx = FieldContext(p, a, m)
    rng = random.Random(1)
    elems = [rng.randrange(ctx.order) for _ in range(25)]
    for x in elems:
        assert ctx.add(x, ctx.neg(x)) == 0
        assert ctx.pow(x, 1) == x
        if x:
            assert ctx.pow(x, ctx.order - 1) == 1
    for x in elems:
        for y in elems[:8]:
            assert ctx.mul(x, y) == ctx.mul(y, x)
            assert ctx.add(x, y) == ctx.add(y, x)
            for z in elems[:4]:
                lhs = ctx.mul(x, ctx.add(y, z))
                rhs = ctx.add(ctx.mul(x, y), ctx.mul(x, z))
                assert lhs == rhs


def test_frobenius_properties(f64):
    rng = random.Random(3)
    for _ in range(50):
        x, y = rng.randrange(64), rng.randrange(64)
        assert f64.frobenius(x, f64.m) == x
        e = rng.choice([1, 2, 3])
        assert f64.frobenius(f64.add(x, y), e) == f64.add(
            f64.frobenius(x, e), f64.frobenius(y, e))
    # the q^e-Frobenius fixes exactly q^e elements
    for e in divisors(6):
        assert sum(1 for x in range(64) if f64.frobenius(x, e) == x) == 2**e


def test_f4_frobenius_squares(f4):
    assert f4.frobenius(2, 1) == f4.mul(2, 2) == 3


def test_trace_surjective_and_in_subfield(f64):
    for e in (1, 2, 3):
        images = {f64.trace_rel(x, e) for x in range(64)}
        assert all(f64.in_subfield(t, e) for t in images)
        assert len(images) == 2**e  # onto F_{q^e}
    assert f64.trace_rel(5, 6) == 5  # single summand


def test_trace_transitivity(f64):
    for x in range(64):
        for e in (2, 3):
            assert f64.trace_rel(x, 1) == f64.trace_rel(
                f64.trace_rel(x, e), 1, top=e)


def test_trace_bilinear_form_nondegenerate():
    for p, a, m in [(2, 1, 4), (3, 1, 2), (2, 2, 2)]:
        ctx = FieldContext(p, a, m)
        for e in divisors(m):
            for x in range(1, ctx.order):
                assert any(ctx.trace_rel(ctx.mul(x, y), e)
                           for y in range(ctx.order))


def test_norms(f4, f64):
    assert f64.norm_rel(1, 2) == 1
    assert f64.norm_rel(9, 6) == 9
    rng = random.Random(5)
    for _ in range(30):
        x, y = rng.randrange(64), rng.randrange(64)
        e = rng.choice([1, 2, 3])
        assert f64.norm_rel(f64.mul(x, y), e) == f64.mul(
            f64.norm_rel(x, e), f64.norm_rel(y, e))


def test_degree_census(f64, f128):
    # counts of elements of each degree over F_2
    assert len(f64.elements_of_degree(1)) == 2
    assert len(f64.elements_of_degree(2)) == 2
    assert len(f64.elements_of_degree(3)) == 6
    assert len(f64.elements_of_degree(6)) == 54
    assert len(f128.elements_of_degree(7)) == 126


def test_degree_of_cubic_root_in_f64(f64):
    # roots of irreducible cubics over F_2 live in the F_8 layer
    lam = f64.find_element_of_degree(3, seed=0)
    assert f64.degree_over_q(lam) == 3
    assert f64.frobenius(lam, 3) == lam
    assert f64.frobenius(lam, 1) != lam


def test_minimal_polynomial_contract(f64):
    for x in range(64):
        f = f64.minimal_polynomial(x)
        assert len(f) - 1 == f64.degree_over_q(x)
        assert f64.poly_eval(f, x) == 0
        assert f[-1] == 1
        assert all(f64.in_subfield(c, 1) for c in f)


def test_find_element_of_degree_deterministic(f64):
    a = f64.find_element_of_degree(3, seed=42)
    b = f64.find_element_of_degree(3, seed=42)
    assert a == b and f64.degree_over_q(a) == 3
    assert f64.degree_over_q(f64.find_element_of_degree(1, seed=9)) == 1
    g = f64.find_element_of_degree(6, seed=0)
    assert f64.degree_over_q(g) == 6


def test_subfield_machinery(f64):
    f8 = f64.subfield_elements(3)
    assert len(f8) == 8
    for z in f8:
        assert f64.in_subfield(z, 3)
    # subfield closed under the field operations
    for x in f8:
        for y in f8:
            assert f64.add(x, y) in f8
            assert f64.mul(x, y) in f8
    g = f64.subfield_generator(3)
    powers = {1}
    acc = g
    while acc != 1:
        powers.add(acc)
        acc = f64.mul(acc, g)
    assert powers == set(f8) - {0}


def test_coordinate_roundtrips(f64, f81):
    # F_64 and F_81 over their prime fields and over F_4, F_8 and F_9
    towers = [FieldContext(2, 2, 3), FieldContext(2, 3, 2), FieldContext(3, 2, 2)]
    for ctx in [f64, f81] + towers:
        for z in range(ctx.order):
            assert ctx.fq_combine(ctx.fq_coords(z)) == z


def test_tower_with_nonprime_q():
    ctx = FieldContext(2, 2, 2)  # q = 4, field of order 16
    assert ctx.q == 4 and ctx.order == 16
    assert len(ctx.fq_elements()) == 4
    for z in range(16):
        assert ctx.in_subfield(ctx.trace_rel(z, 1), 1)
        assert ctx.fq_combine(ctx.fq_coords(z)) == z
    add, sub, mul, inv = ctx.q_tables()
    assert add.shape == (4, 4)
    for i in range(1, 4):
        assert mul[i, inv[i]] == ctx.fq_code(1)


def test_degenerate_m_equals_one():
    ctx = FieldContext(5, 1, 1)
    assert ctx.order == 5
    assert ctx.trace_rel(3, 1) == 3
    assert ctx.degree_over_q(4) == 1
    assert ctx.mul(2, 3) == 1


def test_context_serialization_roundtrip(f64):
    d = f64.to_descriptor()
    ctx2 = FieldContext.from_descriptor(d)
    assert ctx2.same_as(f64)


def test_modulus_validation():
    with pytest.raises(ValueError):
        FieldContext(2, 1, 2, modulus=[1, 0, 1])  # x^2+1 = (x+1)^2
    with pytest.raises(ValueError):
        FieldContext(2, 1, 40)  # beyond the degree cap
    with pytest.raises(ValueError):
        FieldContext(4, 1, 2)  # p must be prime


def test_smallest_irreducible_matches_rabin():
    for p, n in [(2, 6), (3, 3), (5, 2)]:
        f = smallest_irreducible(p, n)
        assert is_irreducible(f, p)
        assert len(f) == n + 1 and f[-1] == 1


def test_gaussian_binomial_and_primes():
    assert gaussian_binomial(5, 2, 2) == 155
    assert gaussian_binomial(7, 3, 2) == 11811
    assert gaussian_binomial(4, 0, 3) == 1
    assert is_prime(7) and not is_prime(6) and not is_prime(1)


def test_inverse_without_tables():
    """F_2^17 has no exp/log tables, so inversion runs extended Euclid
    on digit vectors whose leading coefficients may be zero."""
    ctx = FieldContext(2, 1, 17)
    for x in (1, 2, 3, 0b1011, 12345, 1 << 16, (1 << 17) - 1):
        assert ctx.mul(x, ctx.inv(x)) == 1


@pytest.mark.parametrize("p,m", [(5, 28), (3, 21)])
def test_constant_products_without_tables(p, m):
    """F_(5^28) and F_(3^21) have no tables, so a product with an F_p
    constant (an int below p) scales digit-wise; it equals the
    polynomial product and the schoolbook oracle, in either order."""
    ctx = FieldContext(p, 1, m)
    rng = random.Random(p * m)
    vals = [0, 1, p - 1, p, ctx.order - 1] + [rng.randrange(ctx.order)
                                             for _ in range(20)]
    for c in range(p):
        for y in vals:
            want = ctx._mul_generic(c, y)
            assert want == schoolbook_mul(ctx, c, y)
            assert ctx.mul(c, y) == want == ctx.mul(y, c)


def test_check_element_accepts_only_integers(f16):
    import numpy as np

    for x in (3, np.int64(3), np.uint8(3)):
        got = f16.check_element(x)
        assert got == 3 and type(got) is int
    for bad in (True, False, 3.0, 1.5, "3", None):
        with pytest.raises(ValueError, match="is not an element encoding"):
            f16.check_element(bad)
    for bad in (-1, 16):
        with pytest.raises(ValueError):
            f16.check_element(bad)
