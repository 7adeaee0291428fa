"""Subspace calculus: spans, lattice laws, products, trace duality and
the geometric-progression classification, with brute-force oracles."""

import random

import pytest

from rankdec import ContextMismatchError, FalsificationAlarm, FieldContext
from rankdec.codes import rank_weight
from rankdec.linalg import field_rref
from rankdec.subspaces import (
    all_subspaces,
    critical_complement_witness,
    full_space,
    geometric_subspace,
    geometric_witnesses,
    intersect,
    is_subfield_linear,
    kernel_of_trace,
    _point_bits,
    product,
    random_subspace,
    scale,
    span,
    span_dim,
    subspace_sum,
    trace_dual,
    verify_dual_geometric,
    verify_dual_subfield,
    zero_subspace,
)


def brute_product_dim(ctx, u1, u2):
    """Independent oracle: additive closure of the set of all pairwise
    products, dimension read off the closure size."""
    prods = {ctx.mul(a, b) for a in u1.elements() for b in u2.elements()}
    closure = {0} | prods
    changed = True
    while changed:
        new = {ctx.add(a, b) for a in closure for b in closure}
        changed = not new <= closure
        closure |= new
    size = len(closure)
    dim = size.bit_length() - 1 if ctx.q == 2 else round(
        __import__("math").log(size, ctx.q))
    assert ctx.q**dim == size
    return dim


def subfield_span(ctx, elems, e):
    """The F_{q^e}-span of elems: the F_q-span of their products with an
    F_p-basis of F_{q^e}."""
    w = ctx.fp_basis_of_subfield(e)
    return span(ctx, [ctx.mul(wl, x) for x in elems for wl in w])


class TestSpanBasics:
    def test_empty_span_is_zero(self, f16):
        z = span(f16, [])
        assert z.dim == 0 and z.is_zero()
        assert z == zero_subspace(f16)

    def test_dependency_collapses(self, f16):
        lam = f16.find_element_of_degree(4, seed=0)
        u = span(f16, [1, lam, f16.add(1, lam)])
        assert u.dim == 2
        assert u == span(f16, [1, lam])

    def test_power_independence(self, f32):
        lam = f32.find_element_of_degree(5, seed=0)
        u = span(f32, [1, lam, f32.mul(lam, lam)])
        assert u.dim == 3

    def test_canonical_equality_and_hash(self, f16):
        lam = f16.find_element_of_degree(4, seed=3)
        a = span(f16, [1, lam])
        b = span(f16, [f16.add(1, lam), lam])
        assert a == b and hash(a) == hash(b)

    @pytest.mark.parametrize("m", [1, 5, 9, 16, 17])
    def test_q2_span_matches_coordinate_elimination(self, m):
        """For q = 2 span eliminates the element ints as packed F_2 rows;
        basis, pivots and coordinate rows equal those of the elimination
        of the F_2 coordinate rows by field_rref (F_2^17 has no exp/log
        tables)."""
        ctx = FieldContext(2, 1, m)
        rng = random.Random(m)
        for trial in range(60):
            gens = [rng.randrange(ctx.order) for _ in range(rng.randrange(m + 3))]
            if trial % 2 and gens:  # sums of the draws: a dependent list
                gens = [gens[0] ^ g ^ rng.choice(gens) for g in gens]
            rref, pivots = field_rref(ctx.fq_coords_all(gens).tolist(), ctx)
            u = span(ctx, gens)
            assert u.basis == tuple(ctx.fq_combine(r) for r in rref)
            assert u.space.pivots == tuple(pivots)
            assert u.space.basis_rows() == [tuple(r) for r in rref]

    def test_closure_under_combinations(self, f64):
        rng = random.Random(0)
        u = random_subspace(f64, 3, rng)
        elems = u.elements()
        for _ in range(30):
            x, y = rng.choice(elems), rng.choice(elems)
            assert u.contains(f64.add(x, y))


class TestLattice:
    def test_intersect_self_and_sum_zero(self, f16):
        rng = random.Random(1)
        u = random_subspace(f16, 2, rng)
        assert intersect(u, u) == u
        assert subspace_sum(u, zero_subspace(f16)) == u

    def test_frozen_intersection_f16(self, f16):
        lam = f16.find_element_of_degree(4, seed=0)
        u = span(f16, [1, lam])
        v = span(f16, [lam, f16.mul(lam, lam)])
        w = intersect(u, v)
        assert w.dim == 1 and w.contains(lam)
        # brute force over all 16 elements
        both = {x for x in range(16) if u.contains(x) and v.contains(x)}
        assert both == set(w.elements())

    def test_dimension_formula(self, f64):
        rng = random.Random(2)
        for _ in range(20):
            u = random_subspace(f64, rng.randrange(4), rng)
            v = random_subspace(f64, rng.randrange(4), rng)
            s = subspace_sum(u, v)
            i = intersect(u, v)
            assert s.dim + i.dim == u.dim + v.dim
            assert u.contains_space(i) and v.contains_space(i)

    def test_context_mixing_is_an_error(self, f64):
        """Spaces of one context combine whatever subfield they are
        linear over; spaces of two contexts of the same order raise."""
        f4 = span(f64, f64.subfield_elements(2))
        assert subspace_sum(f4, span(f64, [1])) == f4
        assert intersect(f4, span(f64, [1])) == span(f64, [1])
        other = span(FieldContext(2, 2, 3), [1])  # F_64 over F_4
        for op in (subspace_sum, intersect, product):
            with pytest.raises(ContextMismatchError):
                op(f4, other)
        with pytest.raises(ContextMismatchError):
            f4.contains_space(other)


class TestProduct:
    def test_identity_and_powers(self, f32):
        lam = f32.find_element_of_degree(5, seed=0)
        u = span(f32, [1, lam])
        assert product(span(f32, [1]), u) == u
        p = product(u, u)
        assert p == span(f32, [1, lam, f32.mul(lam, lam)])

    def test_product_dim_vs_brute_force(self, f32):
        lam = f32.find_element_of_degree(5, seed=0)
        u1 = span(f32, [1, lam])
        u2 = span(f32, [1, lam, f32.mul(lam, lam)])
        p = product(u1, u2)
        assert p.dim == 4
        assert brute_product_dim(f32, u1, u2) == 4

    def test_commutative_and_monotone(self, f32):
        rng = random.Random(3)
        for _ in range(10):
            u1 = random_subspace(f32, 2, rng)
            u2 = random_subspace(f32, 2, rng)
            assert product(u1, u2) == product(u2, u1)
            bigger = subspace_sum(u1, random_subspace(f32, 1, rng))
            assert product(bigger, u2).contains_space(product(u1, u2))

    def test_zero_conventions(self, f32):
        u = span(f32, [1, 2])
        assert product(zero_subspace(f32), u).is_zero()


class TestTraceDual:
    def test_extremes(self, f32):
        assert trace_dual(zero_subspace(f32)) == full_space(f32)
        assert trace_dual(full_space(f32)).is_zero()

    def test_dimension_law_and_involution(self, f64):
        rng = random.Random(4)
        for _ in range(25):
            u = random_subspace(f64, rng.randrange(7), rng)
            d = trace_dual(u)
            assert d.dim == f64.m - u.dim
            assert trace_dual(d) == u

    def test_kernel_of_relative_trace(self, f64):
        z = kernel_of_trace(f64, 3)
        assert z.dim == 3  # m - e over F_q, m/e - 1 = 1 over F_(q^3)
        assert is_subfield_linear(z, 3)
        assert set(z.elements()) == {x for x in range(64) if f64.trace_rel(x, 3) == 0}
        assert trace_dual(span(f64, f64.subfield_elements(3)), 3) == z

    def test_product_dual_splitting(self, f32):
        # dual of a product is the intersection of inverse-scaled duals
        rng = random.Random(5)
        for _ in range(10):
            u1 = random_subspace(f32, 2, rng)
            u2 = random_subspace(f32, 2, rng)
            lhs = trace_dual(product(u1, u2))
            rhs = full_space(f32)
            for a in u1.basis:
                rhs = intersect(rhs, scale(f32.inv(a), trace_dual(u2)))
            assert lhs == rhs


@pytest.mark.parametrize("p,a,m,e", [
    (2, 2, 3, 1), (2, 2, 3, 3), (3, 1, 4, 1), (3, 1, 4, 2),
    (2, 2, 4, 1), (2, 2, 4, 2),
])
@pytest.mark.parametrize("same_base", [False, True])
def test_trace_dual_definition(p, a, m, e, same_base):
    """The dual against its definition, with the relative trace as the
    oracle: Tr_{q^m/q^e}(a z) = 0 on a basis of u and a basis of its
    dual, the dual is F_{q^e}-linear, its F_q-dimension is
    m - dim(F_{q^e} u), and the double dual is F_{q^e} u.  With
    same_base, u is itself F_{q^e}-linear (the F_{q^e}-span of random
    elements); otherwise it is a plain F_q-span."""
    ctx = FieldContext(p, a, m)
    base = e if same_base else 1
    rng = random.Random(p * 100 + m * 10 + e)
    for dim in range(m // base + 1):
        u = subfield_span(ctx, [rng.randrange(ctx.order) for _ in range(dim)], base)
        dual = trace_dual(u, e)
        assert is_subfield_linear(dual, e)
        for x in u.basis:
            for z in dual.basis:
                assert ctx.trace_rel(ctx.mul(x, z), e) == 0
        ext = subfield_span(ctx, u.basis, e)  # F_{q^e} u
        assert is_subfield_linear(ext, e) and ext.contains_space(u)
        assert dual.dim == m - ext.dim
        assert trace_dual(dual, e) == ext


class TestGeometricDuals:
    @pytest.mark.parametrize("m", [4, 5])
    def test_generator_duality_exhaustive(self, m):
        ctx = FieldContext(2, 1, m)
        for lam in ctx.elements_of_degree(m):
            for t in range(1, m):
                ok, delta = verify_dual_geometric(ctx, lam, t)
                assert ok and delta != 0

    def test_boundary_t(self, f32):
        lam = f32.elements_of_degree(5)[0]
        ok, delta = verify_dual_geometric(f32, lam, 4)
        assert ok
        dual = trace_dual(geometric_subspace(f32, lam, 4))
        assert dual == span(f32, [f32.inv(delta)])

    def test_subfield_duality(self, f64, f16):
        for lam in f64.elements_of_degree(3)[:4]:
            for t in (1, 2, 3):
                ok, c = verify_dual_subfield(f64, lam, t)
                assert ok
                if t < 3:
                    assert f64.trace_rel(c, 3) != 0
        for lam in f16.elements_of_degree(2):
            ok, c = verify_dual_subfield(f16, lam, 1)
            assert ok and c != 0

    def test_geometric_subspace_guard(self, f64):
        lam = f64.elements_of_degree(3)[0]
        assert geometric_subspace(f64, lam, 3).dim == 3
        with pytest.raises(ValueError):
            geometric_subspace(f64, lam, 4)

    def test_degree3_progression_inside_cubic_subfield(self, f64):
        lam = f64.elements_of_degree(3)[0]
        u = geometric_subspace(f64, lam, 2)
        assert u.dim == 2
        assert all(f64.in_subfield(b, 3) for b in u.basis)


class TestScale:
    def test_identity_and_inverse(self, f32):
        rng = random.Random(6)
        u = random_subspace(f32, 2, rng)
        assert scale(1, u) == u
        c = rng.randrange(1, 32)
        assert scale(c, scale(f32.inv(c), u)) == u
        with pytest.raises(ValueError):
            scale(0, u)

    def test_shifts_powers(self, f32):
        lam = f32.find_element_of_degree(5, seed=1)
        u = span(f32, [1, lam])
        assert scale(lam, u) == span(f32, [lam, f32.mul(lam, lam)])


class TestProductStructure:
    def test_cauchy_davenport_dim_one(self, f32):
        rng = random.Random(7)
        for _ in range(10):
            u1 = random_subspace(f32, 1, rng)
            u2 = random_subspace(f32, rng.randrange(1, 4), rng)
            d = product(u1, u2).dim
            assert d > f32.m - 1 or d >= u1.dim + u2.dim - 1

    def test_critical_equality_geometric(self, f32):
        lam = f32.find_element_of_degree(5, seed=2)
        u1 = geometric_subspace(f32, lam, 2)
        u2 = geometric_subspace(f32, lam, 3)
        assert product(u1, u2).dim == 4 == u1.dim + u2.dim - 1

    def test_witness_detection_roundtrip(self, f32):
        rng = random.Random(8)
        lam = f32.find_element_of_degree(5, seed=3)
        c0 = rng.randrange(1, 32)
        u = scale(c0, geometric_subspace(f32, lam, 2))
        wits = geometric_witnesses(u)
        assert lam in wits
        for mu, c in wits.items():
            assert span(f32, [f32.mul(c, f32.pow(mu, i)) for i in range(2)]) == u

    def test_full_subfield_is_geometric(self, f64):
        u = span(f64, f64.subfield_elements(2))
        wits = geometric_witnesses(u)
        assert wits
        assert any(f64.degree_over_q(lam) == 2 for lam in wits)

    def test_nongeometric_space_exists_m7(self, f128):
        """Some <1, lam, lam^3> admits no geometric witness; verified
        against an independent pairwise set comparison."""
        found = None
        for lam in f128.elements_of_degree(7)[:6]:
            u = span(f128, [1, lam, f128.pow(lam, 3)])
            if not geometric_witnesses(u):
                found = (lam, u)
                break
        assert found is not None
        lam, u = found
        uset = set(u.elements())
        for mu in range(2, 128):
            if f128.degree_over_q(mu) < 3:
                continue
            base = [1, mu, f128.mul(mu, mu)]
            for c in range(1, 128):
                cand = {0}
                for coeffs in range(1, 8):
                    v = 0
                    for i in range(3):
                        if (coeffs >> i) & 1:
                            v = f128.add(v, base[i])
                    cand.add(f128.mul(c, v))
                assert cand != uset

    def test_complement_witness_cases(self, f32):
        lam = f32.find_element_of_degree(5, seed=4)
        u1 = geometric_subspace(f32, lam, 2)
        dual = trace_dual(u1)
        # c = 1 works when U2 is the dual itself and the product is a hyperplane
        if product(u1, dual).dim == 4:
            w = critical_complement_witness(u1, dual)
            assert w is not None and scale(w, dual) == dual
        rng = random.Random(9)
        hits = 0
        while hits < 5:
            c = rng.randrange(1, 32)
            u2 = scale(c, dual)
            if product(u1, u2).dim != 4:
                continue
            w = critical_complement_witness(u1, u2)
            assert w is not None and scale(w, dual) == u2
            hits += 1

    @pytest.mark.parametrize("p", [2, 3])
    def test_complement_witness_of_zero_dual(self, p):
        # at m = 1 the whole field and zero pass both preconditions; the
        # dual of the whole field is zero, and every d maps 0 into U2
        ctx = FieldContext(p, 1, 1)
        assert critical_complement_witness(span(ctx, [1]), zero_subspace(ctx)) == 1


class TestSubfieldLinear:
    def test_whole_field(self, f64):
        u = full_space(f64)
        for e in (1, 2, 3, 6):
            assert is_subfield_linear(u, e)

    def test_line_not_extension_linear(self, f64):
        lam = f64.find_element_of_degree(6, seed=0)
        u = span(f64, [1, lam])
        assert not is_subfield_linear(u, 6)

    def test_scaled_subfield_hyperplane(self, f64):
        # c * (F_4-span of {1, g}) with g of F_4-degree 3 pattern:
        # use an F_4-hyperplane of F_64, i.e. dim 2 over F_4
        g = f64.subfield_generator(2)
        xi = f64.find_element_of_degree(6, seed=5)
        h = span(f64, [f64.mul(a, b) for a in (1, g) for b in (1, xi)])
        assert h.dim == 4
        for c in (3, 7, 21):
            assert is_subfield_linear(scale(c, h), 2)


def test_all_subspaces_counts(f16):
    from rankdec import gaussian_binomial

    for d in range(5):
        got = sum(1 for _ in all_subspaces(f16, d))
        assert got == gaussian_binomial(4, d, 2)


def test_all_subspaces_counts_q3():
    ctx = FieldContext(3, 1, 2)
    from rankdec import gaussian_binomial

    assert sum(1 for _ in all_subspaces(ctx, 1)) == gaussian_binomial(2, 1, 3)


@pytest.mark.parametrize("tower", [(2, 1, 1), (2, 1, 8), (2, 2, 3), (3, 1, 3),
                                   (3, 2, 2), (5, 1, 3), (251, 1, 1)],
                         ids=lambda t: "F%d^%d^%d" % t)
def test_point_table(tower):
    """(q^m - 1)/(q - 1) points; 0 is orthogonal to all of them and any
    other element to those of a hyperplane, (q^(m-1) - 1)/(q - 1)."""
    ctx = FieldContext(*tower)
    q, m = ctx.q, ctx.m
    bits, dims = _point_bits(ctx)
    points = (q**m - 1) // (q - 1)
    assert len(bits) == ctx.order and max(bits) == bits[0] == (1 << points) - 1
    assert {b.bit_count() for b in bits[1:]} == {(q**(m - 1) - 1) // (q - 1)}
    assert dims == {(q**(m - r) - 1) // (q - 1): r for r in range(m + 1)}


def test_corrupted_point_table_raises():
    ctx = FieldContext(3, 1, 3)        # 13 points: a span reads 13, 4, 1 or 0
    bits, dims = _point_bits(ctx)
    assert span_dim(ctx, [5]) == rank_weight(ctx, [5]) == 1
    corrupt = list(bits)
    corrupt[5] &= corrupt[5] - 1       # one point fewer: 3
    ctx._caches[("pointbits",)] = (tuple(corrupt), dims)
    with pytest.raises(FalsificationAlarm):
        span_dim(ctx, [5])
    with pytest.raises(FalsificationAlarm):
        rank_weight(ctx, [5, 0, 5])
    assert span_dim(FieldContext(3, 1, 3), [5]) == 1
