"""Integration pass over towers with non-prime q (a > 1): for even q
the packed kernel ranks the a-fold F_2 expansion of each word, and
every path must agree with brute force and the closed form."""

import random
from collections import Counter

import pytest

from oracles import hyperplane_weight
from rankdec import FieldContext
from rankdec.analysis import min_weight_count_formula
from rankdec.codes import (
    RankCode,
    apply_equivalence,
    build_completely_decomposable,
    detect_complete_decomposability,
    geometric_dual,
    random_gl,
    random_gl_ext,
    rank_weight,
    weight_distribution,
)
from rankdec.enumeration import (
    message_from_index,
    message_space_size,
    projective_count,
    projective_point,
    projective_counts,
    projective_weights,
    weight_counts,
)
from rankdec.subspaces import (
    product,
    random_subspace,
    trace_dual,
    verify_dual_geometric,
    verify_dual_subfield,
)
from rankdec.systems import system_from_code


@pytest.fixture(scope="module")
def q4m3():
    return FieldContext(2, 2, 3)  # GF(4^3)


@pytest.fixture(scope="module")
def q4m4():
    return FieldContext(2, 2, 4)  # GF(4^4), composite tower over q = 4


def test_trace_dual_laws(q4m3):
    rng = random.Random(0)
    for _ in range(15):
        u = random_subspace(q4m3, rng.randrange(4), rng)
        d = trace_dual(u)
        assert d.dim == q4m3.m - u.dim
        assert trace_dual(d) == u


def test_product_inequality_prime_m(q4m3):
    rng = random.Random(1)
    for _ in range(25):
        u1 = random_subspace(q4m3, rng.randrange(1, 3), rng)
        u2 = random_subspace(q4m3, rng.randrange(1, 3), rng)
        d = product(u1, u2).dim
        assert d > q4m3.m - 1 or d >= u1.dim + u2.dim - 1


def test_generator_progression_duals(q4m3):
    for lam in q4m3.elements_of_degree(3)[:6]:
        for t in (1, 2):
            holds, delta = verify_dual_geometric(q4m3, lam, t)
            assert holds and delta != 0


def test_subfield_dual_decomposition(q4m4):
    # m = 4 = 2*2 over q = 4: lambda of degree 2, both block lengths
    for lam in q4m4.elements_of_degree(2)[:4]:
        for t in (1, 2):
            holds, c = verify_dual_subfield(q4m4, lam, t)
            assert holds
            if t == 1:
                assert q4m4.trace_rel(c, 2) != 0


def test_distribution_matches_brute_force(q4m3):
    lam = q4m3.find_element_of_degree(3, seed=2)
    c = build_completely_decomposable(q4m3, [[1, lam], [1, lam]])
    wd = weight_distribution(c)
    brute = Counter()
    for idx in range(message_space_size(q4m3, 2)):
        brute[rank_weight(q4m3, c.codeword(message_from_index(q4m3, 2, idx)))] += 1
    assert list(wd.counts) == [brute.get(i, 0) for i in range(c.n + 1)]
    # lambda-progression count: (q^m - 1)(q^2 - 1)/(q - 1) for two blocks
    rep = min_weight_count_formula(c, enumerate_check=True)
    assert rep.formula_count == 63 * 5 == rep.enumerated_count


def test_geometric_route_agrees(q4m3):
    lam = q4m3.find_element_of_degree(3, seed=2)
    c = build_completely_decomposable(q4m3, [[1, lam], [1, lam]])
    u = system_from_code(c)
    for idx in range(1, message_space_size(q4m3, 2), 29):
        x = message_from_index(q4m3, 2, idx)
        assert hyperplane_weight(u, x) == rank_weight(q4m3, c.codeword(x))


def test_detection_roundtrip_and_dual(q4m3):
    lam = q4m3.find_element_of_degree(3, seed=2)
    c = build_completely_decomposable(q4m3, [[1, lam], [1, lam]])
    scr = apply_equivalence(
        c.relabeled(random_gl_ext(q4m3, 2, seed=1)),
        random_gl(q4m3, 4, seed=2)).strip_decomposition()
    dec = detect_complete_decomposability(scr)
    assert dec is not None and dec.type_vector == (2, 2)
    scr.with_decomposition(dec)
    dual = geometric_dual(c)
    assert dual.decomposition.type_vector == (1, 1)


@pytest.mark.parametrize("p,a,m", [(2, 2, 3), (2, 3, 2), (2, 4, 2), (2, 9, 2)],
                         ids=["F4^3", "F8^2", "F16^2", "F512^2"])
def test_even_towers_through_the_packed_kernel(p, a, m):
    """k = 2 codes over F_(4^3), F_(8^2), F_(16^2) and F_(2^9)^2, behind
    a random basis change and coordinate map: the per-point weights of
    the a-fold F_2 expansion are the scalar rank weights on sampled
    points, and the distribution is the full enumeration's.  F_(2^9)^2
    has q > 256 and no tables; its 2^36 messages are past any full
    enumeration, so the closed form checks its minimum-weight count and
    the full enumeration one row."""
    ctx = FieldContext(p, a, m)
    rng = random.Random(a)
    blocks = []
    for t in (m - 1, 1):  # block lengths below m
        while True:
            u = [rng.randrange(ctx.order) for _ in range(t)]
            if rank_weight(ctx, u) == t:
                blocks.append(u)
                break
    c = build_completely_decomposable(ctx, blocks)
    scr = apply_equivalence(c.relabeled(random_gl_ext(ctx, 2, seed=a)),
                            random_gl(ctx, c.n, seed=a)).strip_decomposition()
    weights = projective_weights(ctx, scr.generator)
    counts = projective_counts(ctx, scr.generator)
    total = projective_count(ctx, 2)
    assert len(weights) == total
    for idx in [0, 1, total - 1] + [rng.randrange(total) for _ in range(40)]:
        x = projective_point(ctx, 2, idx)
        assert weights[idx] == rank_weight(ctx, scr.codeword(x))
    messages = message_space_size(ctx, 2)
    wd = weight_distribution(scr, cap=messages)
    assert list(wd.counts) == counts and sum(counts) == messages
    n_k = c.decomposition.type_vector[-1]
    assert wd.counts[n_k] == min_weight_count_formula(c).formula_count
    # the full enumeration: of the whole code where it fits, else of
    # its first row (2^18 messages over F_(2^9)^2)
    sub = scr if messages <= 1 << 16 else RankCode(ctx, scr.generator[:1])
    assert weight_counts(ctx, sub.generator) == list(weight_distribution(sub).counts)
