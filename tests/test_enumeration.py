"""Enumeration kernels: message indexing, chunk partitioning, both
rank backends, and the cap contract."""

import random

import numpy as np
import pytest

from oracles import line_dim
from rankdec import CapExceededError, FieldContext
from rankdec.codes import (
    apply_equivalence,
    build_completely_decomposable,
    random_gl,
    random_gl_ext,
    rank_weight,
)
from rankdec.enumeration import (
    _rank_rows_generic,
    _rank_rows_packed,
    _word_dtype,
    index_of_message,
    message_from_index,
    message_space_size,
    projective_count,
    projective_point,
    projective_points,
    projective_weights,
    weight_counts,
    weights_array,
)
from rankdec.systems import perp_prime, system_from_code


def test_message_index_roundtrip(f16, f81):
    for ctx, k in ((f16, 2), (f81, 1), (FieldContext(2, 2, 3), 2)):
        total = message_space_size(ctx, k)
        seen = set()
        for idx in range(total):
            msg = message_from_index(ctx, k, idx)
            assert index_of_message(ctx, k, msg) == idx
            seen.add(msg)
        assert len(seen) == total


def test_weights_array_matches_counts(f16):
    for ctx in (f16, FieldContext(2, 2, 3)):  # q = 2, m = 4 and q = 4, m = 3
        lam = ctx.elements_of_degree(ctx.m)[0]
        c = build_completely_decomposable(ctx, [[1, lam], [1, lam]])
        arr = weights_array(ctx, c.generator)
        counts = weight_counts(ctx, c.generator)
        assert [int((arr == i).sum()) for i in range(c.n + 1)] == counts
        # entry idx is the weight of the message whose components are
        # the base-q^m digits of idx
        for idx in range(len(arr)):
            msg = message_from_index(ctx, 2, idx)
            assert msg == (idx % ctx.order, idx // ctx.order)
            assert arr[idx] == rank_weight(ctx, c.codeword(msg))


def test_chunking_invariance(f64):
    """Counts must not depend on the chunk split (partition contract)."""
    lam = f64.elements_of_degree(6)[0]
    c = build_completely_decomposable(f64, [[1, lam], [1, lam]])
    base = weight_counts(f64, c.generator)
    for target in (1 << 4, 1 << 9):
        assert weight_counts(f64, c.generator, chunk_target=target) == base


def test_threaded_counts_identical(f64):
    lam = f64.elements_of_degree(6)[1]
    c = build_completely_decomposable(f64, [[1, lam]] * 3)
    assert weight_counts(f64, c.generator, threads=4) == weight_counts(
        f64, c.generator)


def test_generic_backend_against_packed():
    """A q = 4 tower takes the packed kernel on the 2-fold F_2 expansion
    of its words and a q = 9 tower the table backend; a brute scalar
    loop pins both against the definition."""
    ctx4, ctx9 = FieldContext(2, 2, 3), FieldContext(3, 2, 2)
    lam4, lam9 = ctx4.elements_of_degree(3)[0], ctx9.elements_of_degree(2)[0]
    for ctx, blocks in ((ctx4, [[1, lam4], [1, lam4]]), (ctx9, [[1], [lam9]])):
        c = build_completely_decomposable(ctx, blocks)
        counts = weight_counts(ctx, c.generator)
        brute = [0] * (c.n + 1)
        for idx in range(message_space_size(ctx, 2)):
            brute[rank_weight(ctx, c.codeword(message_from_index(ctx, 2, idx)))] += 1
        assert counts == brute


def test_cap_contract(f64):
    lam = f64.elements_of_degree(6)[0]
    c = build_completely_decomposable(f64, [[1, lam]] * 3)
    with pytest.raises(CapExceededError) as e:
        weight_counts(f64, c.generator, cap=2**17)
    assert e.value.required == 2**18 and e.value.cap == 2**17


def test_multichunk_scale():
    """2^22 messages split over 64 chunks; the strictly-decreasing type
    pins the minimum count at q^m - 1."""
    ctx = FieldContext(2, 1, 11)
    g = ctx.find_element_of_degree(11, seed=0)
    c = build_completely_decomposable(
        ctx, [[1, g, ctx.mul(g, g)], [1, g]])
    counts = weight_counts(ctx, c.generator)
    assert sum(counts) == 1 << 22
    assert counts[2] == 2**11 - 1


def test_projective_points(f16):
    pts = list(projective_points(f16, 2))
    assert len(pts) == projective_count(f16, 2) == (16**2 - 1) // 15
    assert len(set(pts)) == len(pts)
    for p in pts:
        lead = next(i for i, v in enumerate(p) if v)
        assert p[lead] == 1
    assert [projective_point(f16, 2, i) for i in range(len(pts))] == pts
    with pytest.raises(IndexError):
        projective_point(f16, 2, len(pts))


@pytest.mark.parametrize("m", [1, 5, 8, 9, 16, 17])
def test_packed_kernel_against_table_kernel(m):
    """On random q = 2 words the packed elimination (m-bit masks in
    the narrowest dtype) equals the table elimination on the same words
    as F_2 digit vectors, across every dtype width and its boundary."""
    rng = np.random.default_rng(m)
    tables = FieldContext(2, 1, 1).q_tables()
    for n in (1, 3, m + 2):
        words = rng.integers(0, 1 << m, size=(200, n), dtype=np.int64)
        # low-rank rows too: entries drawn from a few fixed words
        few = rng.integers(0, 1 << m, size=3, dtype=np.int64)
        words[:50] = few[rng.integers(0, 3, size=(50, n))]
        words[50:60] = 0
        words[60:70] = 1 << (m - 1)
        digits = ((words[:, :, None] >> np.arange(m)) & 1).astype(np.uint8)
        packed = _rank_rows_packed(words.astype(_word_dtype(m)), m)
        assert packed.tolist() == _rank_rows_generic(digits, tables).tolist()
    assert np.dtype(_word_dtype(m)).itemsize == (1 if m <= 8 else 2 if m <= 16 else 4)


def _scrambled(ctx, typ, seed):
    """A completely decomposable code of the given type behind a random
    basis change and a random coordinate map, without its record."""
    rng = random.Random(seed)
    blocks = []
    for t in typ:
        while True:
            u = [rng.randrange(ctx.order) for _ in range(t)]
            if rank_weight(ctx, u) == t:
                blocks.append(u)
                break
    c = build_completely_decomposable(ctx, blocks)
    c = c.relabeled(random_gl_ext(ctx, c.k, seed=seed))
    return apply_equivalence(c, random_gl(ctx, c.n, seed=seed)).strip_decomposition()


@pytest.mark.parametrize("p,a,m,typ", [
    (2, 1, 3, (2,)), (2, 1, 4, (3, 2)), (2, 1, 3, (2, 2, 1)),
    (3, 1, 2, (1,)), (3, 1, 3, (2, 1)), (3, 1, 2, (1, 1, 1)),
    (2, 2, 2, (1,)), (2, 2, 3, (2, 1)), (2, 2, 2, (1, 1, 1)),
])
def test_projective_counts_match_full_enumeration(p, a, m, typ):
    """A_i = (q^m - 1) P_i against the full enumeration, for q in
    {2, 3, 4} and k in {1, 2, 3}, whatever the chunk size and threads."""
    ctx = FieldContext(p, a, m)
    c = _scrambled(ctx, typ, seed=len(typ))
    full = weight_counts(ctx, c.generator)
    ref, _ = projective_weights(ctx, c.generator)
    for target in (1, 1 << 3, 1 << 16):
        for threads in (1, 2):
            weights, counts = projective_weights(
                ctx, c.generator, threads=threads, chunk_target=target)
            assert counts == full
            assert len(weights) == projective_count(ctx, c.k)
            # batches cross coset boundaries: the per-point weights, not
            # only their counts, must not depend on the batching
            assert np.array_equal(weights, ref)


@pytest.mark.parametrize("p,a,m,typ", [
    (2, 1, 4, (3, 2, 1)), (3, 1, 3, (2, 1)), (2, 2, 3, (2, 1)),
    (2, 2, 2, (1, 1, 1)),
])
def test_projective_weights_are_line_dimensions(p, a, m, typ):
    """Per point, in projective_points order: w(xG) is the scalar rank
    weight and m - w(xG) the line dimension in the dual system."""
    ctx = FieldContext(p, a, m)
    c = _scrambled(ctx, typ, seed=7)
    udual = perp_prime(system_from_code(c))
    weights, _ = projective_weights(ctx, c.generator, chunk_target=1 << 3)
    pts = list(projective_points(ctx, c.k))
    assert len(pts) == len(weights)
    for x, w in zip(pts, weights):
        assert rank_weight(ctx, c.codeword(x)) == w
        assert line_dim(udual, x) == m - w
