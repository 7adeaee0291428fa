"""Property tests of the subspace calculus against brute-force element
sets, over every tower F_p <= F_q <= F_{q^m} with q^m <= 256 other than
the prime fields, of which F_2 and F_251 stand for all; of the point
table's span dimensions against the coordinate elimination; and of the
two rank kernels against each other and a textbook rank."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import plain_rank_mod_p
from rankdec import FieldContext
from rankdec.enumeration import _rank_rows_digits, _rank_rows_packed, _word_dtype
from rankdec.fields import divisors, is_prime
from rankdec.subspaces import (_POINT_TABLE_LIMIT, coordinate_space, intersect, span,
                               span_dim, subspace_sum, trace_dual)

TOWERS = [(p, a, m) for p in range(2, 17) if is_prime(p)
          for a in range(1, 9) for m in range(1, 9)
          if p ** (a * m) <= 256 and a * m > 1] + [(2, 1, 1), (251, 1, 1)]

SETTINGS = settings(derandomize=True, deadline=None, max_examples=50, database=None)


@lru_cache(maxsize=None)
def context(tower):
    return FieldContext(*tower)


@st.composite
def element_lists(draw, count):
    """A tower context and `count` lists of at most m + 1 elements."""
    ctx = context(draw(st.sampled_from(TOWERS)))
    elems = st.lists(st.integers(0, ctx.order - 1), max_size=ctx.m + 1)
    return (ctx,) + tuple(draw(elems) for _ in range(count))


def closure(ctx, elems):
    """The F_q-closure of elems: the fixed point of adding F_q-multiples
    of the elements, grown breadth-first from {0}."""
    steps = {ctx.mul(s, x) for x in elems for s in ctx.fq_elements()}
    out = frontier = {0}
    while frontier:
        frontier = {ctx.add(z, g) for z in frontier for g in steps} - out
        out = out | frontier
    return out


@SETTINGS
@given(element_lists(1))
def test_span_is_the_fq_closure(drawn):
    ctx, elems = drawn
    u = span(ctx, elems)
    points = closure(ctx, elems)
    assert u.elements() == sorted(points)
    assert ctx.q ** u.dim == len(points)
    assert all(u.contains(x) == (x in points) for x in range(ctx.order))


@SETTINGS
@given(element_lists(2))
def test_sum_and_intersection_are_the_set_operations(drawn):
    ctx, a, b = drawn
    u, v = span(ctx, a), span(ctx, b)
    assert set(subspace_sum(u, v).elements()) == closure(ctx, a + b)
    assert set(intersect(u, v).elements()) == closure(ctx, a) & closure(ctx, b)


@SETTINGS
@given(element_lists(1), st.data())
def test_trace_dual_is_the_relative_trace_complement(drawn, data):
    ctx, elems = drawn
    e = data.draw(st.sampled_from(divisors(ctx.m)))
    points = closure(ctx, elems)
    dual = {y for y in range(ctx.order)
            if all(ctx.trace_rel(ctx.mul(x, y), e) == 0 for x in points)}
    assert set(trace_dual(span(ctx, elems), e).elements()) == dual


#: p in {2, 3, 5, 7}, a in {1, 2, 3} and m in {1, ..., 4}, on both sides
#: of the point table's bound
SPAN_TOWERS = [(p, a, m) for p in (2, 3, 5, 7) for a in (1, 2, 3) for m in (1, 2, 3, 4)
               if p ** (a * m) <= 1 << 12]


def test_span_towers_straddle_the_point_table():
    orders = [p ** (a * m) for p, a, m in SPAN_TOWERS]
    assert min(orders) <= _POINT_TABLE_LIMIT < max(orders)
    assert {m for _, _, m in SPAN_TOWERS if m == 1}


@settings(SETTINGS, max_examples=150)
@given(st.sampled_from(SPAN_TOWERS), st.data())
def test_span_dim_is_the_coordinate_rank(tower, data):
    """Empty lists, zeros, repeats and more values than m included."""
    ctx = context(tower)
    values = data.draw(st.lists(st.integers(0, ctx.order - 1), max_size=ctx.m + 2))
    values += values[:data.draw(st.integers(0, len(values)))]
    values += [0] * data.draw(st.integers(0, 2))
    values = data.draw(st.permutations(values))
    assert span_dim(ctx, values) == coordinate_space(ctx, values).dim


@pytest.mark.parametrize("tower", SPAN_TOWERS, ids=lambda t: "F%d^%d^%d" % t)
def test_span_dim_extremes(tower):
    ctx = context(tower)
    basis = list(ctx.fq_power_basis())
    assert span_dim(ctx, []) == span_dim(ctx, [0, 0]) == 0
    assert span_dim(ctx, basis + basis[::-1] + [0]) == ctx.m


@st.composite
def digit_words(draw):
    """p in {2, 3, 5, 7} and a (digits, entries, words) array of F_p
    digits, its entries drawn from a few vectors and their multiples so
    that deficient ranks are common."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n, digits, words = (draw(st.integers(1, hi)) for hi in (9, 6, 5))
    vector = st.lists(st.integers(0, p - 1), min_size=digits, max_size=digits)
    pool = draw(st.lists(vector, min_size=1, max_size=3))
    entry = st.one_of(vector, st.tuples(st.sampled_from(pool), st.integers(0, p - 1))
                      .map(lambda vc: [x * vc[1] % p for x in vc[0]]))
    cw = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                       min_size=words, max_size=words))
    return p, np.array(cw, dtype=np.uint8).transpose(2, 1, 0)


@settings(SETTINGS, max_examples=60)
@given(digit_words())
def test_rank_kernels_agree_with_a_textbook_rank(drawn):
    p, cw = drawn
    got = _rank_rows_digits(cw, p)
    assert got.tolist() == [plain_rank_mod_p(w.tolist(), p) for w in cw.T]
    if p == 2:
        masks = (cw.astype(np.int64) << np.arange(cw.shape[0])[:, None, None]).sum(axis=0)
        packed = _rank_rows_packed(masks.astype(_word_dtype(cw.shape[0])), cw.shape[0])
        assert packed.tolist() == got.tolist()
