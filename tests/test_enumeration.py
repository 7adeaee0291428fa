"""Enumeration kernels: message indexing, chunk partitioning, both
rank backends (packed and digits), and the cap contract."""

import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import line_dim, plain_bit_rank, plain_rank_mod_p
from rankdec import CapExceededError, FieldContext
from rankdec.codes import (
    RankCode,
    apply_equivalence,
    build_completely_decomposable,
    random_gl,
    random_gl_ext,
    rank_weight,
)
from rankdec.enumeration import (
    _entries,
    _Kernel,
    _rank_rows_digits,
    _rank_rows_packed,
    _word_dtype,
    message_from_index,
    message_space_size,
    projective_count,
    projective_counts,
    projective_point,
    projective_points,
    projective_weights,
    weight_counts,
)
from rankdec.errors import UnsupportedFieldError
from rankdec.systems import perp_prime, system_from_code


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
    of its words and a q = 9 tower the digit kernel on the 2-fold F_3
    expansion; a brute scalar loop pins both against the definition."""
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


@pytest.mark.parametrize("m", [1, 5, 8, 9, 16, 17, 24, 25, 32])
def test_packed_kernel_against_table_kernel(m):
    """On random q = 2 words the packed elimination (m-bit masks in
    the narrowest dtype) equals the digit elimination on the same words
    as F_2 digit vectors, across every dtype width and its boundary,
    and past 24 bits (m = 24, 25, up to the widest words, m = 32),
    where a float32 top-bit step would no longer be exact."""
    rng = np.random.default_rng(m)
    for n in (1, 3, m + 2):
        words = rng.integers(0, 1 << m, size=(200, n), dtype=np.int64)
        # low-rank rows too: entries drawn from a few fixed words
        few = rng.integers(0, 1 << m, size=3, dtype=np.int64)
        words[:50] = few[rng.integers(0, 3, size=(50, n))]
        words[50:60] = 0
        words[60:70] = 1 << (m - 1)
        # past 24 bits all-ones would round up to 2^m in float32
        words[70:80] = (1 << m) - 1
        # words last: (entries, words) masks, (digits, entries, words) bits
        words = words.T
        digits = ((words[None] >> np.arange(m)[:, None, None]) & 1).astype(np.uint8)
        packed = _rank_rows_packed(words.astype(_word_dtype(m)), m)
        assert packed.tolist() == _rank_rows_digits(digits, 2).tolist()
    assert np.dtype(_word_dtype(m)).itemsize == (1 if m <= 8 else 2 if m <= 16 else 4)


SETTINGS = settings(derandomize=True, deadline=None, max_examples=50, database=None)


@st.composite
def packed_words(draw):
    """m in 1..32, biased to 24, 25 and 32 bits, and an (entries, words)
    array of m-bit masks in the narrowest dtype: 1 to 40 entries, a word
    count that is not a power of two, entries biased to zero and
    all-ones (past 24 bits, all-ones is the first word whose top bit a
    float32 exponent would get wrong: it rounds up to 2^m)."""
    m = draw(st.sampled_from([24, 25, 32]) | st.integers(1, 32))
    n = draw(st.integers(1, 40))
    words = draw(st.integers(3, 70).filter(lambda w: w & (w - 1)))
    full = (1 << m) - 1
    entries = st.sampled_from([0, full]) | st.integers(0, full)
    return m, draw(arrays(_word_dtype(m), (n, words), elements=entries))


@SETTINGS
@given(packed_words())
def test_packed_kernel_against_plain_bit_rank(case):
    """The packed elimination equals a dict XOR basis on every word,
    and neither kernel writes into its input: the packed words, and
    the same words as F_2 digit vectors."""
    m, cw = case
    before = cw.copy()
    got = _rank_rows_packed(cw, m)
    assert got.tolist() == [plain_bit_rank(w) for w in cw.T.tolist()]
    assert np.array_equal(cw, before)
    digits = ((cw[None] >> np.arange(m, dtype=cw.dtype)[:, None, None]) & 1).astype(np.uint8)
    before = digits.copy()
    assert np.array_equal(_rank_rows_digits(digits, 2), got)
    assert np.array_equal(digits, before)


def _word_pool(rng, m, n):
    """64 words of n m-bit entries, as (entries, words): all-zero,
    all-ones, every entry at the top bit, two low-rank families, the
    unit vectors (full rank where n allows) and random words."""
    pool = rng.integers(0, 1 << m, size=(n, 64), dtype=np.int64)
    pool[:, 0] = 0
    pool[:, 1] = (1 << m) - 1
    pool[:, 2] = 1 << (m - 1)
    few = rng.integers(0, 1 << m, size=2, dtype=np.int64)
    pool[:, 3:16] = few[rng.integers(0, 2, size=(n, 13))]
    pool[:, 16:24] = pool[:1, 16:24]
    pool[:min(n, m), 24] = 1 << np.arange(min(n, m))
    return pool


@pytest.mark.parametrize("words", [1, 2, 4096, 16513])
@pytest.mark.parametrize("m", [8, 9, 16, 17, 32])
def test_packed_kernel_at_flat_index_word_counts(m, words):
    """The packed kernel stores at the flat index e*words + t.  At 1
    word (the whole projective enumeration of a k = 1 code, and a lone
    last coset) that index is e itself; 2 words, 4096 (a power of two) and 16513 (the largest
    census call) lie outside the property test's word counts.  Each
    word is drawn from a pool whose ranks plain_bit_rank and the digit
    kernel agree on, at the dtype boundaries m = 8, 9, 16, 17, 32;
    every pool word, all-zero and all-ones included, is ranked."""
    rng = np.random.default_rng(1000 * m + words)
    for n in (1, 3, m + 2):
        pool = _word_pool(rng, m, n)
        digits = ((pool[None] >> np.arange(m)[:, None, None]) & 1).astype(np.uint8)
        expected = _rank_rows_digits(digits, 2)
        assert expected.tolist() == [plain_bit_rank(w) for w in pool.T.tolist()]
        if words < 64:
            picks = np.arange(64).reshape(-1, words)
        else:
            picks = [rng.permutation(np.resize(np.arange(64), words))]
        for pick in picks:
            cw = pool[:, pick].astype(_word_dtype(m))
            before = cw.copy()
            assert np.array_equal(_rank_rows_packed(cw, m), expected[pick])
            assert np.array_equal(cw, before)


@pytest.mark.parametrize("p,a,m", [(2, 1, 3), (2, 2, 2), (3, 1, 2), (3, 2, 1),
                                   (5, 1, 2), (5, 2, 1)])
def test_kernel_coset_words(p, a, m):
    """Word t of the coset kernel over G_1, offset G_0, is G_0 + sum_j
    d_j * rows[j] for the base-p digits d_j of t and the basis rows
    rows[s] = x^s * G_1 (x^s is the int p^s), each a-fold expanded
    over the F_p-basis of F_q: summed here on Python ints (XOR for
    packed words, digit by digit mod p otherwise), in every chunk for
    every chunk target.  A kernel of one chunk ranks its words twice
    alike: no rank kernel writes into its input."""
    ctx = FieldContext(p, a, m)
    rng = random.Random(p * a * m)
    gen = [[rng.randrange(1, ctx.order) for _ in range(3)] for _ in range(2)]
    beta = ctx.fp_basis_of_subfield(1)

    def word(row):
        entries = [v for b in beta for v in ctx.scale_row(b, row)]
        return entries if p == 2 else ctx.digits_all(entries).T.tolist()

    offset = word(gen[0])
    high = [word(ctx.scale_row(p**s, gen[1])) for s in range(ctx.n)]
    rows = _entries(ctx, gen)

    def combine(x, y, d):
        if isinstance(x, list):
            return [combine(u, v, d) for u, v in zip(x, y)]
        return x ^ y if p == 2 else (x + d * y) % p

    for target in (1, p, 8, 1 << 16):
        kern = _Kernel(ctx, rows[1:], rows[0], target)
        assert kern.chunk_size * kern.n_chunks == kern.words == p ** len(high)
        for h in range(kern.n_chunks):
            cw = kern.chunk_codewords(h)
            for s in range(kern.chunk_size):
                t, want = h * kern.chunk_size + s, offset
                for row in high:
                    t, d = divmod(t, p)
                    want = combine(want, row, d) if d else want
                assert cw[..., s].tolist() == want
        if kern.n_chunks == 1:
            cw = kern.chunk_codewords(0)
            assert np.array_equal(kern.ranks(cw), kern.ranks(cw))


@pytest.mark.parametrize("p,a,m", [(2, 1, 4), (3, 1, 3), (2, 2, 2), (3, 2, 2)],
                         ids=["q2", "q3", "q4", "q9"])
def test_coset_tables_at_every_cut(p, a, m):
    """Each low-digit table is an outer sum of the field multiples of
    whole generator rows, the last one possibly cut.  Per point the
    projective weights of a k = 3 code are the scalar rank weights at
    chunk targets whose low digits cut the first component, cut the
    second (neither a multiple of a*m), span exactly two components,
    and at 2^16; the full enumeration counts alike at all but the
    smallest target (q^(3m) words in chunks of p^(a*m - 1) is slow)."""
    ctx = FieldContext(p, a, m)
    rng = random.Random(p * a * m)
    code = RankCode(ctx, [[rng.randrange(1, ctx.order) for _ in range(3)]
                          for _ in range(3)])
    gen, total = code.generator, projective_count(ctx, 3)
    want = [rank_weight(ctx, code.codeword(projective_point(ctx, 3, idx)))
            for idx in range(total)]
    counts = projective_counts(ctx, gen)
    for target in (p ** (ctx.n - 1), p ** (ctx.n + 1), ctx.order**2, 1 << 16):
        assert projective_weights(ctx, gen, chunk_target=target).tolist() == want
        if target > ctx.order:
            assert weight_counts(ctx, gen, chunk_target=target) == counts


def test_untabled_field_over_several_chunks():
    """F_2^17 has no exp/log tables, so its multiple tables double over
    x^s * G_j.  With k = 2 (131,073 points) the lead-0 coset is 2^7
    chunks at a target of 2^10 and 2 at 2^16: both give the same
    weights, and spot checks are the scalar rank weights."""
    ctx = FieldContext(2, 1, 17)
    assert ctx._exp is None
    rng = random.Random(17)
    code = RankCode(ctx, [[rng.randrange(1, ctx.order) for _ in range(4)]
                          for _ in range(2)])
    small = projective_weights(ctx, code.generator, chunk_target=1 << 10)
    assert len(small) == projective_count(ctx, 2) == 131073
    assert np.array_equal(
        small, projective_weights(ctx, code.generator, chunk_target=1 << 16))
    for idx in [0, 1 << 10, (1 << 16) + 5, len(small) - 1] + [
            rng.randrange(len(small)) for _ in range(40)]:
        x = projective_point(ctx, 2, idx)
        assert small[idx] == rank_weight(ctx, code.codeword(x))


@pytest.mark.parametrize("p,a,m,k,n", [
    (3, 1, 3, 2, 3), (3, 1, 5, 2, 3), (3, 2, 3, 2, 3), (5, 2, 2, 2, 3),
    (13, 1, 2, 3, 3), (17, 1, 2, 2, 3), (3, 6, 2, 1, 1), (257, 1, 2, 2, 2),
], ids=["F3^3", "F3^5", "F9^3", "F25^2", "F13^2", "F17^2", "F729^2",
        "F257^2"])
def test_odd_p_through_the_digit_kernel(p, a, m, k, n):
    """Odd p on the digit kernel, for a > 1 (F_(9^3), F_(25^2)), the
    largest p on uint8 digits (F_13^2; k = 3 sums three high rows into
    a chunk base), uint16 and uint32 digits (F_17^2, F_257^2) and
    q > 256 (F_(3^6)^2, F_257^2): per point the weights are the scalar
    rank weights, and the projective counts are the full enumeration's,
    whatever the chunk size and threads.  Past 2^19 messages (F_(9^3),
    F_13^2, F_257^2) the full enumeration counts the first row."""
    ctx = FieldContext(p, a, m)
    rng = random.Random(p * a * m)
    code = RankCode(ctx, [[rng.randrange(1, ctx.order) for _ in range(n)]
                          for _ in range(k)])
    gen = code.generator
    ref, ref_counts = projective_weights(ctx, gen), projective_counts(ctx, gen)
    total = projective_count(ctx, k)
    assert len(ref) == total
    for idx in [0, total - 1] + [rng.randrange(total) for _ in range(60)]:
        x = projective_point(ctx, k, idx)
        assert ref[idx] == rank_weight(ctx, code.codeword(x))
    for target in (1, 1 << 3, 1 << 16):
        for threads in (1, 2):
            counts = projective_counts(ctx, gen, threads=threads,
                                       chunk_target=target)
            weights = projective_weights(ctx, gen, threads=threads,
                                         chunk_target=target)
            assert counts == ref_counts
            assert np.array_equal(weights, ref)
    if message_space_size(ctx, k) > 1 << 19:
        gen = gen[:1]
        ref_counts = projective_counts(ctx, gen)
    assert weight_counts(ctx, gen, threads=2) == ref_counts


def _digit_words(rng, p, n, digits, count):
    """count words of n entries of F_p^digits, as a (digits, entries,
    words) int64 array, built entry by entry: random, zero, a repeat, a
    scalar multiple or an F_p-combination of earlier entries, so that
    deficient ranks are common."""
    out = np.empty((digits, n, count), dtype=np.int64)
    for t in range(count):
        entries = []
        for _ in range(n):
            kind = rng.integers(5) if entries else rng.integers(2)
            if kind == 0:
                e = rng.integers(0, p, size=digits)
            elif kind == 1:
                e = np.zeros(digits, dtype=np.int64)
            elif kind == 2:
                e = entries[rng.integers(len(entries))].copy()
            elif kind == 3:
                e = entries[rng.integers(len(entries))] * rng.integers(1, p) % p
            else:
                coef = rng.integers(0, p, size=len(entries))
                e = (coef[:, None] * np.array(entries) % p).sum(axis=0) % p
            entries.append(e)
        out[:, :, t] = np.transpose(entries)
    return out


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 251, 65521])
def test_digit_kernel_against_plain_rank(p):
    """The digit elimination equals a textbook rank mod p, word by
    word, for 1 to 6 digits and p on uint8, uint16 and uint32 digits;
    the words hold zero, repeated, scaled and combined entries, and in
    a quarter of them one digit is zero in every entry.  n runs from 1
    to far past the digits (n = 40) and, at 6 digits, to n = 300, where
    the per-entry key (up to 2n - 1) no longer fits uint8."""
    rng = np.random.default_rng(p)
    dtype = np.min_scalar_type(p**2 - 1)
    for digits in range(1, 7):
        for n in (1, 3, digits + 2, 40) + ((300,) if digits == 6 else ()):
            words = _digit_words(rng, p, n, digits, 12 if n == 300 else 40)
            words[rng.integers(digits), :, :words.shape[2] // 4] = 0
            got = _rank_rows_digits(words.astype(dtype), p)
            want = [plain_rank_mod_p(words[:, :, t].T.tolist(), p)
                    for t in range(words.shape[2])]
            assert got.tolist() == want, (digits, n)
            assert min(want) < min(n, digits) or n == 1


@pytest.mark.parametrize("p,m", [(13, 3), (251, 2), (65521, 1)],
                         ids=["uint8", "uint16", "uint32"])
def test_digit_kernel_at_the_dtype_edge(p, m):
    """At the largest p of each digit dtype, digits p - 1 drive the
    kernel's sums up to the p^2 - 1 its dtype holds (a pivot digit
    p - 1 subtracted from a digit p - 1 where the lead digit is zero).
    Words of all-(p - 1) entries and of entries with digits 0, 1 and
    p - 1 against a textbook rank.  Then the projective weights of a
    code whose entries are s and (p - 1) s, with s the element of all
    digits 1, so that every coset table and chunk base sums digits
    p - 1: at the point (1, y) the entries are s times y - 1, -(1 + y)
    and 1 - y, which span <1, y>, so the weight is 1 for y in F_p and
    min(2, m) otherwise, and 1 at (0, 1); the scalar rank weight agrees
    on a sample."""
    rng = np.random.default_rng(p)
    dtype = np.min_scalar_type(p**2 - 1)
    for digits in range(1, 6):
        for n in (1, 3, digits + 2):
            words = rng.choice([0, 1, p - 1], p=[0.2, 0.2, 0.6],
                               size=(n, digits, 60)).swapaxes(0, 1)
            words[:, :, 0] = p - 1
            got = _rank_rows_digits(words.astype(dtype), p)
            want = [plain_rank_mod_p(words[:, :, t].T.tolist(), p)
                    for t in range(words.shape[2])]
            assert got.tolist() == want, (digits, n)
            assert got[0] == 1
    ctx = FieldContext(p, 1, m)
    full = ctx.order - 1
    s = full // (p - 1)
    code = RankCode(ctx, [[full, full, s], [s, full, full]])
    weights = projective_weights(ctx, code.generator)
    counts = projective_counts(ctx, code.generator)
    want = np.full(ctx.order + 1, min(2, m), dtype=np.uint8)
    want[:p] = want[-1] = 1
    assert np.array_equal(weights, want)
    rng = random.Random(p)
    for idx in [0, p - 1, p, ctx.order] + [rng.randrange(ctx.order)
                                           for _ in range(50)]:
        x = projective_point(ctx, 2, idx)
        assert weights[idx] == rank_weight(ctx, code.codeword(x))
    assert sum(counts) == message_space_size(ctx, 2)


def _first_column_cases(rng, n, size, draw):
    """(4 * size, n, ...) entries from draw(shape), in four families:
    first entry zero, first entry alone nonzero, all entries equal, and
    unconstrained."""
    words = draw((4, size, n))
    words[0, :, 0] = 0
    words[1, :, 1:] = 0
    words[2] = words[2, :, :1]
    return words.reshape(4 * size, n, *words.shape[3:])


@pytest.mark.parametrize("p,m", [(13, 8), (251, 16), (65521, 32)],
                         ids=["uint8", "uint16", "uint32"])
def test_first_column_edge_cases(p, m):
    """The packed kernel leaves column 0 unreduced, since it meets no
    pivot; the digit kernel's pivot at each digit is the first entry
    nonzero there, which these families make a later entry, entry 0
    alone, or any of equal entries.  Words whose first entry is zero,
    whose first entry alone is nonzero (forced nonzero where the draw
    gave zero), whose entries are all equal, and unconstrained words,
    against a textbook rank: digit words (half their digits 0, 1 or
    p - 1) for p at the top of each digit dtype, packed words of m bits
    in each packed dtype."""
    rng = np.random.default_rng(m)

    def digit_draw(shape):
        edge = rng.choice([0, 1, p - 1], size=shape)
        return np.where(rng.random(shape) < 0.5, edge, rng.integers(p, size=shape))

    for digits in (1, 2, 4):
        for n in (2, 3, digits + 2):
            cw = _first_column_cases(rng, n, 40,
                                     lambda shape: digit_draw(shape + (digits,)))
            cw[40:80, 0, 0] += np.all(cw[40:80, 0] == 0, axis=-1)
            got = _rank_rows_digits(
                cw.transpose(2, 1, 0).astype(np.min_scalar_type(p**2 - 1)), p)
            assert got.tolist() == [plain_rank_mod_p(w.tolist(), p) for w in cw]
            assert got[40:80].tolist() == [1] * 40
            assert got[80:120].tolist() == np.any(cw[80:120, 0], axis=-1).tolist()
    for n in (2, 3, m + 2):
        cw = _first_column_cases(
            rng, n, 100, lambda shape: rng.integers(0, 1 << m, size=shape))
        cw[100:200, 0] |= cw[100:200, 0] == 0
        got = _rank_rows_packed(cw.T.astype(_word_dtype(m)), m)
        assert got.tolist() == [plain_bit_rank(w.tolist()) for w in cw]
        assert got[100:200].tolist() == [1] * 100


def test_digit_rows_past_2_to_the_63():
    """F_(13^18) has order past 2^63, so the digit rows of its entries
    need exact (object) weights: int64 would wrap.  A k = 1 code whose
    entries include the element of all digits p - 1 has the scalar
    rank weight as its one projective weight."""
    ctx = FieldContext(13, 1, 18)
    assert ctx.order > 1 << 63
    full = ctx.order - 1
    rng = random.Random(13)
    for row in ([full], [full, full - 12], [full, 1, rng.randrange(ctx.order)],
                [full, ctx.mul(full, rng.randrange(1, ctx.order)), full // 13]):
        weight = rank_weight(ctx, row)
        assert projective_weights(ctx, [row]).tolist() == [weight]
        counts = projective_counts(ctx, [row])
        assert sum(counts) == ctx.order and counts[weight] == ctx.order - 1


#: per-point projective weights (sha256 of the uint8 array, in
#: projective_points order) and counts of seeded codes: packed for
#: q = 2, 4, 8, digits for p = 3, 5, 7, 13, 17 and for F_(9^3), F_(25^2)
PROJECTIVE_PINS = json.loads(
    (Path(__file__).parent / "data" / "projective_weights.json").read_text())


@pytest.mark.parametrize("pin", PROJECTIVE_PINS, ids=lambda pin: "F{}^{}k{}".format(
    pin["field"]["p"] ** pin["field"]["a"], pin["field"]["m"], len(pin["generator"])))
def test_projective_weights_pinned(pin):
    """The same per-point weights, in the same order, and the same
    counts for every chunk target and thread count."""
    ctx = FieldContext.from_descriptor(pin["field"])
    for target in (1, 1 << 3, 1 << 16):
        for threads in (1, 2):
            weights = projective_weights(
                ctx, pin["generator"], threads=threads, chunk_target=target)
            assert weights.dtype == np.uint8 and len(weights) == pin["points"]
            assert hashlib.sha256(weights.tobytes()).hexdigest() == pin["sha256"]
            assert projective_counts(ctx, pin["generator"], threads=threads,
                                     chunk_target=target) == pin["counts"]


def test_digit_kernel_prime_limit():
    """The largest prime below 2^16 runs on uint32 digits; a larger p
    is refused before an inverse table of p entries is built."""
    ctx = FieldContext(65521, 1, 1)
    assert projective_counts(ctx, [[5, 7]]) == [1, 65520, 0]
    assert projective_weights(ctx, [[5, 7]]).tolist() == [1]
    for call in (projective_counts, projective_weights):
        with pytest.raises(UnsupportedFieldError, match="p < 2"):
            call(FieldContext(65537, 1, 1), [[5, 7]])


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
    """A_i = (q^m - 1) P_i, counted per batch, against the full
    enumeration, for q in {2, 3, 4} and k in {1, 2, 3}, whatever the
    chunk size and threads."""
    ctx = FieldContext(p, a, m)
    c = _scrambled(ctx, typ, seed=len(typ))
    full = weight_counts(ctx, c.generator)
    ref = projective_weights(ctx, c.generator)
    for target in (1, 1 << 3, 1 << 16):
        for threads in (1, 2):
            counts = projective_counts(ctx, c.generator, threads=threads,
                                       chunk_target=target)
            weights = projective_weights(ctx, c.generator, threads=threads,
                                         chunk_target=target)
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
    weights = projective_weights(ctx, c.generator, chunk_target=1 << 3)
    pts = list(projective_points(ctx, c.k))
    assert len(pts) == len(weights)
    for x, w in zip(pts, weights):
        assert rank_weight(ctx, c.codeword(x)) == w
        assert line_dim(udual, x) == m - w
