"""The exp/log/Zech table layer against table-free derivations.

Every operation a tabled context answers from its lists is recomputed
here from the definitions: digit-wise addition mod p, schoolbook
products reduced by the modulus, Frobenius fixed points, and a
Gaussian elimination written out with those operations.
"""

import random

import numpy as np
import pytest

from rankdec import FieldContext
from rankdec.codes import random_gl, random_gl_ext, rank_weight, support
from rankdec.fields import divisors
from rankdec.linalg import field_inverse, field_rref

#: (p, a, m): F_2^4, F_3^3, F_5^2, F_7^2, F_(4^3) and F_(9^2)
TABLED = [(2, 1, 4), (3, 1, 3), (5, 1, 2), (7, 1, 2), (2, 2, 3), (3, 2, 2)]


def digits(ctx, x):
    out = []
    for _ in range(ctx.n):
        x, d = divmod(x, ctx.p)
        out.append(d)
    return out


def from_digits(ctx, ds):
    return sum(d * ctx.p**j for j, d in enumerate(ds))


def ref_add(ctx, x, y):
    return from_digits(ctx, [(a + b) % ctx.p
                             for a, b in zip(digits(ctx, x), digits(ctx, y))])


def ref_neg(ctx, x):
    return from_digits(ctx, [-a % ctx.p for a in digits(ctx, x)])


def ref_mul(ctx, x, y):
    """Convolve the digit vectors and reduce by the modulus."""
    p, n = ctx.p, ctx.n
    prod = [0] * (2 * n)
    for i, a in enumerate(digits(ctx, x)):
        for j, b in enumerate(digits(ctx, y)):
            prod[i + j] = (prod[i + j] + a * b) % p
    for i in range(2 * n - 1, n - 1, -1):
        c = prod[i]
        if c:
            for j, mj in enumerate(ctx.modulus):
                prod[i - n + j] = (prod[i - n + j] - c * mj) % p
    return from_digits(ctx, prod[:n])


def ref_pow(ctx, x, e):
    r = 1
    while e:
        if e & 1:
            r = ref_mul(ctx, r, x)
        x = ref_mul(ctx, x, x)
        e >>= 1
    return r


def ref_inv(ctx, x):
    return ref_pow(ctx, x, ctx.order - 2)


def ref_rref(ctx, rows):
    """Gauss-Jordan with the reference operations."""
    a = [list(r) for r in rows]
    pivots, r = [], 0
    for c in range(len(a[0]) if a else 0):
        sel = next((i for i in range(r, len(a)) if a[i][c]), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        s = ref_inv(ctx, a[r][c])
        a[r] = [ref_mul(ctx, s, v) for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = ref_neg(ctx, a[i][c])
                a[i] = [ref_add(ctx, v, ref_mul(ctx, f, w))
                        for v, w in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a[:r], pivots


@pytest.fixture(scope="module", params=TABLED, ids=lambda t: "F_%d^%d" % (t[0]**t[1], t[2]))
def ctx(request):
    ctx = FieldContext(*request.param)
    assert ctx._exp is not None
    return ctx


def test_add_neg_sub_digitwise_on_all_pairs(ctx):
    for x in range(ctx.order):
        assert ctx.neg(x) == ref_neg(ctx, x)
        for y in range(ctx.order):
            s = ref_add(ctx, x, y)
            assert ctx.add(x, y) == s
            assert ctx.sub(s, y) == x


def test_exp_list_is_powers_of_the_generator(ctx):
    g = ctx.primitive_element
    v = 1
    for i in range(ctx.order - 1):
        assert ctx._exp[i] == v
        assert ctx._log[v] == i
        v = ref_mul(ctx, v, g)
    assert v == 1


def test_row_operations(ctx):
    rng = random.Random(ctx.order)
    for _ in range(50):
        v = [rng.randrange(ctx.order) for _ in range(6)]
        w = [rng.choice([0, rng.randrange(ctx.order)]) for _ in range(6)]
        f = rng.randrange(ctx.order)
        assert ctx.scale_row(f, w) == [ref_mul(ctx, f, y) for y in w]
        assert ctx.add_scaled_row(v, f, w) == [
            ref_add(ctx, x, ref_mul(ctx, f, y)) for x, y in zip(v, w)]


@pytest.mark.parametrize("p,a,m", TABLED + [(2, 1, 17), (3, 1, 11), (257, 1, 2)])
def test_multiples_are_the_scalar_products(p, a, m):
    """FieldContext.multiples gathers from the exp/log lists on a tabled
    field and doubles over x^s * row on F_2^17, F_3^11 and F_257^2: both
    give c * v for every c below each power of p up to the order (or up
    to 243 on the untabled fields) and every v, zero included."""
    field = FieldContext(p, a, m)
    rng = random.Random(p * m)
    row = [0, 1] + [rng.randrange(field.order) for _ in range(3)]
    for count in [p**s for s in range(field.n + 1) if p**s <= max(243, p)]:
        if count > field.order:
            break
        got = field.multiples(row, count)
        assert got.tolist() == [[ref_mul(field, c, v) for c in range(count)]
                                for v in row]


@pytest.mark.parametrize("p,a,m", TABLED + [(3, 1, 11), (257, 1, 2), (13, 1, 18)])
def test_digit_planes_are_the_digits(p, a, m):
    """FieldContext.digit_planes puts digit s of every value on plane s,
    in a dtype that holds p^2 - 1: from the read-only digit table of a
    tabled field, by floor division on F_3^11, F_257^2 and F_(13^18)
    (past 2^63).  multiples with planes gives the planes of the ints it
    gives without, on the tabled gather and the untabled doubling."""
    field = FieldContext(p, a, m)
    rng = random.Random(p * m)
    values = [[0, 1, field.order - 1] + [rng.randrange(field.order) for _ in range(3)]
              for _ in range(2)]
    got = field.digit_planes(values)
    assert got.shape == (field.n, 2, 6)
    assert np.iinfo(got.dtype).max >= p**2 - 1
    assert [[[got[s, i, j] for s in range(field.n)] for j in range(6)] for i in range(2)] \
        == [[list(field.digits(v)) for v in row] for row in values]
    if field.order <= 1 << 16:
        table = field._caches[("digitplanes",)]
        assert not table.flags.writeable and table.shape == (field.n, field.order)
        for count in (1, p, min(field.order, p**3)):
            ints = field.multiples(values[0], count)
            assert np.array_equal(field.multiples(values[0], count, planes=True),
                                  field.digit_planes(ints))
    elif field.order < 1 << 63:
        ints = field.multiples(values[0], p**2)
        assert np.array_equal(field.multiples(values[0], p**2, planes=True),
                              field.digit_planes(ints))


@pytest.mark.parametrize("p,a,m", TABLED + [(2, 1, 6), (2, 2, 4)])
def test_elements_of_degree_is_the_frobenius_definition(p, a, m):
    ctx = FieldContext(p, a, m)
    fixed = {e: {x for x in range(ctx.order) if ref_pow(ctx, x, ctx.q**e) == x}
             for e in divisors(m)}
    for e in divisors(m):
        proper = set().union(*(fixed[d] for d in divisors(e)[:-1]))
        expected = sorted(fixed[e] - proper)
        assert ctx.elements_of_degree(e) == expected
        assert all(ctx.degree_over_q(x) == e for x in expected)
        assert all(ctx.in_subfield(x, e) == (x in fixed[e])
                   for x in range(ctx.order))


def test_rref_and_inverse_against_reference(ctx):
    rng = random.Random(ctx.order + 1)
    for rows, cols in [(3, 5), (4, 4), (5, 3), (6, 6)]:
        for _ in range(4):
            # a few rows repeated, so that ranks fall short
            mat = [[rng.randrange(ctx.order) for _ in range(cols)] for _ in range(rows)]
            mat[-1] = list(mat[0])
            assert field_rref(mat, ctx) == ref_rref(ctx, mat)
    for n in (2, 3, 4):
        while True:
            mat = [[rng.randrange(ctx.order) for _ in range(n)] for _ in range(n)]
            if len(ref_rref(ctx, mat)[1]) == n:
                break
        inv = field_inverse(mat, ctx)
        aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
        assert inv == [row[n:] for row in ref_rref(ctx, aug)[0]]


def test_subfield_rows_stay_in_the_subfield():
    """An F_q-matrix reduced over F_(9^2) has its RREF in F_q."""
    ctx = FieldContext(3, 2, 2)
    fq = ctx.fq_elements()
    rng = random.Random(5)
    mat = [[rng.choice(fq) for _ in range(5)] for _ in range(4)]
    rref, _ = field_rref(mat, ctx)
    assert rref == ref_rref(ctx, mat)[0]
    assert all(v in fq for row in rref for v in row)


#: random_gl(ctx, n, seed) and random_gl_ext(ctx, k, seed) as drawn by
#: the digit-loop field layer, before the tables served every operation
SEEDED_GL = [
    ((2, 1, 4), 4, 0, [[1, 0, 1, 1], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1]]),
    ((2, 1, 4), 5, 3, [[0, 0, 1, 1, 0], [0, 1, 1, 0, 0], [1, 1, 1, 0, 0],
                       [0, 1, 0, 0, 0], [0, 1, 0, 1, 1]]),
    ((3, 1, 3), 3, 1, [[0, 2, 0], [1, 0, 1], [1, 1, 2]]),
    ((2, 2, 3), 3, 2, [[1, 59, 59], [58, 59, 58], [0, 0, 58]]),
    ((3, 2, 2), 4, 5, [[43, 44, 77, 0], [76, 42, 0, 2], [1, 44, 76, 42],
                       [75, 77, 1, 42]]),
    ((2, 1, 17), 3, 4, [[1, 1, 0], [0, 1, 1], [0, 0, 1]]),
]
SEEDED_GL_EXT = [
    ((2, 1, 4), 2, 0, [[12, 13], [1, 8]]),
    ((3, 1, 3), 3, 1, [[4, 18, 25], [24, 2, 8], [3, 15, 24]]),
    ((2, 2, 3), 2, 2, [[7, 11], [10, 46]]),
    ((7, 1, 2), 3, 9, [[29, 39, 23], [17, 8, 11], [43, 0, 21]]),
    ((2, 1, 17), 2, 4, [[61878, 79507], [27044, 103824]]),
]


@pytest.mark.parametrize("field,n,seed,rows", SEEDED_GL)
def test_random_gl_draws_unchanged(field, n, seed, rows):
    assert [list(r) for r in random_gl(FieldContext(*field), n, seed=seed).rows] == rows


@pytest.mark.parametrize("field,k,seed,rows", SEEDED_GL_EXT)
def test_random_gl_ext_draws_unchanged(field, k, seed, rows):
    assert [list(r) for r in random_gl_ext(FieldContext(*field), k, seed=seed)] == rows


#: F_3^4, F_(4^3), F_(9^2), F_(8^2) and F_(27^2) (a = 3), the
#: table-free F_2^17, F_257^2 (digits above 255) and F_(5^28), F_(25^14)
#: (orders above 2^63)
COORD_FIELDS = [(3, 1, 4), (2, 2, 3), (3, 2, 2), (2, 3, 2), (3, 3, 2),
                (2, 1, 17), (257, 1, 2), (5, 1, 28), (5, 2, 14)]


@pytest.mark.parametrize("field", COORD_FIELDS, ids=lambda f: "p%da%dm%d" % f)
def test_subfield_coords_all_are_the_power_basis_coordinates(field):
    """Each row of fq_coords_all lies in F_q and recombines, with the
    powers of the modulus root and digit-wise addition, to its value;
    coordinates in a basis are unique, so these are they."""
    ctx = FieldContext(*field)
    rng = random.Random(9)
    vals = [ctx.order - 1, ctx.p - 1] + [rng.randrange(ctx.order) for _ in range(4)]
    powers = ctx.fq_power_basis()
    rows = ctx.fq_coords_all(vals).tolist()
    for z, row in zip(vals, rows):
        assert len(row) == ctx.m
        assert all(ctx.in_subfield(c, 1) for c in row)
        acc = 0
        for c, xi in zip(row, powers):
            acc = ref_add(ctx, acc, ctx.mul(c, xi))
        assert acc == z
        assert ctx.fq_coords(z) == tuple(row)


@pytest.mark.parametrize("field,v,dim", [
    ((257, 1, 2), [256, 256 * 257 + 256, 1], 2),  # digits 256 stay 256
    ((5, 1, 28), [5**28 - 1, (5**28 - 1) // 2, 5**27, 1], 3),
], ids=["F257^2", "F5^28"])
def test_support_dimension_is_rank_weight_on_wide_fields(field, v, dim):
    """The column span of the F_q-expansion and the F_q-span of the
    entries have the same dimension where digits pass 255 and where the
    order passes 2^63."""
    ctx = FieldContext(*field)
    assert support(ctx, v).dim == rank_weight(ctx, v) == dim
    assert support(ctx, v[:1]).dim == 1
