"""RowSpace over F_q on both representations: packed bits for q = 2 and
context ints reduced by field_rref for q > 2 (including an F_4 tower,
where F_q elements are not the digits 0..q-1)."""

import random

import pytest

from rankdec import FieldContext
from rankdec.linalg import (
    RowSpace,
    field_inverse,
    field_kernel,
    field_matmul,
    field_rank,
    field_rref,
)

TOWERS = [(2, 1, 4), (3, 1, 3), (2, 2, 3)]  # q = 2, 3, 4


@pytest.fixture(scope="module", params=TOWERS, ids=lambda t: f"q{t[0]**t[1]}m{t[2]}")
def ctx(request):
    return FieldContext(*request.param)


def _random_rows(ctx, rng, count, width):
    elems = ctx.fq_elements()
    return [[rng.choice(elems) for _ in range(width)] for _ in range(count)]


def _dot(ctx, u, v):
    acc = 0
    for x, y in zip(u, v):
        acc = ctx.add(acc, ctx.mul(x, y))
    return acc


def _combinations(ctx, rng, rows, count):
    """count random F_q-combinations of rows, plus the rows themselves
    scaled by nonzero F_q elements, shuffled."""
    elems = ctx.fq_elements()
    width = len(rows[0])
    out = []
    for _ in range(count):
        acc = [0] * width
        for r in rows:
            c = rng.choice(elems)
            acc = [ctx.add(a, ctx.mul(c, x)) for a, x in zip(acc, r)]
        out.append(acc)
    for r in rows:
        c = rng.choice(elems[1:])
        out.append([ctx.mul(c, x) for x in r])
    rng.shuffle(out)
    return out


def test_kernel_orthogonal_with_complementary_dimension(ctx):
    rng = random.Random(31)
    for _ in range(20):
        width = rng.randrange(1, 7)
        rows = _random_rows(ctx, rng, rng.randrange(0, width + 2), width)
        space = RowSpace(ctx, width, rows)
        # a zero row stands for no constraints, as in trace_orthogonal
        kern = field_kernel(space.basis_rows() or [[0] * width], ctx)
        assert len(kern) == width - space.dim
        assert all(_dot(ctx, b, v) == 0 for b in space.basis_rows() for v in kern)
        assert field_rank(kern, ctx) == len(kern)


def test_generating_sets_give_equal_spaces(ctx):
    rng = random.Random(32)
    for _ in range(20):
        width = rng.randrange(1, 7)
        rows = _random_rows(ctx, rng, rng.randrange(1, width + 1), width)
        a = RowSpace(ctx, width, rows)
        b = RowSpace(ctx, width, _combinations(ctx, rng, rows, 3))
        assert a == b
        assert hash(a) == hash(b)
        assert a.dim == field_rank(rows, ctx)


def test_sum_contains_both_summands(ctx):
    rng = random.Random(33)
    for _ in range(20):
        width = rng.randrange(1, 7)
        a = RowSpace(ctx, width, _random_rows(ctx, rng, rng.randrange(0, 3), width))
        b = RowSpace(ctx, width, _random_rows(ctx, rng, rng.randrange(0, 3), width))
        s = a.sum(b)
        assert s.contains_space(a) and s.contains_space(b)
        assert all(s.contains(r) for r in a.basis_rows() + b.basis_rows())
        assert s.dim <= a.dim + b.dim
        assert s == b.sum(a)


def test_sum_rejects_mismatched_width(ctx):
    with pytest.raises(ValueError):
        RowSpace(ctx, 3, []).sum(RowSpace(ctx, 4, []))


class _CountingContext(FieldContext):
    """A context that counts its per-element add/sub/mul calls."""

    def __init__(self, *args):
        self.calls = 0
        super().__init__(*args)

    def add(self, x, y):
        self.calls += 1
        return super().add(x, y)

    def sub(self, x, y):
        self.calls += 1
        return super().sub(x, y)

    def mul(self, x, y):
        self.calls += 1
        return super().mul(x, y)


@pytest.mark.parametrize("field", [(2, 1, 7), (3, 1, 4), (2, 2, 3)])
def test_tabled_elimination_has_no_element_calls(field):
    """On a tabled field the row operations read the exp/log (and Zech)
    lists directly: no add/sub/mul call per entry."""
    ctx = _CountingContext(*field)
    rng = random.Random(3)
    mat = [[rng.randrange(ctx.order) for _ in range(9)] for _ in range(6)]
    ctx.calls = 0
    rref, pivots = field_rref(mat, ctx)
    assert ctx.calls == 0
    assert len(pivots) == 6
    assert field_matmul(mat, [[int(i == j) for j in range(9)] for i in range(9)],
                        ctx) == mat
    assert ctx.calls == 0


def test_field_inverse_inverts_and_refuses_singular(ctx):
    """A * field_inverse(A) is the identity for invertible F_q-matrices,
    and a singular matrix is refused, on every tower."""
    rng = random.Random(11)
    for n in (1, 3, 6):
        while True:
            mat = _random_rows(ctx, rng, n, n)
            if field_rank(mat, ctx) == n:
                break
        assert field_matmul(mat, field_inverse(mat, ctx), ctx) == \
            [[int(i == j) for j in range(n)] for i in range(n)]
    singular = _random_rows(ctx, rng, 3, 4)
    singular.append(list(singular[0]))
    with pytest.raises(ValueError, match="singular"):
        field_inverse(singular, ctx)
