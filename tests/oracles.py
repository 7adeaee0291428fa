"""Independent derivations on the geometric side, for the tests only.

The library counts weights on the code side (rank weights of codewords,
projective weight scans).  These helpers derive the same numbers from
the system U of a code instead: w(xG) = n - dim(U n x_perp), and
dim(U' n <x>) = m - w(xG) in the dual system U'.  The exhaustive
search for subspaces with a hyperplane dual product lives here too: no
library path needs it.  So does the plain modulus search, every
candidate through the Rabin test, which the library shortcuts, and a
plain Gaussian rank mod p for the enumeration kernels, the
interaction exponents of the closed form from canonical subspaces, and
the blocks of a decomposition by an explicit change of coordinates.
"""

from rankdec.codes import support
from rankdec.gfpoly import is_irreducible, poly_from_int
from rankdec.linalg import field_inverse, field_kernel, field_vecmat
from rankdec.analysis import trailing_run_length
from rankdec.subspaces import all_subspaces, product, span, trace_dual
from rankdec.systems import System, flat_span


def hyperplane_weight(u, x):
    """n - dim(U n x_perp) = dim(U + x_perp) - dim(x_perp), x nonzero."""
    hyp = flat_span(u.ctx, u.k, field_kernel([list(x)], u.ctx))
    return u.row_space.sum(hyp).dim - hyp.dim


def line_dim(u, x):
    """dim(U n <x>_{F_{q^m}}) = dim U + dim <x> - dim(U + <x>)."""
    line = flat_span(u.ctx, u.k, [x])
    return u.dim + line.dim - u.row_space.sum(line).dim


def block_system(ctx, parts):
    """U_1 x ... x U_k, the F_q-subspaces U_i of F_{q^m} placed
    block-diagonally in F_{q^m}^k."""
    k = len(parts)
    return System(ctx, k, [[b if j == i else 0 for j in range(k)]
                           for i, part in enumerate(parts) for b in part.basis])


def hyperplane_product_spaces(ctx, dim: int):
    """The F_q-subspaces U of the given dimension with
    dim(U^dual * U) = m - 1 (exhaustive; small fields)."""
    for u in all_subspaces(ctx, dim):
        if product(trace_dual(u), u).dim == ctx.m - 1:
            yield u


def plain_smallest_irreducible(p: int, n: int) -> list[int]:
    """The first monic degree-n candidate, in integer order of its lower
    coefficients, that passes the Rabin test."""
    for v in range(p**n):
        f = poly_from_int(v, p)
        f += [0] * (n - len(f)) + [1]
        if is_irreducible(f, p):
            return f
    raise ValueError(f"no irreducible of degree {n} over F_{p}")


def plain_rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of a list of integer rows, by textbook Gaussian
    elimination on Python ints."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def plain_bit_rank(values) -> int:
    """Rank over F_2 of nonnegative ints read as bit vectors, by an XOR
    basis kept in a dict from top bit to basis vector."""
    basis = {}
    for v in values:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def canonical_interaction_exponents(code):
    """j_(i,h) = m - dim(U_i^dual * U_h) over the trailing equal blocks
    of a decomposed code, from canonical subspaces: span, trace_dual
    and product."""
    ctx, dec = code.ctx, code.decomposition
    k = dec.k
    ell = trailing_run_length(dec.type_vector)
    spans = {i: span(ctx, dec.blocks[i - 1]) for i in range(k - ell, k + 1)}
    return {(i, h): ctx.m - product(trace_dual(spans[i]), spans[h]).dim
            for i in range(k - ell, k) for h in range(i + 1, k + 1)}


def blocks_by_inverse(ctx, cwords):
    """(blocks, P) for codewords with independent supports, by a change
    of coordinates: P stacks the supports' RREF bases, P^-1 sends each
    support onto its own block, and c_i * P^-1 must vanish off block i."""
    supports = [support(ctx, c) for c in cwords]
    p_rows = [list(r) for s in supports for r in s.basis_rows()]
    p_inv = field_inverse(p_rows, ctx)
    blocks, start = [], 0
    for i, (c, s) in enumerate(zip(cwords, supports)):
        row = field_vecmat(list(c), p_inv, ctx)
        end = start + s.dim
        if any(row[:start]) or any(row[end:]):
            raise ValueError(f"codeword {i} is not supported on its own block "
                             "after the coordinate change")
        blocks.append(tuple(row[start:end]))
        start = end
    return blocks, p_rows
