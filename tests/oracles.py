"""Independent derivations on the geometric side, for the tests only.

The library counts weights on the code side (rank weights of codewords,
projective weight scans).  These helpers derive the same numbers from
the system U of a code instead: w(xG) = n - dim(U n x_perp), and
dim(U' n <x>) = m - w(xG) in the dual system U'.  The exhaustive
search for subspaces with a hyperplane dual product lives here too: no
library path needs it.  So does the plain modulus search, every
candidate through the Rabin test, which the library shortcuts.
"""

from rankdec.gfpoly import is_irreducible, poly_from_int
from rankdec.linalg import field_kernel
from rankdec.subspaces import all_subspaces, product, trace_dual
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
