#!/usr/bin/env python3
"""Subspace products and trace duality.

Shows the two structural facts the minimum-weight counts rest on: the
trace dual of a geometric progression is a scaled progression, and over
a prime-degree extension the product of subspaces obeys the linear
Cauchy-Davenport inequality, with critical pairs forced into scaled
progressions sharing one ratio.
"""

from rankdec import FieldContext
from rankdec.subspaces import (
    all_subspaces,
    geometric_subspace,
    geometric_witnesses,
    kernel_of_trace,
    product,
    scale,
    verify_dual_geometric,
    verify_dual_subfield,
)

ctx = FieldContext(2, 1, 6)
lam = ctx.find_element_of_degree(6, seed=0)

print("duals of geometric progressions <1, lam, ..., lam^(t-1)>:")
for t in (1, 2, 3, 5):
    holds, delta = verify_dual_geometric(ctx, lam, t)
    print(f"  t={t}: dual = delta^-1 * <1..lam^{6 - t - 1}> with "
          f"delta = {delta}: {holds}")
print()

mu = ctx.find_element_of_degree(3, seed=1)
print(f"for mu = {mu} of degree 3, the dual decomposes through the")
print("relative trace kernel:")
for t in (1, 2, 3):
    holds, c = verify_dual_subfield(ctx, mu, t)
    print(f"  t={t}: Ker(Tr_(q^6/q^3)) + c*<1..mu^{3 - t - 1}>, "
          f"c = {c}: {holds}")
z = kernel_of_trace(ctx, 3)
print(f"  the kernel itself: dimension {z.dim // 3} over F_(q^3), "
      f"{z.dim} over F_q")
print()

prime = FieldContext(2, 1, 5)
g = prime.find_element_of_degree(5, seed=0)
u1 = geometric_subspace(prime, g, 2)
u2 = geometric_subspace(prime, g, 3)
p = product(u1, u2)
print("prime extension m=5: dim(U1*U2) >= dim U1 + dim U2 - 1")
print(f"  progression pair dims (2,3): product dim {p.dim} "
      f"(equality {p.dim == 4})")

crit = 0
total = 0
subs = list(all_subspaces(prime, 2))
wits = {u: geometric_witnesses(u) for u in subs}
for i, a in enumerate(subs):
    for b in subs[i:]:
        total += 1
        if product(a, b).dim == 3:
            crit += 1
            assert set(wits[a]) & set(wits[b]), "critical pair without shared ratio"
print(f"  scanned {total} unordered pairs of planes: {crit} critical, "
      f"every one shares a progression ratio")
print()

c0 = 7
u = scale(c0, geometric_subspace(prime, g, 2))
found = geometric_witnesses(u)
some = sorted(found)[:3]
print(f"witness recovery for a scaled progression (c = {c0}):")
print(f"  {len(found)} (ratio, scalar) witnesses; e.g. "
      f"{[(l, found[l]) for l in some]}")
