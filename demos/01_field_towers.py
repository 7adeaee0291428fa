#!/usr/bin/env python3
"""Tour of the finite-field tower machinery.

Builds GF(2^6) over GF(2), walks the subfield lattice, and shows
traces, norms, minimal polynomials and degree censuses. Elements are
plain ints encoding base-p digit vectors, so everything prints small.
"""

from rankdec import FieldContext

ctx = FieldContext(2, 1, 6)
print(f"context: {ctx!r}, modulus coefficients {list(ctx.modulus)}")
print(f"order {ctx.order}, subfields F_(2^e) for e | 6")
print()

print("degree census over F_2 (how many elements generate each layer):")
for e in (1, 2, 3, 6):
    elems = ctx.elements_of_degree(e)
    print(f"  degree {e}: {len(elems)} elements, e.g. {elems[:4]}")
print()

lam = ctx.find_element_of_degree(6, seed=0)
f = ctx.minimal_polynomial(lam)
print(f"a generator: lambda = {lam}")
print(f"  minimal polynomial coefficients (low to high): {list(f)}")
print(f"  check f(lambda) = {ctx.poly_eval(f, lam)}")
print(f"  derivative at lambda: {ctx.derivative_at(f, lam)}")
print()

print("relative traces onto each subfield (first a few elements):")
for x in range(1, 5):
    row = {e: ctx.trace_rel(x, e) for e in (1, 2, 3)}
    print(f"  Tr(x={x}) -> {row}")
print()

print("trace transitivity: Tr_full(x) == Tr_mid->base(Tr_full->mid(x))")
ok = all(
    ctx.trace_rel(x, 1) == ctx.trace_rel(ctx.trace_rel(x, e), 1, top=e)
    for x in range(ctx.order) for e in (2, 3))
print(f"  holds for all {ctx.order} elements and both towers: {ok}")
print()

print("the trace form (x, y) -> Tr(xy) is nondegenerate:")
witness = {}
for x in range(1, 6):
    y = next(y for y in range(ctx.order) if ctx.trace_rel(ctx.mul(x, y), 1))
    witness[x] = y
print(f"  a dual witness for each of the first few x: {witness}")
