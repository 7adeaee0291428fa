"""Dense polynomial arithmetic over a prime field F_p.

Polynomials are little-endian coefficient lists of plain ints reduced
mod p; the zero polynomial is the empty list.  This module only serves
context construction (modulus search, irreducibility certificates,
inverses in the quotient ring) and is never on a hot path.
"""

from __future__ import annotations


def trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_sub(f, g, p):
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return trim(out)


def poly_mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return trim(out)


def poly_divmod(f, g, p):
    """Quotient and remainder; g need not be monic, and trailing zero
    coefficients of either input are ignored."""
    g = trim(list(g))
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = trim(list(f))
    dg = len(g) - 1
    lead_inv = pow(g[-1], -1, p)
    quot = [0] * max(len(f) - dg, 0)
    while len(f) - 1 >= dg and f:
        shift = len(f) - 1 - dg
        c = (f[-1] * lead_inv) % p
        quot[shift] = c
        for j, b in enumerate(g):
            f[shift + j] = (f[shift + j] - c * b) % p
        trim(f)
    return trim(quot), f


def poly_mod(f, g, p):
    return poly_divmod(f, g, p)[1]


def poly_gcd(f, g, p):
    while g:
        f, g = g, poly_mod(f, g, p)
    if f:
        # normalise to monic so gcd is canonical
        inv = pow(f[-1], -1, p)
        f = [(c * inv) % p for c in f]
    return f


def poly_pow_mod(f, e, mod, p):
    result = [1]
    base = poly_mod(f, mod, p)
    while e:
        if e & 1:
            result = poly_mod(poly_mul(result, base, p), mod, p)
        base = poly_mod(poly_mul(base, base, p), mod, p)
        e >>= 1
    return result


def poly_inv_mod(f, mod, p):
    """Inverse of f in F_p[x]/(mod) via extended Euclid."""
    r0, r1 = list(mod), poly_mod(f, mod, p)
    if not r1:
        raise ZeroDivisionError("inversion of zero")
    t0, t1 = [], [1]
    while r1:
        q, r = poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        t0, t1 = t1, poly_sub(t0, poly_mul(q, t1, p), p)
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible (modulus not irreducible?)")
    c = pow(r0[0], -1, p)
    return [(x * c) % p for x in t0]


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(f, p) -> bool:
    """Rabin test: f of degree n is irreducible over F_p iff
    x^(p^n) = x mod f and gcd(x^(p^(n/r)) - x, f) = 1 for each prime r | n."""
    n = len(f) - 1
    if n <= 0:
        return False
    xr = poly_mod([0, 1], f, p)
    # h = x^(p^k) mod f, advanced one p-power at a time
    h = xr
    powers = {}
    for k in range(1, n + 1):
        h = poly_pow_mod(h, p, f, p)
        powers[k] = h
    if poly_sub(powers[n], xr, p):
        return False
    for r in prime_factors(n):
        g = poly_gcd(poly_sub(powers[n // r], xr, p), f, p)
        if len(g) != 1:
            return False
    return True


def poly_from_int(v: int, p: int) -> list[int]:
    out = []
    while v:
        out.append(v % p)
        v //= p
    return out


def poly_to_int(f, p: int) -> int:
    v = 0
    for c in reversed(f):
        v = v * p + c
    return v


def smallest_irreducible(p: int, n: int) -> list[int]:
    """Monic irreducible of degree n over F_p minimising the integer
    encoding of its lower coefficients (deterministic field model)."""
    if n == 1:
        return [0, 1]  # x itself
    for v in range(p**n):
        f = poly_from_int(v, p)
        f += [0] * (n - len(f)) + [1]
        if is_irreducible(f, p):
            return f
    raise RuntimeError(f"no irreducible of degree {n} over F_{p}")  # unreachable
