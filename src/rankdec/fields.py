"""Exact arithmetic in a finite-field tower F_p < F_q < F_{q^e} < F_{q^m}.

A :class:`FieldContext` fixes one concrete model of F_{q^m} with q = p^a:
the quotient F_p[x]/(modulus) for a monic irreducible modulus of degree
a*m.  Elements are plain Python ints in [0, p^(a*m)): the integer
encodes the little-endian base-p digit vector of the element's
coordinates in the power basis of the modulus root.  For p = 2 the int
therefore *is* the coefficient bit mask.

Fields of order at most 2^16 are *tabled*: the context keeps the lists
exp[i] = g^i and log[exp[i]] = i of the primitive element g, and for
odd p the Zech list zech[d] = log(1 + g^d), so a product, an inverse,
a sum (x + y = x * (1 + y/x)) and a negation (-1 = g^((q^m - 1)/2)) are
one or two list lookups, and subfield membership is divisibility of
the log.  exp has exactly q^m - 1 entries, so exp[i - (q^m - 1)] is
g^i for every 0 <= i < 2(q^m - 1) (a negative index counts from the
end): sums of two logs need no reduction, and numpy copies give
:meth:`multiples`.  Larger fields compute digit-wise and by polynomials.

Every intermediate field F_{q^e} (e | m) lives inside the same model as
the fixed set of the q^e-power Frobenius, so a single context supports
all relative traces, norms and subfield bases used elsewhere in the
package.

The default modulus is the monic irreducible of degree a*m over F_p
whose non-leading coefficient vector has the smallest integer encoding;
this makes contexts reproducible across runs without any stored tables.
A searched modulus is irreducible by construction; a given one is
checked.

Contexts are immutable after construction (internal caches are
append-only) and all element operations are pure functions, so a
context may be shared freely across threads.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from . import gfpoly
from .errors import ContextMismatchError, FalsificationAlarm
from .linalg import field_inverse, field_kernel

#: fields up to this order get exp/log (and, for odd p, Zech) lists
_TABLE_LIMIT = 1 << 16

#: hard cap on the prime-field degree a*m of a context
_DEGREE_CAP = 32

#: the (required, optional) keys of a field descriptor
DESCRIPTOR_KEYS = (("p", "m"), ("a", "modulus"))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def as_integer(x, name: str) -> int:
    """x as a Python int, if it is an integer (Python or numpy, not a
    bool); read from a file, 2.9 or "5" is refused, not truncated."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {x!r}")
    return int(x)


def check_keys(d, path: str, required, optional=()):
    """Refuse a file's JSON object d at ``path`` (a.b[0].c) that lacks a
    required key (KeyError) or has a key outside required + optional."""
    if not isinstance(d, dict):
        raise TypeError(f"{path or 'the file'} must be a JSON object, not {type(d).__name__}")
    prefix = f"{path}." if path else ""
    for key in required:
        if key not in d:
            raise KeyError(prefix + key)
    allowed = (*required, *optional)
    for key in d:
        if key not in allowed:
            raise ValueError(f"{prefix}{key}: unknown key (allowed: {', '.join(allowed)})")


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


class FieldContext:
    """One fixed model of the tower F_p < F_{p^a} = F_q < F_{q^m}."""

    def __init__(self, p: int, a: int, m: int, modulus: Sequence[int] | None = None):
        p, a, m = as_integer(p, "p"), as_integer(a, "a"), as_integer(m, "m")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if a < 1 or m < 1:
            raise ValueError("a and m must be positive")
        if a * m > _DEGREE_CAP:
            raise ValueError(f"a*m = {a*m} exceeds the supported cap {_DEGREE_CAP}")
        self.p = p
        self.a = a
        self.m = m
        self.q = p**a
        self.n = a * m  # degree over the prime field
        self.order = p**self.n

        if modulus is None:
            modulus = gfpoly.smallest_irreducible(p, self.n)
        else:
            modulus = [as_integer(c, "modulus entry") % p for c in modulus]
            if len(modulus) != self.n + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {self.n}")
            if not gfpoly.is_irreducible(modulus, p):
                raise ValueError("modulus is reducible over F_p")
        self.modulus = tuple(modulus)
        self._mod_int = gfpoly.poly_to_int(list(modulus), p) if p == 2 else None

        self._exp = None
        self._log = None
        self._zech = None
        self._caches: dict = {}
        if self.order <= _TABLE_LIMIT:
            self._build_tables()

        # the modulus root generates the whole tower over F_p, hence has
        # degree exactly m over F_q: its powers are the F_q-basis
        self.x = p if self.n > 1 else 0  # the class of x; for n = 1, F_p itself

    # ------------------------------------------------------------------
    # encoding helpers
    # ------------------------------------------------------------------

    def digits(self, x: int) -> tuple[int, ...]:
        """Little-endian base-p digit vector of length a*m."""
        p = self.p
        out = []
        for _ in range(self.n):
            out.append(x % p)
            x //= p
        return tuple(out)

    def from_digits(self, ds: Iterable[int]) -> int:
        v = 0
        for c in reversed(list(ds)):
            v = v * self.p + (c % self.p)
        return v

    def check_element(self, x: int) -> int:
        """x as a Python int, if it encodes an element: an integer
        (Python or numpy, not a bool) in [0, q^m)."""
        if type(x) is not int:
            if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
                raise ValueError(
                    f"{x!r} is not an element encoding: an integer in "
                    f"[0, {self.order}) is required")
            x = int(x)
        if not 0 <= x < self.order:
            raise ValueError(f"{x} is not an element encoding in [0, {self.order})")
        return x

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def add(self, x: int, y: int) -> int:
        """x + y: XOR for p = 2; for odd p one Zech-table lookup on a
        tabled field, x + y = x * (1 + y/x), and a base-p digit loop
        otherwise."""
        if self.p == 2:
            return x ^ y
        zech = self._zech
        if zech is not None:
            if not x:
                return y
            if not y:
                return x
            log = self._log
            lx = log[x]
            z = zech[log[y] - lx]
            return self._exp[lx + z - len(zech)] if z >= 0 else 0
        p = self.p
        out = 0
        mult = 1
        while x or y:
            out += ((x % p + y % p) % p) * mult
            x //= p
            y //= p
            mult *= p
        return out

    def neg(self, x: int) -> int:
        """-x: x itself for p = 2; for odd p, -1 = g^((q^m - 1)/2) on a
        tabled field, so -x is one exp lookup, and a digit loop
        otherwise."""
        if self.p == 2:
            return x
        if self._zech is not None:
            if not x:
                return 0
            n1 = len(self._exp)
            return self._exp[self._log[x] - n1 // 2]
        p = self.p
        out = 0
        mult = 1
        while x:
            out += (-x % p) * mult
            x //= p
            mult *= p
        return out

    def sub(self, x: int, y: int) -> int:
        if self.p == 2:
            return x ^ y
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        """x * y: one exp/log lookup on a tabled field; otherwise shift
        and XOR for p = 2, digit-wise scaling for odd p when a factor is
        an F_p constant (an int below p), and polynomial arithmetic."""
        exp = self._exp
        if exp is not None:
            if x == 0 or y == 0:
                return 0
            return exp[self._log[x] + self._log[y] - len(exp)]
        p = self.p
        if p == 2:
            return self._mul2(x, y)
        if y < p:
            x, y = y, x
        if x < p:
            return self._scale_digits(x, y)
        return self._mul_generic(x, y)

    def _scale_digits(self, c: int, y: int) -> int:
        """c * y for an F_p constant 0 <= c < p: each base-p digit of y
        times c mod p."""
        if c <= 1:
            return y if c else 0
        p = self.p
        out = 0
        mult = 1
        while y:
            y, d = divmod(y, p)
            out += c * d % p * mult
            mult *= p
        return out

    def scale_row(self, c: int, row: Sequence[int]) -> list[int]:
        """[c * v for v in row], one comprehension on a tabled field."""
        exp = self._exp
        if exp is None:
            return [self.mul(c, v) for v in row]
        if not c:
            return [0] * len(row)
        log = self._log
        lc = log[c] - len(exp)
        return [exp[lc + log[v]] if v else 0 for v in row]

    def add_scaled_row(self, v: Sequence[int], f: int,
                       w: Sequence[int]) -> list[int]:
        """The row v + f * w: the one row update of eliminations and
        products, with no per-entry method call on a tabled field."""
        exp = self._exp
        if exp is None:
            return [self.add(x, self.mul(f, y)) for x, y in zip(v, w)]
        if not f:
            return list(v)
        log = self._log
        n1 = len(exp)
        lf = log[f] - n1
        if self.p == 2:
            return [x ^ exp[lf + log[y]] if y else x for x, y in zip(v, w)]
        zech = self._zech
        out = []
        for x, y in zip(v, w):
            if not y:
                out.append(x)
                continue
            t = lf + log[y]  # f*y = g^t, -n1 <= t < n1 - 1
            if not x:
                out.append(exp[t])
                continue
            # x + g^t = g^t * (1 + x / g^t)
            if t < 0:
                t += n1
            z = zech[log[x] - t]
            out.append(exp[t + z - n1] if z >= 0 else 0)
        return out

    def multiples(self, row: Sequence[int], count: int, planes: bool = False) -> np.ndarray:
        """c * v for c < count (in integer order, on a new last axis) for
        every v in row, as ints or, with planes, as their digit planes
        (:meth:`digit_planes`, in a dtype that holds 2p - 2): one gather at
        sums of int32 logs on a tabled field, else doubling over the rows
        x^s * row in narrow digit planes."""
        if self._exp is not None:
            log = self._log_np
            out = self._exp_np.take(log[:count] + log.take(row)[:, None])
            return self.digit_planes(out) if planes else out
        p, dtype = self.p, np.min_scalar_type(2 * self.p)
        digits = np.zeros((self.n, len(row), 1), dtype=dtype)
        while digits.shape[-1] < count:  # digits.shape[-1] = p^s is the element x^s
            ys = self.digit_planes([self.scale_row(c * digits.shape[-1], row)
                                    for c in range(1, p)]).astype(dtype).swapaxes(0, 1)
            digits = np.concatenate([digits] + [(digits + y[..., None]) % p for y in ys], -1)
        return digits if planes else sum(w * d for w, d in zip(self._digit_weights(), digits))

    def _mul2(self, x: int, y: int) -> int:
        mod_int, n = self._mod_int, self.n
        r = 0
        while y:
            if y & 1:
                r ^= x
            y >>= 1
            x <<= 1
            if (x >> n) & 1:
                x ^= mod_int
        return r

    def _mul_generic(self, x: int, y: int) -> int:
        p = self.p
        f = gfpoly.poly_mul(list(self.digits(x)), list(self.digits(y)), p)
        f = gfpoly.poly_mod(f, list(self.modulus), p)
        return self.from_digits(f)

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inversion of zero")
        if self._exp is not None:
            return self._exp[-self._log[x]]
        f = gfpoly.poly_inv_mod(list(self.digits(x)), list(self.modulus), self.p)
        return self.from_digits(f)

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow(self, x: int, e: int) -> int:
        if x == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ZeroDivisionError("inversion of zero")
        n1 = self.order - 1
        e %= n1
        if self._exp is not None:
            return self._exp[(self._log[x] * e) % n1]
        r = 1
        b = x
        while e:
            if e & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            e >>= 1
        return r

    def _build_tables(self):
        """The exp/log lists of the primitive element g, exp[i] = g^i
        for 0 <= i < q^m - 1 and log[exp[i]] = i (log[0] = 0 is never
        read as a logarithm), and for odd p the Zech list
        zech[d] = log(1 + g^d), or -1 where 1 + g^d = 0.

        exp follows the permutation x -> g*x (:meth:`multiples` of g)
        from 1.  1 + y adds 1 to digit 0 of y, which gives the Zech list
        from exp.
        """
        # runs before the tables exist, so multiples, mul and pow take
        # the table-free path
        p, order, n1 = self.p, self.order, self.order - 1
        step = self.multiples([self.primitive_element], order)[0].tolist()
        exp = [0] * n1
        log = [0] * order
        v = 1
        for i in range(n1):
            exp[i] = v
            log[v] = i
            v = step[v]
        self._exp = exp
        self._log = log
        # for multiples: exp twice over, then zeros, and log 0 = 2(q^m - 1),
        # so that a sum of two logs with a zero factor reads a zero
        self._exp_np = np.zeros(4 * n1 + 1, dtype=np.min_scalar_type(n1))
        self._exp_np[:2 * n1] = exp * 2
        self._log_np = np.array([2 * n1] + log[1:], dtype=np.int32)
        if p != 2:
            # 1 + y: digit 0 of y goes up by one, p - 1 wraps to 0
            self._zech = [log[y + 1] if y % p != p - 1
                          else log[y + 1 - p] if y + 1 != p else -1
                          for y in exp]

    # ------------------------------------------------------------------
    # Frobenius, trace, norm, degrees
    # ------------------------------------------------------------------

    def frobenius(self, x: int, e: int = 1) -> int:
        """x -> x^(q^e)."""
        return self.pow(x, self.q**e)

    def _check_divisor(self, e: int) -> int:
        if e < 1 or self.m % e != 0:
            raise ValueError(f"e = {e} does not divide m = {self.m}")
        return e

    def trace_rel(self, x: int, e: int = 1, top: int | None = None) -> int:
        """Relative trace of F_{q^top} / F_{q^e} (default top = m): the sum
        of the q^e-power conjugates of x, which must lie in F_{q^top}."""
        return self._fold_conjugates(x, e, top, self.add)

    def norm_rel(self, x: int, e: int = 1, top: int | None = None) -> int:
        """Relative norm of F_{q^top} / F_{q^e} (default top = m): the
        product of the q^e-power conjugates of x in F_{q^top}."""
        return self._fold_conjugates(x, e, top, self.mul)

    def _fold_conjugates(self, x, e, top, op):
        self._check_divisor(e)
        if top is None:
            top = self.m
        elif top != self.m:
            self._check_divisor(top)
            if top % e != 0:
                raise ValueError(f"{e} does not divide {top}")
            if not self.in_subfield(x, top):
                raise ValueError("element outside the stated subfield")
        acc = x
        cur = x
        for _ in range(top // e - 1):
            cur = self.frobenius(cur, e)
            acc = op(acc, cur)
        return acc

    def _log_step(self, e: int) -> int:
        """(q^m - 1)/(q^e - 1): on a tabled field x is in F_{q^e} iff
        this divides log x (F_{q^e}^* is the subgroup of that index)."""
        return (self.order - 1) // (self.q**e - 1)

    def in_subfield(self, x: int, e: int) -> bool:
        self._check_divisor(e)
        if self._log is not None:
            return self._log[x] % self._log_step(e) == 0
        return self.frobenius(x, e) == x

    def degree_over_q(self, x: int) -> int:
        """Smallest e | m with x in F_{q^e}; 0 and F_q elements have degree 1."""
        for e in divisors(self.m):
            if self.in_subfield(x, e):
                return e
        raise FalsificationAlarm(f"{x} lies in no subfield, not even F_(q^{self.m})")

    def find_element_of_degree(self, e: int, seed: int = 0) -> int:
        """Deterministic-under-seed element with F_q(x) = F_{q^e}."""
        import random

        self._check_divisor(e)
        rng = random.Random(seed)
        while True:
            x = rng.randrange(self.order)
            if self.degree_over_q(x) == e:
                return x

    def elements_of_degree(self, e: int) -> list[int]:
        """All x with F_q(x) = F_{q^e}, ascending; on a tabled field
        read off the exp list: g^i lies in F_{q^e} and in no F_{q^d}
        for a proper divisor d of e."""
        self._check_divisor(e)
        if self._log is None:
            return [x for x in range(self.order) if self.degree_over_q(x) == e]
        # F_{q^d}^* is exp[::(q^m - 1)/(q^d - 1)]: mark F_{q^e}, then
        # clear its proper subfields
        keep = bytearray(self.order)
        for d in reversed(divisors(e)):
            flag = d == e
            for x in self._exp[::self._log_step(d)]:
                keep[x] = flag
        keep[0] = e == 1
        return list(compress(range(self.order), keep))

    # ------------------------------------------------------------------
    # minimal polynomials
    # ------------------------------------------------------------------

    def minimal_polynomial(self, x: int) -> tuple[int, ...]:
        """Monic minimal polynomial of x over F_q.

        Coefficients are returned little-endian as field elements (each
        lies in F_q inside this context).
        """
        d = self.degree_over_q(x)
        poly = [1]  # coefficient list over F_{q^m}, little-endian
        conj = x
        for _ in range(d):
            # multiply by (X - conj)
            nxt = [0] * (len(poly) + 1)
            for i, c in enumerate(poly):
                nxt[i + 1] = self.add(nxt[i + 1], c)
                nxt[i] = self.sub(nxt[i], self.mul(c, conj))
            poly = nxt
            conj = self.frobenius(conj, 1)
        if not all(self.in_subfield(c, 1) for c in poly):
            raise FalsificationAlarm(
                f"minimal polynomial of {x} has coefficients outside F_q")
        return tuple(poly)

    def poly_eval(self, coeffs: Sequence[int], z: int) -> int:
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, z), c)
        return acc

    def poly_derivative(self, coeffs: Sequence[int]) -> tuple[int, ...]:
        out = []
        for i in range(1, len(coeffs)):
            scalar = i % self.p  # i*c in characteristic p
            out.append(self.mul(coeffs[i], scalar))
        return tuple(out)

    def derivative_at(self, coeffs: Sequence[int], z: int) -> int:
        return self.poly_eval(self.poly_derivative(coeffs), z)

    # ------------------------------------------------------------------
    # subfield bases and coordinates
    # ------------------------------------------------------------------

    def fp_basis_of_subfield(self, e: int) -> tuple[int, ...]:
        """An F_p-basis of F_{q^e} inside this model (cached)."""
        self._check_divisor(e)
        key = ("fpbasis", e)
        if key not in self._caches:
            # kernel of (Frob_{q^e} - id) on the prime-field coordinate
            # space, whose unit vectors are the powers x^j = p^j; rows:
            # digits of the images, an F_p digit being its own element
            imgs = [self.sub(self.frobenius(self.p**j, e), self.p**j)
                    for j in range(self.n)]
            ker = field_kernel(self.digits_all(imgs).T.tolist(), self)
            basis = tuple(sorted(self.from_digits(v) for v in ker))
            if len(basis) != self.a * e:
                raise FalsificationAlarm(
                    f"F_p-basis of F_(q^{e}) has {len(basis)} elements, "
                    f"not {self.a * e}")
            self._caches[key] = basis
        return self._caches[key]

    def trace_gram(self) -> np.ndarray:
        """The F_p Gram matrix T[i, j] = Tr_{q^m/p}(x^i x^j) of the
        power basis of the modulus root (cached int64 array): for
        digit vectors a, z, Tr_{q^m/p}(a z) = a T z mod p."""
        key = ("tracegram",)
        if key not in self._caches:
            n, p = self.n, self.p
            # t[s] = Tr(x^s), the sum of the p-power conjugates of x^s
            t = []
            xs = 1
            for _ in range(2 * n - 1):
                acc = cur = xs
                for _ in range(n - 1):
                    cur = self.pow(cur, p)
                    acc = self.add(acc, cur)
                if acc >= p:
                    raise FalsificationAlarm(
                        f"absolute trace of x^{len(t)} is {acc}, not in F_{p}")
                t.append(acc)
                xs = self.mul(xs, self.x)
            self._caches[key] = np.array(
                [[t[i + j] for j in range(n)] for i in range(n)], dtype=np.int64)
        return self._caches[key]

    def subfield_elements(self, e: int) -> list[int]:
        """All q^e elements of F_{q^e}, ascending by encoding (cached)."""
        key = ("subelems", e)
        if key not in self._caches:
            basis = self.fp_basis_of_subfield(e)
            elems = [0]
            for b in basis:
                scaled = []
                for c in range(1, self.p):
                    cb = self.mul(b, c)  # c < p encodes the constant c
                    scaled.extend(self.add(z, cb) for z in elems)
                elems = elems + scaled
            elems.sort()
            if len(elems) != self.q**e:
                raise FalsificationAlarm(
                    f"F_(q^{e}) listed with {len(elems)} elements, not {self.q**e}")
            self._caches[key] = elems
        return self._caches[key]

    def fq_power_basis(self) -> tuple[int, ...]:
        """Powers x^0..x^(m-1) of the modulus root: an F_q-basis of
        F_{q^m} (the root has degree m over F_q)."""
        out = []
        acc = 1
        for _ in range(self.m):
            out.append(acc)
            acc = self.mul(acc, self.x if self.n > 1 else 1)
        return tuple(out)

    def _fq_coord_map(self) -> np.ndarray:
        """The (n, m*n) int64 F_p-matrix sending an element's digit
        vector to the digit vectors of its F_q-coordinates (cached): the
        inverse of the coordinate-to-digit matrix gives the a
        F_p-coordinates of each F_q-coordinate in the basis w of
        :meth:`fp_basis_of_subfield`, and the digit vectors of w turn
        them into digits (scaling by F_p and adding are digit-wise)."""
        key = ("coordmap",)
        if key not in self._caches:
            w = self.fp_basis_of_subfield(1)
            cols = self.digits_all([self.mul(wl, xi)
                                    for xi in self.fq_power_basis() for wl in w])
            inv = np.array(field_inverse(cols.T.tolist(), self), dtype=np.int64)
            coord_map = (inv.T.reshape(self.n, self.m, self.a)
                         @ self.digits_all(w) % self.p)
            self._caches[key] = coord_map.reshape(self.n, -1)
        return self._caches[key]

    def fq_coords(self, z: int) -> tuple[int, ...]:
        """Coordinates of z over F_q in the power basis; each coordinate
        is returned as an element of F_q."""
        return tuple(self.fq_coords_all([z])[0].tolist())

    def fq_coords_all(self, values: Sequence[int]) -> np.ndarray:
        """:meth:`fq_coords` of every value, one row each: an array of
        shape (len(values), m), int64 when every element fits and of
        Python ints otherwise.  For a = 1 the coordinates are the digits,
        and otherwise :meth:`_fq_coord_map` gives their digit vectors."""
        digits = self.digits_all(values)
        if self.a == 1:
            return digits
        coord_digits = digits @ self._fq_coord_map() % self.p
        return coord_digits.reshape(len(digits), self.m, self.n) @ self._digit_weights()

    def digits_all(self, values, planes: bool = False) -> np.ndarray:
        """:meth:`digits` of every value of an array-like by one floor
        division, exact past 2^63: on a new last axis as int64 or, with
        planes, digit s on plane s of a new first axis in the narrowest
        unsigned dtype that holds p^2 - 1 (a sum of two digits fits)."""
        weights = self._digit_weights()
        digits = np.asarray(values, dtype=weights.dtype)[..., None] // weights % self.p
        if planes:
            return digits.transpose(-1, *range(digits.ndim - 1)).astype(
                np.min_scalar_type(self.p**2 - 1), order="C")
        return digits.astype(np.int64)

    def digit_planes(self, values) -> np.ndarray:
        """:meth:`digits_all` with planes; on a tabled field one take per
        plane from the planes of every element, built once, read-only
        (several times faster than the division on the enumeration's
        rows, see ``BENCH_29.json``)."""
        if self._exp is None:
            return self.digits_all(values, planes=True)
        key = ("digitplanes",)
        if key not in self._caches:
            table = self.digits_all(range(self.order), planes=True)
            table.setflags(write=False)
            self._caches[key] = table
        return self._caches[key].take(values, axis=1)

    def _digit_weights(self) -> np.ndarray:
        """p^0, ..., p^(n-1), which turn digit vectors into element ints:
        int64 when every element fits, Python ints otherwise."""
        key = ("digitweights",)
        if key not in self._caches:
            dtype = np.int64 if self.order <= 1 << 63 else object
            self._caches[key] = np.array([self.p**i for i in range(self.n)],
                                         dtype=dtype)
        return self._caches[key]

    def fq_combine(self, coords: Sequence[int]) -> int:
        """The element with the given F_q-coordinates (:meth:`fq_coords`)."""
        if self.a == 1:
            return self.from_digits(coords)
        acc = 0
        for c, xi in zip(coords, self.fq_power_basis()):
            acc = self.add(acc, self.mul(c, xi))
        return acc

    # ------------------------------------------------------------------
    # F_q as a set
    # ------------------------------------------------------------------

    def fq_elements(self) -> list[int]:
        return self.subfield_elements(1)

    def q_tables(self):
        """Removed; the name stays while ``perfbench/tracer.py`` wraps it."""
        raise NotImplementedError("FieldContext.q_tables was removed")

    # ------------------------------------------------------------------
    # multiplicative generators
    # ------------------------------------------------------------------

    @property
    def primitive_element(self) -> int:
        """The smallest integer encoding of a generator of F_{q^m}^*
        (1 in F_2, whose group is trivial)."""
        key = ("prim",)
        if key not in self._caches:
            n1 = self.order - 1
            factors = gfpoly.prime_factors(n1) if n1 > 1 else []
            self._caches[key] = next(
                (c for c in range(2, self.order)
                 if all(self.pow(c, n1 // r) != 1 for r in factors)), 1)
        return self._caches[key]

    def subfield_generator(self, e: int) -> int:
        """A multiplicative generator of F_{q^e}^*."""
        self._check_divisor(e)
        n1 = self.order - 1
        sub1 = self.q**e - 1
        return self.pow(self.primitive_element, n1 // sub1)

    # ------------------------------------------------------------------
    # serialization and dunder plumbing
    # ------------------------------------------------------------------

    def to_descriptor(self) -> dict:
        return {"p": self.p, "a": self.a, "m": self.m, "modulus": list(self.modulus)}

    @classmethod
    def from_descriptor(cls, d: dict) -> "FieldContext":
        check_keys(d, "field", *DESCRIPTOR_KEYS)
        return cls(d["p"], d.get("a", 1), d["m"], modulus=d.get("modulus"))

    def same_as(self, other: "FieldContext") -> bool:
        return (self.p, self.a, self.m, self.modulus) == (
            other.p, other.a, other.m, other.modulus)

    def require_same(self, other: "FieldContext"):
        if not self.same_as(other):
            raise ContextMismatchError("operands from different field contexts")

    def __repr__(self):
        if self.a == 1:
            return f"GF({self.p}^{self.m})/GF({self.p})"
        return f"GF({self.p}^{self.a * self.m})/GF({self.p}^{self.a})"


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dim subspaces of F_q^n (exact integer)."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den != 0:
        raise FalsificationAlarm(f"[{n}, {k}]_{q}: {num} is not divisible by {den}")
    return num // den

