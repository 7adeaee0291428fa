"""Closed-form minimum-weight machinery for completely decomposable codes.

Write the sorted type as (n_1 >= ... >= n_k) and let ell count the
trailing equal block lengths minus one (n_k = ... = n_(k-ell) with
n_(k-ell-1) different, taking n_0 = 0, so an all-equal type gives
ell = k - 1).  With U_i the span of block i's entries and

    j_(i,h) = m - dim(U_i^dual * U_h)      (dual = F_q trace dual),

the number of minimum-weight codewords is exactly

    A_(n_k) = q^m - 1                                      if ell = 0,
    A_(n_k) = (q^m - 1) (sum_(i=k-ell)^(k-1) q^(j_(i,i+1) + ... + j_(i,k)) + 1)

and it is sandwiched between (q^m - 1)(ell + 1) and
(q^m - 1)(q^((ell+1)(m - n_k)) - 1)/(q^(m - n_k) - 1); for prime m the
linear Cauchy-Davenport inequality forces every j <= 1 and the bound
tightens to (q^m - 1)(q^(ell+1) - 1)/(q - 1).  The products suite
(:func:`rankdec.suites.run_products_suite`) checks that inequality.

The counts come with the underlying codeword families: the weight-n_t
words that appear at shortening step t are exactly

    beta * (0, ..., 0, u_t, xi_(t+1) u_(t+1), ..., xi_k u_k)

with xi_h ranging over the trace dual of U_t^dual * U_h and beta over
F_{q^m}^*; the families partition the minimum-weight codewords.

Both extremes are constructive: scaled F_{q^e}-hyperplane blocks attain
the composite-m upper bound (all other nonzero weights equal m), and a
twisted-pair construction over a quadratic tower attains the lower
bound.  The characterization checks verify the structural consequences
when a bound is attained and raise a falsification alarm if a proved
statement fails computationally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

from .codes import (
    RankCode,
    build_completely_decomposable,
    require_decomposition,
    weight_distribution,
)
from .enumeration import DEFAULT_ENUM_CAP
from .errors import FalsificationAlarm, NotApplicableError
from .fields import FieldContext, is_prime
from .gfpoly import prime_factors
from .subspaces import (
    Subspace,
    coordinate_space,
    is_subfield_linear,
    product,
    scalar_into,
    scale,
    span,
    trace_dual,
    trace_orthogonal,
)


def trailing_run_length(type_vector: Sequence[int]) -> int:
    """ell: trailing equal lengths minus one, with the n_0 = 0 convention."""
    k = len(type_vector)
    ell = 0
    while ell + 1 < k and type_vector[k - ell - 2] == type_vector[k - 1]:
        ell += 1
    return ell


@dataclass
class MinWeightReport:
    """Closed-form minimum-weight count with its bounds.

    ``j_matrix`` maps 1-based block pairs (i, h), k-ell <= i < h <= k,
    to the exponent j_(i,h).  ``enumerated_count`` is filled only when
    an enumeration cross-check was requested.
    """

    ell: int
    j_matrix: dict[tuple[int, int], int]
    formula_count: int
    lower_bound: int
    upper_bound: int
    prime_upper_bound: Optional[int] = None
    enumerated_count: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "j_matrix": {f"{i},{h}": v for (i, h), v in sorted(self.j_matrix.items())},
            "formula_count": self.formula_count,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "prime_upper_bound": self.prime_upper_bound,
            "enumerated_count": self.enumerated_count,
        }


def _require_field_size(q: int):
    if q < 2 or len(prime_factors(q)) != 1:
        raise ValueError(f"q = {q} is not a prime power >= 2")


def bounds_nonprime(q: int, m: int, n_k: int, ell: int) -> tuple[int, int]:
    """General sandwich for A_(n_k): lower (q^m-1)(ell+1), upper
    (q^m-1) * sum_(i=0)^(ell) q^(i(m-n_k))."""
    _require_field_size(q)
    if not 1 <= n_k < m or ell < 0:
        raise ValueError("need 1 <= n_k < m and ell >= 0")
    lower = (q**m - 1) * (ell + 1)
    upper = (q**m - 1) * sum(q ** (i * (m - n_k)) for i in range(ell + 1))
    return lower, upper


def bound_prime(q: int, m: int, ell: int) -> int:
    """Prime-m bound (q^m-1)(q^(ell+1)-1)/(q-1)."""
    _require_field_size(q)
    if not is_prime(m):
        raise NotApplicableError(f"m = {m} is not prime")
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    return (q**m - 1) * sum(q**i for i in range(ell + 1))


def block_interaction_exponents(code: RankCode) -> dict[tuple[int, int], int]:
    """j_(i,h) = m - dim(U_i^dual * U_h) over the trailing equal blocks,
    from bases, with no canonical subspace: block h's entries (validation
    keeps them F_q-independent) and the kernel rows of
    :func:`trace_orthogonal` on block i; j is m minus the rank of their
    products."""
    dec = require_decomposition(code)
    ctx = code.ctx
    k = dec.k
    ell = trailing_run_length(dec.type_vector)
    # only blocks k-ell..k enter, and only k-ell..k-1 through their duals
    duals = {i: trace_orthogonal(ctx, dec.blocks[i - 1]) for i in range(k - ell, k)}
    out = {}
    for i in range(k - ell, k):        # 1-based i in {k-ell, ..., k-1}
        for h in range(i + 1, k + 1):
            prods = [ctx.mul(a, b) for a in duals[i] for b in dec.blocks[h - 1]]
            j = ctx.m - coordinate_space(ctx, prods).dim
            if not 0 <= j <= ctx.m - dec.type_vector[-1]:
                raise FalsificationAlarm(
                    f"exponent j_({i},{h}) = {j} outside [0, m - n_k]")
            out[(i, h)] = j
    return out


def min_weight_count_formula(code: RankCode, enumerate_check: bool = False,
                             cap: int = DEFAULT_ENUM_CAP,
                             threads: int = 1) -> MinWeightReport:
    """Evaluate the closed-form A_(n_k) and its bounds; optionally also
    enumerate and insist on equality."""
    dec = require_decomposition(code)
    ctx = code.ctx
    q, m = ctx.q, ctx.m
    k = dec.k
    n_k = dec.type_vector[-1]
    ell = trailing_run_length(dec.type_vector)
    jm = block_interaction_exponents(code)
    # one exponent sum per trailing block but the last: none at ell = 0
    expos = [sum(jm[(i, h)] for h in range(i + 1, k + 1))
             for i in range(k - ell, k)]
    count = (q**m - 1) * (1 + sum(q**e for e in expos))
    lower, upper = bounds_nonprime(q, m, n_k, ell)
    prime_ub = bound_prime(q, m, ell) if is_prime(m) else None
    if not lower <= count <= upper:
        raise FalsificationAlarm(
            f"count {count} escapes the sandwich [{lower}, {upper}]")
    if prime_ub is not None and count > prime_ub:
        raise FalsificationAlarm(
            f"count {count} exceeds the prime-extension bound {prime_ub}")
    report = MinWeightReport(ell, jm, count, lower, upper, prime_ub)
    if enumerate_check:
        wd = weight_distribution(code, cap=cap, threads=threads)
        report.enumerated_count = wd[n_k]
        if report.enumerated_count != count:
            raise FalsificationAlarm(
                f"closed form gives {count} minimum-weight words but "
                f"enumeration counts {report.enumerated_count}")
    return report


# ----------------------------------------------------------------------
# the per-step codeword families
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WeightFamily:
    """Weight-n_t words appearing at shortening step t (1-based): messages
    beta * (0,...,0,1, xi_(t+1), ..., xi_k) with xi_h from ``xi_spaces``."""

    t: int
    xi_spaces: tuple[Subspace, ...]
    size: int

    def messages(self, ctx: FieldContext, k: int):
        from itertools import product as iproduct

        xi_lists = [s.elements() for s in self.xi_spaces]
        for beta in range(1, ctx.order):
            for tail in iproduct(*xi_lists):
                msg = [0] * (self.t - 1) + [beta]
                msg.extend(ctx.mul(beta, x) for x in tail)
                yield tuple(msg)


def minimum_weight_family(code: RankCode, t: int) -> WeightFamily:
    """The family for step t in {1, ..., k-1}; its size is
    (q^m - 1) * q^(sum of the step exponents)."""
    dec = require_decomposition(code)
    if not 1 <= t <= dec.k - 1:
        raise ValueError("t out of range")
    ctx = code.ctx
    spans = [span(ctx, u) for u in dec.blocks]
    dual_t = trace_dual(spans[t - 1])
    xi_spaces = []
    size = ctx.order - 1
    for h in range(t + 1, dec.k + 1):
        d = trace_dual(product(dual_t, spans[h - 1]))
        xi_spaces.append(d)
        size *= ctx.q**d.dim
    return WeightFamily(t, tuple(xi_spaces), size)


# ----------------------------------------------------------------------
# extremal constructions
# ----------------------------------------------------------------------


def construct_subfield_extremal(ctx: FieldContext, e: int, r: int, k: int,
                                xi: Optional[int] = None) -> RankCode:
    """Blocks spanning the F_{q^e}-hyperplane <1, xi, ..., xi^(r-2)> over
    F_{q^e} (an F_q-basis as entries): type ((r-1)e, ..., (r-1)e), the
    composite-m upper bound attained, all other nonzero weights equal m."""
    if r <= 1 or e < 1 or ctx.m != r * e:
        raise ValueError("need m = r*e with r > 1")
    if xi is None:
        xi = ctx.find_element_of_degree(ctx.m, seed=0)
    # F_{q^e}(xi) must be everything: xi of degree m/e = r over F_{q^e}
    if any(ctx.frobenius(xi, e * d) == xi for d in range(1, r)):
        raise ValueError("xi does not generate the extension over F_{q^e}")
    g = ctx.subfield_generator(e)  # of degree e: its powers are an F_q-basis
    sub_basis = [ctx.pow(g, i) for i in range(e)]
    entries = []
    for i in range(r - 1):
        xi_i = ctx.pow(xi, i)
        entries.extend(ctx.mul(xi_i, w) for w in sub_basis)
    return build_completely_decomposable(ctx, [entries] * k)


def construct_lambda_code(ctx: FieldContext, lam: int, e: int,
                          t_list: Sequence[int]) -> RankCode:
    """Direct sum of geometric-progression blocks (1, lam, ..., lam^(t-1))
    sharing one element lam of degree e; each t <= e.

    When every trailing block length t satisfies t < e (automatic for
    e = m since block lengths stay below m), the dual-product dimension
    of the trailing block span is m - 1 and the minimum-weight count is
    (q^m - 1)(q^(ell+1) - 1)/(q - 1) independently of lam.  At the
    boundary t = e < m the dual degenerates to the full relative trace
    kernel, each interaction exponent becomes e, and the count is
    strictly larger."""
    if ctx.degree_over_q(lam) != e:
        raise ValueError(f"lambda has degree {ctx.degree_over_q(lam)}, not {e}")
    blocks = []
    for t in t_list:
        if not 1 <= t <= e:
            raise ValueError(f"t = {t} must be within the degree {e}")
        blocks.append([ctx.pow(lam, i) for i in range(t)])
    return build_completely_decomposable(ctx, blocks)


def construct_lower_attaining(ctx: FieldContext, e: int, k: int, xi: int,
                              mu_list: Sequence[int], lam: int) -> RankCode:
    """Twisted blocks u_i = (lam^j + xi mu_i (lam^j)^q)_j over m = 2e.

    Requires xi outside F_{q^e}, k <= q - 1, the mu_i in F_{q^e} with
    pairwise distinct norms and N(mu_i mu_j xi^(q^e + 1)) != 1, and lam
    generating F_{q^e}.  The type is (e, ..., e) and the minimum-weight
    count attains the general lower bound (q^m - 1) k."""
    q, m = ctx.q, ctx.m
    if m != 2 * e:
        raise ValueError("need m = 2e")
    if k > q - 1:
        raise ValueError(f"k = {k} exceeds q - 1 = {q - 1}")
    if len(mu_list) != k:
        raise ValueError("need one mu per block")
    if ctx.in_subfield(xi, e):
        raise ValueError("xi must lie outside F_{q^e}")
    if ctx.degree_over_q(lam) != e:
        raise ValueError("lambda must generate F_{q^e}")
    for mu in mu_list:
        if not ctx.in_subfield(mu, e):
            raise ValueError("each mu must lie in F_{q^e}")
    if failure := _norm_failure(ctx, e, xi, mu_list):
        raise ValueError(failure)
    blocks = []
    for mu in mu_list:
        xim = ctx.mul(xi, mu)
        block = []
        for j in range(e):
            lj = ctx.pow(lam, j)
            block.append(ctx.add(lj, ctx.mul(xim, ctx.frobenius(lj, 1))))
        blocks.append(block)
    return build_completely_decomposable(ctx, blocks)


def _norm_failure(ctx: FieldContext, e: int, xi: int,
                  mus: Sequence[int]) -> Optional[str]:
    """The norm constraint of the twisted construction that (xi, mus)
    breaks (:func:`construct_lower_attaining`), or None."""
    if len({ctx.norm_rel(mu, 1, top=e) for mu in mus}) != len(mus):
        return "the mu_i must have pairwise distinct norms"
    xi_norm = ctx.mul(xi, ctx.frobenius(xi, e))  # xi^(q^e + 1), in F_{q^e}
    for i, j in combinations(range(len(mus)), 2):
        if ctx.norm_rel(ctx.mul(ctx.mul(mus[i], mus[j]), xi_norm), 1, top=e) == 1:
            return (f"norm condition fails for pair ({i}, {j}): "
                    "N(mu_i mu_j xi^(q^e+1)) = 1")
    return None


def find_lower_attaining_params(ctx: FieldContext, e: int, k: int,
                                ) -> Optional[tuple[int, list[int], int]]:
    """First (xi, mu_list, lam) in encoding order satisfying the
    twisted-construction constraints, or None."""
    q, m = ctx.q, ctx.m
    if m != 2 * e or k > q - 1:
        return None
    lam = next((x for x in range(ctx.order) if ctx.degree_over_q(x) == e), None)
    if lam is None:
        return None
    sub = ctx.subfield_elements(e)
    for xi in range(ctx.order):
        if ctx.in_subfield(xi, e):
            continue
        for mus in combinations(sub, k):
            if _norm_failure(ctx, e, xi, mus) is None:
                return xi, list(mus), lam
    return None


# ----------------------------------------------------------------------
# characterization checks
# ----------------------------------------------------------------------


@dataclass
class Verdict:
    """Outcome of a structural check: ``verified``, ``not-applicable``
    (hypotheses unmet, details say why), or ``falsification-alarm``."""

    status: str
    detail: str = ""
    witnesses: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"status": self.status, "detail": self.detail,
                "witnesses": self.witnesses}


def check_char_nonprime(code: RankCode,
                        formula_count: Optional[int] = None) -> Verdict:
    """When A_(n_k) attains the composite-m upper bound, the trailing
    blocks must be scalar multiples of one F_{q^e}-hyperplane with
    e = m - n_k dividing m; verify that structure and return witnesses."""
    dec = require_decomposition(code)
    ctx = code.ctx
    n_k = dec.type_vector[-1]
    ell = trailing_run_length(dec.type_vector)
    if ell < 1:
        return Verdict("not-applicable", "trailing run has a single block")
    report = min_weight_count_formula(code)
    count = formula_count if formula_count is not None else report.formula_count
    if count != report.upper_bound:
        return Verdict("not-applicable",
                       f"count {count} below the upper bound {report.upper_bound}")
    e = ctx.m - n_k
    if ctx.m % e != 0 or ctx.m // e <= 1:
        raise FalsificationAlarm(
            f"bound attained but e = m - n_k = {e} does not divide m = {ctx.m}")
    r = ctx.m // e
    spans = [span(ctx, u) for u in dec.blocks]
    k = dec.k
    trailing = list(range(k - ell - 1, k))  # 0-based indices of the run
    normalized = []
    for i in trailing:
        u0 = next(b for b in spans[i].basis if b)
        v = scale(ctx.inv(u0), spans[i])
        if not is_subfield_linear(v, e):
            raise FalsificationAlarm(
                f"bound attained but block {i + 1} is not a scaled "
                f"F_{{q^{e}}}-subspace")
        normalized.append((i, u0, v))
    h = normalized[-1][2]
    scalars = {}
    for i, u0, v in normalized:
        d = scalar_into(v, h)
        if d is None:
            raise FalsificationAlarm(
                "bound attained but trailing blocks are not scalar "
                "multiples of a common hyperplane")
        scalars[i + 1] = ctx.mul(u0, d)
    return Verdict("verified", f"m = {r} * {e}, n_k = (r-1)e",
                   {"e": e, "r": r, "hyperplane": list(h.basis),
                    "scalars": scalars})


def check_char_prime(code: RankCode,
                     formula_count: Optional[int] = None) -> Verdict:
    """Two-sided check for prime m: the count attains
    (q^m-1)(q^(ell+1)-1)/(q-1) iff the trailing blocks are pairwise
    scalar multiples of one U with dim(U^dual * U) = m - 1."""
    dec = require_decomposition(code)
    ctx = code.ctx
    if not is_prime(ctx.m):
        raise NotApplicableError(f"m = {ctx.m} is not prime")
    ell = trailing_run_length(dec.type_vector)
    report = min_weight_count_formula(code)
    count = formula_count if formula_count is not None else report.formula_count
    bound = bound_prime(ctx.q, ctx.m, ell)
    spans = [span(ctx, u) for u in dec.blocks]
    k = dec.k
    u_last = spans[-1]
    scalars = {}
    structural = True
    for i in range(k - ell - 1, k - 1):
        d = scalar_into(spans[i], u_last)
        if d is None:
            structural = False
            break
        scalars[i + 1] = d
    if structural:
        prod_dim = product(trace_dual(u_last), u_last).dim
        structural = prod_dim == ctx.m - 1
    attained = count == bound
    if attained != structural:
        raise FalsificationAlarm(
            f"prime-extension characterization violated: count "
            f"{'attains' if attained else 'misses'} the bound {bound} but the "
            f"scalar-multiple structure {'holds' if structural else 'fails'}")
    if attained:
        return Verdict("verified", f"count attains {bound}",
                       {"scalars": scalars, "common_block": list(u_last.basis),
                        "product_dim": ctx.m - 1})
    return Verdict("not-applicable",
                   f"bound not attained ({count} < {bound}); no structure claimed")

