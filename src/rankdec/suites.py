"""Verification suites: run each structural statement on concrete
instances and report per-check pass/fail with instance counts.

Each suite returns a dict {"suite": name, "checks": [...], "ok": bool};
a check is {"name", "instances", "passed"} plus optional detail.  All
randomness is seeded, so reports are reproducible byte for byte.
"""

from __future__ import annotations

import random

from . import analysis, codes, showcases, subspaces, systems
from .errors import FalsificationAlarm
from .fields import FieldContext
from .linalg import field_kernel, field_rank


def _check(name, instances, passed, **extra):
    out = {"name": name, "instances": instances, "passed": bool(passed)}
    out.update(extra)
    return out


# ----------------------------------------------------------------------
# duality suite
# ----------------------------------------------------------------------


def run_duality_suite(seed: int = 0, trials: int = 1000) -> dict:
    checks = []
    rng = random.Random(seed)

    # trace-progression duality for generators, exhaustive over small m
    for m in (4, 5, 6):
        ctx = FieldContext(2, 1, m)
        count = 0
        ok = True
        for lam in ctx.elements_of_degree(m):
            for t in range(1, m):
                holds, delta = subspaces.verify_dual_geometric(ctx, lam, t)
                ok = ok and holds and delta != 0
                count += 1
        checks.append(_check(f"generator-progression duals m={m}", count, ok))

    # subfield decomposition of the dual, all (e, t) pairs
    for m in (4, 6):
        ctx = FieldContext(2, 1, m)
        count = 0
        ok = True
        for e in (d for d in range(2, m) if m % d == 0):
            for lam in ctx.elements_of_degree(e):
                for t in range(1, e + 1):
                    holds, _c = subspaces.verify_dual_subfield(ctx, lam, t)
                    ok = ok and holds
                    count += 1
        checks.append(_check(f"subfield dual decomposition m={m}", count, ok))

    # involution and dimension law on random subspaces
    per_m = max(trials // 3, 1)
    count = 0
    ok = True
    for m in (4, 5, 6):
        ctx = FieldContext(2, 1, m)
        for _ in range(per_m):
            u = subspaces.random_subspace(ctx, rng.randrange(m + 1), rng)
            d = subspaces.trace_dual(u)
            ok = ok and d.dim == m - u.dim
            ok = ok and subspaces.trace_dual(d) == u
            count += 1
    checks.append(_check("trace-dual involution and dimension law", count, ok))

    # ambient duality dimension identity on sampled pairs
    ctx = FieldContext(2, 1, 4)
    k = 2
    count = 0
    ok = True
    for _ in range(25):
        vecs = [[rng.randrange(ctx.order) for _ in range(k)]
                for _ in range(rng.randrange(1, 2 * k + 1))]
        u = systems.System(ctx, k, vecs)
        w_rows = [[rng.randrange(ctx.order) for _ in range(k)]]
        if field_rank(w_rows, ctx) == 0:
            continue
        w_flat = systems.flat_span(ctx, k, w_rows)
        wp_flat = systems.flat_span(ctx, k, field_kernel(w_rows, ctx))
        ud = systems.perp_prime(u)
        lhs = ud.dim + wp_flat.dim - ud.row_space.sum(wp_flat).dim
        inter = u.dim + w_flat.dim - u.row_space.sum(w_flat).dim
        ok = ok and lhs == inter + k * ctx.m - u.dim - w_flat.dim
        count += 1
    checks.append(_check("ambient duality dimension identity", count, ok))

    return _finish("duality", checks)


# ----------------------------------------------------------------------
# products suite
# ----------------------------------------------------------------------


def run_products_suite(seed: int = 0, trials: int | None = None) -> dict:
    """Exhaustive product checks at m = 5, then two sampled checks with
    ``trials`` instances each (default 30 and 20)."""
    checks = []
    ctx = FieldContext(2, 1, 5)
    subs = list(subspaces.all_subspaces(ctx, 2))
    wits = {u: subspaces.geometric_witnesses(u) for u in subs}

    cd_ok = True
    crit_ok = True
    pairs = 0
    critical = 0
    for i, u1 in enumerate(subs):
        for u2 in subs[i:]:
            d = subspaces.product(u1, u2).dim
            ordered = 1 if u1 == u2 else 2
            pairs += ordered
            if d <= ctx.m - 1 and d < u1.dim + u2.dim - 1:
                cd_ok = False
            if d == 3:
                critical += ordered
                if not set(wits[u1]) & set(wits[u2]):
                    crit_ok = False
    checks.append(_check("product dimension inequality (m=5, all 2x2 pairs)",
                         pairs, cd_ok))
    checks.append(_check("critical pairs share a progression witness",
                         critical, crit_ok))

    # complementary-dimension hyperplane products force a scaled dual;
    # about 3 in 5 sampled pairs qualify, and the attempt budget (60 per
    # instance, at least 2000) only bounds the loop
    rng = random.Random(seed)
    wanted = 30 if trials is None else trials
    count = 0
    ok = True
    attempts = 0
    while count < wanted and attempts < max(2000, 60 * wanted):
        attempts += 1
        u1 = subspaces.random_subspace(ctx, rng.randrange(1, 5), rng)
        u2 = subspaces.random_subspace(ctx, ctx.m - u1.dim, rng)
        if subspaces.product(u1, u2).dim != ctx.m - 1:
            continue
        c = subspaces.critical_complement_witness(u1, u2)
        ok = ok and c is not None
        if c is not None:
            ok = ok and subspaces.scale(
                c, subspaces.trace_dual(u1)) == u2
        count += 1
    checks.append(_check("hyperplane products are scaled duals", count, ok))

    # dual-of-product splitting identity
    count = 0
    ok = True
    for _ in range(20 if trials is None else trials):
        u1 = subspaces.random_subspace(ctx, 2, rng)
        u2 = subspaces.random_subspace(ctx, 2, rng)
        lhs = subspaces.trace_dual(subspaces.product(u1, u2))
        rhs = subspaces.full_space(ctx)
        for a in u1.basis:
            rhs = subspaces.intersect(
                rhs, subspaces.scale(ctx.inv(a), subspaces.trace_dual(u2)))
        ok = ok and lhs == rhs
        count += 1
    checks.append(_check("dual of product splits into shifted duals", count, ok))

    return _finish("products", checks)


# ----------------------------------------------------------------------
# characterization suite
# ----------------------------------------------------------------------


def run_characterization_suite(seed: int = 0, trials: int = 50) -> dict:
    checks = []
    rng = random.Random(seed)

    # detection round-trips on scrambled block codes
    count = 0
    ok = True
    params = [(FieldContext(2, 1, 4), 2), (FieldContext(2, 1, 5), 2),
              (FieldContext(2, 1, 6), 3), (FieldContext(2, 1, 7), 3),
              (FieldContext(3, 1, 3), 2)]
    while count < trials:
        ctx, k = params[count % len(params)]
        c = codes.random_decomposable(ctx, k, rng)
        b = codes.random_gl_ext(ctx, c.k, seed=rng.randrange(1 << 30))
        amap = codes.random_gl(ctx, c.n, seed=rng.randrange(1 << 30))
        scr = codes.apply_equivalence(c.relabeled(b), amap).strip_decomposition()
        dec = codes.detect_complete_decomposability(scr)
        ok = ok and dec is not None
        if dec is not None:
            ok = ok and dec.type_vector == c.decomposition.type_vector
            try:
                scr.with_decomposition(dec)
            except ValueError:
                ok = False
        count += 1
    checks.append(_check("decomposition recovery with type invariance",
                         count, ok))

    # one-dimensional codes: equality in the size bound iff full weight
    ctx = FieldContext(2, 1, 5)
    count = 0
    ok = True
    for _ in range(30):
        n = rng.randrange(1, 5)
        u = [rng.randrange(ctx.order) for _ in range(n)]
        try:
            c = codes.RankCode(ctx, [u])
        except ValueError:
            continue
        full = codes.rank_weight(ctx, u) == n
        ok = ok and codes.is_mrd(c) == full
        count += 1
    checks.append(_check("one-dimensional optimality iff full weight",
                         count, ok))

    # minimal codewords on scalar-unrelated instances
    ctx = FieldContext(2, 1, 4)
    lam = ctx.elements_of_degree(4)[0]
    c = codes.build_completely_decomposable(
        ctx, [[1, lam], [1, ctx.mul(lam, lam)]])
    fams = codes.minimal_codewords(c)
    census = codes.minimal_codeword_census(c)
    checks.append(_check("minimal codewords are the block families",
                         len(census),
                         codes.blocks_scalar_unrelated(c)
                         and census == set(fams.codewords(ctx))))

    # geometric duals: type complementation and double dual
    count = 0
    ok = True
    for _ in range(10):
        ctx = FieldContext(2, 1, 6)
        c = codes.random_decomposable(ctx, 2, rng)
        d = codes.geometric_dual(c)
        typ = c.decomposition.type_vector
        expect = tuple(sorted((ctx.m - t for t in typ), reverse=True))
        ok = ok and d.decomposition.type_vector == expect
        dd = codes.geometric_dual(d)
        ok = ok and dd.decomposition.type_vector == typ
        count += 1
    checks.append(_check("geometric dual complements the type", count, ok))

    return _finish("characterization", checks)


# ----------------------------------------------------------------------
# bounds suite
# ----------------------------------------------------------------------


def run_bounds_suite(seed: int = 0, trials: int = 100) -> dict:
    checks = []
    rng = random.Random(seed)

    params = [(FieldContext(2, 1, 4), 2), (FieldContext(2, 1, 5), 2),
              (FieldContext(2, 1, 6), 2), (FieldContext(3, 1, 3), 2),
              (FieldContext(3, 1, 4), 2), (FieldContext(2, 1, 4), 3),
              (FieldContext(2, 1, 5), 3), (FieldContext(3, 1, 2), 3)]
    count = 0
    formula_ok = True
    sandwich_ok = True
    prime_ok = True
    while count < trials:
        ctx, k = params[count % len(params)]
        c = codes.random_decomposable(ctx, k, rng)
        rep = analysis.min_weight_count_formula(c, enumerate_check=True)
        formula_ok = formula_ok and rep.formula_count == rep.enumerated_count
        sandwich_ok = sandwich_ok and (
            rep.lower_bound <= rep.formula_count <= rep.upper_bound)
        if rep.prime_upper_bound is not None:
            prime_ok = prime_ok and rep.formula_count <= rep.prime_upper_bound
        count += 1
    checks.append(_check("closed form equals enumerated minimum count",
                         count, formula_ok))
    checks.append(_check("count sandwiched by the general bounds",
                         count, sandwich_ok))
    checks.append(_check("prime-extension bound respected", count, prime_ok))

    # per-step families partition the minimum-weight words
    count = 0
    ok = True
    for _ in range(8):
        ctx = FieldContext(2, 1, rng.choice([4, 5]))
        c = codes.random_decomposable(ctx, 2, rng)
        rep = analysis.min_weight_count_formula(c)
        ell = rep.ell
        total = sum(analysis.minimum_weight_family(c, t).size
                    for t in range(c.k - ell, c.k)) + (ctx.order - 1)
        ok = ok and total == rep.formula_count
        count += 1
    checks.append(_check("step families partition the minimum count",
                         count, ok))

    # extremal constructions attain their bounds
    c45, _ = showcases.prop45_code()
    wd = codes.weight_distribution(c45)
    rep = analysis.min_weight_count_formula(c45)
    upper_hit = (wd[2] == showcases.PROP45_MIN_COUNT
                 and rep.formula_count == rep.upper_bound)
    spectrum = ([i for i, v in enumerate(wd.counts) if v and i]
                == showcases.PROP45_SPECTRUM)
    verdict = analysis.check_char_nonprime(c45)
    checks.append(_check("hyperplane-block construction attains the upper bound",
                         1, upper_hit and spectrum
                         and verdict.status == "verified"))

    clow, _ = showcases.lowerbound_code()
    rep = analysis.min_weight_count_formula(clow, enumerate_check=True)
    low_ok = rep.formula_count == rep.lower_bound == rep.enumerated_count
    checks.append(_check("twisted construction attains the lower bound",
                         1, low_ok))

    # prime-case characterization both ways on small m = 5 instances
    ctx = FieldContext(2, 1, 5)
    count = 0
    ok = True
    for _ in range(15):
        c = codes.random_decomposable(ctx, 2, rng, max_len=3)
        try:
            v = analysis.check_char_prime(c)
        except FalsificationAlarm:
            ok = False
            break
        ok = ok and v.status in ("verified", "not-applicable")
        count += 1
    checks.append(_check("prime-case attainment characterization two-sided",
                         count, ok))

    return _finish("bounds", checks)


def _finish(name, checks) -> dict:
    return {"suite": name, "checks": checks,
            "ok": all(c["passed"] for c in checks)}


SUITES = {
    "duality": run_duality_suite,
    "products": run_products_suite,
    "characterization": run_characterization_suite,
    "bounds": run_bounds_suite,
}


def run_suite(name: str, seed: int = 0, trials: int | None = None) -> list[dict]:
    if name == "all":
        names = list(SUITES)
    else:
        names = [name]
    out = []
    for nm in names:
        fn = SUITES[nm]
        kwargs = {"seed": seed}
        if trials is not None:
            kwargs["trials"] = trials
        out.append(fn(**kwargs))
    return out
