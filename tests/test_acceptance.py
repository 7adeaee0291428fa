"""Acceptance gate: one test per criterion, every tolerance exact.

Each test prints a single pass line so a -s run reads as a checklist;
failures carry the mismatching values.
"""

import random

import pytest

from rankdec import FieldContext
from rankdec.analysis import (
    bound_prime,
    construct_lambda_code,
    min_weight_count_formula,
    minimum_weight_family,
    trailing_run_length,
)
from rankdec.codes import (
    apply_equivalence,
    blocks_scalar_unrelated,
    build_completely_decomposable,
    detect_complete_decomposability,
    geometric_dual,
    minimal_codeword_census,
    minimal_codewords,
    random_decomposable,
    random_gl,
    weight_distribution,
)
from rankdec.enumeration import (
    DEFAULT_ENUM_CAP,
    message_space_size,
    projective_points,
    projective_weights,
)
from rankdec.fields import is_prime
from rankdec.showcases import (
    M6_TARGETS,
    M7_TARGET_GAPPED,
    M7_TARGET_PROGRESSION,
    PROP45_MIN_COUNT,
    PROP45_SPECTRUM,
    m6_witness,
    m7_gapped_code,
    m7_witness,
    prop45_code,
)
from rankdec.suites import (
    run_characterization_suite,
    run_duality_suite,
    run_products_suite,
)


def _pass(n, msg):
    print(f"[PASS] criterion {n}: {msg}")


@pytest.fixture(scope="module")
def oracle_codes():
    """Shared pool for criteria 3 and 4: >= 100 random decomposable
    codes over q in {2, 3} with q^(mk) <= 2^24, each carrying its
    closed-form report with enumeration cross-check."""
    rng = random.Random(20240809)
    params = [(FieldContext(2, 1, 4), 2), (FieldContext(2, 1, 5), 2),
              (FieldContext(2, 1, 6), 2), (FieldContext(3, 1, 3), 2),
              (FieldContext(3, 1, 4), 2), (FieldContext(2, 1, 4), 3),
              (FieldContext(2, 1, 5), 3), (FieldContext(3, 1, 2), 3),
              (FieldContext(2, 1, 6), 3)]
    pool = []
    i = 0
    while len(pool) < 100:
        ctx, k = params[i % len(params)]
        i += 1
        if message_space_size(ctx, k) > 1 << 24:
            continue
        code = random_decomposable(ctx, k, rng)
        rep = min_weight_count_formula(code, enumerate_check=True)
        pool.append((code, rep))
    return pool


def test_criterion_1_m6_distributions():
    ctx = FieldContext(2, 1, 6)
    deg6 = ctx.elements_of_degree(6)
    deg3 = ctx.elements_of_degree(3)
    assert len(deg6) + len(deg3) <= 63  # candidate budget

    hit6 = m6_witness(ctx, 6, DEFAULT_ENUM_CAP, 1)
    assert hit6 is not None, "no degree-6 witness for the showcase distribution"
    hit3 = m6_witness(ctx, 3, DEFAULT_ENUM_CAP, 1)
    assert hit3 is not None, "no degree-3 witness for the showcase distribution"
    # recomputed here: the two distributions share 441 words of weight 2
    # and differ elsewhere
    for lam, e in ((hit6, 6), (hit3, 3)):
        wd = weight_distribution(construct_lambda_code(ctx, lam, e, [2, 2, 2]))
        assert tuple(wd.counts) == M6_TARGETS[e], (e, lam, wd.counts)
    assert M6_TARGETS[6][2] == M6_TARGETS[3][2] == 441
    assert M6_TARGETS[6] != M6_TARGETS[3]

    # every admissible lambda (blocks of length 2 strictly inside the
    # generated subfield, or generating the whole field) gives 441
    for e, lams in ((6, deg6), (3, deg3)):
        for lam in lams:
            wd = weight_distribution(construct_lambda_code(ctx, lam, e, [2, 2, 2]))
            assert wd[2] == 441, (e, lam, wd[2])
    _pass(1, f"m=6 witnesses {hit6} (deg 6) and {hit3} (deg 3); "
             f"all {len(deg6) + len(deg3)} admissible lambdas give 441")


def test_criterion_2_m7_distributions():
    ctx = FieldContext(2, 1, 7)
    witness = m7_witness(ctx, DEFAULT_ENUM_CAP, 1)
    assert witness is not None, "no m=7 witness matches both distributions"
    c1 = construct_lambda_code(ctx, witness, 7, [3, 3, 3])
    c2 = m7_gapped_code(ctx, witness)
    assert c1.decomposition.type_vector == c2.decomposition.type_vector == (3, 3, 3)
    assert tuple(weight_distribution(c1).counts) == M7_TARGET_PROGRESSION
    assert tuple(weight_distribution(c2).counts) == M7_TARGET_GAPPED
    assert M7_TARGET_PROGRESSION[3] == M7_TARGET_GAPPED[3] == 889
    _pass(2, f"m=7 witness {witness}: both showcase distributions matched, "
             f"shared minimum count 889")


def test_criterion_3_formula_oracle(oracle_codes):
    assert len(oracle_codes) >= 100
    for code, rep in oracle_codes:
        assert rep.formula_count == rep.enumerated_count, (
            code.decomposition.type_vector, rep.formula_count,
            rep.enumerated_count)
    _pass(3, f"closed form equals enumeration on {len(oracle_codes)} codes")


def test_criterion_4_bound_sandwich(oracle_codes):
    for code, rep in oracle_codes:
        assert rep.lower_bound <= rep.formula_count <= rep.upper_bound
        if is_prime(code.ctx.m):
            assert rep.formula_count <= bound_prime(
                code.ctx.q, code.ctx.m, rep.ell)
    _pass(4, f"bounds hold on all {len(oracle_codes)} codes "
             f"(prime refinement where applicable)")


def test_criterion_5_subfield_extremal_instance():
    code, _ = prop45_code()
    wd = weight_distribution(code)  # 2^8 messages
    assert wd[2] == PROP45_MIN_COUNT == 75, wd.counts
    assert PROP45_SPECTRUM == [2, 4]
    assert all(v == 0 for i, v in enumerate(wd.counts) if i not in (0, 2, 4))
    assert wd[4] == 2**8 - 1 - 75
    _pass(5, "75 words of weight 2, all other nonzero words of weight 4")


def test_criterion_6_duality_suite():
    result = run_duality_suite(seed=0, trials=1000)
    for check in result["checks"]:
        assert check["passed"], check
    total = sum(c["instances"] for c in result["checks"])
    _pass(6, f"duality suite green ({total} instances, m in {{4,5,6}} "
             f"exhaustive, 999 random involutions)")


def test_criterion_7_products_suite():
    result = run_products_suite(seed=0)
    for check in result["checks"]:
        assert check["passed"], check
    pairs = result["checks"][0]["instances"]
    assert pairs == 155**2
    # without trials the two sampled checks keep 30 and 20 instances
    assert [c["instances"] for c in result["checks"][2:]] == [30, 20]
    _pass(7, f"products suite green over all {pairs} pairs at m=5")


def test_criterion_8_detection_roundtrip():
    result = run_characterization_suite(seed=0, trials=50)
    rt = result["checks"][0]
    assert rt["instances"] >= 50 and rt["passed"]
    for check in result["checks"]:
        assert check["passed"], check
    _pass(8, f"decomposition recovered with the original type on "
             f"{rt['instances']}/50 scrambled codes")


def test_criterion_9_minimal_codewords():
    rng = random.Random(99)
    instances = []
    # fixed small instances plus randomized scalar-unrelated ones
    f16 = FieldContext(2, 1, 4)
    lam = f16.elements_of_degree(4)[0]
    instances.append(build_completely_decomposable(
        f16, [[1, lam], [1, f16.mul(lam, lam)]]))
    f32 = FieldContext(2, 1, 5)
    g = f32.elements_of_degree(5)[0]
    instances.append(build_completely_decomposable(
        f32, [[1, g, f32.mul(g, g)], [1, f32.pow(g, 3)]]))
    f27 = FieldContext(3, 1, 3)
    h = f27.elements_of_degree(3)[0]
    instances.append(build_completely_decomposable(
        f27, [[1, h], [1, f27.mul(h, h)]]))
    while len(instances) < 6:
        ctx = rng.choice([f16, f32, f27])
        code = random_decomposable(ctx, 2, rng)
        if message_space_size(ctx, 2) <= 1 << 16 and blocks_scalar_unrelated(code):
            instances.append(code)
    checked = 0
    for code in instances:
        ctx = code.ctx
        if not blocks_scalar_unrelated(code):
            continue
        scr = apply_equivalence(code, random_gl(ctx, code.n,
                                                seed=rng.randrange(1 << 20)))
        for c in (code, scr):
            fams = minimal_codewords(c)
            census = minimal_codeword_census(c)
            expected = set(fams.codewords(ctx))
            assert census == expected, (c.decomposition.type_vector,
                                        len(census), len(expected))
            assert len(census) == c.k * (ctx.order - 1)
            checked += 1
    assert checked >= 6
    _pass(9, f"census equals the single-block families on {checked} "
             f"instances (original and coordinate-scrambled)")


def test_criterion_10_geometric_dual():
    rng = random.Random(7)
    f64 = FieldContext(2, 1, 6)
    f32 = FieldContext(2, 1, 5)
    count = 0
    for ctx, k in ((f64, 2), (f32, 2), (f64, 3)):
        for _ in range(3):
            code = random_decomposable(ctx, k, rng)
            typ = code.decomposition.type_vector
            expected = tuple(sorted((ctx.m - t for t in typ), reverse=True))
            dual = geometric_dual(code.strip_decomposition())
            dec = detect_complete_decomposability(dual)
            assert dec is not None and dec.type_vector == expected, (
                typ, expected, dec)
            double = geometric_dual(dual.with_decomposition(dec))
            ddec = detect_complete_decomposability(double.strip_decomposition())
            assert ddec is not None and ddec.type_vector == typ
            count += 1
    _pass(10, f"geometric dual complements the type and the double dual "
              f"returns it on {count} sampled codes")


def test_criterion_11_family_partition():
    rng = random.Random(11)
    f16 = FieldContext(2, 1, 4)
    f32 = FieldContext(2, 1, 5)
    f27 = FieldContext(3, 1, 3)
    lam = f16.elements_of_degree(4)[0]
    instances = [
        build_completely_decomposable(f16, [[1, lam], [1, lam]]),
        build_completely_decomposable(
            f16, [[1, lam], [1, f16.mul(lam, lam)], [1, lam]]),
        build_completely_decomposable(
            f32, [[1, f32.elements_of_degree(5)[0]]] * 2),
        build_completely_decomposable(
            f27, [[1, f27.elements_of_degree(3)[0]],
                  [1, f27.elements_of_degree(3)[1]]]),
        random_decomposable(f16, 3, rng),
    ]
    for code in instances:
        ctx = code.ctx
        k = code.k
        typ = code.decomposition.type_vector
        # one weight per projective point x (leading entry 1); the
        # messages of x's weight are its multiples beta * x
        weights = projective_weights(ctx, code.generator)
        points = list(projective_points(ctx, k))
        # per-step set equality for every shortening step: the
        # weight-n_t messages whose first nonzero entry is entry t - 1
        for t in range(1, k):
            fam = minimum_weight_family(code, t)
            fam_msgs = set(fam.messages(ctx, k))
            assert len(fam_msgs) == fam.size
            n_t = typ[t - 1]
            enum_msgs = {tuple(ctx.mul(beta, v) for v in x)
                         for x, w in zip(points, weights)
                         if w == n_t and x.index(1) == t - 1
                         for beta in range(1, ctx.order)}
            assert fam_msgs == enum_msgs, (typ, t, len(fam_msgs),
                                           len(enum_msgs))
        # trailing families partition the minimum-weight words
        rep = min_weight_count_formula(code)
        ell = trailing_run_length(typ)
        total = sum(minimum_weight_family(code, t).size
                    for t in range(k - ell, k)) + (ctx.order - 1)
        enum_min = (ctx.order - 1) * int((weights == typ[-1]).sum())
        assert total == rep.formula_count == enum_min, (typ, total,
                                                        rep.formula_count,
                                                        enum_min)
    _pass(11, f"family partition and per-step set equality on "
              f"{len(instances)} instances")