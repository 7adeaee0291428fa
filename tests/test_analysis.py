"""Closed-form minimum-weight counts, bounds, per-step families,
extremal constructions, and the attainment characterizations."""

import random

import pytest

from oracles import canonical_interaction_exponents, hyperplane_product_spaces
from rankdec import FalsificationAlarm, FieldContext, NotApplicableError
from rankdec.analysis import (
    bound_prime,
    bounds_nonprime,
    block_interaction_exponents,
    check_char_nonprime,
    check_char_prime,
    construct_lambda_code,
    construct_lower_attaining,
    construct_subfield_extremal,
    find_lower_attaining_params,
    min_weight_count_formula,
    minimum_weight_family,
    trailing_run_length,
)
from rankdec.codes import (
    apply_equivalence,
    build_completely_decomposable,
    random_gl,
    random_gl_ext,
    rank_weight,
    weight_distribution,
)
from rankdec.enumeration import projective_points, projective_weights


class TestTrailingRun:
    def test_all_equal(self):
        assert trailing_run_length((2, 2, 2)) == 2
        assert trailing_run_length((3,)) == 0

    def test_mixed(self):
        assert trailing_run_length((3, 2, 2)) == 1
        assert trailing_run_length((4, 3, 2)) == 0
        assert trailing_run_length((3, 3, 2)) == 0


class TestBounds:
    def test_collapse_at_ell_zero(self):
        low, up = bounds_nonprime(2, 6, 3, 0)
        assert low == up == 63

    def test_frozen_values(self):
        assert bounds_nonprime(2, 6, 2, 2) == (189, 17199)
        assert bound_prime(2, 7, 2) == 889
        assert bound_prime(2, 7, 0) == 127

    def test_prime_guard(self):
        with pytest.raises(NotApplicableError):
            bound_prime(2, 6, 1)

    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            bounds_nonprime(2, 4, 4, 1)

    @pytest.mark.parametrize("q", [0, 1, 6, -3, 12])
    def test_field_size_must_be_a_prime_power(self, q):
        with pytest.raises(ValueError, match="prime power"):
            bounds_nonprime(q, 7, 3, 2)
        with pytest.raises(ValueError, match="prime power"):
            bound_prime(q, 7, 2)


class TestFormula:
    @pytest.mark.parametrize("e", [3, 6])
    def test_441_for_both_degrees(self, f64, e):
        lam = f64.elements_of_degree(e)[0]
        c = construct_lambda_code(f64, lam, e, [2, 2, 2])
        rep = min_weight_count_formula(c, enumerate_check=True)
        assert rep.formula_count == 441 == rep.enumerated_count
        assert rep.ell == 2
        assert all(v == 1 for v in rep.j_matrix.values())

    def test_889_prime_case(self, f128):
        lam = f128.elements_of_degree(7)[0]
        c = construct_lambda_code(f128, lam, 7, [3, 3, 3])
        rep = min_weight_count_formula(c)
        assert rep.formula_count == 889 == rep.prime_upper_bound

    def test_ell_zero_strictly_decreasing(self, f64):
        lam = f64.elements_of_degree(6)[0]
        c = construct_lambda_code(f64, lam, 6, [3, 2])
        rep = min_weight_count_formula(c, enumerate_check=True)
        assert rep.ell == 0 and rep.formula_count == 63

    def test_full_subfield_blocks_4599(self, f64):
        # F_8-blocks: the dual of F_8 is trace-kernel, itself F_8-linear,
        # so each interaction exponent is m - 3 = 3
        lam = f64.elements_of_degree(3)[0]
        c = construct_lambda_code(f64, lam, 3, [3, 3, 3])
        rep = min_weight_count_formula(c, enumerate_check=True)
        assert set(rep.j_matrix.values()) == {3}
        assert rep.formula_count == 4599 == rep.enumerated_count
        assert rep.formula_count == rep.upper_bound

    def test_sandwich_random_codes(self, f32, f81):
        rng = random.Random(0)
        for ctx, k in [(f32, 2), (f81, 2)]:
            for _ in range(10):
                blocks = []
                for _ in range(k):
                    ln = rng.randrange(1, ctx.m)
                    while True:
                        u = [rng.randrange(ctx.order) for _ in range(ln)]
                        if rank_weight(ctx, u) == ln:
                            break
                    blocks.append(u)
                c = build_completely_decomposable(ctx, blocks)
                rep = min_weight_count_formula(c, enumerate_check=True)
                assert rep.lower_bound <= rep.formula_count <= rep.upper_bound
                assert rep.formula_count == rep.enumerated_count

    def test_report_serialization(self, f64):
        lam = f64.elements_of_degree(6)[0]
        c = construct_lambda_code(f64, lam, 6, [2, 2])
        rep = min_weight_count_formula(c)
        d = rep.to_json()
        assert d["formula_count"] == rep.formula_count
        assert "1,2" in d["j_matrix"]


class TestLambdaIndependence:
    def test_441_for_every_admissible_lambda(self, f64):
        # admissible: blocks of length t = 2 strictly below the degree,
        # or the degree equal to m
        for e in (3, 6):
            for lam in f64.elements_of_degree(e):
                c = construct_lambda_code(f64, lam, e, [2, 2, 2])
                rep = min_weight_count_formula(c)
                assert rep.formula_count == 441

    def test_boundary_t_equals_e_differs(self, f64):
        """With t = e the dual of the block span is the whole relative
        trace kernel and each interaction exponent jumps to e: the count
        is larger and lambda-independence fails across degrees."""
        for lam in f64.elements_of_degree(2):
            c = construct_lambda_code(f64, lam, 2, [2, 2, 2])
            rep = min_weight_count_formula(c, enumerate_check=True)
            assert set(rep.j_matrix.values()) == {2}
            assert rep.formula_count == 1323 == rep.enumerated_count

    def test_errors(self, f64):
        lam = f64.elements_of_degree(3)[0]
        with pytest.raises(ValueError, match="degree"):
            construct_lambda_code(f64, lam, 6, [2, 2])
        with pytest.raises(ValueError, match="within the degree"):
            construct_lambda_code(f64, lam, 3, [4])


class TestWeightFamilies:
    def test_sizes_and_partition(self, f64):
        lam = f64.elements_of_degree(3)[0]
        c = construct_lambda_code(f64, lam, 3, [2, 2, 2])
        rep = min_weight_count_formula(c)
        sizes = [minimum_weight_family(c, t).size for t in (1, 2)]
        assert sum(sizes) + (f64.order - 1) == rep.formula_count

    def test_family_matches_enumeration(self, f16):
        """Set equality between the described family and the weight-n_t
        words appearing at each shortening step: the multiples beta * x
        of the projective points x of weight n_t whose leading 1 is at
        position t - 1."""
        lam = f16.elements_of_degree(4)[0]
        c = build_completely_decomposable(f16, [[1, lam], [1, lam]])
        weights = projective_weights(f16, c.generator)
        t = 1
        fam = minimum_weight_family(c, t)
        fam_msgs = set(fam.messages(f16, c.k))
        assert len(fam_msgs) == fam.size
        n_t = c.decomposition.type_vector[t - 1]
        enum_msgs = {tuple(f16.mul(beta, v) for v in x)
                     for x, w in zip(projective_points(f16, c.k), weights)
                     if w == n_t and x.index(1) == t - 1
                     for beta in range(1, f16.order)}
        assert fam_msgs == enum_msgs

    def test_zero_exponents_give_bare_family(self, f32):
        # blocks in "general position": dual product fills the field and
        # the family at step t is just the scalar multiples of the block
        rng = random.Random(1)
        lam = f32.elements_of_degree(5)[0]
        c = build_completely_decomposable(
            f32, [[1, lam], [1, f32.mul(lam, lam)]])
        fam = minimum_weight_family(c, 1)
        jm = block_interaction_exponents(c)
        expected = (f32.order - 1) * (f32.q ** sum(
            jm[(1, h)] for h in range(2, 3)))
        assert fam.size == expected


class TestSubfieldExtremal:
    def test_q2_e2_r2_k2_counts(self, f16):
        xi = f16.elements_of_degree(4)[0]
        c = construct_subfield_extremal(f16, 2, 2, 2, xi)
        assert c.decomposition.type_vector == (2, 2)
        wd = weight_distribution(c)
        assert wd[2] == 75
        assert list(wd.counts) == [1, 0, 75, 0, 180]  # weights in {2, 4}

    def test_k1_single_block(self, f16):
        xi = f16.elements_of_degree(4)[0]
        c = construct_subfield_extremal(f16, 2, 2, 1, xi)
        wd = weight_distribution(c)
        assert wd[2] == 15  # q^m - 1

    def test_spectrum_m6(self, f64):
        xi = f64.elements_of_degree(6)[0]
        c = construct_subfield_extremal(f64, 3, 2, 2, xi)
        wd = weight_distribution(c)
        nonzero = {i for i, v in enumerate(wd.counts) if v and i}
        assert nonzero == {3, 6}  # {m - e, m}
        rep = min_weight_count_formula(c)
        assert rep.formula_count == wd[3] == rep.upper_bound

    def test_bad_xi_rejected(self, f64):
        xi = f64.elements_of_degree(3)[0]  # lies in F_8 = F_{q^e}, e = 3
        with pytest.raises(ValueError, match="generate"):
            construct_subfield_extremal(f64, 3, 2, 2, xi)


class TestLowerAttaining:
    def test_q3_e2_k2(self, f81):
        xi, mus, lam = find_lower_attaining_params(f81, 2, 2)
        c = construct_lower_attaining(f81, 2, 2, xi, mus, lam)
        assert c.decomposition.type_vector == (2, 2)
        wd = weight_distribution(c)
        rep = min_weight_count_formula(c)
        assert wd[2] == rep.formula_count == rep.lower_bound == (3**4 - 1) * 2

    def test_k1_trivial(self, f81):
        xi, mus, lam = find_lower_attaining_params(f81, 2, 1)
        c = construct_lower_attaining(f81, 2, 1, xi, mus, lam)
        assert min_weight_count_formula(c).formula_count == 3**4 - 1

    def test_precondition_violations(self, f81):
        xi, mus, lam = find_lower_attaining_params(f81, 2, 2)
        with pytest.raises(ValueError, match="exceeds q - 1"):
            construct_lower_attaining(f81, 2, 3, xi, mus + [2], lam)
        with pytest.raises(ValueError, match="norm"):
            construct_lower_attaining(f81, 2, 2, xi, [mus[0], mus[0]], lam)
        inside = f81.subfield_elements(2)[1]
        with pytest.raises(ValueError, match="outside"):
            construct_lower_attaining(f81, 2, 2, inside, mus, lam)


class TestCharacterizations:
    def test_nonprime_verified_on_extremal(self, f64):
        xi = f64.elements_of_degree(6)[0]
        c = construct_subfield_extremal(f64, 3, 2, 3, xi)
        v = check_char_nonprime(c)
        assert v.status == "verified"
        assert v.witnesses["e"] == 3 and v.witnesses["r"] == 2

    def test_nonprime_scrambled_still_verified(self, f64):
        xi = f64.elements_of_degree(6)[1]
        c = construct_subfield_extremal(f64, 2, 3, 2, xi)
        scr = apply_equivalence(c.relabeled(random_gl_ext(f64, 2, seed=3)),
                                random_gl(f64, c.n, seed=4))
        v = check_char_nonprime(scr)
        assert v.status == "verified"
        assert v.witnesses["e"] == 2

    def test_nonprime_gate(self, f64):
        lam = f64.elements_of_degree(6)[0]
        c = construct_lambda_code(f64, lam, 6, [2, 2, 2])  # 441 < 17199
        v = check_char_nonprime(c)
        assert v.status == "not-applicable"

    def test_prime_verified_both_families(self, f128):
        lam = f128.elements_of_degree(7)[0]
        c1 = construct_lambda_code(f128, lam, 7, [3, 3, 3])
        v1 = check_char_prime(c1)
        assert v1.status == "verified"
        c2 = build_completely_decomposable(
            f128, [[1, lam, f128.pow(lam, 3)]] * 3)
        v2 = check_char_prime(c2)
        assert v2.status == "verified"
        assert v2.witnesses["product_dim"] == 6

    def test_prime_gate_below_bound(self, f128):
        lam = f128.elements_of_degree(7)[0]
        mu = f128.elements_of_degree(7)[5]
        c = build_completely_decomposable(
            f128, [[1, lam, f128.mul(lam, lam)], [1, mu, f128.mul(mu, mu)]])
        v = check_char_prime(c)
        rep = min_weight_count_formula(c)
        if rep.formula_count == bound_prime(2, 7, 1):
            assert v.status == "verified"
        else:
            assert v.status == "not-applicable"

    def test_prime_requires_prime(self, f64):
        lam = f64.elements_of_degree(6)[0]
        c = construct_lambda_code(f64, lam, 6, [2, 2])
        with pytest.raises(NotApplicableError):
            check_char_prime(c)

    def test_tampered_count_raises_alarm(self, f128):
        lam = f128.elements_of_degree(7)[0]
        c = construct_lambda_code(f128, lam, 7, [3, 3])
        rep = min_weight_count_formula(c)
        wrong = rep.formula_count - 127  # below the bound it attains
        with pytest.raises(FalsificationAlarm):
            check_char_prime(c, formula_count=wrong)


def _full_weight_block(ctx, length, rng):
    while True:
        u = [rng.randrange(ctx.order) for _ in range(length)]
        if rank_weight(ctx, u) == length:
            return u


@pytest.mark.parametrize("p,a,m", [
    (2, 1, 5), (2, 1, 6), (2, 1, 7), (3, 1, 3), (3, 1, 4), (2, 2, 3),
    (5, 1, 3), (3, 2, 2),
], ids=["F2^5", "F2^6", "F2^7", "F3^3", "F3^4", "F4^3", "F5^3", "F9^2"])
def test_interaction_exponents_two_derivations(p, a, m):
    """j_(i,h) from block entries and trace-kernel rows equals its
    derivation from canonical subspaces (span, trace_dual, product) on
    random completely decomposable codes with ell >= 1.  Each trailing
    run starts with a block U and adds, in turn, a copy of U, a scalar
    multiple c*U and another random block.  U is random, or for
    composite m on odd trials a scaled subfield c*F_(q^e), 1 < e < m,
    whose exponents reach e."""
    ctx = FieldContext(p, a, m)
    rng = random.Random(f"{p}/{a}/{m}")
    subfields = [e for e in range(2, m) if m % e == 0]
    for trial in range(9):
        if subfields and trial % 2:
            t = rng.choice(subfields)
            lam = rng.choice(ctx.elements_of_degree(t))
            u = ctx.scale_row(rng.randrange(1, ctx.order),
                              [ctx.pow(lam, i) for i in range(t)])
        else:
            t = rng.randrange(1, m)
            u = _full_weight_block(ctx, t, rng)
        lead = [_full_weight_block(ctx, rng.randrange(t + 1, m), rng)
                for _ in range(rng.randrange(2) if t + 1 < m else 0)]
        extras = [list(u), ctx.scale_row(rng.randrange(1, ctx.order), u),
                  _full_weight_block(ctx, t, rng)]
        extras = extras[trial % 3:] + extras[:trial % 3]
        code = build_completely_decomposable(
            ctx, lead + [u] + extras[:1 + trial // 3])
        assert trailing_run_length(code.decomposition.type_vector) >= 1
        assert (block_interaction_exponents(code)
                == canonical_interaction_exponents(code)), trial


def test_block_weight_lower_bound(f16, f81):
    """Every codeword of a block code weighs at least the largest block
    length among its nonzero message coefficients."""
    from rankdec.enumeration import message_from_index, message_space_size

    for ctx in (f16, f81):
        lam = ctx.elements_of_degree(4)[0]
        c = build_completely_decomposable(
            ctx, [[1, lam, ctx.mul(lam, lam)], [1, lam]])
        typ = c.decomposition.type_vector
        for idx in range(1, message_space_size(ctx, 2)):
            msg = message_from_index(ctx, 2, idx)
            w = rank_weight(ctx, c.codeword(msg))
            floor = max(typ[j] for j in range(2) if msg[j] != 0)
            assert w >= floor
        assert weight_distribution(c).min_distance == typ[-1]


def test_hyperplane_product_space_enumeration(f32):
    found = list(hyperplane_product_spaces(f32, 2))
    # every geometric-progression space qualifies; spot-check membership
    lam = f32.elements_of_degree(5)[0]
    from rankdec.subspaces import geometric_subspace

    assert geometric_subspace(f32, lam, 2) in found
    from rankdec.subspaces import product, trace_dual as td

    for u in found[:10]:
        assert product(td(u), u).dim == 4


def test_distinct_distributions_equal_minima(f64, f128):
    """The two showcase parameter sets: equal minimum-weight counts but
    different full distributions."""
    lam6 = f64.elements_of_degree(6)[0]
    lam3 = f64.elements_of_degree(3)[0]
    d1 = weight_distribution(construct_lambda_code(f64, lam6, 6, [2, 2, 2]))
    d2 = weight_distribution(construct_lambda_code(f64, lam3, 3, [2, 2, 2]))
    assert d1[2] == d2[2] == 441 and list(d1.counts) != list(d2.counts)
    lam7 = f128.elements_of_degree(7)[0]
    e1 = weight_distribution(construct_lambda_code(f128, lam7, 7, [3, 3, 3]))
    e2 = weight_distribution(build_completely_decomposable(
        f128, [[1, lam7, f128.pow(lam7, 3)]] * 3))
    assert e1[3] == e2[3] == 889 and list(e1.counts) != list(e2.counts)
