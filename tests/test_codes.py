"""Rank-metric code mechanics: weights, supports, distributions against
independent oracles, block constructions, detection round-trips,
minimal codewords, and duals."""

import json
import random
from collections import Counter
from pathlib import Path

import pytest

from rankdec import CapExceededError, FalsificationAlarm, FieldContext
from rankdec.codes import (
    _line_candidates,
    _pick_basis,
    blocks_scalar_unrelated,
    Decomposition,
    EquivalenceMap,
    RankCode,
    apply_equivalence,
    build_completely_decomposable,
    code_from_spec,
    code_support,
    detect_complete_decomposability,
    dual_code,
    geometric_dual,
    is_mrd,
    is_nondegenerate,
    min_distance,
    minimal_codeword_census,
    minimal_codewords,
    random_gl,
    random_decomposable,
    random_gl_ext,
    rank_weight,
    support,
    weight_distribution,
)
from rankdec.enumeration import (
    message_from_index,
    message_space_size,
    projective_count,
    projective_points,
    projective_weights,
    weight_counts,
)
from rankdec.fields import gaussian_binomial
from rankdec.linalg import RowSpace, field_inverse, field_matmul, field_vecmat
from rankdec.subspaces import span

from oracles import blocks_by_inverse


#: detection results (type, blocks, col_map rows) for seeded scrambled
#: codes over F_2^4..7, F_3^3, F_3^4 and F_(4^3) with k <= 3
DETECT_PINS = json.loads(
    (Path(__file__).parent / "data" / "detect_decompositions.json").read_text())


#: the field classes (p, a, m) and block types of the detect benchmark
DETECT_CLASSES = [
    ((2, 1, 4), (3, 2, 1)), ((2, 1, 4), (2, 2, 1)), ((2, 1, 5), (4, 3, 2)),
    ((2, 1, 5), (3, 2, 1)), ((2, 1, 5), (4, 2)), ((2, 1, 6), (4, 3)),
    ((2, 1, 6), (5, 1)), ((2, 1, 7), (5, 2)), ((2, 1, 7), (3, 3)),
    ((2, 1, 7), (4, 2, 1)), ((3, 1, 3), (2, 2, 1)), ((3, 1, 3), (2, 1, 1)),
    ((3, 1, 3), (2, 2, 2)), ((3, 1, 4), (3, 3)), ((3, 1, 4), (2, 1)),
    ((3, 1, 5), (3, 2)), ((2, 2, 3), (2, 1)), ((2, 2, 3), (2, 2)),
    ((2, 2, 4), (3, 3)), ((2, 2, 4), (3, 2)),
]


class OneRowCode(RankCode):
    """A faulty code: every message reads as the first generator row, so
    the codewords detection picks share one support."""

    def codeword(self, msg):
        return self.generator[0]


def identity_code(ctx, k):
    return RankCode(ctx, [[1 if i == j else 0 for j in range(k)]
                          for i in range(k)])


def full_weight_blocks(ctx, typ, rng):
    """One random block of F_q-independent entries per length in typ."""
    blocks = []
    for t in typ:
        u = [rng.randrange(1, ctx.order) for _ in range(t)]
        while rank_weight(ctx, u) != t:
            u = [rng.randrange(1, ctx.order) for _ in range(t)]
        blocks.append(u)
    return blocks


class TestRankWeightAndSupport:
    def test_weights(self, f64):
        lam = f64.elements_of_degree(6)[0]
        assert rank_weight(f64, [0, 0, 0]) == 0
        assert rank_weight(f64, [1, lam, f64.mul(lam, lam)]) == 3
        assert rank_weight(f64, [1, lam, f64.add(1, lam)]) == 2

    def test_support_frozen_f4(self, f4):
        # entries 1, w, 1+w expand over Gamma = (1, w) to rows
        # (1,0), (0,1), (1,1); the column span is {(a, b, a+b)}
        w = 2
        s = support(f4, [1, w, f4.add(1, w)])
        assert s.dim == 2
        assert set(s.basis_rows()) == {(1, 0, 1), (0, 1, 1)}

    def test_support_dimension_is_weight(self, f64, f81):
        """Row rank (rank_weight), F_q-span dimension and column rank
        (support) agree over F_(2^6), F_(3^4) and F_(4^3)."""
        rng = random.Random(0)
        for ctx in (f64, f81, FieldContext(2, 2, 3)):
            for _ in range(25):
                v = [rng.randrange(ctx.order) for _ in range(rng.randrange(1, 6))]
                assert support(ctx, v).dim == rank_weight(ctx, v) == span(ctx, v).dim

    def test_support_basis_independent(self, f64):
        # expand v over F_2 in the powers of another generator lam: the
        # column span equals the support read in the power basis of x
        rng = random.Random(1)
        lam = f64.elements_of_degree(6)[1]
        gamma2 = [f64.pow(lam, i) for i in range(6)]
        assert gamma2 != list(f64.fq_power_basis())
        # digits(z) = c * B for the rows B_i = digits(gamma2_i)
        to_gamma2 = field_inverse([list(f64.digits(g)) for g in gamma2], f64)
        changed = 0
        for _ in range(15):
            v = [rng.randrange(64) for _ in range(5)]
            coords = [field_vecmat(list(f64.digits(z)), to_gamma2, f64) for z in v]
            for z, cs in zip(v, coords):
                acc = 0
                for c, g in zip(cs, gamma2):
                    acc = f64.add(acc, f64.mul(c, g))
                assert acc == z
            changed += any(list(f64.digits(z)) != cs for z, cs in zip(v, coords))
            expansion = RowSpace(f64, 5, [[cs[s] for cs in coords]
                                          for s in range(6)])
            assert expansion == support(f64, v)
        assert changed

    def test_full_rank_vector(self, f16):
        lam = f16.elements_of_degree(4)[0]
        v = [f16.pow(lam, i) for i in range(4)]
        s = support(f16, v)
        assert s.dim == 4 == rank_weight(f16, v)


class TestCodeSupport:
    def test_identity_code(self, f64):
        c = identity_code(f64, 3)
        assert code_support(c).dim == 3
        assert is_nondegenerate(c)

    def test_zero_column_degenerate(self, f64):
        lam = f64.elements_of_degree(6)[0]
        c = RankCode(f64, [[1, lam, 0], [lam, 1, 0]])
        assert code_support(c).dim == 2 < c.n
        assert not is_nondegenerate(c)

    def test_decomposable_support_splits(self, f64):
        lam = f64.elements_of_degree(6)[0]
        c = build_completely_decomposable(f64, [[1, lam], [1, lam]])
        assert code_support(c).dim == 4
        sups = [support(f64, row) for row in c.generator]
        total = sups[0].sum(sups[1])
        assert total.dim == sum(s.dim for s in sups)  # direct sum


class TestWeightDistribution:
    def test_single_full_weight_block(self, f64):
        lam = f64.elements_of_degree(6)[0]
        c = build_completely_decomposable(f64, [[1, lam, f64.mul(lam, lam)]])
        wd = weight_distribution(c)
        assert list(wd.counts) == [1, 0, 0, 63]

    @pytest.mark.parametrize("p,m,k", [(2, 3, 2), (3, 2, 2)])
    def test_identity_code_distribution_formula(self, p, m, k):
        """Against the independent count of message tuples spanning an
        i-dimensional subspace: [m choose i]_q * prod_(t<i) (q^k - q^t)."""
        ctx = FieldContext(p, 1, m)
        wd = weight_distribution(identity_code(ctx, k))
        q = ctx.q
        for i in range(k + 1):
            expected = gaussian_binomial(m, i, q)
            for t in range(i):
                expected *= q**k - q**t
            assert wd[i] == expected

    def test_matches_pointwise_enumeration(self, f16):
        lam = f16.elements_of_degree(4)[0]
        c = build_completely_decomposable(f16, [[1, lam], [1, lam]])
        wd = weight_distribution(c)
        brute = Counter()
        for idx in range(message_space_size(f16, 2)):
            w = rank_weight(f16, c.codeword(message_from_index(f16, 2, idx)))
            brute[w] += 1
        assert list(wd.counts) == [brute.get(i, 0) for i in range(c.n + 1)]

    def test_matches_pointwise_enumeration_q3(self, f81):
        lam = f81.elements_of_degree(4)[0]
        c = build_completely_decomposable(f81, [[1, lam], [1, lam]])
        wd = weight_distribution(c)
        brute = Counter()
        for idx in range(message_space_size(f81, 2)):
            w = rank_weight(f81, c.codeword(message_from_index(f81, 2, idx)))
            brute[w] += 1
        assert list(wd.counts) == [brute.get(i, 0) for i in range(c.n + 1)]

    def test_threads_agree(self, f64):
        lam = f64.elements_of_degree(6)[0]
        c = build_completely_decomposable(f64, [[1, lam], [1, lam]])
        assert weight_distribution(c, threads=3) == weight_distribution(c)

    def test_cap_refusal(self, f64):
        lam = f64.elements_of_degree(6)[0]
        c = build_completely_decomposable(f64, [[1, lam]] * 3)
        with pytest.raises(CapExceededError) as e:
            weight_distribution(c, cap=1000)
        # the 1 + 64 + 64^2 normalised messages, not all 2^18
        assert e.value.required == 4161

    @pytest.mark.parametrize("p,a,m,typ", [
        (2, 1, 4, (3, 2, 1)), (3, 1, 3, (2, 1)), (2, 2, 3, (2, 1)),
    ], ids=["q2", "q3", "q4"])
    def test_one_budget_counts_the_enumerated_words(self, p, a, m, typ):
        """Distribution and detection spend one budget, the
        projective_count words they enumerate: each takes a scrambled
        code at cap = projective_count, below q^(mk), and refuses it one
        word lower with that count as required."""
        ctx = FieldContext(p, a, m)
        lam = ctx.elements_of_degree(m)[0]
        c = build_completely_decomposable(
            ctx, [[ctx.pow(lam, j) for j in range(t)] for t in typ])
        scr = apply_equivalence(c.relabeled(random_gl_ext(ctx, c.k, seed=5)),
                                random_gl(ctx, c.n, seed=6)).strip_decomposition()
        words = projective_count(ctx, c.k)
        assert message_space_size(ctx, c.k) > words
        assert list(weight_distribution(scr, cap=words).counts) == weight_counts(
            ctx, scr.generator)
        assert detect_complete_decomposability(scr, cap=words).type_vector == typ
        for call in (weight_distribution, detect_complete_decomposability):
            with pytest.raises(CapExceededError) as e:
                call(scr, cap=words - 1)
            assert (e.value.required, e.value.cap) == (words, words - 1)

    def test_nonuniform_q4_tower(self):
        ctx = FieldContext(2, 2, 3)  # q = 4, m = 3
        lam = ctx.elements_of_degree(3)[0]
        c = build_completely_decomposable(ctx, [[1, lam]])
        wd = weight_distribution(c)
        assert wd.total() == 4**3 and list(wd.counts) == [1, 0, 63]


class TestMinDistanceAndMrd:
    def test_identity_code_mrd(self, f16):
        c = identity_code(f16, 2)
        assert min_distance(c) == 1
        assert is_mrd(c)

    def test_full_weight_single_block_mrd(self, f64):
        lam = f64.elements_of_degree(6)[0]
        c = build_completely_decomposable(f64, [[1, lam, f64.mul(lam, lam)]])
        assert min_distance(c) == 3
        assert is_mrd(c)

    def test_decomposable_not_mrd(self, f64):
        lam = f64.elements_of_degree(6)[0]
        c = build_completely_decomposable(f64, [[1, lam], [1, lam]])
        assert min_distance(c) == 2 == c.decomposition.type_vector[-1]
        assert not is_mrd(c)

    @pytest.mark.parametrize("field", [(2, 1, 5), (3, 1, 3), (2, 2, 3)],
                             ids=["q2", "q3", "q4"])
    def test_record_distance_is_the_enumerated_one(self, field):
        """A code with a decomposition record reads d = n_k off the
        record: on random decomposable codes (scrambled too, so the
        record is the detected one) it is the enumerated minimum."""
        ctx = FieldContext(*field)
        rng = random.Random(sum(field))
        for trial in range(6):
            c = random_decomposable(ctx, rng.randrange(1, 4), rng)
            scrambled = apply_equivalence(c, random_gl(ctx, c.n, seed=trial))
            for code in (c, scrambled):
                d = weight_distribution(code).min_distance
                assert min_distance(code) == d == code.decomposition.type_vector[-1]
                assert min_distance(code.strip_decomposition()) == d

    def test_one_dim_mrd_iff_full_weight(self, f16):
        lam = f16.elements_of_degree(4)[0]
        good = RankCode(f16, [[1, lam, f16.mul(lam, lam)]])
        assert rank_weight(f16, good.generator[0]) == 3 and is_mrd(good)
        bad = RankCode(f16, [[1, lam, f16.add(1, lam)]])
        assert rank_weight(f16, bad.generator[0]) == 2 and not is_mrd(bad)


class TestDirectSumAndEquivalence:
    def test_weights_subadditive_with_equality_iff_independent(self, f16):
        from rankdec.subspaces import span, subspace_sum

        lam = f16.elements_of_degree(4)[0]
        a = build_completely_decomposable(f16, [[1, lam]])
        s = build_completely_decomposable(f16, [[1, lam], [1, lam]])
        rng = random.Random(2)
        for _ in range(30):
            x = [rng.randrange(16) for _ in range(2)]
            w = rank_weight(f16, s.codeword(x))
            pieces = [a.codeword([xi]) for xi in x]
            parts = sum(rank_weight(f16, p) for p in pieces)
            assert w <= parts
            spans = [span(f16, p) for p in pieces]
            independent = subspace_sum(*spans).dim == sum(u.dim for u in spans)
            assert (w == parts) == independent

    def test_apply_equivalence_preserves_distribution(self, f16):
        lam = f16.elements_of_degree(4)[0]
        c = build_completely_decomposable(f16, [[1, lam], [1, lam]])
        base = weight_distribution(c)
        for seed in range(10):
            amap = random_gl(f16, c.n, seed=seed)
            assert weight_distribution(apply_equivalence(c, amap)) == base

    def test_identity_and_permutation_equivalence(self, f16):
        lam = f16.elements_of_degree(4)[0]
        c = build_completely_decomposable(f16, [[1, lam], [1, lam]])
        ident = EquivalenceMap.identity(f16, 4)
        assert apply_equivalence(c, ident).generator == c.generator
        perm = EquivalenceMap(f16, [[0, 1, 0, 0], [1, 0, 0, 0],
                                    [0, 0, 0, 1], [0, 0, 1, 0]])
        assert weight_distribution(apply_equivalence(c, perm)) == weight_distribution(c)

    def test_random_gl_contract(self, f16):
        a = random_gl(f16, 3, seed=11)
        b = random_gl(f16, 3, seed=11)
        assert a.rows == b.rows
        inv = EquivalenceMap(f16, field_inverse([list(r) for r in a.rows], f16))
        assert inv.compose(a).rows == EquivalenceMap.identity(f16, 3).rows
        one = random_gl(FieldContext(3, 1, 2), 1, seed=0)
        assert one.rows[0][0] != 0
        # the draws pass the public constructor's checks
        for ctx in (f16, FieldContext(3, 1, 2), FieldContext(2, 2, 2)):
            for seed in range(5):
                a = random_gl(ctx, 4, seed=seed)
                assert EquivalenceMap(ctx, a.rows) == a

    @pytest.mark.parametrize("field", [(2, 1, 4), (3, 1, 2), (2, 2, 2)])
    def test_equivalence_map_checks(self, field):
        """Singular matrices and entries outside F_q are refused on the
        packed (q = 2) and the context-int (q > 2) rank paths."""
        ctx = FieldContext(*field)
        a = [list(r) for r in random_gl(ctx, 3, seed=4).rows]
        EquivalenceMap(ctx, a)
        with pytest.raises(ValueError, match="singular"):
            EquivalenceMap(ctx, [a[0], a[1], a[0]])
        outside = next(x for x in range(ctx.order) if x not in ctx.fq_elements())
        with pytest.raises(ValueError, match="F_q"):
            EquivalenceMap(ctx, [a[0], a[1], [outside, 0, 0]])

    @pytest.mark.parametrize("field,typ", [
        ((2, 1, 5), (3, 2, 1)), ((3, 1, 4), (3, 2)), ((2, 2, 3), (2, 2, 1)),
    ])
    def test_derived_maps_pass_the_public_checks(self, field, typ):
        """The maps built without the constructor's checks (identity,
        compose, and the col_maps of apply_equivalence and detection)
        are rebuilt unchanged by it."""
        ctx = FieldContext(*field)
        n = sum(typ)
        for seed in range(3):
            c = build_completely_decomposable(
                ctx, full_weight_blocks(ctx, typ, random.Random(seed)))
            amap = random_gl(ctx, n, seed=seed)
            scr = apply_equivalence(
                c.relabeled(random_gl_ext(ctx, c.k, seed=seed)), amap)
            dec = detect_complete_decomposability(scr.strip_decomposition())
            maps = [EquivalenceMap.identity(ctx, n),
                    amap.compose(random_gl(ctx, n, seed=seed + 10)),
                    scr.decomposition.col_map, dec.col_map]
            for m in maps:
                assert EquivalenceMap(ctx, m.rows) == m

    @pytest.mark.parametrize("field,typ", [
        ((2, 1, 5), (3, 2, 1)), ((3, 1, 4), (3, 2)), ((2, 2, 3), (2, 2, 1)),
    ])
    def test_derived_codes_pass_the_public_checks(self, field, typ):
        """The codes built without the constructor's checks are rebuilt
        unchanged by it, record included, with int entries throughout."""
        ctx = FieldContext(*field)
        for seed in range(3):
            c = build_completely_decomposable(
                ctx, full_weight_blocks(ctx, typ, random.Random(seed)))
            scr = apply_equivalence(
                c.relabeled(random_gl_ext(ctx, c.k, seed=seed)),
                random_gl(ctx, c.n, seed=seed))
            bare = scr.strip_decomposition()
            derived = [c, scr, bare, dual_code(c), geometric_dual(c),
                       geometric_dual(bare),
                       bare.with_decomposition(scr.decomposition)]
            for d in derived:
                rebuilt = RankCode(ctx, d.generator, d.decomposition)
                assert rebuilt.generator == d.generator
                assert all(type(v) is int for row in d.generator for v in row)


class TestBuildAndDetect:
    def test_build_sorts_blocks(self, f64):
        lam = f64.elements_of_degree(6)[0]
        c = build_completely_decomposable(
            f64, [[1, lam], [1, lam, f64.mul(lam, lam)]])
        assert c.decomposition.type_vector == (3, 2)

    def test_build_rejects_dependent_entries(self, f64):
        with pytest.raises(ValueError, match="F_q-independent"):
            build_completely_decomposable(f64, [[1, 1]])

    def test_build_rejects_overlong_block(self, f16):
        lam = f16.elements_of_degree(4)[0]
        with pytest.raises(ValueError, match="< m"):
            build_completely_decomposable(
                f16, [[1, lam, f16.mul(lam, lam), f16.pow(lam, 3)]])

    def test_detect_identity_code(self, f16):
        dec = detect_complete_decomposability(identity_code(f16, 2))
        assert dec is not None and dec.type_vector == (1, 1)

    def test_detect_roundtrip_scrambled(self, f64):
        lam = f64.elements_of_degree(6)[2]
        c = build_completely_decomposable(
            f64, [[1, lam], [1, f64.mul(lam, lam)], [1, lam]])
        b = random_gl_ext(f64, 3, seed=4)
        amap = random_gl(f64, 6, seed=9)
        scr = apply_equivalence(c.relabeled(b), amap).strip_decomposition()
        dec = detect_complete_decomposability(scr)
        assert dec is not None
        assert dec.type_vector == c.decomposition.type_vector
        scr.with_decomposition(dec)  # must validate

    @pytest.mark.parametrize("p,a,m,typ", [
        (2, 1, 4, (3, 2, 1)), (3, 1, 3, (2, 1, 1)), (2, 2, 3, (2, 1)),
    ])
    def test_detect_candidate_order(self, p, a, m, typ):
        """Detection scans the points with d_x = m - w >= 1 by d_x
        descending and, within one d_x, in projective_points order."""
        ctx = FieldContext(p, a, m)
        rng = random.Random(len(typ))
        blocks = [[rng.randrange(1, ctx.order) for _ in range(t)] for t in typ]
        code = apply_equivalence(
            build_completely_decomposable(ctx, blocks).relabeled(
                random_gl_ext(ctx, len(typ), seed=1)),
            random_gl(ctx, sum(typ), seed=2))
        weights = projective_weights(ctx, code.generator)
        pts = list(projective_points(ctx, code.k))
        expected = sorted(((m - int(w), i) for i, w in enumerate(weights) if w < m),
                          key=lambda t: -t[0])
        candidates = list(_line_candidates(ctx, weights))
        assert candidates == expected
        assert len({d for d, _ in candidates}) > 1 and len(expected) < len(pts)
        for d, i in candidates:
            assert rank_weight(ctx, code.codeword(pts[i])) == m - d

    @pytest.mark.parametrize("pin", DETECT_PINS, ids=lambda d: "{p}_{a}_{m}-".format(
        **d["field"]) + "".join(map(str, d["type"])))
    def test_detect_pinned_decompositions(self, pin):
        """Detection returns the pinned record (type, blocks and col_map)
        for each stored code, and the code accepts it."""
        code = RankCode(FieldContext.from_descriptor(pin["field"]), pin["generator"])
        dec = detect_complete_decomposability(code)
        assert list(dec.type_vector) == pin["type"]
        assert [list(u) for u in dec.blocks] == pin["blocks"]
        assert [list(r) for r in dec.col_map.rows] == pin["col_map"]
        code.with_decomposition(dec)

    def test_detect_scattered_is_none(self, f64):
        # spans of (x, x^q) pairs meet every F_{q^m}-line in dim <= 1,
        # so no basis can reach total weight n when n > k
        lam = f64.elements_of_degree(6)[0]
        w = [1, lam, f64.mul(lam, lam)]
        gen = [w, [f64.frobenius(v, 1) for v in w]]
        c = RankCode(f64, gen)
        assert is_nondegenerate(c)
        assert detect_complete_decomposability(c) is None

    def test_detect_degenerate_is_none(self, f64):
        lam = f64.elements_of_degree(6)[0]
        c = RankCode(f64, [[1, lam, 0], [lam, 1, 0]])
        assert detect_complete_decomposability(c) is None

    def test_degenerate_is_none_past_the_cap(self, f64):
        """A degenerate code has no decomposition at any size: detection
        answers None within the cap, whether or not the scan finds a
        basis of total weight n, and past a cap it does not reach."""
        lam = f64.elements_of_degree(6)[0]
        for gen in ([[1, lam, 0], [lam, 1, 0]], [[1, lam, 0], [1, 0, 0]],
                    [[0, 1, lam, 0], [0, lam, 1, 1]]):
            c = RankCode(f64, gen)
            assert not is_nondegenerate(c)
            assert detect_complete_decomposability(c) is None
            assert detect_complete_decomposability(c, cap=1) is None

    @pytest.mark.parametrize("m,k,n", [(5, 3, 10), (4, 4, 17)])
    def test_degenerate_scan_stops_at_the_greedy_basis(self, m, k, n):
        """A k x k identity padded with zero columns to n has weights
        1..k, so every basis totals above km - n, and its k-sets of
        points (1,057 and 4,369 points) are far too many to try: the scan
        reads a handful of candidates, keeps the greedy basis and answers
        None."""
        ctx = FieldContext(2, 1, m)
        code = RankCode(ctx, [[int(j == i) for j in range(n)] for i in range(k)])
        assert not is_nondegenerate(code)
        weights = projective_weights(ctx, code.generator)
        read = []

        def reading():
            for pair in _line_candidates(ctx, weights):
                read.append(pair)
                yield pair

        assert _pick_basis(ctx, reading(), k, m * k - n) is None
        assert len(read) <= 2 ** k < int((weights < m).sum())
        assert detect_complete_decomposability(code) is None

    def test_nondegenerate_past_the_cap_raises(self, f64):
        lam = f64.elements_of_degree(6)[0]
        c = build_completely_decomposable(f64, [[1, lam], [1]])
        with pytest.raises(CapExceededError):
            detect_complete_decomposability(c.strip_decomposition(), cap=64)
        assert detect_complete_decomposability(
            c.strip_decomposition(), cap=65).type_vector == (2, 1)

    @pytest.mark.parametrize("field", [(2, 1, 5), (3, 1, 3), (2, 2, 3)])
    def test_failed_guard_on_nondegenerate_code_alarms(self, field):
        """Picked codewords whose supports overlap, on a nondegenerate
        code, are a falsification, not an absent decomposition."""
        ctx = FieldContext(*field)
        c = build_completely_decomposable(
            ctx, full_weight_blocks(ctx, (2, 1), random.Random(3)))
        faulty = OneRowCode(ctx, c.generator)
        assert is_nondegenerate(faulty)
        with pytest.raises(FalsificationAlarm, match="nondegenerate"):
            detect_complete_decomposability(faulty)

    @pytest.mark.parametrize("field,typ", DETECT_CLASSES,
                             ids=lambda v: "".join(map(str, v)))
    def test_blocks_match_the_coordinate_change(self, field, typ):
        """The blocks read off the supports' pivots are the blocks that
        the coordinate change P^-1 gives (``oracles.blocks_by_inverse``),
        for the codewords c_i = (weight-complementary row i) * col_map,
        and P is the col_map."""
        ctx = FieldContext(*field)
        for seed in range(2):
            c = build_completely_decomposable(
                ctx, full_weight_blocks(ctx, typ, random.Random(seed)))
            scr = apply_equivalence(
                c.relabeled(random_gl_ext(ctx, c.k, seed=seed)),
                random_gl(ctx, c.n, seed=seed + 7)).strip_decomposition()
            dec = detect_complete_decomposability(scr)
            assert dec.type_vector == typ
            scr.with_decomposition(dec)
            wc = [list(r) for r in dec.weight_complementary_generator()]
            cwords = field_matmul(wc, [list(r) for r in dec.col_map.rows], ctx)
            blocks, p_rows = blocks_by_inverse(ctx, cwords)
            assert blocks == list(dec.blocks)
            assert [tuple(r) for r in p_rows] == list(dec.col_map.rows)

    def test_type_uniqueness_round_trips(self, f64):
        lam = f64.elements_of_degree(6)[1]
        c = build_completely_decomposable(
            f64, [[1, lam, f64.mul(lam, lam)], [1, lam]])
        for seed in range(5):
            b = random_gl_ext(f64, 2, seed=seed)
            amap = random_gl(f64, 5, seed=seed + 100)
            scr = apply_equivalence(c.relabeled(b), amap).strip_decomposition()
            assert detect_complete_decomposability(scr).type_vector == (3, 2)

    def test_decomposition_record_validation(self, f64):
        lam = f64.elements_of_degree(6)[0]
        c = build_completely_decomposable(f64, [[1, lam], [1, lam]])
        wrong = Decomposition((2, 2), ((1, lam), (1, f64.mul(lam, lam))),
                              EquivalenceMap.identity(f64, 4))
        with pytest.raises(ValueError, match="does not generate"):
            c.strip_decomposition().with_decomposition(wrong)


class TestMinimalCodewords:
    @pytest.fixture
    def unrelated(self, f16):
        """Type (2, 2) with block spans that are not scalar multiples of
        each other, the hypothesis for the exact family description."""
        lam = f16.elements_of_degree(4)[0]
        c = build_completely_decomposable(
            f16, [[1, lam], [1, f16.mul(lam, lam)]])
        assert blocks_scalar_unrelated(c)
        return c

    def test_count_22_over_f16(self, f16, unrelated):
        fams = minimal_codewords(unrelated)
        assert fams.count(f16) == 2 * 15 == 30
        words = set(fams.codewords(f16))
        assert len(words) == 30
        census = minimal_codeword_census(unrelated)
        assert census == words

    def test_each_family_word_passes_oracle(self, f16, unrelated):
        fams = minimal_codewords(unrelated)
        census = minimal_codeword_census(unrelated)
        for w in list(fams.codewords(f16))[:6]:
            assert w in census

    def test_two_block_word_not_minimal(self, f16, unrelated):
        lam = f16.elements_of_degree(4)[0]
        w = unrelated.codeword([1, lam])
        assert w not in minimal_codeword_census(unrelated)

    def test_identical_blocks_flagged(self, f16):
        lam = f16.elements_of_degree(4)[0]
        c = build_completely_decomposable(f16, [[1, lam], [1, lam]])
        assert not blocks_scalar_unrelated(c)

    def test_k1_all_nonzero_minimal(self, f16):
        lam = f16.elements_of_degree(4)[0]
        c = build_completely_decomposable(f16, [[1, lam]])
        census = minimal_codeword_census(c)
        for idx in range(1, 16):
            assert c.codeword(message_from_index(f16, 1, idx)) in census

    def test_census_on_scrambled_code(self, f16, unrelated):
        amap = random_gl(f16, 4, seed=3)
        scr = apply_equivalence(unrelated, amap)
        fams = minimal_codewords(scr)
        assert minimal_codeword_census(scr) == set(fams.codewords(f16))


class TestDuals:
    def test_classical_dual_dimensions(self, f64):
        lam = f64.elements_of_degree(6)[0]
        c = build_completely_decomposable(f64, [[1, lam], [1, lam]])
        d = dual_code(c)
        assert (d.n, d.k) == (4, 2)
        for row in d.generator:
            for crow in c.generator:
                acc = 0
                for x, y in zip(row, crow):
                    acc = f64.add(acc, f64.mul(x, y))
                assert acc == 0

    @pytest.mark.parametrize("p,a,m", [(2, 1, 3), (2, 1, 4), (3, 1, 2),
                                       (3, 1, 3), (2, 2, 2)])
    def test_classical_dual_rank_macwilliams(self, p, a, m):
        # rank MacWilliams identity in binomial-moment form (Delsarte
        # 1978; Ravagnani 2016), for every nu in 0..n:
        #   sum_(i<=n-nu) A_i(C) [n-i, nu]_q q^(m nu)
        #     = |C| sum_(j<=nu) A_j(C^perp) [n-j, nu-j]_q
        ctx = FieldContext(p, a, m)
        q = ctx.q
        rng = random.Random(100 * p + 10 * a + m)
        for n in (3, 4, 5):
            for _ in range(4):
                k = rng.randrange(1, n)
                while True:
                    rows = [[rng.randrange(ctx.order) for _ in range(n)]
                            for _ in range(k)]
                    try:
                        code = RankCode(ctx, rows)
                        break
                    except ValueError:
                        continue
                dual = dual_code(code)
                assert (dual.n, dual.k) == (n, n - k)
                a_c = weight_distribution(code).counts
                a_d = weight_distribution(dual).counts
                for nu in range(n + 1):
                    lhs = q ** (m * nu) * sum(
                        a_c[i] * gaussian_binomial(n - i, nu, q)
                        for i in range(n - nu + 1))
                    rhs = ctx.order ** k * sum(
                        a_d[j] * gaussian_binomial(n - j, nu - j, q)
                        for j in range(nu + 1))
                    assert lhs == rhs, (n, k, nu, a_c, a_d)

    def test_geometric_dual_blockwise_type(self, f64):
        lam = f64.elements_of_degree(6)[0]
        c = build_completely_decomposable(f64, [[1, lam]] * 3)
        d = geometric_dual(c)
        assert d.decomposition.type_vector == (4, 4, 4)
        assert d.n == 3 * 6 - 6

    def test_geometric_dual_generic_path_detects(self, f64):
        lam = f64.elements_of_degree(6)[1]
        c = build_completely_decomposable(f64, [[1, lam], [1, lam]])
        d = geometric_dual(c.strip_decomposition())
        assert d.decomposition is None
        dec = detect_complete_decomposability(d)
        assert dec is not None and dec.type_vector == (4, 4)

    def test_double_dual_type(self, f64):
        lam = f64.elements_of_degree(6)[2]
        c = build_completely_decomposable(
            f64, [[1, lam, f64.mul(lam, lam)], [1, lam]])
        dd = geometric_dual(geometric_dual(c))
        assert dd.decomposition.type_vector == c.decomposition.type_vector

    @pytest.mark.parametrize("p,m", [(2, 3), (3, 2)])
    def test_geometric_dual_undefined_on_full_line(self, p, m):
        # G = [[1, x, ..., x^(m-1), 0], [0, ..., 0, 1]]: the system holds
        # the whole line <(1, 0)>, so the dual generator loses rank
        ctx = FieldContext(p, 1, m)
        powers = list(ctx.fq_power_basis())
        code = RankCode(ctx, [powers + [0], [0] * m + [1]])
        assert is_nondegenerate(code)
        with pytest.raises(ValueError, match="geometric dual undefined"):
            geometric_dual(code)


class TestSerialization:
    def test_code_roundtrip(self, f64):
        lam = f64.elements_of_degree(6)[0]
        c = build_completely_decomposable(f64, [[1, lam], [1, lam]])
        c2 = RankCode.from_json(c.to_json())
        assert c2.generator == c.generator
        assert c2.decomposition.type_vector == c.decomposition.type_vector

    def test_code_from_spec_entries_and_geometric(self):
        spec = {
            "field": {"p": 2, "a": 1, "m": 6},
            "blocks": [
                {"geometric": {"lambda_degree": 6, "t": 2}},
                {"entries": [1, 14]},
            ],
        }
        c = code_from_spec(spec)
        assert c.decomposition.type_vector == (2, 2)

    def test_code_from_spec_rejects_bad_lambda(self):
        spec = {
            "field": {"p": 2, "a": 1, "m": 6},
            "blocks": [{"geometric": {"lambda_degree": 3, "t": 2, "lambda": 2}}],
        }
        with pytest.raises(ValueError, match="degree"):
            code_from_spec(spec)
