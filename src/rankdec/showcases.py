"""The paper's showcase instances, defined once: the m = 6 and m = 7
pairs of codes with equal minimum-weight counts (441, 889) but different
distributions, the hyperplane-block code at the composite-m upper bound
(prop45) and the twisted code at the lower bound over GF(3^4).

:data:`SHOWCASES` maps each name to ``(cap, threads) -> (payload,
pretty_lines)``; the payload's ``"verdict"`` is ``"matched"`` when every
target is hit.  The CLI's ``reproduce``, the bounds suite and the
acceptance tests read their targets, witnesses and codes from here.
"""

from __future__ import annotations

from . import analysis, codes
from .errors import FalsificationAlarm
from .fields import FieldContext

#: m = 6, type (2,2,2): the distribution for the first lambda of each degree
M6_TARGETS = {
    6: (1, 0, 441, 2646, 35280, 127008, 96768),
    3: (1, 0, 441, 4158, 24696, 148176, 84672),
}
#: m = 7, type (3,3,3): progression blocks, and blocks (1, lam, lam^3)
M7_TARGET_PROGRESSION = (1, 0, 0, 889, 5334, 42672, 341376, 1706880, 0, 0)
M7_TARGET_GAPPED = (1, 0, 0, 889, 0, 37338, 394716, 1664208, 0, 0)
#: prop45: words of weight 2, and the nonzero weights that occur
PROP45_MIN_COUNT = 75
PROP45_SPECTRUM = [2, 4]
#: lowerbound: (q^m - 1) k words of weight 2 for q = 3, m = 4, k = 2
LOWERBOUND_MIN_COUNT = (3**4 - 1) * 2


def _counts(code, cap, threads) -> tuple[int, ...]:
    return tuple(codes.weight_distribution(code, cap=cap, threads=threads).counts)


def m6_witness(ctx: FieldContext, degree: int, cap: int, threads: int):
    """First lambda of the given degree (in ``elements_of_degree`` order)
    whose progression code of type (2,2,2) has the m = 6 target
    distribution for that degree, or None."""
    for lam in ctx.elements_of_degree(degree):
        code = analysis.construct_lambda_code(ctx, lam, degree, [2, 2, 2])
        if _counts(code, cap, threads) == M6_TARGETS[degree]:
            return lam
    return None


def m7_gapped_code(ctx: FieldContext, lam: int) -> codes.RankCode:
    """Three blocks (1, lam, lam^3)."""
    return codes.build_completely_decomposable(
        ctx, [[1, lam, ctx.pow(lam, 3)]] * 3)


def m7_witness(ctx: FieldContext, cap: int, threads: int):
    """First lambda of degree 7 whose progression code of type (3,3,3)
    and whose :func:`m7_gapped_code` both hit their targets, or None."""
    for lam in ctx.elements_of_degree(7):
        prog = analysis.construct_lambda_code(ctx, lam, 7, [3, 3, 3])
        if (_counts(prog, cap, threads) == M7_TARGET_PROGRESSION
                and _counts(m7_gapped_code(ctx, lam), cap, threads)
                == M7_TARGET_GAPPED):
            return lam
    return None


def prop45_code() -> tuple[codes.RankCode, int]:
    """The hyperplane-block code for q = 2, e = 2, r = 2, k = 2 over
    GF(2^4), and the first degree-4 element xi it is built from."""
    ctx = FieldContext(2, 1, 4)
    xi = ctx.elements_of_degree(4)[0]
    return analysis.construct_subfield_extremal(ctx, 2, 2, 2, xi), xi


def lowerbound_code() -> tuple[codes.RankCode, tuple[int, list[int], int]]:
    """The twisted code for q = 3, e = 2, k = 2 over GF(3^4), and its
    witnesses (xi, mu_list, lam) from ``find_lower_attaining_params``."""
    ctx = FieldContext(3, 1, 4)
    found = analysis.find_lower_attaining_params(ctx, 2, 2)
    if found is None:
        raise FalsificationAlarm(
            "no parameters for the twisted construction over GF(3^4)")
    return analysis.construct_lower_attaining(ctx, 2, 2, *found), found


def _lambda_report(ctx, lam):
    if lam is None:
        return None
    return {"lambda": lam,
            "minimal_polynomial": list(ctx.minimal_polynomial(lam))}


def reproduce_m6(cap: int, threads: int):
    ctx = FieldContext(2, 1, 6)
    lam6 = m6_witness(ctx, 6, cap, threads)
    lam3 = m6_witness(ctx, 3, cap, threads)
    # the count at the minimum weight is lambda-free across admissible degrees
    all441 = all(
        analysis.min_weight_count_formula(analysis.construct_lambda_code(
            ctx, lam, e, [2, 2, 2])).formula_count == M6_TARGETS[e][2]
        for e in (3, 6) for lam in ctx.elements_of_degree(e))
    matched = lam6 is not None and lam3 is not None and all441
    payload = {
        "example": "m6",
        "target_degree6": list(M6_TARGETS[6]),
        "target_degree3": list(M6_TARGETS[3]),
        "witness_degree6": _lambda_report(ctx, lam6),
        "witness_degree3": _lambda_report(ctx, lam3),
        "minimum_count_lambda_free": all441,
        "verdict": "matched" if matched else "unmatched",
    }
    pretty = [
        "showcase m=6, type (2,2,2) over GF(2^6):",
        f"  degree-6 witness: {payload['witness_degree6']}",
        f"    distribution {list(M6_TARGETS[6])}",
        f"  degree-3 witness: {payload['witness_degree3']}",
        f"    distribution {list(M6_TARGETS[3])}",
        f"  count 441 at weight 2 for every admissible lambda: {all441}",
        f"verdict: {payload['verdict']}",
    ]
    return payload, pretty


def reproduce_m7(cap: int, threads: int):
    ctx = FieldContext(2, 1, 7)
    witness = m7_witness(ctx, cap, threads)
    payload = {
        "example": "m7",
        "target_progression": list(M7_TARGET_PROGRESSION),
        "target_gapped": list(M7_TARGET_GAPPED),
        "witness": _lambda_report(ctx, witness),
        "equal_minimum_count": 889,
        "verdict": "matched" if witness is not None else "unmatched",
    }
    pretty = [
        "showcase m=7, type (3,3,3) over GF(2^7):",
        f"  shared witness: {payload['witness']}",
        f"  progression blocks: {list(M7_TARGET_PROGRESSION)}",
        f"  blocks (1, lam, lam^3): {list(M7_TARGET_GAPPED)}",
        "  both hit 889 words at the minimum weight 3",
        f"verdict: {payload['verdict']}",
    ]
    return payload, pretty


def reproduce_prop45(cap: int, threads: int):
    code, xi = prop45_code()
    wd = codes.weight_distribution(code, cap=cap, threads=threads)
    spectrum = sorted(i for i, v in enumerate(wd.counts) if v and i)
    payload = {
        "example": "prop45",
        "parameters": {"q": 2, "e": 2, "r": 2, "k": 2},
        "xi": _lambda_report(code.ctx, xi),
        "counts": list(wd.counts),
        "minimum_weight_count": wd[2],
        "expected": PROP45_MIN_COUNT,
        "spectrum": spectrum,
        "verdict": "matched" if (wd[2] == PROP45_MIN_COUNT and spectrum
                                 == PROP45_SPECTRUM) else "unmatched",
    }
    pretty = [
        "hyperplane-block extremal code, q=2 e=2 r=2 k=2:",
        f"  counts {list(wd.counts)}; weight-2 words: {wd[2]} "
        f"(expected {PROP45_MIN_COUNT})",
        f"  nonzero weights {spectrum} (expected {PROP45_SPECTRUM})",
        f"verdict: {payload['verdict']}",
    ]
    return payload, pretty


def reproduce_lowerbound(cap: int, threads: int):
    code, (xi, mus, lam) = lowerbound_code()
    counts = list(_counts(code, cap, threads))
    payload = {
        "example": "lowerbound",
        "parameters": {"q": 3, "e": 2, "k": 2},
        "witnesses": {"xi": xi, "mu": mus, "lambda": lam},
        "counts": counts,
        "expected_minimum_count": LOWERBOUND_MIN_COUNT,
        "verdict": ("matched" if counts[2] == LOWERBOUND_MIN_COUNT
                    else "unmatched"),
    }
    pretty = [
        "lower-bound attaining twisted code, q=3 e=2 k=2:",
        f"  witnesses: {payload['witnesses']}",
        f"  counts {counts}; weight-2 words expected {LOWERBOUND_MIN_COUNT}",
        f"verdict: {payload['verdict']}",
    ]
    return payload, pretty


SHOWCASES = {
    "m6": reproduce_m6,
    "m7": reproduce_m7,
    "prop45": reproduce_prop45,
    "lowerbound": reproduce_lowerbound,
}
