"""Per-layer metrics computed from the spans of a traced run.

Span names are ``<module>.<function>`` for the rankdec layers and
``bench.setup`` / ``bench.instance`` for the benchmark's own spans.
Spans opened while no instance runs belong to set-up; the others to the
instance phase.  Counts and times of the instance phase are per round of
the workload's deck (a traced run runs whole rounds), so they do not
grow with the number of rounds a faster program fits in; the set-up
layers are per set-up.  Rates, shares and the overhead are ratios.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import ERR_CAP, ERR_NONE, LAYERS, Tracer

WEIGHT_COUNTS = "enumeration.weight_counts"
DETECT = "codes.detect_complete_decomposability"
LINE_DIM = "systems.line_intersection_dim"


def _weight_counts_extras(args, kwargs):
    """Words enumerated and codeword bytes materialised, computed from
    the sizes: uint64 per entry on the packed backend, m uint8 digits
    per entry on the table backend."""
    ctx, generator = args[0], args[1]
    words = ctx.q ** (ctx.m * len(generator))
    packed = ctx.p == 2 and ctx.a == 1
    per_entry = 8 if packed else ctx.m
    return {"words": words, "packed": packed,
            "bytes": words * len(generator[0]) * per_entry}


def make_tracer() -> Tracer:
    return Tracer(extras={WEIGHT_COUNTS: _weight_counts_extras},
                  cpu_names=(WEIGHT_COUNTS,))


#: (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("enumeration.packed.words_per_s", "1/s"),
    ("enumeration.table.words_per_s", "1/s"),
    ("enumeration.words", "count"),
    ("enumeration.weight_counts_calls", "count"),
    ("enumeration.weight_counts_s", "s"),
    ("enumeration.cpu_per_wall", "ratio"),
    ("enumeration.computed_bytes", "B"),
    ("enumeration.cap_refusals", "count"),
    ("codes.detect_calls", "count"),
    ("codes.detect_s", "s"),
    ("codes.detect_self_s", "s"),
    ("codes.detect_points", "count"),
    ("codes.detect_points_per_s", "1/s"),
    ("codes.geometric_dual_s", "s"),
    ("codes.build_s", "s"),
    ("systems.line_intersection_dim_calls", "count"),
    ("systems.line_intersection_dim_s", "s"),
    ("systems.perp_prime_s", "s"),
    ("systems.system_from_code_s", "s"),
    ("linalg.field_rref_calls", "count"),
    ("linalg.field_rref_s", "s"),
    ("linalg.rowspace_builds", "count"),
    ("linalg.rowspace_builds_s", "s"),
    ("subspaces.product_calls", "count"),
    ("subspaces.product_s", "s"),
    ("subspaces.trace_dual_calls", "count"),
    ("subspaces.trace_dual_s", "s"),
    ("subspaces.span_calls", "count"),
    ("subspaces.span_s", "s"),
    ("analysis.formula_self_s", "s"),
    ("analysis.exponents_s", "s"),
    ("analysis.family_s", "s"),
    ("fields.context_build_s", "s"),
    ("fields.elements_of_degree_s", "s"),
] + [(f"{layer}.self_share", "frac") for layer in LAYERS] + [
    ("bench.self_share", "frac"),
] + [(f"{layer}.errors", "count") for layer in LAYERS] + [
    ("trace_overhead_frac", "frac"),
    ("trace.spans", "count"),
]


class _Agg:
    __slots__ = ("calls", "total", "self", "cpu")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.cpu = 0.0


def layer_metrics(tr: Tracer, untraced: dict, traced: dict, rounds: float,
                  setup_reps: int = 1) -> dict:
    inst = defaultdict(_Agg)   # instance phase, by span name
    setup = defaultdict(_Agg)  # set-up phase, by span name
    errors = defaultdict(int)
    caps = 0
    words = {True: 0, False: 0}
    words_s = {True: 0.0, False: 0.0}
    nbytes = 0
    parent_of = {}
    name_of = {}
    for i in range(len(tr)):
        name = tr.name(i)
        sid = tr.ids[i]
        parent_of[sid] = tr.parents[i]
        name_of[sid] = name
        dur = tr.ends[i] - tr.starts[i]
        agg = (setup if tr.instances[i] < 0 else inst)[name]
        agg.calls += 1
        agg.total += dur
        agg.self += tr.selfs[i]
        agg.cpu += tr.cpus[i]
        if tr.errors[i] != ERR_NONE:
            errors[name.split(".", 1)[0]] += 1
            if tr.errors[i] == ERR_CAP and name.startswith("enumeration."):
                caps += 1
        ex = tr.extra.get(sid)
        if ex and name == WEIGHT_COUNTS and tr.instances[i] >= 0:
            words[ex["packed"]] += ex["words"]
            words_s[ex["packed"]] += dur
            nbytes += ex["bytes"]

    # projective points scanned by detection: line-dimension calls below
    # a detection span
    points = 0
    for sid, name in name_of.items():
        if name != LINE_DIM:
            continue
        p = parent_of[sid]
        while p >= 0 and name_of.get(p) != DETECT:
            p = parent_of.get(p, -1)
        points += p >= 0

    inst_total = inst["bench.instance"].total or float("nan")
    wc = inst[WEIGHT_COUNTS]
    det = inst[DETECT]
    per_round = {
        "enumeration.words": words[True] + words[False],
        "enumeration.weight_counts_calls": wc.calls,
        "enumeration.weight_counts_s": wc.total,
        "enumeration.computed_bytes": nbytes,
        "enumeration.cap_refusals": caps,
        "codes.detect_calls": det.calls,
        "codes.detect_s": det.total,
        "codes.detect_self_s": det.self,
        "codes.detect_points": points,
        "codes.geometric_dual_s": inst["codes.geometric_dual"].total,
        "systems.line_intersection_dim_calls": inst[LINE_DIM].calls,
        "systems.line_intersection_dim_s": inst[LINE_DIM].total,
        "systems.perp_prime_s": inst["systems.perp_prime"].total,
        "systems.system_from_code_s": inst["systems.system_from_code"].total,
        "linalg.field_rref_calls": inst["linalg.field_rref"].calls,
        "linalg.field_rref_s": inst["linalg.field_rref"].total,
        "linalg.rowspace_builds": inst["linalg.RowSpace"].calls
        + inst["linalg.RowSpace.sum"].calls,
        "linalg.rowspace_builds_s": inst["linalg.RowSpace"].total
        + inst["linalg.RowSpace.sum"].total,
        "subspaces.product_calls": inst["subspaces.product"].calls,
        "subspaces.product_s": inst["subspaces.product"].total,
        "subspaces.trace_dual_calls": inst["subspaces.trace_dual"].calls,
        "subspaces.trace_dual_s": inst["subspaces.trace_dual"].total,
        "subspaces.span_calls": inst["subspaces.span"].calls,
        "subspaces.span_s": inst["subspaces.span"].total,
        "analysis.formula_self_s": inst["analysis.min_weight_count_formula"].self,
        "analysis.exponents_s": inst["analysis.block_interaction_exponents"].total,
        "analysis.family_s": inst["analysis.minimum_weight_family"].total,
        "trace.spans": len(tr),
    }
    per_round.update({f"{layer}.errors": errors[layer] for layer in LAYERS})
    out = {name: per_round[name] / rounds for name in per_round}
    out.update({
        "enumeration.packed.words_per_s": _ratio(words[True], words_s[True]),
        "enumeration.table.words_per_s": _ratio(words[False], words_s[False]),
        "enumeration.cpu_per_wall": _ratio(wc.cpu, wc.total),
        "codes.detect_points_per_s": _ratio(points, det.total),
        "codes.build_s": setup["codes.build_completely_decomposable"].total / setup_reps,
        "fields.context_build_s": setup["fields.FieldContext"].total / setup_reps,
        "fields.elements_of_degree_s":
            setup["fields.FieldContext.elements_of_degree"].total / setup_reps,
    })
    for layer in LAYERS:
        own = sum(a.self for n, a in inst.items() if n.split(".", 1)[0] == layer)
        out[f"{layer}.self_share"] = own / inst_total
    out["bench.self_share"] = inst["bench.instance"].self / inst_total
    out["trace_overhead_frac"] = _ratio(untraced["verified_per_s"],
                                        traced["verified_per_s"]) - 1.0
    return {name: out[name] for name, _ in PER_LAYER}


def _ratio(a, b):
    return a / b if b else 0.0
