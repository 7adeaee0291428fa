"""The four benchmark workloads.

Each workload turns a seed into a pool of instances (set-up), runs one
instance through the public rankdec API, and checks the answer against
a derivation that does not come from the code under test.  The *deck*
of a workload fixes the parameter class and type of every position in
a round (a position holding a list takes its entries in turn, one per
round); the seed picks only the random content (block entries, lambda,
basis change and column map).  A run measures whole rounds, so every
run does the same mix of work whatever the seed, which is what makes
runs comparable.

A check that does not hold is reported as a problem string; an
instance whose call raises is reported by the caller.  Neither aborts
the run.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

# ----------------------------------------------------------------------
# showcase data, copied here so that moving it inside the package does
# not change what the benchmark checks
# ----------------------------------------------------------------------

FIELD_M4 = {"p": 2, "a": 1, "m": 4, "modulus": [1, 1, 0, 0, 1]}
FIELD_M6 = {"p": 2, "a": 1, "m": 6, "modulus": [1, 1, 0, 0, 0, 0, 1]}
FIELD_M7 = {"p": 2, "a": 1, "m": 7, "modulus": [1, 1, 0, 0, 0, 0, 0, 1]}
FIELD_3_4 = {"p": 3, "a": 1, "m": 4, "modulus": [2, 1, 0, 0, 1]}

M6_TARGET_DEG6 = (1, 0, 441, 2646, 35280, 127008, 96768)
M6_TARGET_DEG3 = (1, 0, 441, 4158, 24696, 148176, 84672)
M7_TARGET_PROGRESSION = (1, 0, 0, 889, 5334, 42672, 341376, 1706880, 0, 0)
M7_TARGET_GAPPED = (1, 0, 0, 889, 0, 37338, 394716, 1664208, 0, 0)
PROP45_MIN_COUNT = 75
PROP45_SPECTRUM = [2, 4]
LOWERBOUND_MIN_COUNT = (3**4 - 1) * 2  # 160


def _geometric(lam, degree, t):
    return {"geometric": {"lambda_degree": degree, "t": t, "lambda": lam}}


# witness lambdas in the fixed moduli above (lambda = 2 is the root x,
# lambda = 14 = x^3 + x^2 + x has degree 3 in F_{2^6})
SHOWCASE_SPECS = {
    "show_m6_deg6": ({"field": FIELD_M6, "blocks": [_geometric(2, 6, 2)] * 3},
                     M6_TARGET_DEG6),
    "show_m6_deg3": ({"field": FIELD_M6, "blocks": [_geometric(14, 3, 2)] * 3},
                     M6_TARGET_DEG3),
    "show_m7_progression": (
        {"field": FIELD_M7, "blocks": [_geometric(2, 7, 3)] * 3},
        M7_TARGET_PROGRESSION),
    "show_m7_gapped": ({"field": FIELD_M7, "blocks": [{"entries": [1, 2, 8]}] * 3},
                       M7_TARGET_GAPPED),
}


@dataclass
class Instance:
    """One unit of work: ``spec`` and ``replay`` are what the instance
    file records; ``data`` holds the live objects the run uses."""

    id: int
    cls: str
    spec: dict
    replay: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {"id": self.id, "class": self.cls, "spec": self.spec}
        out.update(self.replay)
        return out


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def trailing_ell(type_vector) -> int:
    """Trailing equal block lengths minus one."""
    k = len(type_vector)
    ell = 0
    while ell + 1 < k and type_vector[k - ell - 2] == type_vector[k - 1]:
        ell += 1
    return ell


def spread(filler, specials, size):
    """A deck of ``size`` positions: ``specials`` placed at evenly spaced
    positions, ``filler`` templates cycling through the rest."""
    deck = [None] * size
    step = size / len(specials)
    for i, tpl in enumerate(specials):
        deck[int(step * i + step / 2)] = tpl
    fill = iter(filler * size)
    return [tpl if tpl is not None else next(fill) for tpl in deck]


def random_block(rd, ctx, length, rng):
    """Random F_q-independent entries (a full-weight block)."""
    while True:
        u = [rng.randrange(ctx.order) for _ in range(length)]
        if rd.codes.rank_weight(ctx, u) == length:
            return u


def build_from_spec(rd, ctx, spec):
    """The code a ``rankdec build`` spec describes, in an existing context."""
    blocks = []
    for b in spec["blocks"]:
        if "entries" in b:
            blocks.append(b["entries"])
        else:
            g = b["geometric"]
            blocks.append([ctx.pow(g["lambda"], j) for j in range(g["t"])])
    return rd.codes.build_completely_decomposable(ctx, blocks)


def descriptor_key(d):
    return (d["p"], d.get("a", 1), d["m"], tuple(d["modulus"]))


class Contexts:
    """Field contexts built during one set-up, keyed by descriptor, and
    the fixed showcase codes built from them."""

    def __init__(self, rd):
        self.rd = rd
        self._by_key = {}
        self.fixed = {}

    def get(self, p, a, m):
        key = ("default", p, a, m)
        if key not in self._by_key:
            self._by_key[key] = self.rd.FieldContext(p, a, m)
        return self._by_key[key]

    def from_descriptor(self, d):
        key = descriptor_key(d)
        if key not in self._by_key:
            self._by_key[key] = self.rd.FieldContext.from_descriptor(d)
        return self._by_key[key]


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------


def census_problems(ctx, k, type_vector, counts, formula_count) -> list[str]:
    q, m = ctx.q, ctx.m
    out = []
    if sum(counts) != q ** (m * k):
        out.append(f"sum of counts {sum(counts)} != q^(mk) = {q ** (m * k)}")
    if counts[0] != 1:
        out.append(f"A_0 = {counts[0]} != 1")
    n_k = type_vector[-1]
    if any(counts[1:n_k]):
        out.append(f"nonzero count below the minimum weight {n_k}")
    for i, a in enumerate(counts[1:], 1):
        if a % (q**m - 1):
            out.append(f"A_{i} = {a} not divisible by q^m - 1")
    if n_k >= len(counts) or formula_count != counts[n_k]:
        out.append(f"closed form {formula_count} != A_{n_k}")
    return out


def closed_form_problems(rd, ctx, code, kind, report, families, gdual,
                         gdual2) -> list[str]:
    q, m = ctx.q, ctx.m
    qm1 = q**m - 1
    typ = code.decomposition.type_vector
    k, n_k = len(typ), typ[-1]
    ell = trailing_ell(typ)
    count = report.formula_count
    out = []
    lower = qm1 * (ell + 1)
    upper = qm1 * sum(q ** (i * (m - n_k)) for i in range(ell + 1))
    if not lower <= count <= upper:
        out.append(f"count {count} outside [{lower}, {upper}]")
    prime_bound = qm1 * (q ** (ell + 1) - 1) // (q - 1)
    if is_prime(m) and count > prime_bound:
        out.append(f"count {count} above the prime-m bound {prime_bound}")
    steps = sum(f.size for t, f in enumerate(families, 1) if typ[t - 1] == n_k)
    if steps + qm1 != count:
        out.append(f"step families + (q^m - 1) = {steps + qm1} != count {count}")
    if kind == "lambda" and count != prime_bound:
        out.append(f"lambda code count {count} != {prime_bound}")
    want = tuple(sorted((m - t for t in typ), reverse=True))
    if gdual.decomposition.type_vector != want:
        out.append(f"geometric dual type {gdual.decomposition.type_vector} != {want}")
    if gdual2.decomposition.type_vector != typ:
        out.append("double geometric dual changes the type")
    spans = Counter(rd.subspaces.span(ctx, u) for u in code.decomposition.blocks)
    spans2 = Counter(rd.subspaces.span(ctx, u) for u in gdual2.decomposition.blocks)
    if spans != spans2:
        out.append("double geometric dual changes the block spans")
    return out


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


class Workload:
    name = ""
    deck: list = []
    #: rounds in the pool, fewer than a run measures: every run then goes
    #: through the whole pool, so its peak memory does not depend on how
    #: many rounds fit in the time
    rounds = 1
    threads = 1

    def setup(self, rd, seed: int) -> list[Instance]:
        ctxs = Contexts(rd)
        self.prepare(rd, ctxs)
        pool = []
        for r in range(self.rounds):
            for j, tpl in enumerate(self.deck):
                if isinstance(tpl, list):
                    tpl = tpl[r % len(tpl)]
                iid = r * len(self.deck) + j
                rng = random.Random(f"{self.name}/{seed}/{iid}")
                pool.append(self.generate(rd, ctxs, iid, tpl, rng))
        return pool

    def prepare(self, rd, ctxs):
        """Contexts and fixed objects shared by the whole pool."""

    def generate(self, rd, ctxs, iid, tpl, rng) -> Instance:
        raise NotImplementedError

    def run(self, rd, inst: Instance) -> list[str]:
        raise NotImplementedError


class Census(Workload):
    """Exact weight distributions, checked arithmetically and against
    the closed form."""

    def generate(self, rd, ctxs, iid, tpl, rng):
        cls = tpl[0]
        if cls in SHOWCASE_SPECS:
            spec, target = SHOWCASE_SPECS[cls]
            ctx = ctxs.from_descriptor(spec["field"])
            code = build_from_spec(rd, ctx, spec)
            return Instance(iid, cls, spec, data={"code": code, "target": target})
        if cls in ctxs.fixed:
            code, check = ctxs.fixed[cls]
            spec = {"field": code.ctx.to_descriptor(),
                    "blocks": [{"entries": list(u)} for u in code.decomposition.blocks]}
            return Instance(iid, cls, spec, data={"code": code, "check": check})
        _, (p, a, m), typ = tpl
        ctx = ctxs.get(p, a, m)
        blocks = [random_block(rd, ctx, t, rng) for t in typ]
        spec = {"field": ctx.to_descriptor(),
                "blocks": [{"entries": u} for u in blocks]}
        code = rd.codes.build_completely_decomposable(ctx, blocks)
        return Instance(iid, f"rand_{p**a}_{m}", spec, data={"code": code})

    def run(self, rd, inst):
        code = inst.data["code"]
        wd = rd.codes.weight_distribution(code, threads=self.threads)
        report = rd.analysis.min_weight_count_formula(code)
        counts = tuple(wd.counts)
        out = census_problems(code.ctx, code.k, code.decomposition.type_vector,
                              counts, report.formula_count)
        target = inst.data.get("target")
        if target is not None and counts != target:
            out.append(f"distribution {counts} != showcase target {target}")
        check = inst.data.get("check")
        if check is not None:
            out.extend(check(counts))
        return out


def _prop45_check(counts):
    spectrum = [i for i, v in enumerate(counts) if v and i]
    out = []
    if counts[2] != PROP45_MIN_COUNT:
        out.append(f"A_2 = {counts[2]} != {PROP45_MIN_COUNT}")
    if spectrum != PROP45_SPECTRUM:
        out.append(f"nonzero weights {spectrum} != {PROP45_SPECTRUM}")
    return out


def _lowerbound_check(counts):
    if counts[2] != LOWERBOUND_MIN_COUNT:
        return [f"A_2 = {counts[2]} != {LOWERBOUND_MIN_COUNT}"]
    return []


class CensusQ2(Census):
    name = "census_q2"
    threads = 1
    # 2^18 words per F_2^6 code, 2^21 per F_2^7 code.  One F_2^7 code
    # per round of 32 keeps a round near 7 s, so that a run holds more
    # than 100 instances; four rounds cover all four F_2^7 codes, which
    # all have length 9 so that the rounds cost about the same.
    deck = spread(
        [("rand", (2, 1, 6), t) for t in (
            (2, 2, 2), (3, 2, 1), (4, 3, 3), (5, 4, 4), (3, 3, 3), (4, 2, 1),
            (5, 5, 3), (2, 1, 1), (4, 4, 2), (5, 3, 2))],
        [[("rand", (2, 1, 7), (5, 2, 2)), ("show_m7_progression",),
          ("rand", (2, 1, 7), (4, 3, 2)), ("show_m7_gapped",)],
         [("show_m6_deg6",), ("show_m6_deg3",)],
         ("show_prop45",)],
        32)
    rounds = 4

    def prepare(self, rd, ctxs):
        ctx = ctxs.from_descriptor(FIELD_M4)
        xi = ctx.elements_of_degree(4)[0]
        code = rd.analysis.construct_subfield_extremal(ctx, 2, 2, 2, xi)
        ctxs.fixed["show_prop45"] = (code, _prop45_check)


class CensusQ3(Census):
    name = "census_q3"
    threads = 2
    deck = spread(
        [("rand", (3, 1, 3), t) for t in ((2, 2, 2), (2, 1, 1), (1, 1, 1),
                                          (2, 2, 1))],
        [("rand", (3, 1, 4), (3, 2, 2)), ("rand", (2, 2, 3), (2, 2, 2)),
         ("show_lowerbound",), ("rand", (2, 2, 3), (2, 1, 1)),
         ("rand", (3, 1, 4), (2, 2, 1)), ("rand", (2, 2, 3), (2, 2, 1))],
        16)
    rounds = 4

    def prepare(self, rd, ctxs):
        ctx = ctxs.from_descriptor(FIELD_3_4)
        xi, mus, lam = rd.analysis.find_lower_attaining_params(ctx, 2, 2)
        code = rd.analysis.construct_lower_attaining(ctx, 2, 2, xi, mus, lam)
        ctxs.fixed["show_lowerbound"] = (code, _lowerbound_check)


class Detect(Workload):
    """Scrambled completely decomposable codes; detection must recover
    the hidden type and a decomposition the code accepts."""

    name = "detect"
    # F_2^7 with k=3 scans 16513 projective points (about 3.5 s), one
    # per round of 30; the q=3, m=3, k=3 class (757 points, 3 per round)
    # sits at the 90th percentile
    deck = spread(
        [("det", (2, 1, 4), (3, 2, 1)), ("det", (3, 1, 4), (2, 1)),
         ("det", (2, 2, 3), (2, 1)), ("det", (2, 1, 6), (4, 3)),
         ("det", (2, 1, 7), (5, 2)), ("det", (2, 1, 5), (4, 2)),
         ("det", (2, 1, 4), (2, 2, 1)), ("det", (3, 1, 4), (3, 3)),
         ("det", (2, 2, 3), (2, 2)), ("det", (2, 1, 7), (3, 3)),
         ("det", (2, 1, 6), (5, 1))],
        [("det", (3, 1, 3), (2, 2, 1)), ("det", (2, 1, 5), (4, 3, 2)),
         ("det", (3, 1, 5), (3, 2)), ("det", (3, 1, 3), (2, 1, 1)),
         ("det", (2, 2, 4), (3, 2)), ("det", (2, 1, 7), (4, 2, 1)),
         ("det", (3, 1, 3), (2, 2, 2)), ("det", (2, 1, 5), (3, 2, 1)),
         ("det", (2, 2, 4), (3, 3))],
        30)
    rounds = 3

    def generate(self, rd, ctxs, iid, tpl, rng):
        _, (p, a, m), typ = tpl
        ctx = ctxs.get(p, a, m)
        blocks = [random_block(rd, ctx, t, rng) for t in typ]
        hidden = rd.codes.build_completely_decomposable(ctx, blocks)
        basis_seed = rng.randrange(1 << 30)
        column_seed = rng.randrange(1 << 30)
        b = rd.codes.random_gl_ext(ctx, hidden.k, seed=basis_seed)
        amap = rd.codes.random_gl(ctx, hidden.n, seed=column_seed)
        scrambled = rd.codes.apply_equivalence(hidden.relabeled(b),
                                               amap).strip_decomposition()
        spec = {"field": ctx.to_descriptor(),
                "blocks": [{"entries": u} for u in blocks]}
        replay = {"scramble": {"basis_seed": basis_seed,
                               "column_seed": column_seed},
                  "code": scrambled.to_json()}
        return Instance(iid, f"det_{p**a}_{m}_{len(typ)}", spec, replay,
                        {"code": scrambled, "type": hidden.decomposition.type_vector})

    def run(self, rd, inst):
        code = inst.data["code"]
        dec = rd.codes.detect_complete_decomposability(code)
        if dec is None:
            return ["no decomposition found"]
        out = []
        if dec.type_vector != inst.data["type"]:
            out.append(f"type {dec.type_vector} != hidden {inst.data['type']}")
        try:
            code.with_decomposition(dec)
        except ValueError as exc:
            out.append(f"decomposition rejected: {exc}")
        return out


class ClosedForm(Workload):
    """Closed form, step families and geometric duals beyond the reach
    of enumeration."""

    name = "closed_form"
    # every field has order <= 2^16 (exp/log tables) except F_2^17,
    # which is table-free; F_4^m has tables only up to m = 8
    deck = [
        ("cf", (2, 1, 9), "lambda", (6, 3, 3)),
        ("cf", (2, 1, 10), "mixed", (7, 4, 4, 4)),
        ("cf", (3, 1, 9), "mixed", (6, 4, 4)),
        ("cf", (2, 1, 11), "lambda", (5, 5, 5)),
        ("cf", (2, 1, 12), "mixed", (9, 6, 6)),
        ("cf", (2, 2, 8), "lambda", (6, 4, 4, 4)),
        ("cf", (2, 1, 13), "lambda", (8, 4, 4, 4, 4)),
        ("cf", (2, 1, 14), "mixed", (10, 7, 7, 7)),
        ("cf", (2, 1, 17), "lambda", (4, 4, 4)),
        ("cf", (2, 1, 15), "lambda", (11, 9, 6, 6)),
        ("cf", (3, 1, 9), "lambda", (5, 3, 3, 3, 3)),
        ("cf", (2, 1, 16), "mixed", (12, 8, 8, 8, 8, 8)),
        ("cf", (2, 2, 8), "mixed", (5, 3, 3)),
        ("cf", (2, 1, 12), "lambda", (2, 1, 1, 1, 1, 1)),
        ("cf", (2, 1, 16), "lambda", (3, 3, 3)),
        ("cf", (2, 1, 10), "mixed", (8, 8, 8, 8, 8, 8)),
    ]
    rounds = 6

    def generate(self, rd, ctxs, iid, tpl, rng):
        _, (p, a, m), kind, typ = tpl
        ctx = ctxs.get(p, a, m)
        if kind == "lambda":
            lam = ctx.find_element_of_degree(m, seed=rng.randrange(1 << 30))
            blocks = [_geometric(lam, m, t) for t in typ]
        else:
            blocks = [{"entries": random_block(rd, ctx, t, rng)} for t in typ]
        spec = {"field": ctx.to_descriptor(), "blocks": blocks}
        return Instance(iid, f"cf_{p**a}_{m}_{kind}", spec,
                        data={"ctx": ctx, "kind": kind})

    def run(self, rd, inst):
        ctx = inst.data["ctx"]
        code = build_from_spec(rd, ctx, inst.spec)
        report = rd.analysis.min_weight_count_formula(code)
        families = [rd.analysis.minimum_weight_family(code, t)
                    for t in range(1, code.k)]
        gdual = rd.codes.geometric_dual(code)
        gdual2 = rd.codes.geometric_dual(gdual)
        return closed_form_problems(rd, ctx, code, inst.data["kind"], report,
                                    families, gdual, gdual2)


WORKLOADS = {w.name: w for w in (CensusQ2(), CensusQ3(), Detect(), ClosedForm())}
