"""Command-line front end.

Subcommands: build, wdist, verify, reproduce, bounds.  Global flags
--cap/--pcap/--seed/--threads/--format; the environment variable
RANKDEC_CAP overrides the default enumeration cap.  Exit status: 0 on
success, 1 on usage errors, 2 when a cap refuses an enumeration, 3 when
a computation contradicts a proved statement (falsification alarm) or a
reproduction target cannot be matched.

Reports are deterministic: the same seed and flags produce byte
identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import analysis, codes
from .enumeration import DEFAULT_ENUM_CAP, DEFAULT_PROJ_CAP
from .errors import CapExceededError, FalsificationAlarm, NotApplicableError
from .fields import FieldContext
from .suites import SUITES, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_ALARM = 3


@dataclass
class RunConfig:
    enumeration_cap: int = DEFAULT_ENUM_CAP
    projective_cap: int = DEFAULT_PROJ_CAP
    seed: int = 0
    threads: int = 1
    output_format: str = "pretty"

    def __post_init__(self):
        if self.enumeration_cap <= 0 or self.projective_cap <= 0:
            raise ValueError("caps must be positive")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.output_format not in ("json", "csv", "pretty"):
            raise ValueError(f"unknown format {self.output_format}")


def _emit(cfg: RunConfig, payload: dict, pretty_lines=None, csv_lines=None):
    if cfg.output_format == "json":
        print(json.dumps(payload, sort_keys=True))
    elif cfg.output_format == "csv" and csv_lines is not None:
        for line in csv_lines:
            print(line)
    else:
        for line in pretty_lines or [json.dumps(payload, sort_keys=True)]:
            print(line)


def _distribution_csv(counts):
    yield "weight,count"
    for w, c in enumerate(counts):
        yield f"{w},{c}"


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_build(cfg: RunConfig, args) -> int:
    try:
        with open(args.spec) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read spec file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code = codes.code_from_spec(spec)
    except (ValueError, KeyError) as exc:
        print(f"invalid code spec: {exc}", file=sys.stderr)
        return EXIT_USAGE
    ctx = code.ctx
    nondeg = codes.is_nondegenerate(code)
    try:
        mrd = codes.is_mrd(code, cap=cfg.enumeration_cap)
    except CapExceededError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CAP
    summary = {
        "field": ctx.to_descriptor(),
        "length": code.n,
        "dimension": code.k,
        "type": list(code.decomposition.type_vector),
        "nondegenerate": nondeg,
        "mrd": mrd,
    }
    out_path = args.out or (args.spec + ".code.json")
    with open(out_path, "w") as fh:
        json.dump(code.to_json(), fh, sort_keys=True)
    summary["written"] = out_path
    _emit(cfg, summary, pretty_lines=[
        f"[{code.n},{code.k}] code over {ctx!r}",
        f"type: {tuple(code.decomposition.type_vector)}",
        f"nondegenerate: {nondeg}   maximum-rank-distance: {mrd}",
        f"canonical code file: {out_path}",
    ])
    return EXIT_OK


def cmd_wdist(cfg: RunConfig, args) -> int:
    try:
        with open(args.code) as fh:
            code = codes.RankCode.from_json(json.load(fh))
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"cannot load code: {exc}", file=sys.stderr)
        return EXIT_USAGE
    payload = {"length": code.n, "dimension": code.k}
    pretty = []
    try:
        if args.method in ("enum", "both"):
            wd = codes.weight_distribution(code, cap=cfg.enumeration_cap,
                                           threads=cfg.threads)
            from .enumeration import message_space_size

            payload.update(wd.to_json(message_space_size(code.ctx, code.k)))
            pretty.append(f"counts: {list(wd.counts)}")
            pretty.append(f"minimum distance: {wd.min_distance}")
        if args.method in ("formula", "both"):
            dec = code.decomposition
            if dec is None:
                found = codes.detect_complete_decomposability(
                    code, pcap=cfg.projective_cap)
                if found is None:
                    print("formula requires a completely decomposable code",
                          file=sys.stderr)
                    return EXIT_USAGE
                code = code.with_decomposition(found)
            rep = analysis.min_weight_count_formula(code)
            payload["min_weight_report"] = rep.to_json()
            pretty.append(
                f"closed-form count at weight {code.decomposition.type_vector[-1]}: "
                f"{rep.formula_count}")
            pretty.append(f"exponents: {rep.to_json()['j_matrix']}")
    except CapExceededError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CAP
    except FalsificationAlarm as exc:
        print(f"FALSIFICATION ALARM: {exc}", file=sys.stderr)
        return EXIT_ALARM
    if args.method == "both":
        nk = code.decomposition.type_vector[-1]
        enum_count = payload["counts"][nk]
        formula_count = payload["min_weight_report"]["formula_count"]
        agree = enum_count == formula_count
        payload["agreement"] = agree
        pretty.append(f"enumeration vs closed form at weight {nk}: "
                      f"{'agree' if agree else 'DISAGREE'}")
        if not agree:
            _emit(cfg, payload, pretty_lines=pretty)
            print("FALSIFICATION ALARM: closed form disagrees with enumeration",
                  file=sys.stderr)
            return EXIT_ALARM
    csv_lines = _distribution_csv(payload["counts"]) if "counts" in payload else None
    _emit(cfg, payload, pretty_lines=pretty, csv_lines=csv_lines)
    return EXIT_OK


def cmd_verify(cfg: RunConfig, args) -> int:
    if args.suite != "all" and args.suite not in SUITES:
        print(f"unknown suite {args.suite}", file=sys.stderr)
        return EXIT_USAGE
    try:
        results = run_suite(args.suite, seed=cfg.seed, trials=args.trials)
    except CapExceededError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CAP
    except FalsificationAlarm as exc:
        print(f"FALSIFICATION ALARM: {exc}", file=sys.stderr)
        return EXIT_ALARM
    pretty = []
    ok = True
    for suite in results:
        ok = ok and suite["ok"]
        pretty.append(f"suite {suite['suite']}: "
                      f"{'pass' if suite['ok'] else 'FAIL'}")
        for c in suite["checks"]:
            mark = "pass" if c["passed"] else "FAIL"
            pretty.append(f"  [{mark}] {c['name']} ({c['instances']} instances)")
    _emit(cfg, {"suites": results, "ok": ok}, pretty_lines=pretty)
    if not ok:
        print("FALSIFICATION ALARM: a verified statement failed on an instance",
              file=sys.stderr)
        return EXIT_ALARM
    return EXIT_OK


# the showcase targets: exact distributions the reproductions must hit
M6_TARGET_DEG6 = (1, 0, 441, 2646, 35280, 127008, 96768)
M6_TARGET_DEG3 = (1, 0, 441, 4158, 24696, 148176, 84672)
M7_TARGET_PROGRESSION = (1, 0, 0, 889, 5334, 42672, 341376, 1706880, 0, 0)
M7_TARGET_GAPPED = (1, 0, 0, 889, 0, 37338, 394716, 1664208, 0, 0)


def _lambda_report(ctx, lam):
    return {"lambda": lam,
            "minimal_polynomial": list(ctx.minimal_polynomial(lam))}


def cmd_reproduce(cfg: RunConfig, args) -> int:
    try:
        if args.example == "m6":
            payload, pretty = _reproduce_m6(cfg)
        elif args.example == "m7":
            payload, pretty = _reproduce_m7(cfg)
        elif args.example == "prop45":
            payload, pretty = _reproduce_extremal(cfg)
        else:
            payload, pretty = _reproduce_lowerbound(cfg)
    except CapExceededError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CAP
    _emit(cfg, payload, pretty_lines=pretty)
    if not payload["verdict"] == "matched":
        print("FALSIFICATION ALARM: could not match the showcase values",
              file=sys.stderr)
        return EXIT_ALARM
    return EXIT_OK


def _search_distribution(ctx, degree, t, target, cap, threads,
                         block_fn=None) -> tuple[int | None, tuple | None]:
    for lam in ctx.elements_of_degree(degree):
        if block_fn is None:
            c = analysis.construct_lambda_code(ctx, lam, degree, [t] * 3)
        else:
            c = codes.build_completely_decomposable(ctx, block_fn(lam))
        wd = codes.weight_distribution(c, cap=cap, threads=threads)
        if tuple(wd.counts) == target:
            return lam, tuple(wd.counts)
    return None, None


def _reproduce_m6(cfg):
    ctx = FieldContext(2, 1, 6)
    lam6, _ = _search_distribution(ctx, 6, 2, M6_TARGET_DEG6,
                                    cfg.enumeration_cap, cfg.threads)
    lam3, _ = _search_distribution(ctx, 3, 2, M6_TARGET_DEG3,
                                    cfg.enumeration_cap, cfg.threads)
    # the count at the minimum weight is lambda-free across admissible degrees
    all441 = True
    for e in (3, 6):
        for lam in ctx.elements_of_degree(e):
            rep = analysis.min_weight_count_formula(
                analysis.construct_lambda_code(ctx, lam, e, [2, 2, 2]))
            all441 = all441 and rep.formula_count == 441
    matched = lam6 is not None and lam3 is not None and all441
    payload = {
        "example": "m6",
        "target_degree6": list(M6_TARGET_DEG6),
        "target_degree3": list(M6_TARGET_DEG3),
        "witness_degree6": _lambda_report(ctx, lam6) if lam6 is not None else None,
        "witness_degree3": _lambda_report(ctx, lam3) if lam3 is not None else None,
        "minimum_count_lambda_free": all441,
        "verdict": "matched" if matched else "unmatched",
    }
    pretty = [
        "showcase m=6, type (2,2,2) over GF(2^6):",
        f"  degree-6 witness: {payload['witness_degree6']}",
        f"    distribution {list(M6_TARGET_DEG6)}",
        f"  degree-3 witness: {payload['witness_degree3']}",
        f"    distribution {list(M6_TARGET_DEG3)}",
        f"  count 441 at weight 2 for every admissible lambda: {all441}",
        f"verdict: {payload['verdict']}",
    ]
    return payload, pretty


def _reproduce_m7(cfg):
    ctx = FieldContext(2, 1, 7)
    witness = None
    for lam in ctx.elements_of_degree(7):
        c1 = analysis.construct_lambda_code(ctx, lam, 7, [3, 3, 3])
        w1 = codes.weight_distribution(c1, cap=cfg.enumeration_cap,
                                       threads=cfg.threads)
        if tuple(w1.counts) != M7_TARGET_PROGRESSION:
            continue
        c2 = codes.build_completely_decomposable(
            ctx, [[1, lam, ctx.pow(lam, 3)]] * 3)
        w2 = codes.weight_distribution(c2, cap=cfg.enumeration_cap,
                                       threads=cfg.threads)
        if tuple(w2.counts) == M7_TARGET_GAPPED:
            witness = lam
            break
    matched = witness is not None
    payload = {
        "example": "m7",
        "target_progression": list(M7_TARGET_PROGRESSION),
        "target_gapped": list(M7_TARGET_GAPPED),
        "witness": _lambda_report(ctx, witness) if matched else None,
        "equal_minimum_count": 889,
        "verdict": "matched" if matched else "unmatched",
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


def _reproduce_extremal(cfg):
    ctx = FieldContext(2, 1, 4)
    xi = ctx.elements_of_degree(4)[0]
    c = analysis.construct_subfield_extremal(ctx, 2, 2, 2, xi)
    wd = codes.weight_distribution(c, cap=cfg.enumeration_cap,
                                   threads=cfg.threads)
    spectrum = sorted(i for i, v in enumerate(wd.counts) if v and i)
    matched = wd[2] == 75 and spectrum == [2, 4]
    payload = {
        "example": "prop45",
        "parameters": {"q": 2, "e": 2, "r": 2, "k": 2},
        "xi": _lambda_report(ctx, xi),
        "counts": list(wd.counts),
        "minimum_weight_count": wd[2],
        "expected": 75,
        "spectrum": spectrum,
        "verdict": "matched" if matched else "unmatched",
    }
    pretty = [
        "hyperplane-block extremal code, q=2 e=2 r=2 k=2:",
        f"  counts {list(wd.counts)}; weight-2 words: {wd[2]} (expected 75)",
        f"  nonzero weights {spectrum} (expected [2, 4])",
        f"verdict: {payload['verdict']}",
    ]
    return payload, pretty


def _reproduce_lowerbound(cfg):
    ctx = FieldContext(3, 1, 4)
    found = analysis.find_lower_attaining_params(ctx, 2, 2)
    matched = False
    counts = None
    if found:
        xi, mus, lam = found
        c = analysis.construct_lower_attaining(ctx, 2, 2, xi, mus, lam)
        wd = codes.weight_distribution(c, cap=cfg.enumeration_cap,
                                       threads=cfg.threads)
        counts = list(wd.counts)
        matched = wd[2] == (3**4 - 1) * 2
    payload = {
        "example": "lowerbound",
        "parameters": {"q": 3, "e": 2, "k": 2},
        "witnesses": {"xi": found[0], "mu": found[1], "lambda": found[2]}
        if found else None,
        "counts": counts,
        "expected_minimum_count": (3**4 - 1) * 2,
        "verdict": "matched" if matched else "unmatched",
    }
    pretty = [
        "lower-bound attaining twisted code, q=3 e=2 k=2:",
        f"  witnesses: {payload['witnesses']}",
        f"  counts {counts}; weight-2 words expected {(3**4 - 1) * 2}",
        f"verdict: {payload['verdict']}",
    ]
    return payload, pretty


def cmd_bounds(cfg: RunConfig, args) -> int:
    try:
        lower, upper = analysis.bounds_nonprime(args.q, args.m, args.nk, args.ell)
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    payload = {"q": args.q, "m": args.m, "n_k": args.nk, "ell": args.ell,
               "lower": lower, "upper": upper, "prime_upper": None}
    try:
        payload["prime_upper"] = analysis.bound_prime(args.q, args.m, args.ell)
    except NotApplicableError:
        pass
    pretty = [
        f"minimum-weight count bounds for q={args.q}, m={args.m}, "
        f"n_k={args.nk}, ell={args.ell}:",
        f"  lower:  {lower}",
        f"  upper:  {upper}",
    ]
    if payload["prime_upper"] is not None:
        pretty.append(f"  prime-extension upper: {payload['prime_upper']}")
    csv_lines = ["bound,value", f"lower,{lower}", f"upper,{upper}"]
    if payload["prime_upper"] is not None:
        csv_lines.append(f"prime_upper,{payload['prime_upper']}")
    _emit(cfg, payload, pretty_lines=pretty, csv_lines=csv_lines)
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rankdec",
        description="exact computations with completely decomposable "
                    "rank-metric codes")
    p.add_argument("--cap", type=int, default=None,
                   help="codeword enumeration budget (default: $RANKDEC_CAP, "
                        f"else {DEFAULT_ENUM_CAP})")
    p.add_argument("--pcap", type=int, default=DEFAULT_PROJ_CAP,
                   help="projective point scan budget")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--format", choices=("json", "csv", "pretty"),
                   default="pretty")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a code from a spec file")
    b.add_argument("spec")
    b.add_argument("--out", default=None)

    w = sub.add_parser("wdist", help="weight distribution of a code file")
    w.add_argument("code")
    w.add_argument("--method", choices=("enum", "formula", "both"),
                   default="enum")

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=tuple(SUITES) + ("all",))
    v.add_argument("--trials", type=int, default=None)

    r = sub.add_parser("reproduce", help="recompute a showcase example")
    r.add_argument("example", choices=("m6", "m7", "prop45", "lowerbound"))

    bd = sub.add_parser("bounds", help="closed-form count bounds")
    bd.add_argument("--q", type=int, required=True)
    bd.add_argument("--m", type=int, required=True)
    bd.add_argument("--nk", type=int, required=True)
    bd.add_argument("--ell", type=int, required=True)

    return p


COMMANDS = {
    "build": cmd_build,
    "wdist": cmd_wdist,
    "verify": cmd_verify,
    "reproduce": cmd_reproduce,
    "bounds": cmd_bounds,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.cap is None:
        env_cap = os.environ.get("RANKDEC_CAP", str(DEFAULT_ENUM_CAP))
        try:
            args.cap = int(env_cap)
        except ValueError:
            print(f"RANKDEC_CAP must be an integer, not {env_cap!r}",
                  file=sys.stderr)
            return EXIT_USAGE
    try:
        cfg = RunConfig(enumeration_cap=args.cap, projective_cap=args.pcap,
                        seed=args.seed, threads=args.threads,
                        output_format=args.format)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    return COMMANDS[args.command](cfg, args)


if __name__ == "__main__":
    sys.exit(main())
