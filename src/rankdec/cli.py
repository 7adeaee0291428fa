"""Command-line front end.

Subcommands: build, wdist, verify, reproduce, bounds.  Global flags
--cap/--pcap/--seed/--threads/--format, before or after the subcommand
(the same bytes either way); the environment variable
RANKDEC_CAP overrides the default enumeration cap.  ``reproduce`` runs
one entry of :data:`rankdec.showcases.SHOWCASES`.  Exit status: 0 on
success, 1 on usage errors, 2 when a cap refuses an enumeration, 3 when
a computation contradicts a proved statement (falsification alarm) or a
reproduction target cannot be matched.  :func:`main` maps the last two
errors to their exit codes for every subcommand.

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
from .enumeration import DEFAULT_ENUM_CAP, DEFAULT_PROJ_CAP, message_space_size
from .errors import CapExceededError, FalsificationAlarm, NotApplicableError
from .showcases import SHOWCASES
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


#: one-line shapes of the two input files, for error messages
SPEC_FORMAT = ('a spec file is {"field": {"p": P, "m": M}, "blocks": '
               '[{"entries": [...]} or {"geometric": {"lambda_degree": E, '
               '"t": T}}, ...]}')
CODE_FORMAT = ('a code file (as written by build) is {"field": {"p": P, '
               '"m": M}, "generator": [[...], ...]}')


def _bad_input(exc: Exception, file_format: str) -> str:
    """Error text for a spec or code file that could not be used; a
    missing key is named together with the expected file format."""
    if isinstance(exc, KeyError):
        return f"missing key {exc.args[0]!r}; {file_format}"
    return str(exc)


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
    except (ValueError, KeyError, TypeError) as exc:
        print(f"invalid code spec: {_bad_input(exc, SPEC_FORMAT)}",
              file=sys.stderr)
        return EXIT_USAGE
    ctx = code.ctx
    nondeg = codes.is_nondegenerate(code)
    mrd = codes.is_mrd(code, cap=cfg.enumeration_cap)
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
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot load code: {_bad_input(exc, CODE_FORMAT)}",
              file=sys.stderr)
        return EXIT_USAGE
    payload = {"length": code.n, "dimension": code.k}
    pretty = []
    if args.method in ("enum", "both"):
        wd = codes.weight_distribution(code, cap=cfg.enumeration_cap,
                                       threads=cfg.threads)
        payload.update(wd.to_json(message_space_size(code.ctx, code.k)))
        pretty.append(f"counts: {list(wd.counts)}")
        pretty.append(f"minimum distance: {wd.min_distance}")
    if args.method in ("formula", "both"):
        if code.decomposition is None:
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
    if args.trials is not None and args.trials < 1:
        print(f"--trials must be >= 1, not {args.trials}", file=sys.stderr)
        return EXIT_USAGE
    results = run_suite(args.suite, seed=cfg.seed, trials=args.trials)
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


def cmd_reproduce(cfg: RunConfig, args, showcases=SHOWCASES) -> int:
    payload, pretty = showcases[args.example](cfg.enumeration_cap, cfg.threads)
    _emit(cfg, payload, pretty_lines=pretty)
    if payload["verdict"] != "matched":
        print("FALSIFICATION ALARM: could not match the showcase values",
              file=sys.stderr)
        return EXIT_ALARM
    return EXIT_OK


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


def _global_flags(suppress: bool) -> argparse.ArgumentParser:
    """The global flags, as a parent parser.  Every subcommand takes
    them too, so they work before or after it; there they default to
    SUPPRESS, so that a flag given before the subcommand is kept."""
    def default(value):
        return argparse.SUPPRESS if suppress else value

    g = argparse.ArgumentParser(add_help=False)
    g.add_argument("--cap", type=int, default=default(None),
                   help="codeword enumeration budget (default: $RANKDEC_CAP, "
                        f"else {DEFAULT_ENUM_CAP})")
    g.add_argument("--pcap", type=int, default=default(DEFAULT_PROJ_CAP),
                   help="projective point scan budget")
    g.add_argument("--seed", type=int, default=default(0))
    g.add_argument("--threads", type=int, default=default(1))
    g.add_argument("--format", choices=("json", "csv", "pretty"),
                   default=default("pretty"))
    return g


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rankdec",
        description="exact computations with completely decomposable "
                    "rank-metric codes",
        parents=[_global_flags(suppress=False)])
    sub = p.add_subparsers(dest="command", required=True)
    flags = [_global_flags(suppress=True)]

    b = sub.add_parser("build", parents=flags,
                       help="build a code from a spec file")
    b.add_argument("spec")
    b.add_argument("--out", default=None)

    w = sub.add_parser("wdist", parents=flags,
                       help="weight distribution of a code file")
    w.add_argument("code")
    w.add_argument("--method", choices=("enum", "formula", "both"),
                   default="enum")

    v = sub.add_parser("verify", parents=flags,
                       help="run a verification suite")
    v.add_argument("suite", choices=tuple(SUITES) + ("all",))
    v.add_argument("--trials", type=int, default=None)

    r = sub.add_parser("reproduce", parents=flags,
                       help="recompute a showcase example")
    r.add_argument("example", choices=tuple(SHOWCASES))

    bd = sub.add_parser("bounds", parents=flags,
                        help="closed-form count bounds")
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
    return _run(COMMANDS[args.command], cfg, args)


def _run(command, cfg: RunConfig, args) -> int:
    """Run one subcommand; a refused enumeration exits 2 and a
    falsification alarm exits 3, each with one line on stderr."""
    try:
        return command(cfg, args)
    except CapExceededError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CAP
    except FalsificationAlarm as exc:
        print(f"FALSIFICATION ALARM: {exc}", file=sys.stderr)
        return EXIT_ALARM


if __name__ == "__main__":
    sys.exit(main())
