"""Command-line front end.

Subcommands: build, wdist, verify, reproduce, bounds.  Global flags
--cap/--seed/--threads/--format, before or after the subcommand (the
same bytes either way): :func:`parse_args` moves the subcommand to the
front of argv, so every argument reads as if it came after it.  --cap
bounds the words a call enumerates, and RANKDEC_CAP overrides its
default.  ``reproduce`` runs one entry of
:data:`rankdec.showcases.SHOWCASES`.  Exit status: 0 on
success, 1 on usage errors, 2 when a cap refuses an enumeration, 3 when
a computation contradicts a proved statement (falsification alarm) or a
reproduction target cannot be matched.  :func:`main` maps the last two
errors to their exit codes for every subcommand; under --format json a
refused enumeration's stderr line is a JSON object.

Reports are deterministic: the same seed and flags produce byte
identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import analysis, codes
from .enumeration import DEFAULT_ENUM_CAP, message_space_size
from .errors import (CapExceededError, FalsificationAlarm,
                     NotApplicableError, UnsupportedFieldError)
from .fields import DESCRIPTOR_KEYS
from .showcases import SHOWCASES
from .suites import SUITES, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_ALARM = 3


def _emit(args, payload: dict, pretty_lines=None, csv_lines=None):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv" and csv_lines is not None:
        for line in csv_lines:
            print(line)
    else:
        for line in pretty_lines or [json.dumps(payload, sort_keys=True)]:
            print(line)


def _shape(keys, values=None) -> str:
    """An input object's (required, optional) keys, with their values
    (``...`` unless given), on one line for messages."""
    required, optional = keys
    values = values or {}
    return "{%s}" % ", ".join([f'"{k}": {values.get(k, "...")}' for k in required]
                              + [f'optional "{k}": {values.get(k, "...")}' for k in optional])


_FIELD = _shape(DESCRIPTOR_KEYS)
_BLOCKS = " or ".join(_shape(((k,), ()), {"geometric": _shape(codes.GEOMETRIC_KEYS)})
                      for k in codes.BLOCK_KEYS[1])

#: one-line shapes of the two input files, for error messages, from the
#: keys that the loaders check
SPEC_FORMAT = "a spec file is " + _shape(codes.SPEC_KEYS, {
    "field": _FIELD, "blocks": f"[{_BLOCKS}, ...]"})
CODE_FORMAT = "a code file (as written by build) is " + _shape(codes.CODE_KEYS, {
    "field": _FIELD, "generator": "[[...], ...]",
    "decomposition": _shape(codes.DECOMPOSITION_KEYS)})


def _load(path, reader, what: str, file_format: str):
    """``reader`` applied to the JSON file at ``path``, or None after one
    stderr line ``<what>: <reason>``; a missing key is named together
    with the expected file format."""
    try:
        with open(path) as fh:
            return reader(json.load(fh))
    except KeyError as exc:
        reason = f"missing key {exc.args[0]!r}; {file_format}"
    except (OSError, ValueError, TypeError) as exc:
        reason = str(exc)
    print(f"{what}: {reason}", file=sys.stderr)
    return None


def _distribution_csv(counts):
    yield "weight,count"
    for w, c in enumerate(counts):
        yield f"{w},{c}"


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_build(args) -> int:
    code = _load(args.spec, codes.code_from_spec, "invalid code spec",
                 SPEC_FORMAT)
    if code is None:
        return EXIT_USAGE
    ctx = code.ctx
    nondeg = codes.is_nondegenerate(code)
    mrd = codes.is_mrd(code, cap=args.cap)
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
    _emit(args, summary, pretty_lines=[
        f"[{code.n},{code.k}] code over {ctx!r}",
        f"type: {tuple(code.decomposition.type_vector)}",
        f"nondegenerate: {nondeg}   maximum-rank-distance: {mrd}",
        f"canonical code file: {out_path}",
    ])
    return EXIT_OK


def cmd_wdist(args) -> int:
    code = _load(args.code, codes.RankCode.from_json, "cannot load code",
                 CODE_FORMAT)
    if code is None:
        return EXIT_USAGE
    payload = {"length": code.n, "dimension": code.k}
    pretty = []
    if args.method in ("enum", "both"):
        wd = codes.weight_distribution(code, cap=args.cap,
                                       threads=args.threads)
        payload.update(wd.to_json(message_space_size(code.ctx, code.k)))
        pretty.append(f"counts: {list(wd.counts)}")
        pretty.append(f"minimum distance: {wd.min_distance}")
    if args.method in ("formula", "both"):
        if code.decomposition is None:
            found = codes.detect_complete_decomposability(code, cap=args.cap)
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
            _emit(args, payload, pretty_lines=pretty)
            print("FALSIFICATION ALARM: closed form disagrees with enumeration",
                  file=sys.stderr)
            return EXIT_ALARM
    csv_lines = _distribution_csv(payload["counts"]) if "counts" in payload else None
    _emit(args, payload, pretty_lines=pretty, csv_lines=csv_lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.trials is not None and args.trials < 1:
        print(f"--trials must be >= 1, not {args.trials}", file=sys.stderr)
        return EXIT_USAGE
    results = run_suite(args.suite, seed=args.seed, trials=args.trials)
    pretty = []
    ok = True
    for suite in results:
        ok = ok and suite["ok"]
        pretty.append(f"suite {suite['suite']}: "
                      f"{'pass' if suite['ok'] else 'FAIL'}")
        for c in suite["checks"]:
            mark = "pass" if c["passed"] else "FAIL"
            pretty.append(f"  [{mark}] {c['name']} ({c['instances']} instances)")
    _emit(args, {"suites": results, "ok": ok}, pretty_lines=pretty)
    if not ok:
        print("FALSIFICATION ALARM: a verified statement failed on an instance",
              file=sys.stderr)
        return EXIT_ALARM
    return EXIT_OK


def cmd_reproduce(args, showcases=SHOWCASES) -> int:
    payload, pretty = showcases[args.example](args.cap, args.threads)
    _emit(args, payload, pretty_lines=pretty)
    if payload["verdict"] != "matched":
        print("FALSIFICATION ALARM: could not match the showcase values",
              file=sys.stderr)
        return EXIT_ALARM
    return EXIT_OK


def cmd_bounds(args) -> int:
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
    csv_lines = ["bound,value", f"lower,{lower}", f"upper,{upper}"]
    if payload["prime_upper"] is not None:
        pretty.append(f"  prime-extension upper: {payload['prime_upper']}")
        csv_lines.append(f"prime_upper,{payload['prime_upper']}")
    _emit(args, payload, pretty_lines=pretty, csv_lines=csv_lines)
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def _global_flags() -> argparse.ArgumentParser:
    """The global flags, as a parent parser of the top level (for
    ``--help``) and of every subcommand (where :func:`parse_args` puts them)."""
    g = argparse.ArgumentParser(add_help=False)
    g.add_argument("--cap", type=int, default=None,
                   help="words an enumeration or a detection scan may "
                        f"enumerate (default: $RANKDEC_CAP, else {DEFAULT_ENUM_CAP})")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--threads", type=int, default=1)
    g.add_argument("--format", choices=("json", "csv", "pretty"),
                   default="pretty")
    return g


def build_parser() -> argparse.ArgumentParser:
    flags = [_global_flags()]
    p = argparse.ArgumentParser(
        prog="rankdec",
        description="exact computations with completely decomposable "
                    "rank-metric codes",
        parents=flags)
    sub = p.add_subparsers(dest="command", required=True)

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


def parse_args(argv) -> argparse.Namespace:
    """argv parsed with its first subcommand name moved to the front: an
    argument before the subcommand reads as if it came after it, and
    argparse names a stray flag itself.  The namespace is the settings."""
    argv = list(argv)
    i = next((i for i, a in enumerate(argv) if a in COMMANDS), 0)
    return build_parser().parse_args(argv[i:] + argv[:i])


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
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
    if args.cap <= 0 or args.threads < 1:
        print("cap must be positive" if args.cap <= 0 else
              "threads must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    return _run(COMMANDS[args.command], args)


def _run(command, args) -> int:
    """Run one subcommand; an unsupported field exits 1, a refused
    enumeration 2 and an alarm 3, each with one line on stderr.  Under
    --format json a refusal's line is a JSON object with its numbers."""
    try:
        return command(args)
    except UnsupportedFieldError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        print(json.dumps({"error": "cap_exceeded", "what": exc.what,
                          "required": exc.required, "cap": exc.cap},
                         sort_keys=True)
              if args.format == "json" else str(exc), file=sys.stderr)
        return EXIT_CAP
    except FalsificationAlarm as exc:
        print(f"FALSIFICATION ALARM: {exc}", file=sys.stderr)
        return EXIT_ALARM


if __name__ == "__main__":
    sys.exit(main())
