"""Smoke check of the benchmark itself, at tiny size.

    python3 perfbench/smoke.py

Checks that BENCHMARK.json has the shape the runner relies on, that
every workload sets up and runs its first instances without a wrong
answer, that a traced pass yields exactly the per-layer metrics
BENCHMARK.json lists, that the compare verdicts follow their rules, that
the host probe scales wall time as documented, and that one short
command-line run ends with a well-formed result line.
Exits 0 when all hold; prints the first failure and exits 1 otherwise.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(1 <= spec["run_seconds"] <= 60, "run_seconds in 1..60")
    check(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    names = [w["name"] for w in spec["workloads"]]
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, f"keys of {m['name']}")
        check(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
        names.append(m["name"])
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"keys of {m['name']}")
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(UNIT.match(m["unit"]), f"unit of {m['name']}")
        check(m["better"] in ("higher", "lower"), f"direction of {m['name']}")
    check(all(NAME.match(n) for n in names), "name syntax")
    check(len(names) == len(set(names)), "names are unique")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s metric")
    check(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s has the largest bound")


def check_workloads(spec):
    import run
    from hostspeed import HostProbe
    from layers import layer_metrics, make_tracer
    from workloads import WORKLOADS

    check({w["name"] for w in spec["workloads"]} <= set(WORKLOADS),
          "every BENCHMARK.json workload is defined")
    rd, _, import_times = run.import_rankdec()
    tracer = make_tracer()
    tracer.install(rd)
    for name, wl in WORKLOADS.items():
        pool = wl.setup(rd, 0)
        check(len(pool) % len(wl.deck) == 0, f"{name}: pool holds whole rounds")
        again = wl.setup(rd, 0)
        check([i.to_json() for i in pool] == [i.to_json() for i in again],
              f"{name}: the same seed gives the same instances")
        plain = [run.run_one(rd, wl, inst) for inst in pool[:3]]
        check(not any(r["wrong"] for r in plain), f"{name}: wrong answer {plain}")
        tracer.enable()
        try:
            traced = [run.run_one(rd, wl, inst, tracer) for inst in pool[:2]]
        finally:
            tracer.disable()
        summary = run.run_summary(traced, sum(r["s"] for r in traced))
        untraced = run.run_summary(plain[:2], sum(r["s"] for r in plain[:2]))
        metrics = layer_metrics(tracer, untraced, summary, 1.0)
        check(list(metrics) == [m["name"] for m in spec["per_layer"]],
              f"{name}: per-layer metric names")
        probe = HostProbe()
        probe.burst(5)
        for r in plain:
            r["ref_s"] = probe.ref_seconds(r["t0"], r["t0"] + r["s"])
        e2e = run.end_to_end_metrics(import_times, [0.1], run.run_summary(plain, 1.0))
        check({m["name"] for m in spec["end_to_end"]} <= set(e2e),
              f"{name}: end-to-end metric names")
        print(f"smoke: {name}: {len(pool)} instances in the pool, "
              f"first 3 run, {len(tracer)} spans so far")


def check_verdicts():
    from compare import verdict

    base = {s: 10.0 + 0.01 * s for s in range(10)}
    faster = {s: v * 0.5 for s, v in base.items()}
    slower = {s: v * 1.5 for s, v in base.items()}
    check(verdict(base, faster, False, 0.1) == "better", "verdict better")
    check(verdict(base, slower, False, 0.1) == "worse", "verdict worse")
    check(verdict(base, dict(base), False, 0.1) == "unchanged", "verdict unchanged")
    noisy = {s: 10.0 * (1 + 0.5 * (s % 2)) for s in range(10)}
    check(verdict(base, noisy, False, 0.1) == "unresolved", "verdict unresolved")


def check_probe():
    from hostspeed import NOMINAL_S, HostProbe

    probe = HostProbe()
    probe.mid = [0.0, 0.5, 1.0, 1.5, 2.0, 10.0]
    probe.dur = [NOMINAL_S / 2] * 5 + [NOMINAL_S]
    check(abs(probe.ref_seconds(0.5, 1.5) - 2.0) < 1e-9,
          "reference time of an interval on a host twice the nominal speed")
    check(abs(probe.ref_seconds(10.0, 10.5) - 0.5 * 1.75) < 1e-9,
          "an interval with few probes near it uses the nearest ones")


def check_cli():
    with tempfile.TemporaryDirectory() as tmp:
        for trace in ("0", "1"):
            p = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", "closed_form",
                 "--seed", "0", "--seconds", "0.1", "--trace", trace, "--out", tmp],
                capture_output=True, text=True, timeout=170)
            check(p.returncode == 0, f"run.py exit {p.returncode}: {p.stderr}")
            line = json.loads(p.stdout.strip().splitlines()[-1])
            check(set(line) == {"correct", "attempted", "failed", "metrics"},
                  "result line keys")
            check(line["correct"] and line["attempted"] >= 1, "result line values")
        p = subprocess.run([sys.executable, str(HERE / "run.py"), "--compare", tmp, tmp],
                           capture_output=True, text=True, timeout=60)
        check(p.returncode == 0 and "unchanged" in p.stdout, "compare mode")


def main() -> int:
    sys.path.insert(0, str(HERE))
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    try:
        check_spec(spec)
        check_verdicts()
        check_probe()
        check_workloads(spec)
        check_cli()
    except AssertionError as exc:
        print(f"smoke check failed: {exc}")
        return 1
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
