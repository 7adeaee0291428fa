"""rankdec benchmark: one closed-loop caller runs seeded instances.

    python3 perfbench/run.py --workload census_q2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare RESULTS_A RESULTS_B

A run imports rankdec from ``src/`` next to this directory, sets up the
workload's instance pool several times (the median set-up is reported),
then runs instances one after another until ``--seconds`` have passed.
Every answer is checked; a failed or wrong instance is counted and the
run goes on.

``--trace 0`` prints the end-to-end metrics; throughput and latencies
are given in reference seconds, wall time scaled by the host speed a
probe measures between instances (``hostspeed.py``), and in wall
seconds, and set-up in wall seconds.  ``--trace 1`` wraps the
layer modules, runs every instance twice, once traced and once not, and
prints the per-layer metrics, including the tracing overhead.  The last
line of standard output is one JSON object; the lines before it are a
table for people.  Results, the
instance set (for replay with ``rankdec build`` / ``rankdec wdist``) and
spans go to ``perfbench/out/`` unless ``--out`` says otherwise.

Caches are not dropped and CPUs are not pinned: the benchmark uses no
privileged controls, so the machine facts recorded with each result
(nproc, CPU model, load average) are the context for its numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
IMPORT_REPS = 3
#: at least ten samples beyond the 90th percentile
MIN_SAMPLES = 100
MAX_STRETCH = 4
#: host-probe samples taken right before and right after the timed loop
PROBE_BURST = 10
#: units of the metrics printed and recorded but not in BENCHMARK.json
WALL_UNITS = {"verified_per_s": "1/s", "instance_p50_s": "s",
              "instance_p90_s": "s", "failed_frac": "frac"}
NOTES = ("page cache not dropped; CPUs not pinned; closed loop, one caller; "
         "instance time includes the checks on its answer")


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def nearest_rank(sorted_values, frac):
    """Nearest-rank percentile of an ascending list."""
    idx = max(math.ceil(frac * len(sorted_values)) - 1, 0)
    return sorted_values[idx], len(sorted_values) - 1 - idx


def latency_summary(records, wall, key="s"):
    """p50/p90 of ``key`` where a failed instance counts as slower than
    any success.

    If a percentile lands on a failure, the timed time of the whole run
    (``wall``) is reported: every latency limit shorter than the run was
    missed.
    """
    lat = sorted(r[key] if r["ok"] else math.inf for r in records)
    p50, _ = nearest_rank(lat, 0.5)
    p90, beyond = nearest_rank(lat, 0.9)
    return (p50 if p50 != math.inf else wall,
            p90 if p90 != math.inf else wall, beyond)


# ----------------------------------------------------------------------
# machine facts
# ----------------------------------------------------------------------


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(numpy_version):
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# the measured loop
# ----------------------------------------------------------------------


def run_one(rd, workload, inst, tracer=None):
    """Run one instance; returns a record with its wall time and status."""
    if tracer is not None:
        tracer.instance_id = inst.id
        frame = tracer.enter()
    t0 = time.perf_counter()
    error = None
    problems = []
    try:
        problems = workload.run(rd, inst)
    except Exception as exc:  # a raising instance is a failure, not an abort
        error = f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.exit(frame, "bench.instance")
        tracer.instance_id = -1
    return {"id": inst.id, "cls": inst.cls, "t0": t0, "s": dt,
            "ok": error is None and not problems,
            "wrong": bool(problems), "error": error, "problems": problems}


def measure(rd, workload, pool, seconds, min_samples, probe):
    """Closed loop over whole rounds of the workload's deck.

    Stops at the first round boundary at which ``seconds`` have passed
    and at least ``min_samples`` instances ran, or at one after
    ``MAX_STRETCH * seconds``.  Whole rounds keep the mix of work the
    same in every run.  The host probe samples before, between
    instances and after; its time is left out of the timed wall time,
    and each record gets its reference time ``ref_s``.  Returns the
    records, the timed wall time and the verified rate of each round.
    """
    records = []
    rates = []
    per_round = len(workload.deck)
    probe.burst(PROBE_BURST)
    probed_before = probe.total_s
    start = round_start = time.perf_counter()
    i = 0
    while True:
        now = time.perf_counter()
        if i % per_round == 0 and i:
            rates.append(sum(r["ok"] for r in records[-per_round:])
                         / (now - round_start))
            round_start = now
            if ((now - start >= seconds and i >= min_samples)
                    or now - start >= MAX_STRETCH * seconds):
                break
        records.append(run_one(rd, workload, pool[i % len(pool)]))
        probe.maybe_sample()
        i += 1
    wall = time.perf_counter() - start - (probe.total_s - probed_before)
    probe.burst(PROBE_BURST)
    for r in records:
        r["ref_s"] = probe.ref_seconds(r["t0"], r["t0"] + r["s"])
    return records, wall, rates


def run_summary(records, wall, round_rates=None):
    """Counts and latencies of a run.  ``verified_per_s`` is verified
    instances over the whole timed ``wall``: the host's speed swings on a
    scale of seconds, and a rate over the whole run averages those swings
    where a median of short rounds picks one of them.  The per-round
    rates are kept only to show that spread.  When the records carry
    reference times, the same figures are given in reference seconds;
    the run's reference time is its wall time scaled as its instances
    were."""
    n = len(records)
    ok = sum(r["ok"] for r in records)
    p50, p90, beyond = latency_summary(records, wall)
    out = {"attempted": n, "verified": ok, "failed": n - ok,
           "wrong": sum(r["wrong"] for r in records), "wall_s": wall,
           "verified_per_s": ok / wall, "round_rates": round_rates,
           "p50": p50, "p90": p90, "beyond_p90": beyond}
    if records and "ref_s" in records[0]:
        ref_wall = wall * sum(r["ref_s"] for r in records) / sum(r["s"] for r in records)
        ref_p50, ref_p90, _ = latency_summary(records, ref_wall, "ref_s")
        out.update({"ref_wall_s": ref_wall, "verified_per_ref_s": ok / ref_wall,
                    "ref_p50": ref_p50, "ref_p90": ref_p90})
    return out


def end_to_end_metrics(import_times, setup_times, summary):
    """The user-visible metrics of an untraced run.  ``setup_s`` is the
    median import plus the median set-up, in wall seconds.  The
    throughput and latencies come in reference seconds (gated in
    BENCHMARK.json, see ``hostspeed``) and in wall seconds (recorded and
    printed).  ``failed_frac`` is printed and recorded but is not a
    BENCHMARK.json metric, because it is 0 on most workloads; the result
    line carries the failures in its ``failed`` count instead."""
    return {
        "setup_s": statistics.median(import_times) + statistics.median(setup_times),
        "verified_per_ref_s": summary["verified_per_ref_s"],
        "instance_p50_ref_s": summary["ref_p50"],
        "instance_p90_ref_s": summary["ref_p90"],
        "verified_per_s": summary["verified_per_s"],
        "instance_p50_s": summary["p50"],
        "instance_p90_s": summary["p90"],
        "failed_frac": summary["failed"] / summary["attempted"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_class(records):
    out = {}
    for r in records:
        out.setdefault(r["cls"], []).append(r)
    return {c: {"n": len(rs), "failed": sum(not r["ok"] for r in rs),
                "median_s": statistics.median(r["s"] for r in rs)}
            for c, rs in sorted(out.items())}


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_rankdec():
    """Import the checkout's rankdec from ``src/``, never an installed one.

    Returns the package, the numpy version and the import times: this
    process's import plus ``IMPORT_REPS - 1`` imports in fresh
    interpreters, each waited for."""
    src = ROOT / "src"
    if not (src / "rankdec" / "__init__.py").is_file():
        raise SystemExit(f"no rankdec sources under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy
    import rankdec
    times = [time.perf_counter() - t0]
    if Path(rankdec.__file__).resolve().parent != (src / "rankdec").resolve():
        raise SystemExit(f"imported rankdec from {rankdec.__file__}, not {src}")
    probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
             "t = time.perf_counter(); import rankdec; "
             "print(time.perf_counter() - t)")
    for _ in range(IMPORT_REPS - 1):
        out = subprocess.run([sys.executable, "-c", probe, str(src)],
                             capture_output=True, text=True, check=True,
                             timeout=120)
        times.append(float(out.stdout))
    return rankdec, numpy.__version__, times


def setup_pool(rd, workload, seed):
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        pool = workload.setup(rd, seed)
        times.append(time.perf_counter() - t0)
    return pool, times


def write_json(path, payload):
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def write_replay(out_dir, tag, workload, pool, records):
    """The instance set, plus one ``rankdec build`` spec (and, for
    scrambled codes, one ``rankdec wdist`` code file) per failure."""
    write_json(out_dir / f"instances-{tag}.json",
               {"workload": workload.name, "instances": [i.to_json() for i in pool]})
    by_id = {inst.id: inst for inst in pool}
    for r in records:
        if r["ok"]:
            continue
        inst = by_id[r["id"]]
        write_json(out_dir / f"failed-{tag}-{inst.id}.spec.json", inst.spec)
        if "code" in inst.replay:
            write_json(out_dir / f"failed-{tag}-{inst.id}.code.json",
                       inst.replay["code"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(HERE / "out"))
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two result sets (directories or files)")
    args = ap.parse_args(argv)
    spec = load_spec()
    if args.compare:
        from compare import compare

        return compare(spec, *args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    load_start = os.getloadavg()
    rd, numpy_version, import_times = import_rankdec()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{workload.name}-s{args.seed}"
    result = {"workload": workload.name, "seed": args.seed, "seconds": seconds,
              "trace": args.trace, "import_s": import_times,
              "load_start": load_start,
              "machine": machine_facts(numpy_version), "notes": NOTES}

    if args.trace:
        from layers import layer_metrics

        pool, plain, records, tracer = run_traced(rd, workload, args.seed,
                                                  seconds)
        untraced = run_summary(plain, sum(r["s"] for r in plain))
        summary = run_summary(records, sum(r["s"] for r in records))
        metrics = layer_metrics(tracer, untraced, summary,
                                len(records) / len(workload.deck))
        tracer.write(out_dir / f"spans-{tag}.jsonl.gz")
        result["untraced"] = untraced
        wanted = spec["per_layer"]
    else:
        from hostspeed import HostProbe

        pool, setup_times = setup_pool(rd, workload, args.seed)
        probe = HostProbe()
        records, wall, rates = measure(rd, workload, pool, seconds,
                                       MIN_SAMPLES, probe)
        summary = run_summary(records, wall, rates)
        result["setup_reps_s"] = setup_times
        result["host_probe"] = probe.summary()
        metrics = end_to_end_metrics(import_times, setup_times, summary)
        wanted = spec["end_to_end"]
    result["pool"] = len(pool)
    units = {m["name"]: m["unit"] for m in wanted}
    units.update({k: v for k, v in WALL_UNITS.items() if k not in units})

    result.update(summary)
    result["load_end"] = os.getloadavg()
    result["classes"] = per_class(records)
    result["failures"] = [{k: r[k] for k in ("id", "cls", "error", "problems")}
                          for r in records if not r["ok"]][:50]
    result["metrics"] = {k: {"value": v, "unit": units.get(k, "")}
                         for k, v in metrics.items()}
    result["correct"] = (summary["wrong"] == 0
                         and result.get("untraced", {}).get("wrong", 0) == 0)
    write_json(out_dir / f"result-{tag}-trace{args.trace}.json", result)
    write_replay(out_dir, tag, workload, pool, records)

    print(f"workload {workload.name} seed {args.seed}: {summary['attempted']} "
          f"instances, {summary['failed']} failed ({summary['wrong']} wrong "
          f"answers), {summary['beyond_p90']} samples beyond p90, "
          f"{summary['wall_s']:.2f} s timed")
    for k, v in metrics.items():
        print(f"  {k:44s} {v:>16.6g} {units.get(k, '')}")
    line = {"correct": result["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in wanted}}
    print(json.dumps(line))
    return 0


def run_traced(rd, workload, seed, seconds):
    """Traced run: one traced set-up (for the set-up layers), then whole
    rounds in which every instance runs once untraced and once traced,
    in alternating order, until ``seconds`` have passed.  The untraced
    twin of each instance gives the tracing overhead on the same work."""
    from layers import make_tracer

    tracer = make_tracer()
    tracer.install(rd)
    tracer.enable()
    try:
        with tracer.span("bench.setup"):
            pool = workload.setup(rd, seed)
    finally:
        tracer.disable()
    plain, traced = [], []
    per_round = len(workload.deck)
    start = time.perf_counter()
    i = 0
    while not (i % per_round == 0 and time.perf_counter() - start >= seconds):
        inst = pool[i % len(pool)]
        for use_tracer in ((False, True) if i % 2 == 0 else (True, False)):
            if not use_tracer:
                plain.append(run_one(rd, workload, inst))
                continue
            tracer.enable()
            try:
                traced.append(run_one(rd, workload, inst, tracer))
            finally:
                tracer.disable()
        i += 1
    return pool, plain, traced, tracer


if __name__ == "__main__":
    sys.exit(main())
