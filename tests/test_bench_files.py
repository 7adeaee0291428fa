"""The committed BENCH_*.json files share one layout: each names its
parent commit and, for every gated workload and end-to-end metric of
BENCHMARK.json, gives both sides' median and quartiles, the ratio of
the medians and one run per pair.  From BENCH_16 on, each workload also
gives both sides' attempted instance count of every run: peak_rss_mb
grows with it, so a memory reading is read beside it."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: p.name)
SIDES = ("parent", "change")
HALF_UNIT = 0.5e-6
#: the first BENCH file that records the attempted count of every run
ATTEMPTED_FROM = 16


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_bench_files_exist():
    assert BENCH_FILES, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_layout(path):
    bench = json.loads(path.read_text())
    spec = _benchmark()
    assert re.fullmatch(r"[0-9a-f]{40}", bench["parent_commit"])
    for workload in spec["workloads"]:
        entry = bench["workloads"][workload["name"]]
        pairs = entry["pairs"]
        assert isinstance(pairs, int) and pairs > 0
        if int(path.stem.split("_")[1]) >= ATTEMPTED_FROM:
            for side in SIDES:
                attempted = entry["attempted"][side]
                assert len(attempted) == pairs, f"{workload['name']}/attempted"
                assert all(type(a) is int and a > 0 for a in attempted)
        for metric in spec["end_to_end"]:
            where = f"{workload['name']}/{metric['name']}"
            m = entry["metrics"][metric["name"]]
            for side in SIDES:
                s = m[side]
                assert s["q1"] <= s["median"] <= s["q3"], where
                assert len(m["runs"][side]) == pairs, where
            # medians are written to 6 decimal places and ratios to 4:
            # the ratio of the written medians is off by at most this
            parent, change = m["parent"]["median"], m["change"]["median"]
            ratio = change / parent
            slack = ratio * HALF_UNIT * (1 / parent + 1 / change) + 0.5e-4
            assert abs(m["ratio"] - ratio) <= slack + 1e-12, where
