"""CLI surface: spec files, reports, exit codes, and determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rankdec
from rankdec.cli import (
    EXIT_ALARM,
    EXIT_CAP,
    EXIT_OK,
    EXIT_USAGE,
    _run,
    cmd_reproduce,
    main,
    parse_args,
)
from rankdec.codes import RankCode, code_from_spec
from rankdec.errors import CapExceededError, FalsificationAlarm
from rankdec.showcases import SHOWCASES

ROOT = Path(__file__).resolve().parent.parent

#: the exact ``--format json reproduce <name>`` stdout of each showcase
REPRODUCE_JSON = json.loads(
    (ROOT / "tests" / "data" / "reproduce_json.json").read_text())

#: the exact ``--seed 3 --format json verify all`` stdout
VERIFY_SEED3_JSON = (ROOT / "tests" / "data" / "verify_seed3.json").read_text()


@pytest.fixture
def spec_path(tmp_path):
    spec = {
        "field": {"p": 2, "a": 1, "m": 6},
        "blocks": [
            {"geometric": {"lambda_degree": 6, "t": 2}},
            {"geometric": {"lambda_degree": 6, "t": 2}},
            {"geometric": {"lambda_degree": 6, "t": 2}},
        ],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


@pytest.fixture
def code_path(tmp_path, spec_path, capsys):
    out = tmp_path / "code.json"
    assert main(["build", str(spec_path), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()  # drain the build summary
    return out


@pytest.fixture
def bare_code_path(tmp_path, code_path):
    # no decomposition record: --method formula must detect one
    code = RankCode.from_json(json.loads(code_path.read_text()))
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(code.strip_decomposition().to_json()))
    return path


#: well-formed JSON files of the wrong shape for a spec or a code file
MALFORMED = {
    "list": [1, 2],
    "blocks_int": {"field": {"p": 2, "m": 4}, "blocks": 5},
    "generator_int": {"field": {"p": 2, "m": 4}, "generator": 7},
}


@pytest.mark.parametrize("command", ["build", "wdist"])
@pytest.mark.parametrize("shape", sorted(MALFORMED))
def test_malformed_file_one_line(capsys, tmp_path, command, shape):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED[shape]))
    assert main([command, str(path)]) == EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1


@pytest.mark.parametrize("command,payload,key", [
    ("build", {"field": {"p": 2, "m": 4}, "generator": [[1]]}, "blocks"),
    ("wdist", {"field": {"p": 2, "m": 4}, "blocks": [{"entries": [1]}]},
     "generator"),
    ("build", {"blocks": [{"entries": [1]}]}, "field"),
    ("build", {"field": {"p": 2}, "blocks": [{"entries": [1]}]}, "field.m"),
    ("build", {"field": {"p": 2, "m": 4},
               "blocks": [{"geometric": {"lambda_degree": 4}}]},
     "blocks[0].geometric.t"),
    ("wdist", {"field": {"p": 2, "m": 4}, "generator": [[1, 2]],
               "decomposition": {"type": [2], "blocks": [[1, 2]]}},
     "decomposition.col_map"),
])
def test_missing_key_named(capsys, tmp_path, command, payload, key):
    """A missing key is named on one stderr line, with the file format
    the command expected."""
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(payload))
    assert main([command, str(path)]) == EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert f"missing key '{key}'" in out.err
    expected = '"blocks": [' if command == "build" else '"generator": [['
    assert expected in out.err


#: a spec and a code file, each with every optional key
SPEC = {"field": {"p": 2, "a": 1, "m": 4, "modulus": [1, 1, 0, 0, 1]},
        "blocks": [{"entries": [1, 2]},
                   {"geometric": {"lambda_degree": 4, "t": 2, "seed": 1}}]}
CODE = {"field": {"p": 2, "m": 4}, "generator": [[1, 2, 4]],
        "decomposition": {"type": [3], "blocks": [[1, 2, 4]],
                          "col_map": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}}


def _read_argv(command, file):
    out = ["--out", str(file.with_suffix(".code.json"))] if command == "build" else []
    return [command, str(file), *out]


@pytest.mark.parametrize("command,path,edit,message", [
    ("build", (), {"fields": 1}, "fields: unknown key"),
    ("build", ("field",), {"q": 4}, "field.q: unknown key"),
    ("build", ("blocks", 0), {"entry": [1]}, "blocks[0].entry: unknown key"),
    ("build", ("blocks", 1, "geometric"), {"lamda": 2},
     "blocks[1].geometric.lamda: unknown key"),
    ("build", ("blocks", 0), {"geometric": {"lambda_degree": 4, "t": 3}},
     "blocks[0]: need exactly one of 'entries' and 'geometric'"),
    ("build", ("blocks", 1, "geometric"), {"lambda": 2},
     "blocks[1].geometric.seed: conflicts with lambda"),
    ("wdist", (), {"generators": [[1]]}, "generators: unknown key"),
    ("wdist", ("field",), {"n": 4}, "field.n: unknown key"),
    ("wdist", ("decomposition",), {"colmap": []},
     "decomposition.colmap: unknown key"),
], ids=["spec", "spec-field", "block", "geometric", "block-both",
        "lambda-and-seed", "code", "code-field", "record"])
def test_unknown_or_conflicting_key_named(capsys, tmp_path, command, path,
                                          edit, message):
    """A key outside an input object's keys, or two keys that exclude
    each other, exits 1 with one stderr line naming its path."""
    doc = json.loads(json.dumps(SPEC if command == "build" else CODE))
    node = doc
    for step in path:
        node = node[step]
    node.update(edit)
    file = tmp_path / "in.json"
    file.write_text(json.dumps(doc))
    assert main(_read_argv(command, file)) == EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert message in out.err


@pytest.mark.parametrize("command", ["build", "wdist"])
def test_every_key_accepted(capsys, tmp_path, command):
    file = tmp_path / "in.json"
    file.write_text(json.dumps(SPEC if command == "build" else CODE))
    assert main(_read_argv(command, file)) == EXIT_OK


def test_benchmark_instance_files_load():
    """The spec and code shapes that the benchmark's instance files
    record pass the key check: one instance of each class."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for workload in WORKLOADS.values():
        records = {inst.cls: inst.to_json() for inst in workload.setup(rankdec, 0)}
        for record in records.values():
            code_from_spec(record["spec"])
            if "code" in record:
                RankCode.from_json(record["code"])


#: element values that are not integers, as JSON reads them
NOT_INTEGERS = [1.5, 2.0, "a", True, False]


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("where", ["entries", "lambda"])
def test_build_rejects_non_integer_element(capsys, tmp_path, where, value):
    """A non-integer element in a spec is named on one stderr line."""
    block = ({"entries": [1, value]} if where == "entries" else
             {"geometric": {"lambda_degree": 4, "t": 2, "lambda": value}})
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"field": {"p": 2, "m": 4}, "blocks": [block]}))
    assert main(["build", str(path), "--out", str(tmp_path / "c.json")]) == EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert f"{value!r} is not an element encoding" in out.err
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("where", ["generator", "blocks", "col_map"])
def test_wdist_rejects_non_integer_element(capsys, tmp_path, where, value):
    """A non-integer element in a code file (generator or decomposition
    record) is named on one stderr line; true/false are not read as
    1/0."""
    code = {"field": {"p": 2, "m": 4}, "generator": [[1, 2, 4]],
            "decomposition": {"type": [3], "blocks": [[1, 2, 4]],
                              "col_map": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}}
    if where == "generator":
        code["generator"][0][2] = value
    else:
        code["decomposition"][where][0][0] = value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(code))
    assert main(["wdist", str(path)]) == EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert f"{value!r} is not an element encoding" in out.err


#: where each integer field of a spec sits, and the name its error gives
INTEGER_FIELDS = {
    "p": (("field", "p"), "p"),
    "a": (("field", "a"), "a"),
    "m": (("field", "m"), "m"),
    "modulus": (("field", "modulus", 1), "modulus entry"),
    "lambda_degree": (("blocks", 0, "geometric", "lambda_degree"),
                      "block 0: lambda_degree"),
    "t": (("blocks", 0, "geometric", "t"), "block 0: t"),
    "seed": (("blocks", 0, "geometric", "seed"), "block 0: seed"),
}


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("key", sorted(INTEGER_FIELDS))
def test_build_rejects_non_integer_field(capsys, tmp_path, key, value):
    """An integer field of a spec (field descriptor or geometric block)
    that is not an integer is named on one stderr line, not truncated
    or parsed into a different code."""
    spec = {"field": {"p": 2, "a": 1, "m": 4, "modulus": [1, 1, 0, 0, 1]},
            "blocks": [{"geometric": {"lambda_degree": 4, "t": 2, "seed": 0}}]}
    (*where, last), name = INTEGER_FIELDS[key]
    node = spec
    for step in where:
        node = node[step]
    node[last] = value
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    assert main(["build", str(path), "--out", str(tmp_path / "c.json")]) == EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert f"{name} must be an integer, not {value!r}" in out.err
    assert not (tmp_path / "c.json").exists()


def _wdist_bad_record(capsys, tmp_path, **record):
    """Exit code and stderr of ``wdist`` on a [3, 1] code over F_2^4 whose
    decomposition record takes the given fields."""
    dec = {"type": [3], "blocks": [[1, 2, 4]],
           "col_map": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    dec.update(record)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"field": {"p": 2, "m": 4},
                                "generator": [[1, 2, 4]], "decomposition": dec}))
    rc = main(["wdist", str(path)])
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    return rc, out.err


@pytest.mark.parametrize("size", [0, 2, 4])
def test_wdist_names_col_map_of_wrong_size(capsys, tmp_path, size):
    """A square col_map that is not n x n is named as such, not reported
    as a record that fails to generate the code."""
    col_map = [[int(i == j) for j in range(size)] for i in range(size)]
    rc, err = _wdist_bad_record(capsys, tmp_path, col_map=col_map)
    assert rc == EXIT_USAGE
    assert f"col_map is {size} x {size}, not n x n with n = 3" in err


@pytest.mark.parametrize("typ", ["ab", [2.5], [True]], ids=repr)
def test_wdist_names_non_integer_type(capsys, tmp_path, typ):
    rc, err = _wdist_bad_record(capsys, tmp_path, type=typ)
    assert rc == EXIT_USAGE
    first = list(typ)[0]
    assert f"decomposition type entry {first!r} is not an integer" in err


class TestBuild:
    def test_summary_and_file(self, capsys, tmp_path, spec_path):
        out = tmp_path / "c.json"
        rc = main(["--format", "json", "build", str(spec_path),
                   "--out", str(out)])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["type"] == [2, 2, 2]
        assert payload["length"] == 6 and payload["dimension"] == 3
        assert payload["nondegenerate"] is True and payload["mrd"] is False
        stored = json.loads(out.read_text())
        assert len(stored["generator"]) == 3

    def test_single_block_mrd_summary(self, capsys, tmp_path):
        spec = {"field": {"p": 2, "a": 1, "m": 6},
                "blocks": [{"geometric": {"lambda_degree": 6, "t": 3}}]}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(spec))
        rc = main(["--format", "json", "build", str(path)])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["dimension"] == 1 and payload["mrd"] is True

    @pytest.mark.parametrize("spec", [
        "reach", {"field": {"p": 65537, "m": 2}, "blocks": [{"entries": [1]}]},
    ], ids=["reach-past-cap", "f65537"])
    def test_builds_without_enumeration(self, capsys, tmp_path, spec):
        """The minimum distance of a built code is its last type entry,
        read off the decomposition record: a spec whose code is past
        --cap, or over p >= 2^16 where enumeration stops, still builds."""
        if spec == "reach":
            path = Path(__file__).parent / "data" / "reach_f2_8_3322.spec.json"
        else:
            path = tmp_path / "s.json"
            path.write_text(json.dumps(spec))
        rc = main(["--format", "json", "--cap", "3", "build", str(path),
                   "--out", str(tmp_path / "c.json")])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["mrd"] is (spec != "reach")

    def test_dependent_block_rejected(self, capsys, tmp_path):
        spec = {"field": {"p": 2, "a": 1, "m": 4},
                "blocks": [{"entries": [1, 1]}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        assert main(["build", str(path)]) == EXIT_USAGE
        assert "F_q-independent" in capsys.readouterr().err

    @pytest.mark.parametrize("block,named", [
        ({"entries": []}, "block 1: length 0 must be > 0"),
        ({"geometric": {"lambda_degree": 4, "t": 0}}, "block 1: t = 0"),
        ({"geometric": {"lambda_degree": 4, "t": -2}}, "block 1: t = -2"),
    ])
    def test_empty_block_rejected(self, capsys, tmp_path, block, named):
        spec = {"field": {"p": 2, "a": 1, "m": 4},
                "blocks": [{"entries": [1, 2]}, block]}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(spec))
        assert main(["build", str(path)]) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert named in out.err

    def test_missing_file(self, capsys, tmp_path):
        assert main(["build", str(tmp_path / "nope.json")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("invalid code spec: ")


class TestWdist:
    def test_enum_json(self, capsys, code_path):
        rc = main(["--format", "json", "wdist", str(code_path)])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == [1, 0, 441, 2646, 35280, 127008, 96768]
        assert payload["min_distance"] == 2
        assert payload["messages"] == 2**18

    def test_formula_only(self, capsys, code_path):
        rc = main(["--format", "json", "wdist", str(code_path),
                   "--method", "formula"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["min_weight_report"]["formula_count"] == 441

    def test_both_agree(self, capsys, code_path):
        rc = main(["--format", "json", "wdist", str(code_path),
                   "--method", "both"])
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["agreement"] is True

    def test_csv_output(self, capsys, code_path):
        rc = main(["--format", "csv", "wdist", str(code_path)])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "weight,count"
        assert lines[1] == "0,1" and lines[3] == "2,441"
        assert len(lines) == 8  # header + weights 0..6

    def test_cap_exit(self, capsys, code_path):
        assert main(["--cap", "100", "wdist", str(code_path)]) == EXIT_CAP

    def test_cap_refusal_is_one_json_object(self, capsys, code_path):
        # a script reading --format json gets the refusal's numbers on
        # its one stderr line, and nothing on stdout; the cap counts the
        # 1 + 64 + 64^2 normalised messages enumerated, not all 2^18
        assert main(["--format", "json", "--cap", "100", "wdist",
                     str(code_path)]) == EXIT_CAP
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert json.loads(out.err) == {
            "error": "cap_exceeded", "what": "codeword enumeration",
            "required": 4161, "cap": 100}

    @pytest.mark.parametrize("fmt", ["pretty", "csv"])
    def test_cap_refusal_is_text_otherwise(self, capsys, code_path, fmt):
        assert main(["--format", fmt, "--cap", "100", "wdist",
                     str(code_path)]) == EXIT_CAP
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"{CapExceededError(4161, 100, 'codeword enumeration')}\n"

    def test_projective_cap_refusal_is_one_json_object(self, capsys,
                                                       bare_code_path):
        # detection's scan spends the same --cap budget as a distribution
        assert main(["--format", "json", "--cap", "3", "wdist",
                     str(bare_code_path), "--method", "formula"]) == EXIT_CAP
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert json.loads(out.err) == {
            "error": "cap_exceeded", "what": "projective point scan",
            "required": 4161, "cap": 3}

    @pytest.mark.parametrize("position", ["before", "after"])
    def test_pcap_is_gone(self, capsys, bare_code_path, position):
        # one budget: the projective scan's own flag was folded into --cap
        command = ["wdist", str(bare_code_path), "--method", "formula"]
        argv = (["--pcap", "3"] + command if position == "before"
                else command + ["--pcap", "3"])
        assert main(argv) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == "" and "rankdec: error:" in out.err

    def test_unknown_flag_before_the_subcommand_is_named(self, capsys, code_path):
        # a value-taking unknown flag ahead of the subcommand used to be
        # reported as a bad subcommand, its value ('3'), without its name
        assert main(["--pcap", "3", "wdist", str(code_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "rankdec: error: unrecognized arguments: --pcap 3" in err
        assert "invalid choice" not in err

    def test_env_cap(self, monkeypatch, code_path):
        monkeypatch.setenv("RANKDEC_CAP", "100")
        assert main(["wdist", str(code_path)]) == EXIT_CAP

    def test_env_cap_not_an_integer(self, monkeypatch, capsys, code_path):
        monkeypatch.setenv("RANKDEC_CAP", "abc")
        assert main(["wdist", str(code_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "RANKDEC_CAP" in err


class TestVerify:
    def test_bounds_suite_passes(self, capsys):
        rc = main(["--format", "json", "--seed", "5", "verify", "bounds",
                   "--trials", "16"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        names = [c["name"] for s in payload["suites"] for c in s["checks"]]
        assert any("closed form" in n for n in names)

    def test_deterministic_reports(self, capsys):
        main(["--format", "json", "--seed", "9", "verify", "bounds",
              "--trials", "8"])
        first = capsys.readouterr().out
        main(["--format", "json", "--seed", "9", "verify", "bounds",
              "--trials", "8"])
        assert capsys.readouterr().out == first

    def test_unknown_suite_usage_error(self):
        assert main(["verify", "nonsense"]) == EXIT_USAGE

    def test_all_suites_json_bytes_pinned(self, capsys):
        assert main(["--seed", "3", "--format", "json", "verify", "all"]) == EXIT_OK
        assert capsys.readouterr().out == VERIFY_SEED3_JSON

    def test_products_trials_drive_sampled_checks(self, capsys):
        rc = main(["--format", "json", "verify", "products", "--trials", "2"])
        assert rc == EXIT_OK
        checks = json.loads(capsys.readouterr().out)["suites"][0]["checks"]
        got = {c["name"]: (c["instances"], c["passed"]) for c in checks}
        # the exhaustive m = 5 checks keep their counts; the default of
        # 30 and 20 sampled instances is pinned by acceptance criterion 7
        assert got == {
            "product dimension inequality (m=5, all 2x2 pairs)": (24025, True),
            "critical pairs share a progression witness": (4805, True),
            "hyperplane products are scaled duals": (2, True),
            "dual of product splits into shifted duals": (2, True),
        }

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_nonpositive_trials_usage_error(self, capsys, trials):
        assert main(["verify", "bounds", "--trials", trials]) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert "--trials" in out.err


class TestReproduce:
    def test_prop45(self, capsys):
        rc = main(["--format", "json", "reproduce", "prop45"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "matched"
        assert payload["minimum_weight_count"] == 75

    def test_lowerbound(self, capsys):
        rc = main(["--format", "json", "reproduce", "lowerbound"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "matched"
        assert payload["counts"][2] == 160

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("example", sorted(SHOWCASES))
    def test_json_bytes_pinned(self, capsys, example, threads):
        rc = main(["--threads", threads, "--format", "json", "reproduce",
                   example])
        assert rc == EXIT_OK
        assert capsys.readouterr().out == REPRODUCE_JSON[example]

    def test_fixture_covers_every_showcase(self):
        assert sorted(REPRODUCE_JSON) == sorted(SHOWCASES)


class TestGlobalFlagPosition:
    """Each global flag works before or after the subcommand, with the
    same exit code and the same bytes on stdout and stderr."""

    @pytest.mark.parametrize("flag,value,command,visible", [
        ("--format", "json", ["reproduce", "m6"], True),
        # the suite reports do not show the seed
        ("--seed", "5", ["verify", "bounds", "--trials", "4"], False),
        ("--cap", "100", ["wdist", "CODE"], True),
        ("--cap", "3", ["wdist", "BARE", "--method", "formula"], True),
    ], ids=["format", "seed", "cap", "cap-detect"])
    def test_same_report_in_either_position(self, capsys, code_path,
                                            bare_code_path, flag, value,
                                            command, visible):
        paths = {"CODE": str(code_path), "BARE": str(bare_code_path)}
        command = [paths.get(a, a) for a in command]
        runs = []
        for argv in ([flag, value] + command, command + [flag, value], command):
            rc = main(argv)
            out = capsys.readouterr()
            runs.append((rc, out.out, out.err))
        before, after, without = runs
        assert after == before
        assert (without != before) == visible

    def test_format_after_subcommand_is_the_pinned_report(self, capsys):
        assert main(["reproduce", "m6", "--format", "json"]) == EXIT_OK
        assert capsys.readouterr().out == REPRODUCE_JSON["m6"]

    @pytest.mark.parametrize("flag,value", [
        ("--format", "csv"), ("--seed", "5"), ("--cap", "100"),
        ("--cap", "3"), ("--threads", "2"),
    ])
    def test_parsed_the_same_in_either_position(self, flag, value):
        before = parse_args([flag, value, "reproduce", "m6"])
        after = parse_args(["reproduce", "m6", flag, value])
        default = parse_args(["reproduce", "m6"])
        assert vars(after) == vars(before) != vars(default)

    @pytest.mark.parametrize("flags,env,message", [
        (["--cap", "0"], None, "cap must be positive"),
        (["--threads", "0"], None, "threads must be >= 1"),
        (["--format", "yaml"], None, "invalid choice: 'yaml'"),
        (["--format", "json"], "0", "cap must be positive"),
    ], ids=["cap", "threads", "format", "env-cap"])
    def test_bad_setting_in_either_position(self, capsys, monkeypatch,
                                            flags, env, message):
        """A setting out of range exits 1 with the same stderr whether
        its flag comes before or after the subcommand; RANKDEC_CAP=0 is
        refused like --cap 0."""
        if env is not None:
            monkeypatch.setenv("RANKDEC_CAP", env)
        runs = []
        for argv in (flags + ["reproduce", "m6"], ["reproduce", "m6"] + flags):
            rc = main(argv)
            out = capsys.readouterr()
            runs.append((rc, out.out, out.err))
        assert runs[0] == runs[1]
        rc, out, err = runs[0]
        assert rc == EXIT_USAGE and out == ""
        assert message in err.splitlines()[-1]

    def test_help_before_the_subcommand_is_its_help(self, capsys):
        assert main(["-h", "wdist"]) == EXIT_OK
        assert "--method" in capsys.readouterr().out


class TestBounds:
    def test_values_and_prime(self, capsys):
        rc = main(["--format", "json", "bounds", "--q", "2", "--m", "7",
                   "--nk", "3", "--ell", "2"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["prime_upper"] == 889

    def test_composite_no_prime_bound(self, capsys):
        rc = main(["--format", "json", "bounds", "--q", "2", "--m", "6",
                   "--nk", "2", "--ell", "2"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert (payload["lower"], payload["upper"]) == (189, 17199)
        assert payload["prime_upper"] is None

    def test_bad_parameters(self):
        assert main(["bounds", "--q", "2", "--m", "4", "--nk", "4",
                     "--ell", "1"]) == EXIT_USAGE

    @pytest.mark.parametrize("q", ["0", "1", "6", "-3"])
    def test_field_size_not_a_prime_power(self, capsys, q):
        assert main(["bounds", f"--q={q}", "--m", "7", "--nk", "3",
                     "--ell", "2"]) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert "prime power" in out.err

    def test_prime_power_field_size(self, capsys):
        rc = main(["--format", "json", "bounds", "--q", "9", "--m", "2",
                   "--nk", "1", "--ell", "0"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert (payload["lower"], payload["upper"]) == (80, 80)
        assert payload["prime_upper"] == 80


@pytest.mark.parametrize("command, payload", [
    ("wdist", {"field": {"p": 65537, "m": 1}, "generator": [[5, 7]]}),
])
def test_unsupported_characteristic_one_line(capsys, tmp_path, command, payload):
    """Weight enumeration over p >= 2^16 is a usage error that names the
    limit, not a traceback.  (build enumerates nothing: see
    TestBuild.test_builds_without_enumeration.)"""
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    assert main([command, str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "p < 2^16" in err
    assert "Traceback" not in err


def test_alarm_exit_on_unmatched(capsys):
    # a stand-in showcase whose target is not hit takes the alarm path
    def unmatched(cap, threads):
        return {"example": "m6", "verdict": "unmatched"}, ["verdict: unmatched"]

    args = parse_args(["reproduce", "m6"])
    assert cmd_reproduce(args, {"m6": unmatched}) == EXIT_ALARM
    out = capsys.readouterr()
    assert out.out == "verdict: unmatched\n"
    assert out.err.count("\n") == 1 and "FALSIFICATION ALARM" in out.err


@pytest.mark.parametrize("exc, code", [
    (FalsificationAlarm("a proved count was not reached"), EXIT_ALARM),
    (CapExceededError(1 << 30, 1 << 24), EXIT_CAP),
])
def test_errors_map_to_exit_codes(capsys, exc, code):
    def command(args):
        raise exc

    assert _run(command, parse_args(["reproduce", "m6"])) == code
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert str(exc) in out.err


def _console(*argv):
    """``python -m rankdec.cli`` with the given arguments, which main
    reads from sys.argv as the installed entry point does."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "rankdec.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=path))


def test_console_report_is_the_pinned_report():
    proc = _console("--format", "json", "reproduce", "m6")
    assert proc.returncode == EXIT_OK, proc.stderr[-2000:]
    assert proc.stdout == REPRODUCE_JSON["m6"]


def test_console_stray_flag_exits_1():
    proc = _console("--pcap", "3", "reproduce", "m6")
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert "rankdec: error: unrecognized arguments: --pcap 3" in proc.stderr
