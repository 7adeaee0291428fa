"""CLI surface: spec files, reports, exit codes, and determinism."""

import argparse
import json
from pathlib import Path

import pytest

from rankdec.cli import (
    EXIT_ALARM,
    EXIT_CAP,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    _run,
    build_parser,
    cmd_reproduce,
    main,
)
from rankdec.codes import RankCode
from rankdec.errors import CapExceededError, FalsificationAlarm
from rankdec.showcases import SHOWCASES

#: the exact ``--format json reproduce <name>`` stdout of each showcase
REPRODUCE_JSON = json.loads(
    (Path(__file__).parent / "data" / "reproduce_json.json").read_text())


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

    def test_dependent_block_rejected(self, capsys, tmp_path):
        spec = {"field": {"p": 2, "a": 1, "m": 4},
                "blocks": [{"entries": [1, 1]}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        assert main(["build", str(path)]) == EXIT_USAGE
        assert "F_q-independent" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["build", str(tmp_path / "nope.json")]) == EXIT_USAGE


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

    @pytest.fixture
    def bare_code_path(self, tmp_path, code_path):
        # no decomposition record: --method formula must detect one
        code = RankCode.from_json(json.loads(code_path.read_text()))
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(code.strip_decomposition().to_json()))
        return path

    @pytest.mark.parametrize("flag,value,command,visible", [
        ("--format", "json", ["reproduce", "m6"], True),
        # the suite reports do not show the seed
        ("--seed", "5", ["verify", "bounds", "--trials", "4"], False),
        ("--cap", "100", ["wdist", "CODE"], True),
        ("--pcap", "3", ["wdist", "BARE", "--method", "formula"], True),
    ], ids=["format", "seed", "cap", "pcap"])
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
        ("--pcap", "3"), ("--threads", "2"),
    ])
    def test_parsed_the_same_in_either_position(self, flag, value):
        before = build_parser().parse_args([flag, value, "reproduce", "m6"])
        after = build_parser().parse_args(["reproduce", "m6", flag, value])
        default = build_parser().parse_args(["reproduce", "m6"])
        assert vars(after) == vars(before) != vars(default)


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


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(enumeration_cap=0)
    with pytest.raises(ValueError):
        RunConfig(threads=0)
    with pytest.raises(ValueError):
        RunConfig(output_format="yaml")


def test_alarm_exit_on_unmatched(capsys):
    # a stand-in showcase whose target is not hit takes the alarm path
    def unmatched(cap, threads):
        return {"example": "m6", "verdict": "unmatched"}, ["verdict: unmatched"]

    args = argparse.Namespace(example="m6")
    assert cmd_reproduce(RunConfig(), args, {"m6": unmatched}) == EXIT_ALARM
    out = capsys.readouterr()
    assert out.out == "verdict: unmatched\n"
    assert out.err.count("\n") == 1 and "FALSIFICATION ALARM" in out.err


@pytest.mark.parametrize("exc, code", [
    (FalsificationAlarm("a proved count was not reached"), EXIT_ALARM),
    (CapExceededError(1 << 30, 1 << 24), EXIT_CAP),
])
def test_errors_map_to_exit_codes(capsys, exc, code):
    def command(cfg, args):
        raise exc

    assert _run(command, RunConfig(), argparse.Namespace()) == code
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert str(exc) in out.err