"""Command-line surface: payload on stdout/--out, report on stderr, and the
documented exit codes."""

import builtins
import collections
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import FIXTURES

from ecsloc.cli import (
    EXIT_DATA,
    EXIT_EMPTY_SELECTION,
    EXIT_INTERNAL,
    EXIT_OK,
    build_parser,
    main,
)
from ecsloc.traffic import collapse_pools

YI_LOG = str(FIXTURES / "captures" / "yi_camera.log")
ECHO_LOG = str(FIXTURES / "captures" / "echo_daily.log")
BULB_LOG = str(FIXTURES / "captures" / "bulb_10region.log")


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScenario:

    def test_user_defined_scenario_final_hop(self, capsys):
        code, out, err = run_cli(
            ["scenario", "run", str(FIXTURES / "scenario_ecs_user_defined.json")], capsys
        )
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "4,resolver,device,api.example.iot,1,24,198.18.1.0,203.0.113.10,24"
        report = json.loads(err.splitlines()[-1])
        assert report["metrics"]["final_answers"] == ["203.0.113.10"]

    def test_standard_scenario_final_hop(self, capsys):
        code, out, _ = run_cli(
            ["scenario", "run", str(FIXTURES / "scenario_standard.json")], capsys
        )
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "4,resolver,device,api.example.iot,-,-,-,203.0.113.10,-"

    def test_basic_scenario_final_hop(self, capsys):
        code, out, _ = run_cli(
            ["scenario", "run", str(FIXTURES / "scenario_ecs_basic.json")], capsys
        )
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "4,resolver,device,api.example.iot,1,24,198.18.0.0,203.0.113.30,24"

    def test_missing_file_exits_without_output(self, tmp_path, capsys):
        out_path = tmp_path / "transcript.csv"
        code, _, err = run_cli(
            ["scenario", "run", str(tmp_path / "nope.json"), "--out", str(out_path)], capsys
        )
        assert code == EXIT_DATA
        assert not out_path.exists()
        assert "error" in err

    def test_out_file_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run_cli(
                ["scenario", "run", str(FIXTURES / "scenario_ecs_basic.json"), "--out", str(path)],
                capsys,
            )
            assert code == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_zone_override_flag(self, tmp_path, capsys):
        # point HK at a different answer set and rerun the basic scenario
        doc = json.loads((FIXTURES / "zone.json").read_text())
        doc["records"]["api.example.iot"]["answers"][0]["addresses"] = ["203.0.113.99"]
        doc["records"]["api.example.iot"]["default"] = [
            "203.0.113.10", "203.0.113.20", "203.0.113.99",
        ]
        override = tmp_path / "zone.json"
        override.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            ["scenario", "run", str(FIXTURES / "scenario_ecs_basic.json"),
             "--zone", str(override)],
            capsys,
        )
        assert code == EXIT_OK
        assert out.splitlines()[-1].split(",")[7] == "203.0.113.99"

    def test_report_digests_the_zone_bytes_it_loaded(self, capsys):
        zone_path = FIXTURES / "zone.json"
        code, _, err = run_cli(
            ["scenario", "run", str(FIXTURES / "scenario_ecs_basic.json"), "--zone", str(zone_path)], capsys
        )
        assert code == EXIT_OK
        digest = hashlib.sha256(zone_path.read_bytes()).hexdigest()
        assert json.loads(err.splitlines()[-1])["inputs"][str(zone_path)] == digest

    @pytest.mark.parametrize(
        "region, reason",
        [("U1", "region code must be two letters, got 'U1'"), (12, "must be text, got 12")],
        ids=["not-letters", "not-text"],
    )
    def test_bad_region_in_an_answer_names_its_cell(self, tmp_path, capsys, region, reason):
        doc = json.loads((FIXTURES / "zone.json").read_text())
        doc["records"]["api.example.iot"]["answers"][1]["region"] = region
        override = tmp_path / "zone.json"
        override.write_text(json.dumps(doc))
        code, out, err = run_cli(
            ["scenario", "run", str(FIXTURES / "scenario_ecs_basic.json"), "--zone", str(override)], capsys
        )
        assert code == EXIT_DATA
        assert out == ""
        assert err == f"ecsloc: error: {override}: records['api.example.iot'].answers[1].region: {reason}\n"

    @pytest.mark.parametrize("scenario, zone, reason", [
        ("scenario_standard.json", "zone_with_zone_id.json", "records['api.example.iot'].answers[1].addresses: "
         "'fe80::1%eth0' does not appear to be an IPv4 or IPv6 address"),
        ("scenario_duplicate_key.json", None, "duplicate key 'architecture'"),
    ], ids=["zone-id", "duplicate-key"])
    def test_bad_document_names_its_field(self, capsys, scenario, zone, reason):
        override = ["--zone", str(FIXTURES / zone)] if zone else []
        code, out, err = run_cli(["scenario", "run", str(FIXTURES / scenario), *override], capsys)
        assert (code, out) == (EXIT_DATA, "")
        assert err == f"ecsloc: error: {FIXTURES / (zone or scenario)}: {reason}\n"


class TestAnalyze:

    def test_uds_on_yi_fixture_is_zero(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "uds", "--log", YI_LOG, "--device", "yi-cam",
             "--ipl", "US", "--locations", "UK", "HK"],
            capsys,
        )
        assert code == EXIT_OK
        header, row = out.splitlines()
        assert header == "device,fixed_ip_location,user_location_a,user_location_b,uds"
        assert row == "yi-cam,US,UK,HK,0.0"

    def test_uds_empty_selection_distinct_exit(self, capsys):
        code, _, err = run_cli(
            ["analyze", "uds", "--log", YI_LOG, "--device", "yi-cam",
             "--ipl", "US", "--locations", "UK", "DE"],
            capsys,
        )
        assert code == EXIT_EMPTY_SELECTION
        assert "empty selection" in err

    def test_ipbs_row(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "ipbs", "--log", YI_LOG, "--device", "yi-cam",
             "--udl", "UK", "--locations", "US", "US"],
            capsys,
        )
        assert code == EXIT_OK
        assert out.splitlines()[1] == "yi-cam,UK,US,US,1.0"

    def test_stabilize_row(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "stabilize", "--log", YI_LOG, "--device", "yi-cam",
             "--ipl", "US", "--udl", "HK"],
            capsys,
        )
        assert code == EXIT_OK
        assert out.splitlines()[1] == "yi-cam,US,HK,1000"

    def test_stabilize_empty_selection_prints_dash(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "stabilize", "--log", YI_LOG, "--device", "yi-cam",
             "--ipl", "US", "--udl", "DE"],
            capsys,
        )
        assert code == EXIT_OK
        assert out.splitlines()[1] == "yi-cam,US,DE,-"

    def test_seed_flag_echoed_in_report(self, capsys):
        code, _, err = run_cli(
            ["--seed", "99", "analyze", "stabilize", "--log", YI_LOG,
             "--device", "yi-cam", "--ipl", "US", "--udl", "HK"],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(err.splitlines()[-1])["seed"] == 99

    def test_cumulative_flat_domains_growing_ips(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "cumulative", "--log", ECHO_LOG, "--device", "echo",
             "--ipl", "UK", "--udl", "UK", "--bucket-seconds", "86400"],
            capsys,
        )
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [r[1] for r in rows] == ["1"] * 10
        assert [int(r[2]) for r in rows] == list(range(1, 11))

    def test_matrix_identical_regions_all_units(self, tmp_path, capsys):
        log = tmp_path / "log"
        log.write_text(
            "ts=1 dev=d ipl=US udl=HK q=svc.x a=10.0.0.1\n"
            "ts=2 dev=d ipl=US udl=UK q=svc.x a=10.0.0.1\n"
        )
        code, out, _ = run_cli(
            ["analyze", "matrix", "--log", str(log), "--device", "d",
             "--ipl", "US", "--regions", "HK", "UK"],
            capsys,
        )
        assert code == EXIT_OK
        assert out.splitlines() == ["region,HK,UK", "HK,1.0,1.0", "UK,1.0,1.0"]

    def test_matrix_of_one_region_is_data_error(self, capsys):
        code, out, err = run_cli(
            ["analyze", "matrix", "--log", BULB_LOG, "--device", "bulb01", "--ipl", "US", "--regions", "UK"],
            capsys,
        )
        assert (code, out, err) == (EXIT_DATA, "", "ecsloc: error: need at least two regions\n")

    def test_unknown_device_is_data_error(self, capsys):
        code, _, _ = run_cli(
            ["analyze", "stabilize", "--log", YI_LOG, "--device", "ghost",
             "--ipl", "US", "--udl", "HK"],
            capsys,
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize("command, code", [
        (["analyze", "uds", "--ipl", "U1", "--locations", "HK", "UK"], "U1"),
        (["analyze", "stabilize", "--ipl", "u s", "--udl", "HK"], "u s"),
        (["analyze", "ipbs", "--udl", "UKX", "--locations", "US", "US"], "UKX"),
        (["analyze", "cumulative", "--ipl", "US", "--udl", "", "--bucket-seconds", "60"], ""),
        (["analyze", "matrix", "--ipl", "US", "--regions", "HK", "Ü1"], "Ü1"),
        (["mud", "generate", "--ipl", "US", "--udl", "H"], "H"),
    ])
    def test_bad_region_argument_is_data_error(self, command, code, capsys):
        """A region argument meets the region rule before any selection is empty or printed."""
        got, out, err = run_cli([*command, "--log", YI_LOG, "--device", "yi-cam"], capsys)
        assert (got, out) == (EXIT_DATA, "")
        assert err == f"ecsloc: error: region code must be two letters, got {code!r}\n"

    def test_bad_address_names_the_line(self, tmp_path, capsys):
        log = tmp_path / "log"
        log.write_text(
            "ts=1 dev=d ipl=US udl=HK q=svc.x a=10.0.0.1\n"
            "ts=2 dev=d ipl=US udl=UK q=svc.x a=10.0.0.1\n"
            "ts=3 dev=d ipl=US udl=UK q=svc.x a=999.1.1.1\n"
        )
        code, out, err = run_cli(
            ["analyze", "matrix", "--log", str(log), "--device", "d",
             "--ipl", "US", "--regions", "HK", "UK"],
            capsys,
        )
        assert (code, out) == (EXIT_DATA, "")
        assert err == f"ecsloc: error: {log}:3: bad address '999.1.1.1'\n"

    def test_negative_timestamp_names_the_line(self, tmp_path, capsys):
        log = tmp_path / "log"
        log.write_text("ts=1 dev=d ipl=US udl=UK q=a.x a=10.0.0.1\nts=-5 dev=d ipl=US udl=UK q=a.x a=10.0.0.1\n")
        code, out, err = run_cli(
            ["analyze", "matrix", "--log", str(log), "--device", "d", "--ipl", "US", "--regions", "UK", "US"], capsys
        )
        assert (code, out) == (EXIT_DATA, "")
        assert err == f"ecsloc: error: {log}:2: negative timestamp -5\n"

    def test_other_line_breaks_read_as_newlines(self, tmp_path, capsys):
        lines = [f"ts={i} dev=d ipl=US udl=UK q={q}.x a=10.0.0.{i}" for i, q in enumerate("abc", 1)]
        runs = []
        for data in ("\n".join(lines) + "\n", f"{lines[0]}\x1c{lines[1]}\r\n{lines[2]}\n"):
            log = tmp_path / "log"
            log.write_bytes(data.encode())
            code, out, _ = run_cli(
                ["analyze", "stabilize", "--log", str(log), "--device", "d", "--ipl", "US", "--udl", "UK"], capsys
            )
            runs.append((code, out))
        assert runs[0] == runs[1]
        assert runs[0][0] == EXIT_OK

    def test_bad_qname_on_a_late_line(self, tmp_path, capsys):
        log = tmp_path / "log"
        lines = [f"ts={i} dev=d ipl=US udl={'HK' if i % 2 else 'UK'} q=n{i % 5}.x a=10.0.0.1" for i in range(500)]
        lines.append("ts=500 dev=d ipl=US udl=UK q=n1..x a=10.0.0.1")
        log.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(
            ["analyze", "matrix", "--log", str(log), "--device", "d",
             "--ipl", "US", "--regions", "HK", "UK"],
            capsys,
        )
        assert (code, out) == (EXIT_DATA, "")
        assert err == f"ecsloc: error: {log}:501: bad qname 'n1..x': empty label in 'n1..x'\n"


def test_pool_threshold_below_one_is_a_data_error(tmp_path, capsys):
    log = tmp_path / "log"
    log.write_text("ts=1 dev=d ipl=US udl=UK q=a1.b2.x a=10.0.0.1\n")
    for threshold in (0, -1):
        with pytest.raises(ValueError, match="^pool_threshold must be positive$"):
            collapse_pools({"a1.b2.x"}, threshold)
        for command in (["analyze", "uds", "--locations", "UK", "UK"], ["mud", "generate", "--udl", "UK"]):
            code, out, err = run_cli(
                [*command, "--log", str(log), "--device", "d", "--ipl", "US", "--pool-threshold", str(threshold)],
                capsys,
            )
            assert (code, out, err) == (EXIT_DATA, "", "ecsloc: error: pool_threshold must be positive\n")


@pytest.mark.parametrize("command", [
    ["analyze", "stabilize", "--log", YI_LOG, "--device", "yi-cam", "--ipl", "US", "--udl", "UK"],
    ["analyze", "cumulative", "--log", ECHO_LOG, "--device", "echo", "--ipl", "UK", "--udl", "UK"],
])
def test_pool_threshold_is_refused_where_no_pool_is_collapsed(command, capsys):
    assert run_cli(command, capsys)[0] == EXIT_OK
    for threshold in ("3", "0"):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--pool-threshold", threshold])
        assert exc.value.code == 2
        assert "unrecognized arguments: --pool-threshold" in capsys.readouterr().err


class TestMud:

    def test_generate_writes_one_entry(self, tmp_path, capsys):
        out_path = tmp_path / "mud.json"
        code, _, err = run_cli(
            ["mud", "generate", "--log", BULB_LOG, "--device", "bulb01",
             "--ipl", "US", "--udl", "UK", "--out", str(out_path)],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out_path.read_text())
        endpoints = [ace["endpoint"] for acl in doc["acls"] for ace in acl["aces"]]
        assert endpoints == ["uk.bulb.example.iot"]
        assert json.loads(err.splitlines()[-1])["metrics"]["domains"] == 1

    def test_unify_single_file_byte_identical(self, tmp_path, capsys):
        src = tmp_path / "one.json"
        code, _, _ = run_cli(
            ["mud", "generate", "--log", BULB_LOG, "--device", "bulb01",
             "--ipl", "US", "--udl", "UK", "--out", str(src)],
            capsys,
        )
        assert code == EXIT_OK
        dst = tmp_path / "unified.json"
        code, _, _ = run_cli(["mud", "unify", str(src), "--out", str(dst)], capsys)
        assert code == EXIT_OK
        assert dst.read_bytes() == src.read_bytes()

    def test_collapse_with_empty_groups_is_identity(self, tmp_path, capsys):
        src = tmp_path / "one.json"
        run_cli(
            ["mud", "generate", "--log", BULB_LOG, "--device", "bulb01",
             "--ipl", "US", "--udl", "UK", "--out", str(src)],
            capsys,
        )
        groups = tmp_path / "groups.json"
        groups.write_text("[]")
        dst = tmp_path / "collapsed.json"
        code, _, _ = run_cli(
            ["mud", "collapse", str(src), "--groups", str(groups), "--out", str(dst)], capsys
        )
        assert code == EXIT_OK
        assert dst.read_bytes() == src.read_bytes()

    def test_compare_sweep_crosses_two_thirds(self, tmp_path, capsys):
        regions = ["AQ", "AR", "AU", "BR", "ES", "HK", "IN", "RU", "UK", "US"]
        paths = []
        for region in regions:
            path = tmp_path / f"{region}.json"
            run_cli(
                ["mud", "generate", "--log", BULB_LOG, "--device", "bulb01",
                 "--ipl", "US", "--udl", region, "--out", str(path)],
                capsys,
            )
            paths.append(str(path))
        code, out, _ = run_cli(
            ["mud", "compare", *paths, "--groups", str(FIXTURES / "groups_bulb.json")], capsys
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "locations_included,unified_domains,ecs_domains,ratio"
        for line in lines[1:]:
            k, unified, ecs, ratio = line.split(",")
            assert int(ecs) == 1
            assert int(unified) == int(k)
            if int(k) >= 3:
                assert float(ratio) >= 0.66


SCENARIO = str(FIXTURES / "scenario_ecs_user_defined.json")
ZONE = str(FIXTURES / "zone.json")
POOLS_LOG = str(FIXTURES / "golden" / "pools.log")

# argv -> the input files it reads; each must be opened once, and digested as read
READ_ONCE = {
    "scenario": (["scenario", "run", SCENARIO], [SCENARIO, ZONE]),
    "scenario-zone-override": (
        ["scenario", "run", str(FIXTURES / "scenario_standard.json"), "--zone", ZONE],
        [str(FIXTURES / "scenario_standard.json"), ZONE],
    ),
    "uds": (["analyze", "uds", "--log", YI_LOG, "--device", "yi-cam", "--ipl", "US", "--locations", "UK", "HK"],
            [YI_LOG]),
    "ipbs": (["analyze", "ipbs", "--log", POOLS_LOG, "--device", "hub", "--udl", "US", "--locations", "US", "UK"],
             [POOLS_LOG]),
    "stabilize": (["analyze", "stabilize", "--log", YI_LOG, "--device", "yi-cam", "--ipl", "US", "--udl", "HK"],
                  [YI_LOG]),
    "cumulative": (["analyze", "cumulative", "--log", ECHO_LOG, "--device", "echo", "--ipl", "UK", "--udl", "UK"],
                   [ECHO_LOG]),
    "matrix": (["analyze", "matrix", "--log", BULB_LOG, "--device", "bulb01", "--ipl", "US", "--regions", "UK", "US"],
               [BULB_LOG]),
    "mud-generate": (["mud", "generate", "--log", BULB_LOG, "--device", "bulb01", "--ipl", "US", "--udl", "UK"],
                     [BULB_LOG]),
}


@pytest.mark.parametrize("command", list(READ_ONCE))
def test_each_input_read_once_and_digested_as_read(command, capsys, monkeypatch):
    argv, inputs = READ_ONCE[command]
    opened = collections.Counter()
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened[os.path.realpath(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    code, _, err = run_cli(argv, capsys)
    monkeypatch.undo()
    assert code == EXIT_OK
    assert {path: opened[os.path.realpath(path)] for path in inputs} == {path: 1 for path in inputs}
    digests = {path: hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in inputs}
    assert json.loads(err.splitlines()[-1])["inputs"] == digests


class TestExitCodes:

    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "uds", "--log"])  # missing value
        assert exc.value.code == 2

    def test_parser_reused_after_usage_error(self, capsys):
        assert build_parser() is build_parser()
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "uds", "--log"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run_cli(
            ["analyze", "uds", "--log", YI_LOG, "--device", "yi-cam",
             "--ipl", "US", "--locations", "HK", "UK"],
            capsys,
        )
        assert code == EXIT_OK
        assert out.encode() == (FIXTURES / "golden" / "analyze_uds_yi.out").read_bytes()

    def test_internal_error_is_70(self, capsys, monkeypatch):
        import ecsloc.traffic

        def boom(*args, **kwargs):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(ecsloc.traffic, "uds", boom)
        code = main(
            ["analyze", "uds", "--log", YI_LOG, "--device", "yi-cam",
             "--ipl", "US", "--locations", "UK", "HK"]
        )
        err = capsys.readouterr().err
        assert code == EXIT_INTERNAL
        assert err.startswith("Traceback (most recent call last):") and err.endswith("RuntimeError: wires crossed\n")


def test_console_script_runs():
    result = subprocess.run(
        [sys.executable, "-m", "ecsloc.cli", "scenario", "run",
         str(FIXTURES / "scenario_ecs_user_defined.json")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[-1].endswith("203.0.113.10,24")


def test_import_loads_neither_dataclasses_nor_inspect():
    # dataclasses brings inspect, ast, dis and tokenize, and traceback linecache and tokenize,
    # which nothing else at start-up needs
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, ecsloc.cli; print(sorted({'dataclasses', 'inspect', 'traceback'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
