"""CLI payloads and exit codes against recorded outputs.

Each case runs the CLI in-process on the fixtures.  Its stdout must equal
fixtures/golden/<case>.out byte for byte, and its exit code must equal the
one recorded in fixtures/golden/exit_codes.json.  A case that exits
non-zero must also write the `ecsloc:` stderr lines recorded in
fixtures/golden/error_lines.json, with the fixtures directory shown as
{fixtures}.  A case that exits 0 must end its stderr with the run report
recorded in fixtures/golden/run_reports.json, paths shown as {golden},
then {fixtures}; run again with `--out`, it must write the same payload
to that file and nothing to stdout, and report the file.  Some cases
read earlier cases' recorded outputs as input documents.  When a payload
change is intended, re-record every case with

    PYTHONPATH=src python tests/test_golden.py

or only the named cases, leaving every other file as it is, with

    PYTHONPATH=src python tests/test_golden.py <case> [<case> ...]
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import FIXTURES

from ecsloc.cli import main

GOLDEN = FIXTURES / "golden"
YI = ["--log", "{fixtures}/captures/yi_camera.log", "--device", "yi-cam"]
ECHO = ["--log", "{fixtures}/captures/echo_daily.log", "--device", "echo"]
BULB = ["--log", "{fixtures}/captures/bulb_10region.log", "--device", "bulb01"]
POOLS = ["--log", "{golden}/pools.log", "--device", "hub"]
BULB_REGIONS = ["AQ", "AR", "AU", "BR", "ES", "HK", "IN", "RU", "UK", "US"]
BULB_MUDS = [f"{{golden}}/mud_generate_bulb_{r}.out" for r in ("uk", "us", "hk")]

# name -> argv; recorded in this order, so a case may read an earlier one's output
CASES = {
    "scenario_standard": ["scenario", "run", "{fixtures}/scenario_standard.json"],
    "scenario_ecs_basic": ["scenario", "run", "{fixtures}/scenario_ecs_basic.json"],
    "scenario_ecs_user_defined": ["scenario", "run", "{fixtures}/scenario_ecs_user_defined.json"],
    "scenario_zone_override": [
        "scenario", "run", "{fixtures}/scenario_standard.json", "--zone", "{fixtures}/zone.json",
    ],
    "scenario_missing_file": ["scenario", "run", "{fixtures}/no_such_scenario.json"],
    "scenario_zone_with_zone_id": [
        "scenario", "run", "{fixtures}/scenario_standard.json", "--zone", "{fixtures}/zone_with_zone_id.json",
    ],
    "scenario_zone_not_utf8": [
        "scenario", "run", "{fixtures}/scenario_standard.json", "--zone", "{fixtures}/zone_not_utf8.json",
    ],
    "scenario_qname_not_text": ["scenario", "run", "{fixtures}/scenario_qname_not_text.json"],
    "scenario_zone_origin_not_text": [
        "scenario", "run", "{fixtures}/scenario_standard.json", "--zone", "{fixtures}/zone_origin_not_text.json",
    ],
    "scenario_zone_ttl_bool": [
        "scenario", "run", "{fixtures}/scenario_standard.json", "--zone", "{fixtures}/zone_ttl_bool.json",
    ],
    "scenario_policy_bool": ["scenario", "run", "{fixtures}/scenario_policy_bool.json"],
    "scenario_policy_float": ["scenario", "run", "{fixtures}/scenario_policy_float.json"],
    "scenario_policy_text": ["scenario", "run", "{fixtures}/scenario_policy_text.json"],
    "scenario_duplicate_key": ["scenario", "run", "{fixtures}/scenario_duplicate_key.json"],
    "analyze_uds_yi": ["analyze", "uds", *YI, "--ipl", "US", "--locations", "HK", "UK"],
    "analyze_uds_yi_reordered": [
        "analyze", "uds", "--log", "{fixtures}/captures/yi_camera_reordered.log", "--device", "yi-cam",
        "--ipl", "US", "--locations", "HK", "UK",
    ],
    "analyze_uds_pools": ["analyze", "uds", *POOLS, "--ipl", "us", "--locations", "US", "UK"],
    "analyze_uds_pools_unfolded": [
        "analyze", "uds", *POOLS, "--ipl", "US", "--locations", "US", "UK", "--pool-threshold", "5",
    ],
    "analyze_uds_empty_selection": ["analyze", "uds", *YI, "--ipl", "UK", "--locations", "HK", "UK"],
    "analyze_uds_unknown_device": [
        "analyze", "uds", "--log", "{fixtures}/captures/yi_camera.log", "--device", "ghost",
        "--ipl", "US", "--locations", "HK", "UK",
    ],
    "analyze_uds_bad_capture_line": [
        "analyze", "uds", "--log", "{fixtures}/captures/bad_line.log", "--device", "yi-cam",
        "--ipl", "US", "--locations", "HK", "UK",
    ],
    "analyze_uds_not_utf8": [
        "analyze", "uds", "--log", "{fixtures}/captures/not_utf8.log", "--device", "yi-cam",
        "--ipl", "US", "--locations", "HK", "UK",
    ],
    "analyze_uds_bad_region": ["analyze", "uds", *YI, "--ipl", "U1", "--locations", "HK", "UK"],
    "analyze_ipbs_pools": ["analyze", "ipbs", *POOLS, "--udl", "US", "--locations", "US", "UK"],
    "analyze_stabilize_yi": ["analyze", "stabilize", *YI, "--ipl", "US", "--udl", "HK"],
    "analyze_stabilize_empty_selection": ["analyze", "stabilize", *YI, "--ipl", "US", "--udl", "US"],
    "analyze_cumulative_echo": [
        "analyze", "cumulative", *ECHO, "--ipl", "UK", "--udl", "UK", "--bucket-seconds", "86400",
    ],
    "analyze_cumulative_pools": [
        "analyze", "cumulative", *POOLS, "--ipl", "UK", "--udl", "US", "--bucket-seconds", "20",
    ],
    "analyze_cumulative_zone_id": [
        "analyze", "cumulative", "--log", "{fixtures}/captures/zone_id.log", "--device", "echo",
        "--ipl", "UK", "--udl", "UK", "--bucket-seconds", "60",
    ],
    "analyze_matrix_bulb": ["analyze", "matrix", *BULB, "--ipl", "US", "--regions", *BULB_REGIONS],
    "analyze_matrix_pools": ["analyze", "matrix", *POOLS, "--ipl", "US", "--regions", "us", "UK", "DE"],
    "analyze_matrix_empty_selection": ["analyze", "matrix", *POOLS, "--ipl", "UK", "--regions", "US", "UK"],
    "mud_generate_bulb_uk": ["mud", "generate", *BULB, "--ipl", "US", "--udl", "UK"],
    "mud_generate_bulb_us": ["mud", "generate", *BULB, "--ipl", "US", "--udl", "US"],
    "mud_generate_bulb_hk": ["mud", "generate", *BULB, "--ipl", "US", "--udl", "HK"],
    "mud_generate_pools": ["mud", "generate", *POOLS, "--ipl", "US", "--udl", "DE"],
    "mud_generate_pools_udp": [
        "mud", "generate", *POOLS, "--ipl", "UK", "--udl", "US", "--protocol", "udp",
        "--direction", "to-device", "--src-port", "53", "--dst-port", "any", "--mud-url", "https://x/hub",
    ],
    "mud_generate_empty_selection": ["mud", "generate", *POOLS, "--ipl", "UK", "--udl", "UK"],
    "mud_unify_bulb": ["mud", "unify", *BULB_MUDS],
    "mud_unify_mixed_devices": ["mud", "unify", BULB_MUDS[0], "{fixtures}/mud_yi_uk.json"],
    "mud_collapse_bulb": ["mud", "collapse", "{golden}/mud_unify_bulb.out", "--groups", "{fixtures}/groups_bulb.json"],
    "mud_compare_bulb": ["mud", "compare", *BULB_MUDS, "--groups", "{fixtures}/groups_bulb.json"],
    "mud_compare_bulb_variant_spelling": [
        "mud", "compare", *BULB_MUDS, "--groups", "{fixtures}/groups_bulb_variant_spelling.json",
    ],
    "mud_collapse_canonical_empty_label": [
        "mud", "collapse", "{golden}/mud_unify_bulb.out", "--groups", "{fixtures}/groups_bulb_canonical_empty_label.json",
    ],
    "mud_unify_endpoint_spellings": ["mud", "unify", BULB_MUDS[1], "{fixtures}/mud_bulb_us_spelled.json"],
    "mud_unify_endpoint_empty_label": ["mud", "unify", "{fixtures}/mud_yi_endpoint_empty_label.json"],
    "mud_unify_endpoint_not_text": ["mud", "unify", "{fixtures}/mud_yi_endpoint_not_text.json"],
    "mud_unify_duplicate_key": ["mud", "unify", "{fixtures}/mud_yi_duplicate_key.json"],
    "usage_missing_value": ["analyze", "uds", "--log"],
    "usage_unknown_subcommand": ["mud", "explode"],
}


ERRORS = GOLDEN / "error_lines.json"
REPORTS = GOLDEN / "run_reports.json"


def run(argv, err=None) -> tuple[int, bytes]:
    """The CLI's exit code and stdout on *argv*; its stderr goes to the text stream *err*, if given."""
    args = [arg.format(fixtures=FIXTURES, golden=GOLDEN) for arg in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err if err is not None else io.StringIO()):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue().encode()


def error_lines(err: str) -> list[str]:
    """The `ecsloc:` lines of the stderr text *err*, each fixtures path shown as {fixtures}."""
    return [line.replace(str(FIXTURES), "{fixtures}") for line in err.splitlines() if line.startswith("ecsloc:")]


def report_line(err: str) -> str:
    """The last line of the stderr text *err*, the run report, with paths shown as {golden}, then {fixtures}."""
    return err.splitlines()[-1].replace(str(GOLDEN), "{golden}").replace(str(FIXTURES), "{fixtures}")


@pytest.mark.parametrize("name", list(CASES))
def test_cli_matches_golden(name):
    code, payload = run(CASES[name])
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == expected_codes[name]
    assert payload == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize(
    "name", [name for name, code in json.loads((GOLDEN / "exit_codes.json").read_text()).items() if code]
)
def test_cli_error_lines_match_golden(name):
    err = io.StringIO()
    run(CASES[name], err)
    assert error_lines(err.getvalue()) == json.loads(ERRORS.read_text())[name]


@pytest.mark.parametrize(
    "name", [name for name, code in json.loads((GOLDEN / "exit_codes.json").read_text()).items() if not code]
)
def test_cli_run_report_matches_golden(name, tmp_path):
    recorded = json.loads(REPORTS.read_text())[name]
    err = io.StringIO()
    run(CASES[name], err)
    assert report_line(err.getvalue()) == json.dumps(recorded)

    out = tmp_path / "payload"
    err = io.StringIO()
    code, stdout = run([*CASES[name], "--out", str(out)], err)
    assert (code, stdout) == (0, b"")
    assert out.read_bytes() == (GOLDEN / f"{name}.out").read_bytes()
    recorded["command"] += ["--out", "{tmp}/payload"]
    recorded["outputs"] = ["{tmp}/payload"]
    assert report_line(err.getvalue()).replace(str(tmp_path), "{tmp}") == json.dumps(recorded)


def test_out_file_does_not_depend_on_the_locale(tmp_path):
    # a write in the locale's default encoding raises EncodingWarning under these flags, which exits 70
    out = tmp_path / "payload"
    args = [arg.format(fixtures=FIXTURES, golden=GOLDEN) for arg in CASES["analyze_uds_yi"]]
    result = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "ecsloc.cli",
         *args, "--out", str(out)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
    )
    assert result.returncode == 0, result.stderr
    assert out.read_bytes() == (GOLDEN / "analyze_uds_yi.out").read_bytes()


def test_reordered_log_reads_like_documented_layout():
    """Keys in any order, with any whitespace, give the same payload."""
    reordered = (GOLDEN / "analyze_uds_yi_reordered.out").read_bytes()
    assert reordered == (GOLDEN / "analyze_uds_yi.out").read_bytes()


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown golden cases: {', '.join(unknown)}")
    codes_path = GOLDEN / "exit_codes.json"
    codes = json.loads(codes_path.read_text()) if sys.argv[1:] else {}
    errors = json.loads(ERRORS.read_text()) if sys.argv[1:] else {}
    reports = json.loads(REPORTS.read_text()) if sys.argv[1:] else {}
    for name in CASES:
        if name in names:
            err = io.StringIO()
            codes[name], payload = run(CASES[name], err)
            (GOLDEN / f"{name}.out").write_bytes(payload)
            errors.pop(name, None)
            reports.pop(name, None)
            if codes[name]:
                errors[name] = error_lines(err.getvalue())
            else:
                reports[name] = json.loads(report_line(err.getvalue()))
    for path, recorded in ((codes_path, codes), (ERRORS, errors), (REPORTS, reports)):
        ordered = {name: recorded[name] for name in CASES if name in recorded}
        path.write_text(json.dumps(ordered, indent=2) + "\n")
