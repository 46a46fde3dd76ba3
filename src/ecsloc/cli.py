"""Command-line front end.

Subcommands: `scenario run`, `analyze {uds|ipbs|stabilize|cumulative|matrix}`,
`mud {generate|unify|collapse|compare}`.  Payload output (transcripts and
comma-separated tables) goes to --out or stdout and is byte-deterministic;
a run report with input digests goes to stderr.

Exit codes: 0 success, 2 usage, 3 data error, 4 empty selection,
70 internal error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import traceback
from dataclasses import asdict, dataclass, field as dc_field
from pathlib import Path

from . import mud as mudlib
from . import traffic
from .errors import Error
from .resolver import parse_scenario, run_scenario
from .traffic import EmptySelection
from .zone import GeoZone

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_EMPTY_SELECTION = 4
EXIT_INTERNAL = 70


@dataclass
class RunReport:
    command: list[str]
    seed: int
    inputs: dict = dc_field(default_factory=dict)
    outputs: list = dc_field(default_factory=list)
    metrics: dict = dc_field(default_factory=dict)

    def note_input(self, path, data: bytes) -> None:
        """Record the digest of *data*, the bytes the command read from *path*."""
        self.inputs[str(path)] = hashlib.sha256(data).hexdigest()

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _decimal(value) -> str:
    return str(float(value))


def _read(path, report: RunReport) -> bytes:
    """The bytes of the file at *path*, their digest recorded in *report*."""
    data = Path(path).read_bytes()
    report.note_input(path, data)
    return data


def _emit(payload: str, out_path, report: RunReport) -> None:
    if out_path:
        Path(out_path).write_text(payload)
        report.outputs.append(str(out_path))
    else:
        sys.stdout.write(payload)


def cmd_scenario_run(args, report: RunReport) -> None:
    spec = parse_scenario(_read(args.scenario, report), args.scenario)
    zone_path = Path(args.zone) if args.zone else spec.zone_path
    zone = GeoZone.loads(_read(zone_path, report), zone_path)
    transcript = run_scenario(
        spec.architecture,
        spec.device,
        spec.qname,
        zone,
        spec.resolver_location,
        policy=spec.policy,
    )
    _emit(transcript.render(), args.out, report)
    report.metrics["architecture"] = spec.architecture
    report.metrics["final_answers"] = list(transcript.final_answers())
    report.metrics["hops"] = len(transcript.hops)


def _load_log(args, report: RunReport) -> traffic.CaptureLog:
    log = traffic.parse_log(_read(args.log, report), args.log)
    if log.resorted:
        print(f"warning: {args.log}: timestamps were out of order; records re-sorted", file=sys.stderr)
    return log


def cmd_analyze_pair(args, report: RunReport) -> None:
    """`analyze uds` or `analyze ipbs`: *args.measure*, a `traffic` function, at the *args.fixed* location."""
    log = _load_log(args, report)
    a, b = args.locations
    fixed = getattr(args, args.fixed)
    value = _decimal(getattr(traffic, args.measure)(log, args.device, fixed, a, b, args.pool_threshold))
    payload = f"{args.header},{args.measure}\n{args.device},{fixed.upper()},{a.upper()},{b.upper()},{value}\n"
    _emit(payload, args.out, report)
    report.metrics[args.measure] = value


def cmd_analyze_stabilize(args, report: RunReport) -> None:
    log = _load_log(args, report)
    value = traffic.stabilization_time(log, args.device, args.ipl, args.udl)
    cell = "-" if value is None else str(value)
    payload = (
        "device,ip_location,user_location,stabilized_at\n"
        f"{args.device},{args.ipl.upper()},{args.udl.upper()},{cell}\n"
    )
    _emit(payload, args.out, report)
    report.metrics["stabilized_at"] = cell


def cmd_analyze_cumulative(args, report: RunReport) -> None:
    log = _load_log(args, report)
    series = traffic.cumulative_counts(log, args.device, args.ipl, args.udl, args.bucket_seconds)
    lines = ["bucket_end,unique_domains,unique_ips"]
    lines += [f"{end},{domains},{ips}" for end, domains, ips in series]
    _emit("\n".join(lines) + "\n", args.out, report)
    report.metrics["buckets"] = len(series)


def cmd_analyze_matrix(args, report: RunReport) -> None:
    log = _load_log(args, report)
    regions = [r.upper() for r in args.regions]
    matrix = traffic.similarity_matrix(log, args.device, args.ipl, regions, args.pool_threshold)
    lines = ["region," + ",".join(regions)]
    for region, row in zip(regions, matrix):
        lines.append(region + "," + ",".join(_decimal(v) for v in row))
    _emit("\n".join(lines) + "\n", args.out, report)
    report.metrics["regions"] = regions


def _template_from_args(args) -> mudlib.AceTemplate:
    def port(raw):
        return None if raw == "any" else int(raw)

    return mudlib.AceTemplate(
        protocol=args.protocol,
        direction=args.direction,
        source_port=port(args.src_port),
        destination_port=port(args.dst_port),
    )


def cmd_mud_generate(args, report: RunReport) -> None:
    log = _load_log(args, report)
    ds = traffic.domain_set(log, args.device, args.ipl, args.udl, pool_threshold=args.pool_threshold)
    mud = mudlib.generate_mud(ds, args.device, _template_from_args(args), mud_url=args.mud_url)
    _emit(mudlib.serialize_mud(mud).decode(), args.out, report)
    report.metrics["domains"] = mudlib.domain_count(mud)


def cmd_mud_unify(args, report: RunReport) -> None:
    unified = mudlib.unify([mudlib.parse_mud(_read(path, report)) for path in args.inputs])
    _emit(mudlib.serialize_mud(unified).decode(), args.out, report)
    report.metrics["domains"] = mudlib.domain_count(unified)


def cmd_mud_collapse(args, report: RunReport) -> None:
    mud = mudlib.parse_mud(_read(args.input, report))
    result = mudlib.ecs_collapse(mud, mudlib.load_groups(_read(args.groups, report)))
    _emit(mudlib.serialize_mud(result.mud).decode(), args.out, report)
    report.metrics["domains"] = mudlib.domain_count(result.mud)
    report.metrics["unmatched_variants"] = list(result.unmatched_variants)
    report.metrics["tuple_splits"] = list(result.tuple_splits)


def cmd_mud_compare(args, report: RunReport) -> None:
    muds = [mudlib.parse_mud(_read(path, report)) for path in args.inputs]
    rows = mudlib.sweep_table(muds, mudlib.load_groups(_read(args.groups, report)))
    lines = ["locations_included,unified_domains,ecs_domains,ratio"]
    lines += [f"{k},{u},{e},{_decimal(r)}" for k, u, e, r in rows]
    _emit("\n".join(lines) + "\n", args.out, report)
    if rows:
        report.metrics["final_ratio"] = _decimal(rows[-1][3])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="ecsloc",
        description="Client-subnet location toolkit: scenario runs, capture analysis, allowlist workflows.",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed recorded for reproducibility")
    commands = parser.add_subparsers(dest="command", required=True)

    scenario = commands.add_parser("scenario", help="resolution architecture runs")
    scenario_sub = scenario.add_subparsers(dest="subcommand", required=True)
    run = scenario_sub.add_parser("run", help="run a scenario file and emit its transcript")
    run.add_argument("scenario", help="scenario definition file")
    run.add_argument("--zone", help="override the scenario's zone path")
    run.add_argument("--out", help="write the transcript here instead of stdout")
    run.set_defaults(func=cmd_scenario_run)

    analyze = commands.add_parser("analyze", help="capture-log measurements")
    analyze_sub = analyze.add_subparsers(dest="subcommand", required=True)

    def analyze_common(sub, payload="table"):
        sub.add_argument("--log", required=True, help="capture log file")
        sub.add_argument("--device", required=True, help="device id")
        sub.add_argument("--pool-threshold", type=int, default=traffic.DEFAULT_POOL_THRESHOLD)
        sub.add_argument("--out", help=f"write the {payload} here instead of stdout")

    uds_p = analyze_sub.add_parser("uds", help="similarity across user-defined locations")
    analyze_common(uds_p)
    uds_p.add_argument("--ipl", required=True, help="fixed IP-based location")
    uds_p.add_argument("--locations", nargs=2, required=True, metavar=("A", "B"))
    uds_p.set_defaults(func=cmd_analyze_pair, fixed="ipl", measure="uds",
                       header="device,fixed_ip_location,user_location_a,user_location_b")

    ipbs_p = analyze_sub.add_parser("ipbs", help="similarity across IP-based locations")
    analyze_common(ipbs_p)
    ipbs_p.add_argument("--udl", required=True, help="fixed user-defined location")
    ipbs_p.add_argument("--locations", nargs=2, required=True, metavar=("A", "B"))
    ipbs_p.set_defaults(func=cmd_analyze_pair, fixed="udl", measure="ipbs",
                        header="device,fixed_user_location,ip_location_a,ip_location_b")

    stab_p = analyze_sub.add_parser("stabilize", help="domain-set stabilization time")
    analyze_common(stab_p)
    stab_p.add_argument("--ipl", required=True)
    stab_p.add_argument("--udl", required=True)
    stab_p.set_defaults(func=cmd_analyze_stabilize)

    cum_p = analyze_sub.add_parser("cumulative", help="cumulative unique domains and IPs")
    analyze_common(cum_p)
    cum_p.add_argument("--ipl", required=True)
    cum_p.add_argument("--udl", required=True)
    cum_p.add_argument("--bucket-seconds", type=int, default=86400)
    cum_p.set_defaults(func=cmd_analyze_cumulative)

    matrix_p = analyze_sub.add_parser("matrix", help="pairwise similarity matrix")
    analyze_common(matrix_p)
    matrix_p.add_argument("--ipl", required=True, help="fixed IP-based location")
    matrix_p.add_argument("--regions", nargs="+", required=True)
    matrix_p.set_defaults(func=cmd_analyze_matrix)

    mud = commands.add_parser("mud", help="allowlist workflows")
    mud_sub = mud.add_subparsers(dest="subcommand", required=True)

    gen = mud_sub.add_parser("generate", help="build an allowlist from a capture selection")
    analyze_common(gen, payload="document")
    gen.add_argument("--ipl", required=True)
    gen.add_argument("--udl", required=True)
    gen.add_argument("--mud-url", default=None)
    gen.add_argument("--protocol", default="tcp", choices=mudlib.PROTOCOLS)
    gen.add_argument("--direction", default="from-device", choices=mudlib.DIRECTIONS)
    gen.add_argument("--src-port", default="any")
    gen.add_argument("--dst-port", default="443")
    gen.set_defaults(func=cmd_mud_generate)

    uni = mud_sub.add_parser("unify", help="set-union several allowlists")
    uni.add_argument("inputs", nargs="+", help="allowlist documents")
    uni.add_argument("--out", help="write the document here instead of stdout")
    uni.set_defaults(func=cmd_mud_unify)

    col = mud_sub.add_parser("collapse", help="fold regional variants onto canonical domains")
    col.add_argument("input", help="unified allowlist document")
    col.add_argument("--groups", required=True, help="region-group document")
    col.add_argument("--out", help="write the document here instead of stdout")
    col.set_defaults(func=cmd_mud_collapse)

    cmp_p = mud_sub.add_parser("compare", help="unified-versus-collapsed sweep table")
    cmp_p.add_argument("inputs", nargs="+", help="per-location allowlists in sweep order")
    cmp_p.add_argument("--groups", required=True)
    cmp_p.add_argument("--out", help="write the table here instead of stdout")
    cmp_p.set_defaults(func=cmd_mud_compare)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    report = RunReport(command=["ecsloc", *argv], seed=args.seed)
    try:
        args.func(args, report)
    except EmptySelection as exc:
        print(f"ecsloc: empty selection: {exc}", file=sys.stderr)
        return EXIT_EMPTY_SELECTION
    except (Error, OSError, ValueError) as exc:
        print(f"ecsloc: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL
    print(report.to_json(), file=sys.stderr)
    return EXIT_OK


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
