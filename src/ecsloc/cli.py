"""Command-line front end.

Subcommands: `scenario run`, `analyze {uds|ipbs|stabilize|cumulative|matrix}`,
`mud {generate|unify|collapse|compare}`.  Each command is a function
``(args, read) -> (payload, metrics)``: it reads its files only through
``read(path)``, which returns their bytes and records their digests, and
returns its payload text (a transcript, a comma-separated table or an
allowlist document) with a dict of result values.  `main` alone writes the
payload, byte-deterministic, to --out or stdout, then prints the run report
to stderr as one JSON line: command, seed, input digests, outputs, metrics.

Exit codes: 0 success, 2 usage, 3 data error, 4 empty selection,
70 internal error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
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


def _decimal(value) -> str:
    return str(float(value))


def _table(header: str, rows) -> str:
    """A comma-separated payload: the *header* line, then one line per row."""
    return "".join(f"{line}\n" for line in [header, *(",".join(map(str, row)) for row in rows)])


def _document(mud: mudlib.MudFile, **metrics):
    """The allowlist *mud* as a payload, and *metrics* after its domain count."""
    return mudlib.serialize_mud(mud).decode(), {"domains": mudlib.domain_count(mud), **metrics}


def cmd_scenario_run(args, read):
    spec = parse_scenario(read(args.scenario), args.scenario)
    zone_path = Path(args.zone) if args.zone else spec.zone_path
    zone = GeoZone.loads(read(zone_path), zone_path)
    transcript = run_scenario(
        spec.architecture,
        spec.device,
        spec.qname,
        zone,
        spec.resolver_location,
        policy=spec.policy,
    )
    return transcript.render(), {
        "architecture": spec.architecture,
        "final_answers": list(transcript.final_answers()),
        "hops": len(transcript.hops),
    }


def _load_log(args, read) -> traffic.CaptureLog:
    log = traffic.parse_log(read(args.log), args.log)
    if log.resorted:
        print(f"warning: {args.log}: timestamps were out of order; records re-sorted", file=sys.stderr)
    return log


def cmd_analyze_pair(args, read):
    """`analyze uds` or `analyze ipbs`: *args.measure*, a `traffic` function, at the *args.fixed* location."""
    log = _load_log(args, read)
    a, b = args.locations
    fixed = getattr(args, args.fixed)
    value = _decimal(getattr(traffic, args.measure)(log, args.device, fixed, a, b, args.pool_threshold))
    row = (args.device, fixed.upper(), a.upper(), b.upper(), value)
    return _table(f"{args.header},{args.measure}", [row]), {args.measure: value}


def cmd_analyze_stabilize(args, read):
    value = traffic.stabilization_time(_load_log(args, read), args.device, args.ipl, args.udl)
    cell = "-" if value is None else str(value)
    row = (args.device, args.ipl.upper(), args.udl.upper(), cell)
    return _table("device,ip_location,user_location,stabilized_at", [row]), {"stabilized_at": cell}


def cmd_analyze_cumulative(args, read):
    log = _load_log(args, read)
    series = traffic.cumulative_counts(log, args.device, args.ipl, args.udl, args.bucket_seconds)
    return _table("bucket_end,unique_domains,unique_ips", series), {"buckets": len(series)}


def cmd_analyze_matrix(args, read):
    log = _load_log(args, read)
    regions = [r.upper() for r in args.regions]
    matrix = traffic.similarity_matrix(log, args.device, args.ipl, regions, args.pool_threshold)
    rows = [(region, *map(_decimal, row)) for region, row in zip(regions, matrix)]
    return _table(",".join(["region", *regions]), rows), {"regions": regions}


def _template_from_args(args) -> mudlib.AceTemplate:
    def port(raw):
        return None if raw == "any" else int(raw)

    return mudlib.AceTemplate(
        protocol=args.protocol,
        direction=args.direction,
        source_port=port(args.src_port),
        destination_port=port(args.dst_port),
    )


def cmd_mud_generate(args, read):
    log = _load_log(args, read)
    ds = traffic.domain_set(log, args.device, args.ipl, args.udl, pool_threshold=args.pool_threshold)
    return _document(mudlib.generate_mud(ds, args.device, _template_from_args(args), mud_url=args.mud_url))


def cmd_mud_unify(args, read):
    return _document(mudlib.unify([mudlib.parse_mud(read(path), path) for path in args.inputs]))


def cmd_mud_collapse(args, read):
    mud = mudlib.parse_mud(read(args.input), args.input)
    result = mudlib.ecs_collapse(mud, mudlib.load_groups(read(args.groups), args.groups))
    return _document(
        result.mud, unmatched_variants=list(result.unmatched_variants), tuple_splits=list(result.tuple_splits)
    )


def cmd_mud_compare(args, read):
    muds = [mudlib.parse_mud(read(path), path) for path in args.inputs]
    groups = mudlib.load_groups(read(args.groups), args.groups)
    rows = [(k, u, e, _decimal(r)) for k, u, e, r in mudlib.sweep_table(muds, groups)]
    return _table("locations_included,unified_domains,ecs_domains,ratio", rows), {"final_ratio": rows[-1][3]}


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

    def analyze_common(sub, payload="table", pooled=True):
        sub.add_argument("--log", required=True, help="capture log file")
        sub.add_argument("--device", required=True, help="device id")
        if pooled:  # only the commands that collapse server pools take a threshold
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
    analyze_common(stab_p, pooled=False)
    stab_p.add_argument("--ipl", required=True)
    stab_p.add_argument("--udl", required=True)
    stab_p.set_defaults(func=cmd_analyze_stabilize)

    cum_p = analyze_sub.add_parser("cumulative", help="cumulative unique domains and IPs")
    analyze_common(cum_p, pooled=False)
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
    args = build_parser().parse_args(argv)
    report = {"command": ["ecsloc", *argv], "seed": args.seed, "inputs": {}, "outputs": []}

    def read(path) -> bytes:
        """The bytes of the file at *path*, their digest recorded in the report."""
        data = Path(path).read_bytes()
        report["inputs"][str(path)] = hashlib.sha256(data).hexdigest()
        return data

    try:
        payload, report["metrics"] = args.func(args, read)
        if args.out:
            Path(args.out).write_bytes(payload.encode())
            report["outputs"].append(str(args.out))
        else:
            sys.stdout.write(payload)
    except EmptySelection as exc:
        print(f"ecsloc: empty selection: {exc}", file=sys.stderr)
        return EXIT_EMPTY_SELECTION
    except (Error, OSError, ValueError) as exc:
        print(f"ecsloc: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception:
        import traceback
        traceback.print_exc()
        return EXIT_INTERNAL
    print(json.dumps(report), file=sys.stderr)
    return EXIT_OK


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
