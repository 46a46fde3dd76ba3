"""ecsloc benchmark: seeded workloads, oracle-checked answers, one JSON result.

    python3 bench/run.py --workload resolve_hot --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

A single workload prints its input properties and notes, then as the last
line {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced run with --trace 1.
`--workload all` runs every workload in its own process and prints each
metric by name and unit, with failed_ratio.  The program is imported from
src/ next to this directory; the run fails when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_work"

END_TO_END = {
    "setup_s": "s",
    "qps": "ops/s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "wire.encode_message.calls": "count",
    "wire.encode_message.self_us": "us",
    "wire.decode_message.calls": "count",
    "wire.decode_message.self_us": "us",
    "zone.lookup.calls": "count",
    "zone.lookup.self_us": "us",
    "zone.load_s": "s",
    "resolver.cache_lookup.calls": "count",
    "resolver.cache_lookup.self_us": "us",
    "resolver.cache_hit_ratio": "ratio",
    "resolver.handle.self_us": "us",
    "resolver.handle.hit_us": "us",
    "resolver.authoritative.self_us": "us",
    "resolver.upstream.calls": "count",
    "transport.exchange_us": "us",
    "transport.server_handler_us": "us",
    "transport.overhead_us": "us",
    "transport.timeouts": "count",
    "traffic.ingest_log.calls": "count",
    "traffic.ingest_log.s": "s",
    "traffic.ingest_log.records_per_s": "1/s",
    "traffic.similarity_matrix.s": "s",
    "traffic.collapse_pools.calls": "count",
    "traffic.collapse_pools.s": "s",
    "mud.generate_mud.s": "s",
    "mud.serialize_mud.s": "s",
    "mud.parse_mud.s": "s",
    "mud.ecs_collapse.s": "s",
    "mud.sweep_table.s": "s",
    "mud.unify.calls": "count",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

WORKLOAD_NAMES = ("resolve_hot", "resolve_wide", "resolve_udp", "analyze_pipeline")


def load_program():
    """Import ecsloc from ROOT/src and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import ecsloc
        import ecsloc.cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import ecsloc from {src}: {exc}")
    if src not in Path(ecsloc.__file__).resolve().parents:
        raise SystemExit(f"bench: ecsloc imported from {ecsloc.__file__}, not from {src}")
    return ecsloc


def pin_to_one_cpu() -> None:
    """Keep the client, and resolve_udp's server thread, on the CPU the calibration measures."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # not offered here: calibrate wherever the scheduler runs us
        pass


def run_one(args) -> int:
    ecsloc = load_program()
    import workloads

    pin_to_one_cpu()

    workdir = WORKDIR / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = workloads.RUNNERS[args.workload][args.trace]
    outcome = runner(ecsloc, workdir, args.workload, args.seed, args.seconds)
    units = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        raise SystemExit(f"bench: metrics not measured: {missing}")
    for key, value in outcome.notes.items():
        print(f"# {key}: {json.dumps(value)}")
    for reason in outcome.problems:
        print(f"# failure: {reason}")
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process; a table of every metric by name and unit."""
    units = PER_LAYER if args.trace else END_TO_END
    results, samples, status = {}, {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        for line in lines[:-1]:
            print(f"{name} {line}")
            if line.startswith("# latency_samples: "):
                samples[name] = line.split(": ", 1)[1]
    rows = [("metric", "unit", *results)]
    rows.append(("failed_ratio", "failed/attempted", *(
        f"{r['failed']}/{r['attempted']}={r['failed'] / r['attempted']:.4g}" for r in results.values())))
    for metric, unit in units.items():
        rows.append((metric, unit, *(f"{r['metrics'][metric]['value']:.6g}" for r in results.values())))
    if not args.trace:
        rows.append(("latency_samples", "count", *(samples.get(name, "-") for name in results)))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    if any(not r["correct"] for r in results.values()):
        status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
