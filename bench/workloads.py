"""The four workloads: set-up, the timed closed loop and the traced passes.

One client runs in the workload's process and waits for each answer before
sending the next query (a closed loop).  resolve_udp adds the UdpServer's
one thread; nothing else starts a thread or a process.  Input generation
is never timed.
"""

from __future__ import annotations

import io
import os
import resource
import statistics
import time
from array import array
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import gen
import oracle
import tracing

# rounds of set-up then timed queries per run; setup_s is the median set-up
SETUP_ROUNDS = {"resolve_hot": 5, "resolve_wide": 3, "resolve_udp": 5}
PIPELINE_QUERIES = 1000  # pipeline_s on the resolve workloads: seconds per this many queries

# The machine is shared: for seconds to minutes at a time neighbours make
# every operation up to 2x slower, on either core.  So each timed unit of
# work (a block of queries, a CLI step, a set-up) is scaled by the speed of
# a fixed pure-Python loop timed just before it, and every end-to-end time
# is reported at the speed at which that loop takes REFERENCE_S.
REFERENCE_S = 0.35e-3


@dataclass(frozen=True)
class ResolveWorkload:
    shape: gen.ResolveShape
    udp: bool
    warmup: int  # queries answered during set-up: one TTL's worth, so the cache is in steady state
    block: int  # queries per timing block, each scaled by its own calibration
    trace_block: int  # queries per traced pass


WORKLOADS = {
    "resolve_hot": ResolveWorkload(gen.HOT, udp=False, warmup=6000, block=1000, trace_block=8000),
    "resolve_wide": ResolveWorkload(gen.WIDE, udp=False, warmup=3000, block=200, trace_block=1500),
    "resolve_udp": ResolveWorkload(gen.HOT, udp=True, warmup=6000, block=500, trace_block=3000),
    "analyze_pipeline": gen.CAPTURE,
}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(reason)


def p99(values) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def calibrate() -> float:
    """Best of three timings of a fixed pure-Python loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        table = {}
        for i in range(3000):
            table[i & 255] = table.get(i & 255, 0) + i
        best = min(best, time.perf_counter() - t0)
    return best


def figures(latencies, window: int | None = None) -> dict:
    """qps over the time spent answering, median latency, and p99 of scaled latencies.

    With *window*, p99 is the median over consecutive windows of that many
    operations of each window's 99th percentile.
    """
    windows = [latencies]
    if window is not None:
        windows = [latencies[i : i + window] for i in range(0, len(latencies) - window + 1, window)]
    return {
        "qps": len(latencies) / sum(latencies),
        "latency_p50_us": statistics.median(latencies) * 1e6,
        "latency_p99_us": statistics.median(map(p99, windows)) * 1e6,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class ResolveEnv:
    """A loaded zone, one resolver/authoritative pair per architecture on a
    shared virtual clock, and for UDP one server routing by message id."""

    def __init__(self, ecsloc, zone_path, inputs: gen.ResolveInputs, wl: ResolveWorkload):
        self.ecsloc = ecsloc
        self.inputs = inputs
        self.wl = wl
        self.zone = ecsloc.GeoZone.load(zone_path)
        self.server = None
        if wl.udp:
            self.server = ecsloc.transport.UdpServer(self.route).start()
        self.reset()

    def reset(self) -> None:
        """Fresh resolvers and clock, then the warm-up queries."""
        e = self.ecsloc
        inp = self.inputs
        self.clock = e.VirtualClock()
        self.handlers = []
        for arch, policy in zip(gen.ARCHITECTURES, (e.Strip(), e.RewriteClientSubnet(24), e.Forward())):
            authoritative = e.Authoritative(self.zone, legacy_geo=arch == "standard")
            link = e.transport.InProcessLink(authoritative.handle)
            resolver = e.Resolver(policy, inp.resolver_region, link, self.zone.regions, clock=self.clock)
            self.handlers.append(resolver.handle)
        if self.server is not None:
            client = e.transport.UdpClient(*self.server.address)
            payloads = inp.payloads
            self.op = lambda k: client.exchange(payloads[k])
        else:
            handlers, payloads, arch, source = self.handlers, inp.payloads, inp.arch, inp.source
            self.op = lambda k: handlers[arch[k]](payloads[k], source[k])
        self.next = 0
        self.drive(None, count=self.wl.warmup)

    def route(self, payload: bytes, source: str) -> bytes:
        # loopback hides the device's address, so the server looks it up by id
        k = int.from_bytes(payload[:2], "big")
        return self.handlers[self.inputs.arch[k]](payload, self.inputs.source[k])

    def drive(self, outcome: Outcome | None, *, count=None, seconds=None, tracer=None, label=None):
        """Send queries in stream order, one at a time; stop after *count* or *seconds*.

        Each answer is checked against the oracle outside its timed span
        (warm-up answers, with no *outcome*, are not).  Returns the latencies.
        """
        op, step, size = self.op, self.wl.shape.clock_step, len(self.inputs.payloads)
        expected = self.inputs.expected
        advance = self.clock.advance
        clock = time.perf_counter
        latencies = array("d")
        deadline = None if seconds is None else clock() + seconds
        k = self.next
        while count is None or len(latencies) < count:
            if tracer is not None:
                tracer.request = (label, k)
            t0 = clock()
            try:
                response = op(k)
            except Exception as exc:  # a raised query is a failed one
                response = exc
            t1 = clock()
            advance(step)
            latencies.append(t1 - t0)
            if outcome is not None:
                outcome.attempted += 1
                if isinstance(response, Exception):
                    outcome.fail(f"query {k} raised {type(response).__name__}: {response}")
                else:
                    reason = oracle.check_answer(response, k, expected[k])
                    if reason is not None:
                        outcome.fail(f"query {k}: {reason}")
            k = (k + 1) % size
            if deadline is not None and t1 >= deadline:
                break
        self.next = k
        return latencies

    def measure(self, outcome: Outcome, *, seconds=None, count=None, tracer=None, label=None):
        """Latencies of blocks of queries, each scaled by a calibration taken just before it."""
        scaled = array("d")
        deadline = None if seconds is None else time.perf_counter() + seconds
        while (count is None or len(scaled) < count) and (deadline is None or time.perf_counter() < deadline):
            size = self.wl.block if count is None else min(self.wl.block, count - len(scaled))
            factor = REFERENCE_S / calibrate()
            latencies = self.drive(outcome, count=size, tracer=tracer, label=label)
            scaled.extend(x * factor for x in latencies)
        return scaled

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


def _resolve_inputs(workdir: Path, name: str, seed: int):
    wl = WORKLOADS[name]
    inputs = gen.make_resolve(wl.shape, seed)
    zone_path = workdir / "zone.json"
    zone_path.write_text(gen.dump_json(inputs.zone_doc))
    return wl, inputs, zone_path


def scaled_setup(build):
    """(built object, set-up seconds scaled by calibrations either side of it)."""
    before = calibrate()
    t0 = time.perf_counter()
    built = build()
    elapsed = time.perf_counter() - t0
    return built, elapsed * REFERENCE_S / ((before + calibrate()) / 2)


def run_resolve(ecsloc, workdir: Path, name: str, seed: int, seconds: float) -> Outcome:
    """Rounds of set-up then timed queries, so set-up samples spread over the run."""
    wl, inputs, zone_path = _resolve_inputs(workdir, name, seed)
    outcome = Outcome(notes={"inputs": inputs.properties})
    rounds = SETUP_ROUNDS[name]
    setup_times, latencies = [], array("d")
    for _ in range(rounds):
        env, setup_s = scaled_setup(lambda: ResolveEnv(ecsloc, zone_path, inputs, wl))
        setup_times.append(setup_s)
        try:
            latencies += env.measure(outcome, seconds=seconds / rounds)
        finally:
            env.close()
    result = figures(latencies)
    outcome.metrics = {
        "setup_s": statistics.median(setup_times),
        **result,
        "pipeline_s": PIPELINE_QUERIES / result["qps"],
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.notes.update(
        latency_samples=len(latencies), queries_per_block=wl.block, setup_samples_s=setup_times
    )
    return outcome


def trace_resolve(ecsloc, workdir: Path, name: str, seed: int, seconds: float) -> Outcome:
    wl, inputs, zone_path = _resolve_inputs(workdir, name, seed)
    outcome = Outcome(notes={"inputs": inputs.properties})
    tracer = tracing.Tracer()
    targets = tracing.layer_targets(ecsloc)
    spans_path = workdir / "spans.jsonl.gz"
    with tracer.installed(targets):
        for _ in range(SETUP_ROUNDS[name]):
            ecsloc.GeoZone.load(zone_path)
    loads = [s for s in tracer.take() if s.name == "zone.load"]
    tracing.write_spans(spans_path, loads)
    zone_load_s = statistics.median(s.end - s.start for s in loads)
    env = ResolveEnv(ecsloc, zone_path, inputs, wl)

    passes, per_op = [], {True: [], False: []}
    deadline = time.perf_counter() + seconds
    try:
        number = 0
        while number < 2 or time.perf_counter() < deadline:
            traced = number % 4 in (1, 2)  # ABBA order cancels drift
            with tracer.installed(targets if traced else []):
                if traced and env.server is not None:
                    env.server.handler = tracer.wrap("transport.server_handler", env.route)
                env.reset()
                tracer.take()  # warm-up is not part of the pass
                latencies = env.measure(
                    outcome, count=wl.trace_block, tracer=tracer if traced else None, label=number
                )
                if env.server is not None:
                    env.server.handler = env.route
            per_op[traced].append(statistics.fmean(latencies))
            if traced:
                spans = tracer.take()
                passes.append(tracing.pass_metrics(spans))
                tracing.write_spans(spans_path, spans)
            number += 1
    finally:
        env.close()
    return _trace_outcome(outcome, passes, per_op, zone_load_s)


def _trace_outcome(outcome: Outcome, passes, per_op, zone_load_s: float) -> Outcome:
    metrics, mismatched = tracing.combine(passes)
    metrics["zone.load_s"] = zone_load_s
    metrics["trace.overhead_ratio"] = statistics.median(per_op[True]) / statistics.median(per_op[False])
    outcome.metrics = metrics
    outcome.notes.update(traced_passes=len(passes), untraced_passes=len(per_op[False]))
    if mismatched:
        outcome.notes["counts_differing_between_passes"] = mismatched
    return outcome


class Pipeline:
    """The README allowlist workflow as a list of CLI steps, each with its check."""

    def __init__(self, workdir: Path, truth: gen.CaptureTruth):
        log, groups = str(workdir / "capture.log"), str(workdir / "groups.json")
        out = workdir / "out"
        out.mkdir(exist_ok=True)
        self.outputs = []
        common = ["--log", log, "--device", truth.device, "--ipl", truth.ip_location]

        def path(name):
            p = out / name
            self.outputs.append(p)
            return str(p)

        self.steps = [
            (
                ["analyze", "matrix", *common, "--regions", *truth.regions, "--out", path("matrix.csv")],
                self._text(oracle.matrix_table(truth.regions, truth)),
            )
        ]
        muds = []
        for region in truth.regions:
            muds.append(path(f"mud_{region}.json"))
            self.steps.append(
                (["mud", "generate", *common, "--udl", region, "--out", muds[-1]], self._endpoints(truth.sets[region]))
            )
        unified = path("unified.json")
        self.steps += [
            (["mud", "unify", *muds, "--out", unified], self._endpoints(truth.union(len(truth.regions)))),
            (
                ["mud", "collapse", unified, "--groups", groups, "--out", path("collapsed.json")],
                self._endpoints(truth.collapsed()),
            ),
            (
                ["mud", "compare", *muds, "--groups", groups, "--out", path("compare.csv")],
                self._text(oracle.compare_table(truth.sweep_rows())),
            ),
        ]

    @staticmethod
    def _text(expected: str):
        return lambda path: None if Path(path).read_text() == expected else "table differs from the oracle"

    @staticmethod
    def _endpoints(expected):
        def check(path):
            got = oracle.mud_endpoints(path)
            return None if got == expected else f"endpoints differ: {sorted(got ^ expected)[:4]}"

        return check

    def run(self, main):
        """One pass. Returns each step's seconds, scaled by a calibration just before it, and results."""
        for p in self.outputs:
            if p.exists():
                p.unlink()
        sink = io.StringIO()
        times, results = [], []
        clock = time.perf_counter
        for argv, _ in self.steps:
            factor = REFERENCE_S / calibrate()
            t0 = clock()
            try:
                with redirect_stderr(sink), redirect_stdout(sink):
                    result = main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                result = exc.code
            except Exception as exc:  # a raised step is a failed one
                result = exc
            times.append((clock() - t0) * factor)
            results.append(result)
            sink.seek(0)
            sink.truncate()
        return times, results

    def check(self, results, outcome: Outcome) -> None:
        for (argv, check), result in zip(self.steps, results):
            outcome.attempted += 1
            step = " ".join(argv[:2])
            if result != 0:
                outcome.fail(f"{step}: exit {result!r}")
                continue
            out = argv[argv.index("--out") + 1]
            reason = check(out) if os.path.exists(out) else "no output"
            if reason is not None:
                outcome.fail(f"{step} {Path(out).name}: {reason}")


def _pipeline_inputs(workdir: Path, seed: int):
    text, truth, properties = gen.make_capture(WORKLOADS["analyze_pipeline"], seed)
    (workdir / "capture.log").write_text(text)
    (workdir / "groups.json").write_text(gen.dump_json(truth.groups_doc()))
    return Pipeline(workdir, truth), properties


def _load_capture(ecsloc, workdir: Path) -> None:
    ecsloc.traffic.ingest_log(workdir / "capture.log")
    ecsloc.mud.load_groups((workdir / "groups.json").read_bytes())


def run_pipeline(ecsloc, workdir: Path, name: str, seed: int, seconds: float) -> Outcome:
    pipeline, properties = _pipeline_inputs(workdir, seed)
    outcome = Outcome(notes={"inputs": properties})
    # set-up is cheap here, so it is repeated before every pass, which
    # spreads its samples over the run like the passes themselves
    setup_times, passes = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        setup_times.append(scaled_setup(lambda: _load_capture(ecsloc, workdir))[1])
        times, results = pipeline.run(ecsloc.cli.main)
        pipeline.check(results, outcome)
        passes.append(times)
    steps = [t for times in passes for t in times]
    outcome.metrics = {
        "setup_s": statistics.median(setup_times),
        # a pass has too few steps for a pooled p99 with ten samples beyond
        # it, so p99 is the median over passes of each pass's slowest step
        **figures(steps, len(pipeline.steps)),
        "pipeline_s": statistics.median(sum(times) for times in passes),
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.notes.update(
        passes=len(passes), steps_per_pass=len(pipeline.steps), latency_samples=len(steps),
        p99_window=len(pipeline.steps),
    )
    return outcome


def trace_pipeline(ecsloc, workdir: Path, name: str, seed: int, seconds: float) -> Outcome:
    pipeline, properties = _pipeline_inputs(workdir, seed)
    outcome = Outcome(notes={"inputs": properties})
    tracer = tracing.Tracer()
    targets = tracing.layer_targets(ecsloc)
    spans_path = workdir / "spans.jsonl.gz"
    _load_capture(ecsloc, workdir)
    passes, per_op = [], {True: [], False: []}
    main = tracer.wrap("cli.main", ecsloc.cli.main)
    deadline = time.perf_counter() + seconds
    number = 0
    while number < 2 or time.perf_counter() < deadline:
        traced = number % 4 in (1, 2)
        tracer.request = number
        with tracer.installed(targets if traced else []):
            times, results = pipeline.run(main if traced else ecsloc.cli.main)
        pipeline.check(results, outcome)
        per_op[traced].append(sum(times))
        if traced:
            spans = tracer.take()
            passes.append(tracing.pass_metrics(spans))
            tracing.write_spans(spans_path, spans)
        number += 1
    return _trace_outcome(outcome, passes, per_op, 0.0)


RUNNERS = {
    "resolve_hot": (run_resolve, trace_resolve),
    "resolve_wide": (run_resolve, trace_resolve),
    "resolve_udp": (run_resolve, trace_resolve),
    "analyze_pipeline": (run_pipeline, trace_pipeline),
}
