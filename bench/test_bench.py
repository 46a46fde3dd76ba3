"""Tests of the benchmark itself: generators, oracles, tracing arithmetic.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import ecsloc  # noqa: E402
import ecsloc.cli  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = dataclasses.replace(gen.WIDE, regions=12, v6_regions=3, qnames=5, devices=24, stream=300)
SMALL_CAPTURE = gen.CaptureShape(regions=4, shared=2, pools=3, lines=600, out_of_order=3)


def test_resolve_generator_is_deterministic_per_seed():
    a, b, c = (gen.make_resolve(SMALL, seed) for seed in (7, 7, 8))
    assert a.zone_doc == b.zone_doc and a.payloads == b.payloads and a.expected == b.expected
    assert a.properties == b.properties
    assert a.payloads != c.payloads


def test_capture_generator_is_deterministic_per_seed():
    a, b, c = (gen.make_capture(SMALL_CAPTURE, seed) for seed in (7, 7, 8))
    assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]
    assert a[0] != c[0]


def test_generated_inputs_record_their_properties():
    props = gen.make_resolve(SMALL, 3).properties
    assert props["prefix_lengths"] == [16, 20, 24, 48, 56]
    assert props["ipv6_query_share"] > 0
    text, _, cap = gen.make_capture(SMALL_CAPTURE, 3)
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    assert cap["log_lines"] == len(lines) == 600
    stamps = [int(line.split()[0][3:]) for line in lines]
    assert sum(x > y for x, y in zip(stamps, stamps[1:])) == cap["out_of_order_lines"]


def test_program_reads_the_generated_queries_as_intended():
    inputs = gen.make_resolve(SMALL, 5)
    for k in range(6):
        msg = ecsloc.decode_message(inputs.payloads[k])
        assert msg.id == k and msg.recursion_desired and not msg.is_response
        has_ecs = msg.edns is not None and msg.edns.ecs is not None
        assert has_ecs == (inputs.arch[k] == 2)


def _resolve_env(tmp_path, name="resolve_wide", shape=SMALL):
    wl = dataclasses.replace(workloads.WORKLOADS[name], shape=shape, warmup=50, block=100)
    inputs = gen.make_resolve(shape, 11)
    zone_path = tmp_path / "zone.json"
    zone_path.write_text(gen.dump_json(inputs.zone_doc))
    return workloads.ResolveEnv(ecsloc, zone_path, inputs, wl)


def test_oracle_accepts_the_program_and_rejects_a_swapped_region(tmp_path):
    env = _resolve_env(tmp_path)
    inputs = env.inputs
    outcome = workloads.Outcome()
    env.drive(outcome, count=200)
    assert (outcome.attempted, outcome.failed) == (200, 0)

    k = next(k for k in range(200) if inputs.arch[k] == 2 and len(inputs.expected[k][0]) < 16)
    response = env.op(k)
    other = next(e for e in inputs.expected if e != inputs.expected[k] and ":" not in e[0])
    assert oracle.check_answer(response, k, inputs.expected[k]) is None
    assert "answers" in oracle.check_answer(response, k, other)
    swapped = response.replace(
        bytes(map(int, inputs.expected[k][0].split("."))), bytes(map(int, other[0].split(".")))
    )
    assert "answers" in oracle.check_answer(swapped, k, inputs.expected[k])
    assert "id" in oracle.check_answer(response, k + 1, inputs.expected[k])
    servfail = response[:3] + bytes([response[3] | 2]) + response[4:]
    assert "rcode" in oracle.check_answer(servfail, k, inputs.expected[k])


def test_udp_workload_answers_through_the_server(tmp_path):
    env = _resolve_env(tmp_path, "resolve_udp", dataclasses.replace(gen.HOT, stream=300))
    outcome = workloads.Outcome()
    try:
        env.drive(outcome, count=60)
    finally:
        env.close()
    assert (outcome.attempted, outcome.failed) == (60, 0)


def test_capture_truth_has_the_readme_sweep_ratio_without_pools():
    _, truth, _ = gen.make_capture(dataclasses.replace(SMALL_CAPTURE, pools=0), 4)
    s = len(truth.shared)
    assert [r[3] for r in truth.sweep_rows()] == [Fraction(k - 1, k + s) for k in range(1, 5)]


def test_pipeline_oracle_accepts_the_program_and_rejects_a_wrong_table(tmp_path):
    text, truth, _ = gen.make_capture(SMALL_CAPTURE, 9)
    (tmp_path / "capture.log").write_text(text)
    (tmp_path / "groups.json").write_text(gen.dump_json(truth.groups_doc()))
    pipeline = workloads.Pipeline(tmp_path, truth)
    _, results = pipeline.run(ecsloc.cli.main)
    outcome = workloads.Outcome()
    pipeline.check(results, outcome)
    assert (outcome.attempted, outcome.failed) == (len(pipeline.steps), 0) == (8, 0)

    matrix = tmp_path / "out" / "matrix.csv"
    matrix.write_text(matrix.read_text().replace(",1.0", ",0.5", 1))
    outcome = workloads.Outcome()
    pipeline.check(results, outcome)
    assert outcome.failed == 1 and "matrix" in outcome.problems[0]


def _span(sid, start, end, parent=None, name="x", tag=None):
    return tracing.Span(sid, name, start, end, parent, 0, tag)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 3.0, 6.0, parent=1),  # overlaps its sibling: covered once
        _span(4, 2.0, 3.0, parent=2),
        _span(5, 9.0, 12.0, parent=1),  # runs past its parent: clipped
    ]
    assert tracing.self_times(spans) == {1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 3.0}


def test_pass_metrics_count_hits_and_self_time():
    spans = [
        _span(1, 0.0, 10e-6, name="resolver.handle"),
        _span(2, 1e-6, 3e-6, parent=1, name="resolver.cache_lookup", tag=True),
        _span(3, 20e-6, 50e-6, name="resolver.handle"),
        _span(4, 21e-6, 23e-6, parent=3, name="resolver.cache_lookup", tag=False),
        _span(5, 25e-6, 45e-6, parent=3, name="resolver.authoritative"),
    ]
    m = tracing.pass_metrics(spans)
    assert m["resolver.cache_lookup.calls"] == 2 and m["resolver.upstream.calls"] == 1
    assert m["resolver.cache_hit_ratio"] == 0.5
    assert abs(m["resolver.handle.self_us"] - 8.0) < 1e-9  # ((10 - 2) + (30 - 2 - 20)) / 2
    assert abs(m["resolver.handle.hit_us"] - 10.0) < 1e-9


def test_tracer_records_parents_and_restores_originals():
    class Box:
        def inner(self):
            return 1

        def outer(self):
            return self.inner() + 1

        @classmethod
        def make(cls):
            return cls()

    tracer = tracing.Tracer()
    originals = dict(vars(Box))
    with tracer.installed([(Box, "inner", "in", None), (Box, "outer", "out", None), (Box, "make", "mk", None)]):
        tracer.request = "r1"
        assert Box.make().outer() == 2
    assert all(vars(Box)[k] is originals[k] for k in ("inner", "outer", "make"))
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["in"].parent == by_name["out"].id and by_name["out"].parent is None
    assert {s.request for s in tracer.spans} == {"r1"}


def test_benchmark_json_lists_what_the_runner_reports():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "bench/run.py"] and doc["paths"] == ["bench"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    spec = json.loads((HERE / "spec.json").read_text())
    assert list(spec["workloads"]) == list(run.WORKLOAD_NAMES)
    assert set(spec["per_layer"]) == set(run.PER_LAYER)
