"""Tests for the tracer and the traced run (``python3 -m pytest perfbench/tests``)."""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import types
from pathlib import Path

import pytest

import layers
import run
import workloads
from tracer import Hook, Tracer

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def make_fake_program(clock: FakeClock):
    """A server whose maintenance spends 5 + 2 ticks around a 3-tick finalize."""
    dp = types.ModuleType("fake.dp")
    srv = types.ModuleType("fake.server")

    def finalize():
        clock.now += 3
        return "release"

    class Server:
        def maintenance(self):
            clock.now += 5
            result = srv.finalize()
            clock.now += 2
            return result

    dp.finalize = finalize
    srv.finalize = finalize  # imported by name, as `from .dp import finalize`
    srv.Server = Server
    return {"fake.dp": dp, "fake.server": srv}


def test_self_time_excludes_nested_spans():
    clock = FakeClock()
    modules = make_fake_program(clock)
    hooks = [
        Hook("server.maintenance", "fake.server", "Server.maintenance"),
        Hook("dp.finalize", "fake.dp", "finalize", work={"releases": lambda a, k, r: 1}),
    ]
    with Tracer(clock=clock) as tracer:
        tracer.install(hooks, modules)
        server = modules["fake.server"].Server()
        assert server.maintenance() == "release"
        assert server.maintenance() == "release"
    outer = tracer.span("server.maintenance")
    inner = tracer.span("dp.finalize")
    assert (outer.calls, outer.total_ns, outer.self_ns) == (2, 20, 14)
    assert (inner.calls, inner.total_ns, inner.self_ns) == (2, 6, 6)
    assert tracer.counts["dp.finalize.releases"] == 2


def test_a_span_that_raises_still_closes():
    clock = FakeClock()
    module = types.ModuleType("fake.mod")

    def boom():
        clock.now += 4
        raise ValueError("boom")

    def outer():
        clock.now += 1
        with pytest.raises(ValueError):
            module.boom()

    module.boom, module.outer = boom, outer
    with Tracer(clock=clock) as tracer:
        tracer.install([Hook("m.outer", "fake.mod", "outer"), Hook("m.boom", "fake.mod", "boom")],
                       {"fake.mod": module})
        module.outer()
    assert tracer.span("m.boom").total_ns == 4
    assert tracer.span("m.outer").self_ns == 1
    assert tracer._stack == []


def test_a_missing_target_is_reported_not_raised():
    with Tracer() as tracer:
        tracer.install([Hook("gone.fn", "fake.gone", "fn")], {})
    assert tracer.missing == ["gone.fn"]


def _attribute_snapshot() -> dict:
    """Identity of every attribute of every fedsum module and class."""
    snapshot = {}
    for name, module in layers.fedsum_modules().items():
        for attr, value in vars(module).items():
            snapshot[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for member, inner in vars(value).items():
                    snapshot[(name, attr, member)] = inner
    return snapshot


def test_uninstall_restores_every_original_attribute():
    import fedsum.client
    import fedsum.sim

    before = _attribute_snapshot()
    original = fedsum.client.draw_flags
    tracer = Tracer()
    with tracer:
        layers.install(tracer)
        # The wrapper sits on every name callers look up.
        assert fedsum.sim.draw_flags is fedsum.client.draw_flags
        assert fedsum.sim.draw_flags.__wrapped__ is original
        assert fedsum.sim.build_device_upload.__wrapped__ is not None
        assert vars(fedsum.client.DeviceState)["advance_watermarks"].__wrapped__
    after = _attribute_snapshot()
    assert tracer.missing == []
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def _small(workload, num_devices=400):
    return dataclasses.replace(
        workload, setup=functools.partial(workload.setup, num_devices=num_devices)
    )


EXACT_SUFFIXES = (".calls", ".rows", ".bytes", ".tokens")
EXACT_PREFIXES = ("server.events.", "server.rejected.", "server.tokens_", "rng.")


def _exact_counts(metrics: dict) -> dict:
    return {
        name: value
        for name, value in metrics.items()
        if name.endswith(EXACT_SUFFIXES) or name.startswith(EXACT_PREFIXES)
    }


@pytest.mark.parametrize("name", ["run_weekly", "ingest_replay"])
def test_counts_repeat_exactly_across_two_traced_runs(name, tmp_path):
    workload = _small(workloads.WORKLOADS[name])
    first = run.run_traced(workload, 3, tmp_path)
    second = run.run_traced(workload, 3, tmp_path)
    assert first["problems"] == [] and second["problems"] == []
    for outcome in first["outcomes"] + second["outcomes"]:
        assert outcome.problems == []
    counts = _exact_counts(first["metrics"])
    assert counts == _exact_counts(second["metrics"])
    assert counts["server.ingest_upload.calls"] > 0
    assert counts["aggcore.accumulate.rows"] > 0


def test_traced_run_gives_every_declared_per_layer_metric(tmp_path):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    result = run.run_traced(_small(workloads.WORKLOADS["ingest_replay"]), 5, tmp_path)
    missing = [m["name"] for m in declared["per_layer"] if m["name"] not in result["metrics"]]
    assert missing == []
    metrics = result["metrics"]
    assert metrics["rng.draws_per_release"] == 0  # noise-free releases draw nothing
    assert metrics["server.events.release"] == 14
    assert metrics["server.token_yield"] <= 1.0
    # Each accepted upload consumed one token; the rest are still held.
    assert metrics["server.tokens_held"] == (
        metrics["server.tokens_minted"] - metrics["server.events.upload_accepted"]
    )
    assert metrics["server.tokens_held"] > 0


def test_ingest_check_catches_a_wrong_release(tmp_path):
    workload = _small(workloads.WORKLOADS["ingest_replay"], num_devices=100)
    inputs = workload.setup(7)
    workload.prepare(inputs)
    srv, latencies, failed = workload.run(inputs, 7, tmp_path)
    assert workload.check(inputs, (srv, latencies, failed)).problems == []
    key = next(iter(srv.releases))
    release = srv.releases[key]
    cell, value = release.histogram.items()[0]
    release.histogram[cell] = value + 1.0
    problems = workload.check(inputs, (srv, latencies, failed)).problems
    assert len(problems) == 1 and "differs from the exact sums" in problems[0]
