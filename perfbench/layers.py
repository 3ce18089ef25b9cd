"""Which program functions the traced run wraps, and its per-layer metrics.

Layers are the package modules.  ``config``, ``query``, ``windows``,
``model`` and ``cli`` are timed only through their callers.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from typing import Any, Sequence

import numpy

from tracer import Hook, Tracer


def _length_of_result(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result)


def _rows_argument(args: tuple, kwargs: dict, result: Any) -> int:
    return len(args[1] if len(args) > 1 else kwargs["rows"])


HOOKS = (
    Hook("synth.generate_corpus", "fedsum.synth", "generate_corpus"),
    Hook("synth.device_histograms", "fedsum.synth", "Corpus.device_histograms"),
    Hook("synth.device_counts", "fedsum.synth", "Corpus.device_counts"),
    Hook("sim.run_simulation", "fedsum.sim", "run_simulation"),
    Hook("sim.build_device_upload", "fedsum.sim", "build_device_upload"),
    Hook("client.draw_flags", "fedsum.client", "draw_flags"),
    Hook("client.advance_watermarks", "fedsum.client", "DeviceState.advance_watermarks"),
    Hook("client.visible_records", "fedsum.client", "DeviceState.visible_records"),
    Hook("client.client_work", "fedsum.client", "client_work"),
    Hook(
        "client.histogram_to_rows",
        "fedsum.client",
        "histogram_to_rows",
        work={"rows": _length_of_result},
    ),
    Hook("client.rows_to_histogram", "fedsum.client", "rows_to_histogram"),
    Hook(
        "aggcore.accumulate",
        "fedsum.aggcore",
        "AggregationCore.accumulate",
        work={"rows": _rows_argument},
    ),
    Hook("aggcore.merge", "fedsum.aggcore", "AggregationCore.merge"),
    Hook("aggcore.state_digest", "fedsum.aggcore", "AggregationCore.state_digest"),
    Hook(
        "aggcore.encode",
        "fedsum.aggcore",
        "encode_payload",
        work={"bytes": _length_of_result},
    ),
    Hook(
        "server.check_in",
        "fedsum.server",
        "FederatedServer.check_in",
        work={"tokens": _length_of_result},
    ),
    Hook(
        "server.ingest_upload",
        "fedsum.server",
        "FederatedServer.ingest_upload",
        keep_samples=True,
    ),
    Hook("server.maintenance", "fedsum.server", "FederatedServer.maintenance"),
    Hook("dp.resolve_mechanism", "fedsum.dp", "resolve_mechanism"),
    Hook("dp.prepare_mechanism", "fedsum.dp", "prepare_mechanism"),
    Hook("dp.finalize", "fedsum.dp", "ResolvedMechanism.finalize", keep_samples=True),
    Hook("dp.add_laplace_noise", "fedsum.dp", "add_laplace_noise"),
    Hook("dp.apply_threshold", "fedsum.dp", "apply_threshold"),
    Hook("rng.uniform", "fedsum.rng", "KeyedRng.uniform", count_only=True, inside="dp.finalize"),
    Hook("metrics.exact_workload", "fedsum.metrics", "exact_workload"),
    Hook("metrics.weighted_relative_error", "fedsum.metrics", "weighted_relative_error"),
    Hook("metrics.per_user_mean_error", "fedsum.metrics", "per_user_mean_error"),
    Hook("sweep.run_epsilon_sweep", "fedsum.sweep", "run_epsilon_sweep"),
    Hook("outputs.write_run_outputs", "fedsum.outputs", "write_run_outputs"),
)

EVENT_TYPES = (
    "task_registered",
    "session_created",
    "check_in",
    "assignment",
    "upload_accepted",
    "upload_rejected",
    "checkpoint",
    "partial_expired",
    "rollup",
    "release",
    "release_suppressed",
    "crash_injected",
)
REJECTION_REASONS = ("invalid_token", "token_replay", "session_closed", "malformed")


def fedsum_modules() -> dict[str, Any]:
    """Every loaded module of the package, by name, for alias patching."""
    return {
        name: module
        for name, module in sys.modules.items()
        if module is not None and (name == "fedsum" or name.startswith("fedsum."))
    }


def install(tracer: Tracer) -> None:
    tracer.install(HOOKS, fedsum_modules())


def percentile(samples: Sequence[int] | Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples.

    The samples are sorted as one numpy array, so that a check run while
    the program's state is alive adds little to the peak RSS.
    """
    if not len(samples):
        return 0.0
    ordered = numpy.sort(numpy.asarray(samples))
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def layer_metrics(tracer: Tracer, servers: list[Any], bytes_written: int) -> dict[str, float]:
    """Every per-layer figure the traced run can give, by metric name."""
    m: dict[str, float] = {}
    for hook in HOOKS:
        if hook.count_only:
            continue
        stats = tracer.span(hook.name)
        m[f"{hook.name}.calls"] = stats.calls
        m[f"{hook.name}.s"] = stats.total_ns / 1e9
        m[f"{hook.name}.self_s"] = stats.self_ns / 1e9
    for hook in HOOKS:
        for unit in hook.work:
            m[f"{hook.name}.{unit}"] = tracer.counts[f"{hook.name}.{unit}"]
    ingest = tracer.span("server.ingest_upload").samples or []
    m["server.ingest_upload.p50_us"] = percentile(ingest, 0.50) / 1e3
    m["server.ingest_upload.p99_us"] = percentile(ingest, 0.99) / 1e3
    m["dp.finalize.p50_ms"] = percentile(tracer.span("dp.finalize").samples or [], 0.50) / 1e6

    events: Counter = Counter()
    reasons: Counter = Counter()
    tokens_held = 0
    for srv in servers:
        for event in srv.events:
            events[event["event"]] += 1
            if event["event"] == "upload_rejected":
                reasons[event.get("reason")] += 1
        for session in srv.sessions.values():
            tokens_held += sum(not token["consumed"] for token in session.tokens.values())
    for event_type in EVENT_TYPES:
        m[f"server.events.{event_type}"] = events[event_type]
    for reason in REJECTION_REASONS:
        m[f"server.rejected.{reason}"] = reasons[reason]
    minted = tracer.counts["server.check_in.tokens"]
    m["server.tokens_minted"] = minted
    m["server.tokens_held"] = tokens_held
    m["server.token_yield"] = events["upload_accepted"] / minted if minted else 0.0

    finalize_calls = tracer.span("dp.finalize").calls
    m["rng.uniform.calls"] = tracer.counts["rng.uniform.calls"]
    m["rng.draws_per_release"] = (
        tracer.counts["rng.uniform.calls_in.dp.finalize"] / finalize_calls
        if finalize_calls
        else 0.0
    )
    m["outputs.bytes_written"] = bytes_written
    m["py.gc_s"] = tracer.gc_ns / 1e9
    m["py.gc_collections"] = tracer.gc_collections
    return m
