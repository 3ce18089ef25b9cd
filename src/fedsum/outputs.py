"""Deterministic on-disk artifacts for runs and sweeps.

Every writer sorts its rows, pins the line terminator, and renders
floats with ``repr`` (shortest round-trip form), so re-running with the
same inputs yields byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
import os
from itertools import islice

import yaml

from .dp import NoisedRelease, ResolvedMechanism
from .model import DIRECTIONS, Schema
from .server import SuppressedRelease
from .sim import SimulationResult
from .sweep import SweepRow, TARGET_MEAN_ERROR

__all__ = [
    "write_run_outputs",
    "write_sweep_outputs",
]


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return repr(float(value))


def _jsonable(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _release_rows(release: NoisedRelease, schema: Schema) -> list[list]:
    rows = []
    for (a, m, r, d), value in release.histogram.items():
        rows.append(
            [
                schema.activity_names[a],
                schema.metric_names[m],
                r,
                DIRECTIONS[d],
                _fmt(value),
            ]
        )
    return rows


def write_run_outputs(
    result: SimulationResult,
    schema: Schema,
    out_dir: str,
    config_snapshot: dict,
    mechanism: ResolvedMechanism,
) -> dict:
    """Write all artifacts for one simulation run; return the summary."""
    releases_dir = os.path.join(out_dir, "releases")
    os.makedirs(releases_dir, exist_ok=True)

    window_status: dict[str, str] = {}
    suppressed_counts: dict[str, int] = {}
    for window in result.task_windows:
        release = result.releases.get(f"{result.query_id}/{window.window_id}")
        if isinstance(release, NoisedRelease):
            window_status[window.window_id] = "released"
            suppressed_counts[window.window_id] = release.suppressed_partitions
            _write_csv(
                os.path.join(releases_dir, f"{window.window_id}.csv"),
                ["activity", "metric", "region", "direction", "value"],
                _release_rows(release, schema),
            )
        elif isinstance(release, SuppressedRelease):
            window_status[window.window_id] = f"suppressed:{release.reason}"
            with open(
                os.path.join(releases_dir, f"{window.window_id}.suppressed.json"),
                "w",
                encoding="utf-8",
            ) as fh:
                json.dump(
                    {"window_id": window.window_id, "reason": release.reason},
                    fh,
                    sort_keys=True,
                )
                fh.write("\n")
        else:
            window_status[window.window_id] = "pending"

    with open(os.path.join(out_dir, "events.jsonl"), "w", encoding="utf-8") as fh:
        lines = result.server.event_log_lines()
        while chunk := list(islice(lines, 4096)):  # one write per 4096 lines
            fh.write("\n".join(chunk) + "\n")

    _write_csv(
        os.path.join(out_dir, "reach.csv"),
        ["policy", "country_stratum", "window", "H"],
        [
            [row["policy"], row["stratum"], row["window_id"], _fmt(row["h"])]
            for row in result.reach_rows
        ],
    )
    _write_csv(
        os.path.join(out_dir, "eval.csv"),
        ["window_id", "metric", "weighted_relative_error", "per_user_mean_error"],
        [
            [
                row["window_id"],
                row["metric"],
                _fmt(row["weighted_relative_error"]),
                _fmt(row["per_user_mean_error"]),
            ]
            for row in result.eval_rows
        ],
    )

    resolved = dict(config_snapshot)
    resolved["resolved_mechanism"] = _jsonable(
        {
            "variant": mechanism.variant,
            "epsilon": mechanism.epsilon,
            "clip": mechanism.clip,
            "tau": mechanism.tau,
            "scale_table": mechanism.scale_table,
            "clip_table": mechanism.clip_table,
        }
    )
    with open(
        os.path.join(out_dir, "resolved_config.yaml"), "w", encoding="utf-8"
    ) as fh:
        yaml.safe_dump(resolved, fh, sort_keys=True, default_flow_style=False)

    summary = {
        "query_id": result.query_id,
        "fleet_size": result.fleet_size,
        "windows": window_status,
        "suppressed_partitions": suppressed_counts,
        "uploads_per_window": {
            w.window_id: len(result.uploaded[w.window_id])
            for w in result.task_windows
        },
        "events": len(result.server.events),
    }
    with open(os.path.join(out_dir, "run_summary.json"), "w", encoding="utf-8") as fh:
        json.dump(_jsonable(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def write_sweep_outputs(
    rows: list[SweepRow],
    summary: list[dict],
    out_dir: str,
    config_snapshot: dict,
) -> None:
    os.makedirs(out_dir, exist_ok=True)
    result_rows = []
    for row in rows:
        for metric in sorted(row.errors):
            result_rows.append(
                [
                    row.variant,
                    _fmt(row.epsilon),
                    metric,
                    row.seed,
                    _fmt(row.errors[metric]),
                ]
            )
    _write_csv(
        os.path.join(out_dir, "results.csv"),
        ["variant", "epsilon", "metric", "seed", "weighted_relative_error"],
        result_rows,
    )
    _write_csv(
        os.path.join(out_dir, "summary.csv"),
        ["variant", "epsilon", "metric", "mean", "std"],
        [
            [
                s["variant"],
                _fmt(s["epsilon"]),
                s["metric"],
                _fmt(s["mean"]),
                _fmt(s["std"]),
            ]
            for s in summary
        ],
    )
    metadata = dict(config_snapshot)
    metadata["target_mean_weighted_relative_error"] = TARGET_MEAN_ERROR
    with open(
        os.path.join(out_dir, "sweep_config.yaml"), "w", encoding="utf-8"
    ) as fh:
        yaml.safe_dump(metadata, fh, sort_keys=True, default_flow_style=False)
