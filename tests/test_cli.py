"""Command-line entry point: run, sweep, validate-query, exit codes, atomicity."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re

import pytest
import yaml

from fedsum.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from fedsum.config import parse_config, read_config_data
from fedsum.metrics import exact_workload
from fedsum.query import parse_and_validate, pretty_print
from fedsum.synth import generate_corpus
from fedsum.windows import round_down_window

FULL_QUERY = """\
SELECT activity, region, direction, privacy_time_unit,
       SUM(trip_count) AS n, SUM(trip_distance) AS km, SUM(trip_duration) AS sec
FROM DeviceDataStream
GROUP BY activity, region, direction, privacy_time_unit

SELECT activity, region, direction, privacy_time_unit,
       SUM(n) AS sn, SUM(km) AS skm, SUM(sec) AS ssec
FROM UserResults
GROUP BY activity, region, direction, privacy_time_unit
"""

DIRECTION_NAMES = ("within", "outbound", "inbound")


def write_config(tmp_path, out_dir, **overrides):
    data = {
        "run": {"seed": 5, "out": str(out_dir)},
        "corpus": {"num_devices": 25, "num_regions": 3, "num_weeks": 1},
        "fleet": {"availability": "always_on"},
        "task": {"num_windows": 1, "min_contributions": 1},
        "mechanism": {"variant": "joint_clipping", "epsilon": "inf", "clip": "inf"},
    }
    for section, fields in overrides.items():
        data.setdefault(section, {}).update(fields)
    path = tmp_path / "experiment.yaml"
    path.write_text(yaml.safe_dump(data))
    return str(path)


def tree_digest(root):
    """Relative path -> sha256 of bytes, for whole-directory comparison."""
    digests = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, root)
            with open(full, "rb") as fh:
                digests[rel] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def read_release_csv(path, schema):
    cells = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert header == ["activity", "metric", "region", "direction", "value"]
        for activity, metric, region, direction, value in reader:
            key = (
                schema.activity_names.index(activity),
                schema.metric_names.index(metric),
                int(region),
                DIRECTION_NAMES.index(direction),
            )
            assert key not in cells
            cells[key] = float(value)
    return cells


# --- validate-query --------------------------------------------------------------


def test_validate_query_prints_the_canonical_form(capsys):
    assert main(["validate-query", "--query", FULL_QUERY]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == pretty_print(parse_and_validate(FULL_QUERY))
    assert "FROM DeviceDataStream" in out
    assert "FROM UserResults" in out


def test_validate_query_reads_a_file_and_emits_json(tmp_path, capsys):
    path = tmp_path / "q.sql"
    path.write_text(FULL_QUERY)
    assert main(["validate-query", "--file", str(path), "--json"]) == EXIT_OK
    out = capsys.readouterr().out
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary == {
        "client_keys": ["activity", "region", "direction", "privacy_time_unit"],
        "metrics": ["trip_count", "trip_distance", "trip_duration"],
        "server_keys": ["activity", "region", "direction", "privacy_time_unit"],
    }


def test_validate_query_rejects_bad_queries_with_the_error_class(capsys):
    bad = FULL_QUERY.replace("SUM(trip_count)", "AVG(trip_count)")
    assert main(["validate-query", "--query", bad]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("invalid query [UnsupportedAggregateError]:")


def test_validate_query_rejects_empty_text(capsys):
    assert main(["validate-query", "--query", ""]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("invalid query [ParseError]:")
    assert "line 1, column 1" in err


def test_validate_query_unreadable_file_is_a_config_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.sql")
    assert main(["validate-query", "--file", missing]) == EXIT_CONFIG
    assert "error: cannot read" in capsys.readouterr().err


# --- run --------------------------------------------------------------------------


def test_run_writes_noiseless_artifacts_matching_the_exact_sums(tmp_path, capsys):
    out = tmp_path / "out"
    config_path = write_config(tmp_path, out)
    assert main(["run", "--config", config_path]) == EXIT_OK

    stdout = capsys.readouterr().out
    match = re.search(r"^2024-W20: released \((\d+) devices uploaded\)$",
                      stdout, re.M)
    assert match, stdout
    assert f"artifacts written to {out}" in stdout

    config = parse_config(yaml.safe_load(open(config_path)))
    corpus = generate_corpus(config.corpus)
    window = round_down_window(config.corpus.start_time, config.task.alignment)
    truth = dict(exact_workload(corpus, window).items())

    released = read_release_csv(out / "releases" / "2024-W20.csv", corpus.schema)
    assert released == truth  # exact equality, no tolerance

    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["windows"] == {"2024-W20": "released"}
    assert summary["fleet_size"] == 25
    assert summary["uploads_per_window"]["2024-W20"] == int(match.group(1))
    assert summary["suppressed_partitions"] == {"2024-W20": 0}

    for name in ("events.jsonl", "eval.csv", "reach.csv", "resolved_config.yaml"):
        assert (out / name).is_file(), name
    resolved = yaml.safe_load((out / "resolved_config.yaml").read_text())
    assert resolved["resolved_mechanism"]["variant"] == "joint_clipping"
    assert resolved["resolved_mechanism"]["epsilon"] == "inf"


def test_rerunning_into_the_same_directory_is_byte_identical(tmp_path, capsys):
    out = tmp_path / "out"
    config_path = write_config(tmp_path, out)
    assert main(["run", "--config", config_path]) == EXIT_OK
    first = tree_digest(out)
    assert main(["run", "--config", config_path]) == EXIT_OK
    assert tree_digest(out) == first
    assert first  # non-empty tree
    assert not os.path.exists(str(out) + ".partial")


def test_run_refuses_to_clobber_a_foreign_directory(tmp_path, capsys):
    out = tmp_path / "precious"
    out.mkdir()
    (out / "data.txt").write_text("keep me\n")
    config_path = write_config(tmp_path, out)
    assert main(["run", "--config", config_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "refusing to overwrite" in err
    assert (out / "data.txt").read_text() == "keep me\n"
    assert not os.path.exists(str(out) + ".partial")


def test_run_rejects_backfill_tasks_before_writing_anything(tmp_path, capsys):
    out = tmp_path / "out"
    config_path = write_config(
        tmp_path, out, corpus={"start_time": 1_715_645_000}
    )
    assert main(["run", "--config", config_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "retrospective" in err
    assert not out.exists()
    assert not os.path.exists(str(out) + ".partial")


def test_run_seed_override_changes_the_data(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    config_path = write_config(tmp_path, out_a)
    assert main(["run", "--config", config_path]) == EXIT_OK
    assert main(["run", "--config", config_path, "--seed", "6",
                 "--out", str(out_b)]) == EXIT_OK
    resolved = yaml.safe_load((out_b / "resolved_config.yaml").read_text())
    assert resolved["run"]["seed"] == 6
    assert resolved["run"]["out"] == str(out_b)
    release_a = (out_a / "releases" / "2024-W20.csv").read_bytes()
    release_b = (out_b / "releases" / "2024-W20.csv").read_bytes()
    assert release_a != release_b


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "ghost.yaml")]) == EXIT_CONFIG
    assert "configuration error:" in capsys.readouterr().err


def test_unexpected_failures_exit_with_the_runtime_code(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory\n")
    out = blocker / "out"
    config_path = write_config(tmp_path, out)
    assert main(["run", "--config", config_path]) == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("error:")


# --- sweep ------------------------------------------------------------------------


def sweep_config(tmp_path, out_dir):
    return write_config(
        tmp_path,
        out_dir,
        sweep={"epsilons": ["inf", 2.0], "seeds": 2},
    )


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_sweep_writes_grid_and_summary_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    config_path = sweep_config(tmp_path, out)
    assert main(["sweep", "--config", config_path]) == EXIT_OK

    results = read_csv_rows(out / "sweep" / "results.csv")
    assert results[0] == ["variant", "epsilon", "metric", "seed",
                          "weighted_relative_error"]
    # 3 variants x 2 epsilons x 2 seeds x 3 metrics
    assert len(results) - 1 == 36
    variants = [row[0] for row in results[1:]]
    assert variants == sorted(variants, key=variants.index)  # grouped by variant
    assert set(variants) == {
        "joint_clipping", "budget_split", "activity_metric_scaling"
    }

    summary = read_csv_rows(out / "sweep" / "summary.csv")
    assert summary[0] == ["variant", "epsilon", "metric", "mean", "std"]
    assert len(summary) - 1 == 18
    seedless = {row[1] for row in summary[1:] if row[1] == "inf"}
    assert seedless == {"inf"}

    metadata = yaml.safe_load((out / "sweep" / "sweep_config.yaml").read_text())
    assert 0 < metadata["target_mean_weighted_relative_error"] < 1

    stdout = capsys.readouterr().out
    assert "mean WRE" in stdout
    assert f"artifacts written to {out / 'sweep'}" in stdout


def test_sweep_variant_filter_restricts_the_grid(tmp_path, capsys):
    out = tmp_path / "out"
    config_path = sweep_config(tmp_path, out)
    assert main(["sweep", "--config", config_path,
                 "--variants", "joint_clipping"]) == EXIT_OK
    results = read_csv_rows(out / "sweep" / "results.csv")
    assert len(results) - 1 == 12
    assert {row[0] for row in results[1:]} == {"joint_clipping"}


def test_sweep_variant_filter_keeps_every_setting_in_the_snapshot(tmp_path, capsys):
    out = tmp_path / "out"
    table = tmp_path / "table.csv"
    table.write_text(
        "activity,metric,value\n"
        + "".join(f"{a},{m},{1.0 + a + m}\n" for a in range(9) for m in range(3))
    )
    config_path = write_config(
        tmp_path,
        out,
        sweep={"epsilons": ["inf", 2.0], "seeds": 2},
        mechanism={"seed": 42, "scale_table": str(table), "clip_table": str(table)},
    )
    assert main(["sweep", "--config", config_path,
                 "--variants", "joint_clipping"]) == EXIT_OK
    written = yaml.safe_load((out / "sweep" / "sweep_config.yaml").read_text())
    written.pop("target_mean_weighted_relative_error")
    expected = parse_config(read_config_data(config_path)).snapshot()
    expected["sweep"]["variants"] = ["joint_clipping"]
    assert written == expected
    assert written["mechanism"]["seed"] == 42
    assert written["mechanism"]["scale_table"] == str(table)
    assert written["mechanism"]["clip_table"] == str(table)


def test_parallel_sweep_matches_the_serial_one(tmp_path, capsys):
    serial_out = tmp_path / "serial"
    parallel_out = tmp_path / "parallel"
    config_path = sweep_config(tmp_path, serial_out)
    assert main(["sweep", "--config", config_path, "--jobs", "1"]) == EXIT_OK
    assert main(["sweep", "--config", config_path, "--jobs", "2",
                 "--out", str(parallel_out)]) == EXIT_OK
    for name in ("results.csv", "summary.csv"):
        serial = (serial_out / "sweep" / name).read_bytes()
        parallel = (parallel_out / "sweep" / name).read_bytes()
        assert serial == parallel, name
