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

from blocks import sparse_of

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
    """An experiment file; ``overrides`` update sections, and None drops a key."""
    data = {
        "run": {"seed": 5, "out": str(out_dir)},
        "corpus": {"num_devices": 25, "num_regions": 3, "num_weeks": 1},
        "fleet": {"availability": "always_on"},
        "task": {"num_windows": 1, "min_contributions": 1},
        "mechanism": {"variant": "joint_clipping", "epsilon": "inf", "clip": "inf"},
    }
    for section, fields in overrides.items():
        merged = {**data.get(section, {}), **fields}
        data[section] = {k: v for k, v in merged.items() if v is not None}
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


# Queries the parser accepts that no release can honour: grouped by fewer
# than the release keys (rows of two partitions would share a key), or
# summing a client column twice.
UNRELEASABLE_QUERIES = {
    "sub_key": """\
SELECT region, privacy_time_unit, SUM(trip_distance) AS user_trip_distance
FROM DeviceDataStream GROUP BY region, privacy_time_unit

SELECT region, privacy_time_unit, SUM(user_trip_distance)
FROM UserResults GROUP BY region, privacy_time_unit;
""",
    "repeated_sum": FULL_QUERY.replace("SUM(n) AS sn,", "SUM(n) AS sn, SUM(n) AS sn2,"),
}


@pytest.mark.parametrize("case", sorted(UNRELEASABLE_QUERIES))
def test_validate_query_refuses_what_run_cannot_release(capsys, case):
    assert main(["validate-query", "--query", UNRELEASABLE_QUERIES[case]]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("invalid query [QueryValidationError]: release pipeline requires")


@pytest.mark.parametrize("case", sorted(UNRELEASABLE_QUERIES))
def test_run_refuses_an_unreleasable_query_before_any_work(
    tmp_path, capsys, monkeypatch, case
):
    def no_corpus(*args, **kwargs):
        raise AssertionError("generate_corpus ran on a bad query")

    monkeypatch.setattr("fedsum.cli.generate_corpus", no_corpus)
    out = tmp_path / "out"
    config_path = write_config(tmp_path, out, task={"query": UNRELEASABLE_QUERIES[case]})
    assert main(["run", "--config", config_path]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("invalid query [QueryValidationError]: release pipeline requires")
    assert not out.exists()


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
    truth = sparse_of(exact_workload(corpus, corpus.device_histograms(window)))

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


@pytest.mark.parametrize(
    "command, alignment",
    [("run", "week"), ("run", "day"), ("sweep", "week")],
)
def test_a_start_off_the_window_grid_fails_before_any_work(
    tmp_path, capsys, monkeypatch, command, alignment
):
    def no_corpus(*args, **kwargs):
        raise AssertionError("generate_corpus ran on a bad config")

    monkeypatch.setattr("fedsum.cli.generate_corpus", no_corpus)
    out = tmp_path / "out"
    # Noon on Monday 2024-05-13: inside a week and a day, on neither's boundary.
    config_path = write_config(
        tmp_path,
        out,
        corpus={"num_devices": 30, "start_time": 1_715_601_600},
        task={"alignment": alignment},
    )
    if command == "sweep":
        data = yaml.safe_load(open(config_path))
        del data["mechanism"]
        with open(config_path, "w") as fh:
            yaml.safe_dump(data, fh)
    assert main([command, "--config", config_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: corpus.start_time 1715601600")
    assert f"({alignment}) boundary" in err and "retrospective" in err
    assert not out.exists()


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


def table_csv(tmp_path, last="9.0"):
    """A 9x3 table CSV whose last cell holds ``last``."""
    path = tmp_path / f"table-{last}.csv"
    cells = [f"{a},{m},{1.0 + a + m}" for a in range(9) for m in range(3)]
    path.write_text("\n".join(cells[:-1] + [f"8,2,{last}"]) + "\n")
    return str(path)


BAD_RUN_CONFIGS = {
    "scale_table_inf": (
        {"variant": "activity_metric_scaling", "epsilon": 2.0, "clip": None,
         "scale_table": "inf"},
        [],
    ),
    "clip_table_inf": (
        {"variant": "budget_split", "epsilon": 2.0, "clip": None,
         "clip_table": "inf"},
        [],
    ),
    "joint_scale_table": ({"scale_table": "9.0"}, []),
    "split_clip": ({"variant": "budget_split", "epsilon": 2.0, "clip": 5.0}, []),
    "joint_budget_weights": ({"budget_weights": [[1 / 27] * 3] * 9}, []),
    "split_1x1_budget_weights": (
        {"variant": "budget_split", "epsilon": 2.0, "clip": None,
         "budget_weights": [[1.0]]},
        [],
    ),
    "mechanism_seed": ({"seed": 2**63}, []),
    "seed_too_large": ({}, ["--seed", str(2**63)]),
    "seed_negative": ({}, ["--seed", "-5"]),
}


@pytest.mark.parametrize("case", sorted(BAD_RUN_CONFIGS))
def test_bad_mechanisms_and_seeds_fail_before_any_work(
    tmp_path, capsys, monkeypatch, case
):
    def no_corpus(*args, **kwargs):
        raise AssertionError("generate_corpus ran on a bad config")

    monkeypatch.setattr("fedsum.cli.generate_corpus", no_corpus)
    mechanism, argv = BAD_RUN_CONFIGS[case]
    for key in ("scale_table", "clip_table"):
        if key in mechanism:
            mechanism = {**mechanism, key: table_csv(tmp_path, mechanism[key])}
    out = tmp_path / "out"
    config_path = write_config(tmp_path, out, mechanism=mechanism)
    assert main(["run", "--config", config_path, *argv]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not out.exists()


# --- sweep ------------------------------------------------------------------------


def sweep_config(tmp_path, out_dir, sweep=None, mechanism=None):
    """A sweep experiment without ``write_config``'s mechanism section.

    The sweep reads only its own section and refuses any mechanism key;
    ``mechanism`` writes a section holding exactly the keys given.
    """
    path = tmp_path / "experiment.yaml"
    write_config(tmp_path, out_dir)
    data = yaml.safe_load(path.read_text())
    data["sweep"] = sweep or {"epsilons": ["inf", 2.0], "seeds": 2}
    if mechanism is None:
        del data["mechanism"]
    else:
        data["mechanism"] = mechanism
    path.write_text(yaml.safe_dump(data))
    return str(path)


@pytest.mark.parametrize(
    "setting",
    [{"quantile": 1.5}, {"quantile": 0.0}, {"tau": -1.0}],
    ids=["quantile_above_one", "quantile_zero", "tau_negative"],
)
def test_bad_sweep_settings_fail_before_any_work(
    tmp_path, capsys, monkeypatch, setting
):
    def no_corpus(*args, **kwargs):
        raise AssertionError("generate_corpus ran on a bad config")

    monkeypatch.setattr("fedsum.cli.generate_corpus", no_corpus)
    out = tmp_path / "out"
    config_path = sweep_config(
        tmp_path, out, sweep={"epsilons": [2.0], "seeds": 1, **setting}
    )
    assert main(["sweep", "--config", config_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: sweep:")
    assert next(iter(setting)) in err
    assert not out.exists()


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


@pytest.mark.parametrize("variants", ["bogus", ",", "joint_clipping,bogus"])
def test_a_bad_variant_filter_fails_before_any_work(
    tmp_path, capsys, monkeypatch, variants
):
    def no_corpus(*args, **kwargs):
        raise AssertionError("generate_corpus ran on a bad config")

    monkeypatch.setattr("fedsum.cli.generate_corpus", no_corpus)
    out = tmp_path / "out"
    config_path = sweep_config(tmp_path, out)
    assert main(["sweep", "--config", config_path, "--variants", variants]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: sweep:")
    assert not out.exists()


def test_sweep_variant_filter_keeps_every_setting_in_the_snapshot(tmp_path, capsys):
    # The snapshot records every setting the sweep reads, with the
    # variant filter applied, and no mechanism section: the sweep reads
    # none.
    out = tmp_path / "out"
    config_path = sweep_config(
        tmp_path,
        out,
        sweep={"epsilons": ["inf", 2.0], "seeds": 2, "quantile": 0.9, "tau": 0.5},
    )
    assert main(["sweep", "--config", config_path,
                 "--variants", "joint_clipping"]) == EXIT_OK
    written = yaml.safe_load((out / "sweep" / "sweep_config.yaml").read_text())
    written.pop("target_mean_weighted_relative_error")
    expected = parse_config(read_config_data(config_path)).snapshot()
    del expected["mechanism"]
    expected["sweep"]["variants"] = ["joint_clipping"]
    assert written == expected
    assert "mechanism" not in written
    assert written["sweep"]["quantile"] == 0.9
    assert written["sweep"]["tau"] == 0.5


SWEEP_IGNORED_SETTINGS = {
    "clip": 5.0,
    "budget_weights": [[1 / 27] * 3] * 9,
    "variant": "joint_clipping",
    "epsilon": 2.0,
    "quantile": 0.9,
    "tau": 0.5,
    "strict_tau": True,
    "seed": 42,
}


@pytest.mark.parametrize(
    "key",
    ["scale_table", "clip_table", "clip", "budget_weights",
     "variant", "epsilon", "quantile", "tau", "strict_tau", "seed"],
)
def test_sweep_rejects_the_tables_it_would_not_use(tmp_path, capsys, key):
    out = tmp_path / "out"
    table = tmp_path / "table.csv"
    table.write_text(
        "activity,metric,value\n"
        + "".join(f"{a},{m},{1.0 + a + m}\n" for a in range(9) for m in range(3))
    )
    value = SWEEP_IGNORED_SETTINGS.get(key, str(table))
    config_path = sweep_config(
        tmp_path,
        out,
        sweep={"epsilons": [2.0], "seeds": 1},
        mechanism={key: value},
    )
    assert main(["sweep", "--config", config_path]) == EXIT_CONFIG
    assert f"mechanism.{key}" in capsys.readouterr().err
    assert not out.exists()
