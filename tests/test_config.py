"""Experiment file parsing: defaults, validation, tables, round-trips."""

from __future__ import annotations

import math

import pytest
import yaml

from fedsum.config import (
    ConfigError,
    DEFAULT_QUERY_TEXT,
    load_config,
    parse_config,
    read_config_data,
)
from fedsum.dp import VARIANT_JOINT, VARIANT_SCALED, VARIANTS
from fedsum.query import parse_and_validate
from fedsum.sweep import DEFAULT_EPSILONS
from fedsum.synth import DEFAULT_START_TIME
from fedsum.windows import WindowAlignment


def full_table_csv(tmp_path, name="table.csv", rows=None, header=True):
    lines = ["activity,metric,value"] if header else []
    if rows is None:
        rows = [
            f"{a},{m},{1.0 + a + m}" for a in range(9) for m in range(3)
        ]
    lines.extend(rows)
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# --- defaults -------------------------------------------------------------------


def test_empty_input_yields_full_defaults():
    config = parse_config({})
    assert config.seed == 0
    assert config.out_dir == "out"
    assert (config.corpus.num_devices, config.corpus.num_regions) == (2000, 50)
    assert config.corpus.num_weeks == 3
    assert config.corpus.start_time == DEFAULT_START_TIME
    assert config.fleet.policy == "idle"
    assert config.fleet.availability == "tiered"
    assert config.task.query_text == DEFAULT_QUERY_TEXT
    assert config.task.alignment is WindowAlignment.WEEK
    assert config.task.min_contributions == 20
    assert config.mechanism.variant == VARIANT_SCALED
    assert config.mechanism.epsilon == 2.0
    assert config.sweep.epsilons == DEFAULT_EPSILONS
    assert config.sweep.seeds == tuple(range(10))
    assert config.sweep.variants == VARIANTS
    assert config.device_floor is None
    assert config.mechanism_seed is None
    assert parse_config(None) == config


def test_default_query_text_is_a_valid_split_query():
    spec = parse_and_validate(DEFAULT_QUERY_TEXT)
    assert set(spec.client.group_by) == {
        "activity",
        "region",
        "direction",
        "privacy_time_unit",
    }


def test_corpus_seed_follows_the_run_seed():
    assert parse_config({"run": {"seed": 7}}).corpus.seed == 7
    pinned = parse_config({"run": {"seed": 7}, "corpus": {"seed": 3}})
    assert pinned.corpus.seed == 3
    assert pinned.seed == 7


# --- strictness ------------------------------------------------------------------


def test_unknown_sections_and_keys_are_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config({"corpse": {}})
    with pytest.raises(ConfigError, match="corpus: unknown key"):
        parse_config({"corpus": {"devices": 10}})
    with pytest.raises(ConfigError, match="must be a mapping"):
        parse_config({"run": [1, 2]})


def test_scalar_types_are_enforced():
    with pytest.raises(ConfigError, match="run.seed"):
        parse_config({"run": {"seed": "zero"}})
    with pytest.raises(ConfigError, match="run.seed"):
        parse_config({"run": {"seed": True}})
    with pytest.raises(ConfigError, match="fleet.tick_seconds"):
        parse_config({"fleet": {"tick_seconds": 1.5}})
    with pytest.raises(ConfigError, match="run.out"):
        parse_config({"run": {"out": 3}})


def test_strict_tau_must_be_a_boolean():
    assert parse_config({}).mechanism.strict_tau is False
    for value in (True, False):
        config = parse_config({"mechanism": {"strict_tau": value}})
        assert config.mechanism.strict_tau is value
    for bad in ("false", "true", 0, 1, None):
        with pytest.raises(ConfigError, match="mechanism.strict_tau"):
            parse_config({"mechanism": {"strict_tau": bad}})


def test_epsilon_accepts_inf_spellings():
    assert math.isinf(
        parse_config({"mechanism": {"epsilon": "inf"}}).mechanism.epsilon
    )
    assert math.isinf(
        parse_config({"mechanism": {"epsilon": "Infinity"}}).mechanism.epsilon
    )
    for bad in ("fast", True, [1]):
        with pytest.raises(ConfigError, match="mechanism.epsilon"):
            parse_config({"mechanism": {"epsilon": bad}})


def test_invalid_bounds_are_wrapped_with_their_section():
    with pytest.raises(ConfigError, match="corpus"):
        parse_config({"corpus": {"num_devices": 0}})
    with pytest.raises(ConfigError, match="task.num_windows"):
        parse_config({"task": {"num_windows": 0}})
    with pytest.raises(ConfigError, match="mechanism"):
        parse_config({"mechanism": {"epsilon": 2.0, "clip": "inf"}})
    with pytest.raises(ConfigError, match="availability"):
        parse_config({"fleet": {"availability": "sometimes"}})
    with pytest.raises(ConfigError, match="alignment"):
        parse_config({"task": {"alignment": "fortnight"}})
    with pytest.raises(ConfigError, match="variant"):
        parse_config({"mechanism": {"variant": "bogus"}})


# --- task query sources ----------------------------------------------------------


def test_query_file_is_read_and_exclusive(tmp_path):
    path = tmp_path / "q.sql"
    path.write_text(DEFAULT_QUERY_TEXT)
    config = parse_config({"task": {"query_file": str(path)}})
    assert config.task.query_text == DEFAULT_QUERY_TEXT
    assert config.task.query_file == str(path)
    with pytest.raises(ConfigError, match="not both"):
        parse_config(
            {"task": {"query_file": str(path), "query": "SELECT 1"}}
        )
    with pytest.raises(ConfigError, match="missing.sql"):
        parse_config({"task": {"query_file": str(tmp_path / "missing.sql")}})


# --- mechanism tables ---------------------------------------------------------------


def test_scale_table_csv_loads_fully(tmp_path):
    path = full_table_csv(tmp_path)
    config = parse_config(
        {"mechanism": {"variant": VARIANT_SCALED, "scale_table": path}}
    )
    assert config.mechanism.scale_table is not None
    assert config.mechanism.scale_table.get(2, 1) == 4.0
    assert config.scale_table_path == path


def test_headerless_table_csv_loads(tmp_path):
    path = full_table_csv(tmp_path, header=False)
    config = parse_config(
        {"mechanism": {"variant": VARIANT_SCALED, "scale_table": path}}
    )
    assert config.mechanism.scale_table.get(0, 0) == 1.0


@pytest.mark.parametrize(
    "mutate,match",
    [
        (lambda rows: rows + ["0,0,9.9"], "duplicate"),
        (lambda rows: rows[:-1], "missing"),
        (lambda rows: rows[:-1] + ["8,3,1.0"], "outside"),
        (lambda rows: rows[:-1] + ["8,2"], "expected"),
        (lambda rows: rows[:-1] + ["8,2,much"], "line 28"),
        (lambda rows: rows[:-1] + ["8,2,0.0"], "positive"),
    ],
)
def test_bad_table_csvs_name_the_file_and_line(tmp_path, mutate, match):
    rows = [f"{a},{m},{1.0 + a + m}" for a in range(9) for m in range(3)]
    path = full_table_csv(tmp_path, rows=mutate(rows))
    with pytest.raises(ConfigError, match=match) as excinfo:
        parse_config({"mechanism": {"scale_table": path}})
    assert path in str(excinfo.value)


def test_unreadable_table_path_is_reported(tmp_path):
    path = str(tmp_path / "nope.csv")
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config({"mechanism": {"clip_table": path}})


def test_budget_weights_parse_as_nested_lists():
    weights = [[1.0 / 27.0] * 3 for _ in range(9)]
    config = parse_config(
        {"mechanism": {"variant": "budget_split", "budget_weights": weights}}
    )
    assert config.mechanism.budget_weights == tuple(
        tuple(row) for row in weights
    )
    with pytest.raises(ConfigError, match="nested list"):
        parse_config(
            {"mechanism": {"variant": "budget_split", "budget_weights": [0.5]}}
        )


def test_mechanism_seed_is_separate_from_the_run_seed():
    config = parse_config({"run": {"seed": 4}, "mechanism": {"seed": 9}})
    assert config.seed == 4
    assert config.mechanism_seed == 9
    with pytest.raises(ConfigError, match="mechanism.seed"):
        parse_config({"mechanism": {"seed": "nine"}})


# --- sweep section ---------------------------------------------------------------------


def test_sweep_seed_count_expands_to_a_range():
    config = parse_config({"sweep": {"seeds": 5}})
    assert config.sweep.seeds == (0, 1, 2, 3, 4)
    explicit = parse_config({"sweep": {"seeds": [3, 1]}})
    assert explicit.sweep.seeds == (3, 1)
    for bad in (True, [1, True], ["x"], "many"):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config({"sweep": {"seeds": bad}})


def test_sweep_epsilons_accept_inf_and_reject_junk():
    config = parse_config({"sweep": {"epsilons": ["inf", 2.0]}})
    assert config.sweep.epsilons == (math.inf, 2.0)
    with pytest.raises(ConfigError, match="epsilons"):
        parse_config({"sweep": {"epsilons": []}})
    with pytest.raises(ConfigError, match="sweep"):
        parse_config({"sweep": {"epsilons": [0.0]}})
    with pytest.raises(ConfigError, match="sweep"):
        parse_config({"sweep": {"variants": ["bogus"]}})


def test_eval_floor_must_be_an_integer():
    assert parse_config({"eval": {"device_floor": 40}}).device_floor == 40
    with pytest.raises(ConfigError, match="eval.device_floor"):
        parse_config({"eval": {"device_floor": 1.5}})


# --- snapshots and files ------------------------------------------------------------------


def test_snapshot_round_trips_through_the_parser(tmp_path):
    original = parse_config(
        {
            "run": {"seed": 11, "out": str(tmp_path / "artifacts")},
            "corpus": {"num_devices": 50, "num_regions": 4, "num_weeks": 1},
            "fleet": {"availability": "always_on", "policy": "idle_wifi_charging"},
            "task": {"num_windows": 1, "min_contributions": 5},
            "mechanism": {
                "variant": VARIANT_JOINT,
                "epsilon": "inf",
                "clip": "inf",
                "seed": 3,
            },
            "sweep": {"epsilons": ["inf", 1.0], "seeds": 2},
            "eval": {"device_floor": 25},
        }
    )
    snapshot = original.snapshot()
    yaml.safe_dump(snapshot)  # plain data only
    assert parse_config(snapshot) == original
    assert snapshot["mechanism"]["epsilon"] == "inf"
    assert snapshot["sweep"]["epsilons"] == ["inf", 1.0]


def test_config_files_load_and_fail_loudly(tmp_path):
    good = tmp_path / "exp.yaml"
    good.write_text("run:\n  seed: 2\n")
    assert load_config(str(good)).seed == 2
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    assert read_config_data(str(empty)) == {}
    with pytest.raises(ConfigError, match="cannot read config"):
        read_config_data(str(tmp_path / "missing.yaml"))
    bad_yaml = tmp_path / "bad.yaml"
    bad_yaml.write_text("run: [unclosed\n")
    with pytest.raises(ConfigError, match="invalid YAML"):
        read_config_data(str(bad_yaml))
    listy = tmp_path / "list.yaml"
    listy.write_text("- a\n- b\n")
    with pytest.raises(ConfigError, match="mapping"):
        read_config_data(str(listy))
