"""Experiment file parsing: defaults, validation, tables, round-trips."""

from __future__ import annotations

import math
import re
from pathlib import Path

import pytest
import yaml

from fedsum.config import (
    _KEYS,
    ConfigError,
    DEFAULT_QUERY_TEXT,
    ExperimentConfig,
    load_config,
    parse_config,
    read_config_data,
)
from fedsum.dp import VARIANT_JOINT, VARIANT_SCALED, VARIANT_SPLIT, VARIANTS
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
    assert config.mechanism_seed is None
    assert parse_config(None) == config
    assert config == ExperimentConfig()


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
    # YAML keys need not be strings; a mix of types is still reported.
    with pytest.raises(ConfigError, match=r"unknown section\(s\) \[1, 'a'\]"):
        parse_config({1: {}, "a": {}})
    with pytest.raises(ConfigError, match=r"run: unknown key\(s\) \[1, 'a'\]"):
        parse_config({"run": {1: 2, "a": 3}})
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
    with pytest.raises(ConfigError, match="fleet: unknown check-in policy"):
        parse_config({"fleet": {"policy": "idle_or_wifi"}})
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
    assert config.mechanism.scale_table[2][1] == 4.0
    assert config.scale_table_path == path


def test_headerless_table_csv_loads(tmp_path):
    path = full_table_csv(tmp_path, header=False)
    config = parse_config(
        {"mechanism": {"variant": VARIANT_SCALED, "scale_table": path}}
    )
    assert config.mechanism.scale_table[0][0] == 1.0


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


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "-1.0"])
@pytest.mark.parametrize(
    "variant,key", [(VARIANT_SCALED, "scale_table"), (VARIANT_SPLIT, "clip_table")]
)
def test_table_entries_must_be_finite_and_positive(tmp_path, variant, key, value):
    rows = [f"{a},{m},{1.0 + a + m}" for a in range(9) for m in range(3)]
    path = full_table_csv(tmp_path, rows=rows[:-1] + [f"8,2,{value}"])
    with pytest.raises(ConfigError, match="finite and positive") as excinfo:
        parse_config({"mechanism": {"variant": variant, key: path}})
    assert path in str(excinfo.value)


def test_parameters_of_another_variant_are_refused(tmp_path):
    path = full_table_csv(tmp_path)
    weights = [[1.0 / 27.0] * 3 for _ in range(9)]
    for mechanism in (
        {"variant": VARIANT_JOINT, "scale_table": path},
        {"variant": VARIANT_JOINT, "clip_table": path},
        {"variant": VARIANT_JOINT, "budget_weights": weights},
        {"variant": VARIANT_SPLIT, "clip": 5.0},
        {"variant": VARIANT_SPLIT, "scale_table": path},
        {"variant": VARIANT_SCALED, "clip_table": path},
    ):
        with pytest.raises(ConfigError, match="applies only to"):
            parse_config({"mechanism": mechanism})


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
    for bad, match in (
        ([[1.0]], "9x3"),
        (weights[:-1], "9x3"),
        ([row[:2] for row in weights], "9x3"),
        (weights[:-1] + [[1.0 / 27.0] * 2], "rectangular"),
        ([], "rectangular"),
        (weights[:-1] + [[1.0 / 27.0, 1.0 / 27.0, "inf"]], "finite and positive"),
        ([[1.0 / 9.0] * 3 for _ in range(9)], "sum to 1"),
    ):
        with pytest.raises(ConfigError, match=match):
            parse_config(
                {"mechanism": {"variant": "budget_split", "budget_weights": bad}}
            )


def test_mechanism_seed_is_separate_from_the_run_seed():
    config = parse_config({"run": {"seed": 4}, "mechanism": {"seed": 9}})
    assert config.seed == 4
    assert config.mechanism_seed == 9
    with pytest.raises(ConfigError, match="mechanism.seed"):
        parse_config({"mechanism": {"seed": "nine"}})


SEED_LIMIT = 2**63


@pytest.mark.parametrize(
    "data,where",
    [
        ({"run": {"seed": -5}}, "run.seed"),
        ({"run": {"seed": SEED_LIMIT}}, "run.seed"),
        ({"run": {"seed": 1}, "corpus": {"seed": -1}}, "corpus.seed"),
        ({"corpus": {"seed": SEED_LIMIT}}, "corpus.seed"),
        ({"mechanism": {"seed": SEED_LIMIT}}, "mechanism.seed"),
        ({"mechanism": {"seed": -SEED_LIMIT - 1}}, "mechanism.seed"),
        ({"sweep": {"seeds": [0, SEED_LIMIT]}}, "sweep.seeds"),
        ({"sweep": {"seeds": [-SEED_LIMIT - 1]}}, "sweep.seeds"),
    ],
)
def test_seeds_out_of_range_are_refused(data, where):
    with pytest.raises(ConfigError, match=where):
        parse_config(data)


def test_seeds_at_the_range_ends_are_accepted():
    config = parse_config(
        {
            "run": {"seed": SEED_LIMIT - 1},
            "corpus": {"seed": 0},
            "mechanism": {"seed": -SEED_LIMIT},
            "sweep": {"seeds": [-SEED_LIMIT, SEED_LIMIT - 1]},
        }
    )
    assert config.seed == SEED_LIMIT - 1
    assert parse_config({"run": {"seed": SEED_LIMIT - 1}}).corpus.seed == (
        SEED_LIMIT - 1
    )
    assert config.mechanism_seed == -SEED_LIMIT
    assert config.sweep.seeds == (-SEED_LIMIT, SEED_LIMIT - 1)


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


def test_the_eval_section_is_gone():
    # The error's device floor always follows the fleet size
    # (metrics.default_device_floor); a configured floor would be ignored.
    with pytest.raises(ConfigError, match=r"unknown section\(s\) \['eval'\]"):
        parse_config({"eval": {"device_floor": 40}})
    assert "eval" not in parse_config({}).snapshot()


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
        }
    )
    snapshot = original.snapshot()
    yaml.safe_dump(snapshot)  # plain data only
    assert parse_config(snapshot) == original
    assert snapshot["mechanism"]["epsilon"] == "inf"
    assert snapshot["sweep"]["epsilons"] == ["inf", 1.0]


def every_key(tmp_path, variant):
    """An experiment file setting every key ``variant`` accepts.

    Budget split takes the query from a file and both of its tables;
    scaling takes the inline query, infinite budgets and its scale table.
    Between them the two files set every key of the key table.
    """
    query_file = tmp_path / "query.sql"
    query_file.write_text(DEFAULT_QUERY_TEXT.replace("total_trips", "trips"))
    weights = [[1.0 / 27.0] * 3 for _ in range(9)]
    split = {
        "variant": VARIANT_SPLIT,
        "epsilon": 1.5,
        "clip_table": full_table_csv(tmp_path, "clip.csv"),
        "budget_weights": weights,
    }
    scaled = {
        "variant": VARIANT_SCALED,
        "epsilon": "inf",
        "clip": "inf",
        "scale_table": full_table_csv(tmp_path, "scale.csv"),
    }
    return {
        "run": {"seed": 11, "out": str(tmp_path / "artifacts")},
        "corpus": {
            "num_devices": 50,
            "num_regions": 4,
            "num_weeks": 1,
            "start_time": DEFAULT_START_TIME + 7 * 86400,
            "seed": 12,
        },
        "fleet": {
            "policy": "idle_wifi_charging",
            "availability": "always_on",
            "tick_seconds": 600,
            "cache_ttl": 86400,
        },
        "task": {
            "query_id": "every-key",
            "alignment": "day",
            "num_windows": 3,
            "grace_period": 3600,
            "min_contributions": 4,
            "submitted_by": "a@example.org",
            "approved_by": "b@example.org",
            **(
                {"query_file": str(query_file)}
                if variant == VARIANT_SPLIT
                else {"query": query_file.read_text()}
            ),
        },
        "mechanism": {
            **(split if variant == VARIANT_SPLIT else scaled),
            "quantile": 0.9,
            "tau": 0.5,
            "strict_tau": True,
            "seed": -7,
        },
        "sweep": {
            "epsilons": ["inf", 0.5],
            "seeds": [3, -(2**63)],
            "variants": [VARIANT_JOINT],
            "quantile": 0.8,
            "tau": 0.25,
        },
    }


@pytest.mark.parametrize("variant", [VARIANT_SPLIT, VARIANT_SCALED])
def test_a_snapshot_of_every_key_parses_back_to_the_same_config(tmp_path, variant):
    data = every_key(tmp_path, variant)
    config = parse_config(data)
    snapshot = config.snapshot()
    assert {s: set(keys) for s, keys in snapshot.items()} == {
        s: set(keys) for s, keys in data.items()
    }
    assert yaml.safe_load(yaml.safe_dump(snapshot)) == snapshot  # plain data only
    assert parse_config(snapshot) == config


def test_the_two_every_key_files_set_every_key(tmp_path):
    set_keys = {
        (section, key)
        for variant in (VARIANT_SPLIT, VARIANT_SCALED)
        for section, keys in every_key(tmp_path, variant).items()
        for key in keys
    }
    assert set_keys == {(s, k) for s, keys in _KEYS.items() for k in keys}


def readme_config_keys() -> set[tuple[str, str]]:
    """The (section, key) pairs of the README's config-file table."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    table = text.split("## The config file", 1)[1].split("\n\n|", 1)[1]
    pairs, section = set(), None
    for line in ("|" + table).split("\n\n", 1)[0].splitlines()[2:]:
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        section = cells[0].strip("`") or section
        key = re.fullmatch(r"`(\w+)`", cells[1])
        assert key is not None, f"one key per README row: {line}"
        pairs.add((section, key.group(1)))
    return pairs


def test_the_readme_names_exactly_the_accepted_keys():
    assert readme_config_keys() == {(s, k) for s, keys in _KEYS.items() for k in keys}


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
