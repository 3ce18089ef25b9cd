"""Experiment configuration: a YAML file describing one full run.

The file is a mapping of sections — ``run``, ``corpus``, ``fleet``,
``task``, ``mechanism``, ``sweep``, ``eval`` — all optional, each with
typed keys and safe defaults.  Unknown sections or keys are hard errors
so typos can't silently fall back to defaults.  ``load_config`` returns
an :class:`ExperimentConfig` whose pieces plug straight into the corpus
generator, the fleet driver, and the mechanism resolver.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Any

import yaml

from .dp import MechanismConfig, VARIANT_SCALED, VARIANTS
from .model import ScaleTable
from .sim import FleetConfig
from .sweep import DEFAULT_EPSILONS, SweepConfig
from .synth import DEFAULT_START_TIME, SyntheticCorpusConfig
from .windows import WindowAlignment

__all__ = [
    "ConfigError",
    "DEFAULT_QUERY_TEXT",
    "ExperimentConfig",
    "TaskSection",
    "load_config",
    "parse_config",
    "read_config_data",
]


class ConfigError(ValueError):
    """Invalid or malformed experiment configuration."""


DEFAULT_QUERY_TEXT = """\
SELECT activity, region, direction, privacy_time_unit,
       SUM(trip_count) AS total_trips,
       SUM(trip_distance) AS total_distance,
       SUM(trip_duration) AS total_duration
FROM DeviceDataStream
GROUP BY activity, region, direction, privacy_time_unit

SELECT activity, region, direction, privacy_time_unit,
       SUM(total_trips) AS sum_trips,
       SUM(total_distance) AS sum_distance,
       SUM(total_duration) AS sum_duration
FROM UserResults
GROUP BY activity, region, direction, privacy_time_unit
"""


@dataclass(frozen=True)
class TaskSection:
    query_id: str = "trips-weekly"
    query_text: str = DEFAULT_QUERY_TEXT
    query_file: str | None = None
    alignment: WindowAlignment = WindowAlignment.WEEK
    num_windows: int = 2
    grace_period: int = 2 * 86400
    min_contributions: int = 20
    submitted_by: str = "analyst@example.org"
    approved_by: str = "reviewer@example.org"

    def __post_init__(self) -> None:
        if self.num_windows < 1:
            raise ConfigError("task.num_windows must be at least 1")
        if self.grace_period < 0:
            raise ConfigError("task.grace_period must be non-negative")
        if self.min_contributions < 0:
            raise ConfigError("task.min_contributions must be non-negative")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    out_dir: str = "out"
    corpus: SyntheticCorpusConfig = field(default_factory=SyntheticCorpusConfig)
    fleet: FleetConfig = field(default_factory=FleetConfig)
    task: TaskSection = field(default_factory=TaskSection)
    mechanism: MechanismConfig = field(
        default_factory=lambda: MechanismConfig(
            variant=VARIANT_SCALED, epsilon=2.0
        )
    )
    mechanism_seed: int | None = None
    scale_table_path: str | None = None
    clip_table_path: str | None = None
    sweep: SweepConfig = field(default_factory=SweepConfig)
    device_floor: int | None = None

    def snapshot(self) -> dict:
        """A YAML-dumpable view of every effective setting.

        Feeding this mapping back through :func:`parse_config` (file
        paths permitting) reproduces the same configuration.
        """
        eps = self.mechanism.epsilon
        clip = self.mechanism.clip
        task: dict = {
            "query_id": self.task.query_id,
            "alignment": self.task.alignment.value,
            "num_windows": self.task.num_windows,
            "grace_period": self.task.grace_period,
            "min_contributions": self.task.min_contributions,
            "submitted_by": self.task.submitted_by,
            "approved_by": self.task.approved_by,
        }
        if self.task.query_file is not None:
            task["query_file"] = self.task.query_file
        else:
            task["query"] = self.task.query_text
        mechanism: dict = {
            "variant": self.mechanism.variant,
            "epsilon": "inf" if math.isinf(eps) else eps,
            "quantile": self.mechanism.quantile,
            "tau": self.mechanism.tau,
            "strict_tau": self.mechanism.strict_tau,
        }
        if clip is not None:
            mechanism["clip"] = "inf" if math.isinf(clip) else clip
        if self.scale_table_path is not None:
            mechanism["scale_table"] = self.scale_table_path
        if self.clip_table_path is not None:
            mechanism["clip_table"] = self.clip_table_path
        if self.mechanism.budget_weights is not None:
            mechanism["budget_weights"] = [
                list(row) for row in self.mechanism.budget_weights
            ]
        if self.mechanism_seed is not None:
            mechanism["seed"] = self.mechanism_seed
        return {
            "run": {"seed": self.seed, "out": self.out_dir},
            "corpus": {
                "num_devices": self.corpus.num_devices,
                "num_regions": self.corpus.num_regions,
                "num_weeks": self.corpus.num_weeks,
                "start_time": self.corpus.start_time,
                "seed": self.corpus.seed,
            },
            "fleet": {
                "policy": self.fleet.policy,
                "availability": self.fleet.availability,
                "tick_seconds": self.fleet.tick_seconds,
                "cache_ttl": self.fleet.cache_ttl,
            },
            "task": task,
            "mechanism": mechanism,
            "sweep": {
                "epsilons": [
                    "inf" if math.isinf(e) else e for e in self.sweep.epsilons
                ],
                "seeds": list(self.sweep.seeds),
                "variants": list(self.sweep.variants),
                "quantile": self.sweep.quantile,
                "tau": self.sweep.tau,
            },
            "eval": {"device_floor": self.device_floor},
        }


_SECTIONS = {"run", "corpus", "fleet", "task", "mechanism", "sweep", "eval"}
_KEYS = {
    "run": {"seed", "out"},
    "corpus": {"num_devices", "num_regions", "num_weeks", "start_time", "seed"},
    "fleet": {"policy", "availability", "tick_seconds", "cache_ttl"},
    "task": {
        "query_id",
        "query",
        "query_file",
        "alignment",
        "num_windows",
        "grace_period",
        "min_contributions",
        "submitted_by",
        "approved_by",
    },
    "mechanism": {
        "variant",
        "epsilon",
        "quantile",
        "clip",
        "clip_table",
        "scale_table",
        "budget_weights",
        "tau",
        "strict_tau",
        "seed",
    },
    "sweep": {"epsilons", "seeds", "variants", "quantile", "tau"},
    "eval": {"device_floor"},
}


def _section(data: dict, name: str) -> dict:
    raw = data.get(name) or {}
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    unknown = set(raw) - _KEYS[name]
    if unknown:
        raise ConfigError(f"{name}: unknown key(s) {sorted(unknown)}")
    return raw


def _require(value: Any, kind: type, where: str) -> Any:
    # bool is an int subclass; reject it where a number is expected.
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{where}: expected {kind.__name__}, got {value!r}")
    return value


def _int(section: dict, key: str, default: int, where: str) -> int:
    if key not in section:
        return default
    return _require(section[key], int, f"{where}.{key}")


def _float(section: dict, key: str, default: float, where: str) -> float:
    if key not in section:
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key}: expected number, got {value!r}")
    return float(value)


def _bool(section: dict, key: str, default: bool, where: str) -> bool:
    if key not in section:
        return default
    value = section[key]
    if not isinstance(value, bool):
        raise ConfigError(f"{where}.{key}: expected true or false, got {value!r}")
    return value


def _str(section: dict, key: str, default: str, where: str) -> str:
    if key not in section:
        return default
    return _require(section[key], str, f"{where}.{key}")


def _epsilon(value: Any, where: str) -> float:
    if isinstance(value, str):
        if value.strip().lower() in {"inf", "infinity"}:
            return math.inf
        raise ConfigError(f"{where}: expected a number or 'inf', got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number or 'inf', got {value!r}")
    return float(value)


def _load_table_csv(path: str, what: str, shape: tuple[int, int]) -> ScaleTable:
    """Read a per-(activity, metric) table from a CSV of a,m,value rows.

    A header row is permitted.  Every cell of the ``shape`` domain must
    appear exactly once.
    """
    num_activities, num_metrics = shape
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = list(csv.reader(fh))
    except OSError as exc:
        raise ConfigError(f"{what}: cannot read file {path!r}: {exc}") from exc
    values = [[None] * num_metrics for _ in range(num_activities)]
    for lineno, row in enumerate(reader, start=1):
        if not row or (lineno == 1 and not row[0].strip().lstrip("-").isdigit()):
            continue  # blank line or header
        if len(row) != 3:
            raise ConfigError(
                f"{what}: {path!r} line {lineno}: expected 'a,m,value'"
            )
        try:
            a, m, value = int(row[0]), int(row[1]), float(row[2])
        except ValueError as exc:
            raise ConfigError(
                f"{what}: {path!r} line {lineno}: {exc}"
            ) from exc
        if not 0 <= a < num_activities or not 0 <= m < num_metrics:
            raise ConfigError(
                f"{what}: {path!r} line {lineno}: index ({a}, {m}) outside "
                f"{num_activities}x{num_metrics}"
            )
        if values[a][m] is not None:
            raise ConfigError(
                f"{what}: {path!r} line {lineno}: duplicate cell ({a}, {m})"
            )
        values[a][m] = value
    missing = [
        (a, m)
        for a in range(num_activities)
        for m in range(num_metrics)
        if values[a][m] is None
    ]
    if missing:
        raise ConfigError(
            f"{what}: {path!r} is missing cell(s) {missing[:5]}"
            + ("…" if len(missing) > 5 else "")
        )
    try:
        return ScaleTable(values)
    except ValueError as exc:
        raise ConfigError(f"{what}: {path!r}: {exc}") from exc


def parse_config(data: dict | None) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a parsed YAML mapping."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    unknown = set(data) - _SECTIONS
    if unknown:
        raise ConfigError(f"unknown section(s) {sorted(unknown)}")

    run = _section(data, "run")
    seed = _int(run, "seed", 0, "run")
    out_dir = _str(run, "out", "out", "run")

    corpus_raw = _section(data, "corpus")
    try:
        corpus = SyntheticCorpusConfig(
            num_devices=_int(corpus_raw, "num_devices", 2000, "corpus"),
            num_regions=_int(corpus_raw, "num_regions", 50, "corpus"),
            num_weeks=_int(corpus_raw, "num_weeks", 3, "corpus"),
            start_time=_int(corpus_raw, "start_time", DEFAULT_START_TIME, "corpus"),
            seed=_int(corpus_raw, "seed", seed, "corpus"),
        )
    except ValueError as exc:
        raise ConfigError(f"corpus: {exc}") from exc

    fleet_raw = _section(data, "fleet")
    policy = _str(fleet_raw, "policy", "idle", "fleet")
    availability = _str(fleet_raw, "availability", "tiered", "fleet")
    if availability not in {"tiered", "always_on"}:
        raise ConfigError(
            f"fleet.availability must be 'tiered' or 'always_on', got {availability!r}"
        )
    try:
        fleet = FleetConfig(
            policy=policy,
            availability=availability,
            tick_seconds=_int(fleet_raw, "tick_seconds", 3600, "fleet"),
            cache_ttl=_int(fleet_raw, "cache_ttl", 28 * 86400, "fleet"),
        )
    except ValueError as exc:
        raise ConfigError(f"fleet: {exc}") from exc

    task_raw = _section(data, "task")
    alignment_name = _str(
        task_raw, "alignment", WindowAlignment.WEEK.value, "task"
    )
    try:
        alignment = WindowAlignment.parse(alignment_name)
    except ValueError as exc:
        raise ConfigError(f"task.alignment: {exc}") from exc
    query_file = task_raw.get("query_file")
    if query_file is not None:
        query_file = _require(query_file, str, "task.query_file")
        if "query" in task_raw:
            raise ConfigError("task: give either 'query' or 'query_file', not both")
        try:
            with open(query_file, "r", encoding="utf-8") as fh:
                query_text = fh.read()
        except OSError as exc:
            raise ConfigError(
                f"task.query_file: cannot read {query_file!r}: {exc}"
            ) from exc
    else:
        query_text = _str(task_raw, "query", DEFAULT_QUERY_TEXT, "task")
    task = TaskSection(
        query_id=_str(task_raw, "query_id", "trips-weekly", "task"),
        query_text=query_text,
        query_file=query_file,
        alignment=alignment,
        num_windows=_int(task_raw, "num_windows", 2, "task"),
        grace_period=_int(task_raw, "grace_period", 2 * 86400, "task"),
        min_contributions=_int(task_raw, "min_contributions", 20, "task"),
        submitted_by=_str(task_raw, "submitted_by", "analyst@example.org", "task"),
        approved_by=_str(task_raw, "approved_by", "reviewer@example.org", "task"),
    )

    mech_raw = _section(data, "mechanism")
    variant = _str(mech_raw, "variant", VARIANT_SCALED, "mechanism")
    if variant not in VARIANTS:
        raise ConfigError(
            f"mechanism.variant must be one of {sorted(VARIANTS)}, got {variant!r}"
        )
    epsilon = _epsilon(mech_raw.get("epsilon", 2.0), "mechanism.epsilon")
    table_shape = (len(corpus.activities), 3)
    clip = None
    if "clip" in mech_raw:
        clip = _epsilon(mech_raw["clip"], "mechanism.clip")
    scale_table_path = mech_raw.get("scale_table")
    scale_table = None
    if scale_table_path is not None:
        scale_table_path = _require(scale_table_path, str, "mechanism.scale_table")
        scale_table = _load_table_csv(
            scale_table_path, "mechanism.scale_table", table_shape
        )
    clip_table_path = mech_raw.get("clip_table")
    clip_table = None
    if clip_table_path is not None:
        clip_table_path = _require(clip_table_path, str, "mechanism.clip_table")
        clip_table = _load_table_csv(
            clip_table_path, "mechanism.clip_table", table_shape
        )
    budget_weights = mech_raw.get("budget_weights")
    if budget_weights is not None:
        if not isinstance(budget_weights, list) or not all(
            isinstance(row, list) for row in budget_weights
        ):
            raise ConfigError(
                "mechanism.budget_weights must be a nested list (activity x metric)"
            )
        budget_weights = tuple(
            tuple(_epsilon(v, "mechanism.budget_weights") for v in row)
            for row in budget_weights
        )
    mechanism_seed = None
    if "seed" in mech_raw:
        mechanism_seed = _require(mech_raw["seed"], int, "mechanism.seed")
    try:
        mechanism = MechanismConfig(
            variant=variant,
            epsilon=epsilon,
            quantile=_float(mech_raw, "quantile", 0.95, "mechanism"),
            clip=clip,
            clip_table=clip_table,
            scale_table=scale_table,
            tau=_float(mech_raw, "tau", 0.0, "mechanism"),
            strict_tau=_bool(mech_raw, "strict_tau", False, "mechanism"),
            budget_weights=budget_weights,
        )
    except ValueError as exc:
        raise ConfigError(f"mechanism: {exc}") from exc

    sweep_raw = _section(data, "sweep")
    epsilons = sweep_raw.get("epsilons", list(DEFAULT_EPSILONS))
    if not isinstance(epsilons, list) or not epsilons:
        raise ConfigError("sweep.epsilons must be a non-empty list")
    seeds = sweep_raw.get("seeds", list(range(10)))
    if isinstance(seeds, int) and not isinstance(seeds, bool):
        seeds = list(range(seeds))
    if not isinstance(seeds, list) or not all(
        isinstance(s, int) and not isinstance(s, bool) for s in seeds
    ):
        raise ConfigError("sweep.seeds must be a list of integers or a count")
    variants = sweep_raw.get("variants", list(VARIANTS))
    if not isinstance(variants, list) or not variants:
        raise ConfigError("sweep.variants must be a non-empty list")
    try:
        sweep = SweepConfig(
            epsilons=tuple(
                _epsilon(e, "sweep.epsilons") for e in epsilons
            ),
            seeds=tuple(seeds),
            variants=tuple(variants),
            quantile=_float(sweep_raw, "quantile", 0.95, "sweep"),
            tau=_float(sweep_raw, "tau", 0.0, "sweep"),
        )
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from exc

    eval_raw = _section(data, "eval")
    device_floor = eval_raw.get("device_floor")
    if device_floor is not None:
        device_floor = _require(device_floor, int, "eval.device_floor")

    return ExperimentConfig(
        seed=seed,
        out_dir=out_dir,
        corpus=corpus,
        fleet=fleet,
        task=task,
        mechanism=mechanism,
        mechanism_seed=mechanism_seed,
        scale_table_path=scale_table_path,
        clip_table_path=clip_table_path,
        sweep=sweep,
        device_floor=device_floor,
    )


def read_config_data(path: str) -> dict:
    """Read a YAML experiment file into its raw mapping (unvalidated)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path!r}: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    return data


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a YAML experiment file."""
    return parse_config(read_config_data(path))
