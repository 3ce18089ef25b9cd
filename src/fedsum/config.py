"""Experiment configuration: a YAML file describing one full run.

The file is a mapping of sections — ``run``, ``corpus``, ``fleet``,
``task``, ``mechanism``, ``sweep`` — all optional.  One key table,
``_KEYS``, declares every key: the field of :class:`ExperimentConfig`
it sets and how its value is read from YAML and written back.  The
unknown-key check, :func:`parse_config` and
:meth:`ExperimentConfig.snapshot` all walk it, so unknown sections or
keys are hard errors (a typo can't silently fall back to a default),
and a key left out keeps ``ExperimentConfig()``'s value.  Each range and
enum check lives in the dataclass that holds the value.  ``load_config``
returns an :class:`ExperimentConfig` whose pieces plug straight into the
corpus generator, the fleet driver, and the mechanism resolver.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from collections import defaultdict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, NamedTuple

import yaml

from .dp import MechanismConfig, VARIANT_SCALED
from .model import InvalidParameterError, Table, as_table
from .sim import FleetConfig
from .sweep import SweepConfig
from .synth import SyntheticCorpusConfig
from .windows import WindowAlignment, round_down_window

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
    """Every setting of one experiment; the defaults are the file's defaults.

    Built by :func:`parse_config` or directly; either way the seeds must
    fit the generators and the corpus must start on a window boundary.
    """

    seed: int = 0
    out_dir: str = "out"
    corpus: SyntheticCorpusConfig = field(
        default_factory=lambda: SyntheticCorpusConfig(num_devices=2000, num_weeks=3)
    )
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

    def __post_init__(self) -> None:
        # Seeds are keyed as 64-bit integers; the run seed is also
        # non-negative, as the corpus's own config checks its seed.
        seeds = [("run.seed", self.seed, 0)]
        if self.mechanism_seed is not None:
            seeds.append(("mechanism.seed", self.mechanism_seed, -(2**63)))
        seeds += [("sweep.seeds", seed, -(2**63)) for seed in self.sweep.seeds]
        for where, seed, low in seeds:
            _check_seed(seed, where, low)
        start, alignment = self.corpus.start_time, self.task.alignment
        try:
            first_window = round_down_window(start, alignment)
        except (OverflowError, OSError, ValueError) as exc:
            raise ConfigError(f"corpus.start_time: {exc}") from exc
        if first_window.start != start:
            # The server takes the task at the corpus start; a first window
            # that began earlier would reach back into the past.
            raise ConfigError(
                f"corpus.start_time {start} is not on a task.alignment "
                f"({alignment.name.lower()}) boundary: its window starts at "
                f"{first_window.start}, so the first window would be retrospective"
            )

    def snapshot(self) -> dict:
        """A YAML-dumpable view of every effective setting.

        Feeding this mapping back through :func:`parse_config` (file
        paths permitting) reproduces the same configuration.  A setting
        left unset (``None``) is left out.
        """
        snapshot = {
            section: {
                name: key.write(value)
                for name, key in keys.items()
                if (value := attrgetter(key.field)(self)) is not None
            }
            for section, keys in _KEYS.items()
        }
        if self.task.query_file is not None:
            del snapshot["task"]["query"]  # the file holds the text
        return snapshot


def _typed(kind: type) -> Callable[[Any, str], Any]:
    def read(value: Any, where: str) -> Any:
        # bool is an int subclass; reject it where a number is expected.
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"{where}: expected {kind.__name__}, got {value!r}")
        return value

    return read


_int, _str = _typed(int), _typed(str)


def _optional(read: Callable[[Any, str], Any]) -> Callable[[Any, str], Any]:
    """``read``, except that null leaves the setting unset."""
    return lambda value, where: None if value is None else read(value, where)


def _float(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected number, got {value!r}")
    return float(value)


def _bool(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected true or false, got {value!r}")
    return value


def _budget(value: Any, where: str) -> float:
    """A number, or ``inf`` spelled as a string."""
    if isinstance(value, str):
        if value.strip().lower() in {"inf", "infinity"}:
            return math.inf
        raise ConfigError(f"{where}: expected a number or 'inf', got {value!r}")
    return _float(value, where)


def _budget_text(value: float) -> float | str:
    return "inf" if math.isinf(value) else value


def _list(item: Callable[[Any, str], Any]) -> Callable[[Any, str], tuple]:
    def read(value: Any, where: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return tuple(item(v, where) for v in value)

    return read


def _check_seed(seed: int, where: str, low: int) -> None:
    if not low <= seed < 2**63:
        span = "[0, 2**63)" if low == 0 else "[-2**63, 2**63)"
        raise ConfigError(f"{where}: expected a seed in {span}, got {seed}")


def _seed(value: Any, where: str) -> int:
    """A run or corpus seed, checked when read: the corpus seed follows the
    run seed, and the corpus refuses a bad one before the run could name it."""
    seed = _int(value, where)
    _check_seed(seed, where, 0)
    return seed


def _seeds(value: Any, where: str) -> tuple[int, ...]:
    """A list of seeds, or a count ``n`` meaning seeds ``0..n-1``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return tuple(range(value))
    return _list(_int)(value, where)


def _alignment(value: Any, where: str) -> WindowAlignment:
    name = _str(value, where)
    try:
        return WindowAlignment.parse(name)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _weights(value: Any, where: str) -> list[list[float]]:
    """Nested lists of budgets; their shape is checked against the corpus."""
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise ConfigError(f"{where} must be a nested list (activity x metric)")
    return [[_budget(v, where) for v in row] for row in value]


class _Key(NamedTuple):
    """One YAML key: the config field it sets and how its value is read
    from the file and written back.  ``field`` names an attribute of
    :class:`ExperimentConfig`, dotted for one of its parts' fields."""

    field: str
    read: Callable[[Any, str], Any]
    write: Callable[[Any], Any] = lambda value: value


# The experiment file: every section, every key, and the field it sets.
# Unknown keys, the typed reads and ``snapshot`` all come from here; every
# default is ``ExperimentConfig()``'s.
_KEYS: dict[str, dict[str, _Key]] = {
    "run": {
        "seed": _Key("seed", _seed),
        "out": _Key("out_dir", _str),
    },
    "corpus": {
        "num_devices": _Key("corpus.num_devices", _int),
        "num_regions": _Key("corpus.num_regions", _int),
        "num_weeks": _Key("corpus.num_weeks", _int),
        "start_time": _Key("corpus.start_time", _int),
        "seed": _Key("corpus.seed", _seed),
    },
    "fleet": {
        "policy": _Key("fleet.policy", _str),
        "availability": _Key("fleet.availability", _str),
        "tick_seconds": _Key("fleet.tick_seconds", _int),
        "cache_ttl": _Key("fleet.cache_ttl", _int),
    },
    "task": {
        "query_id": _Key("task.query_id", _str),
        "query": _Key("task.query_text", _str),
        "query_file": _Key("task.query_file", _optional(_str)),
        "alignment": _Key("task.alignment", _alignment, lambda a: a.value),
        "num_windows": _Key("task.num_windows", _int),
        "grace_period": _Key("task.grace_period", _int),
        "min_contributions": _Key("task.min_contributions", _int),
        "submitted_by": _Key("task.submitted_by", _str),
        "approved_by": _Key("task.approved_by", _str),
    },
    "mechanism": {
        "variant": _Key("mechanism.variant", _str),
        "epsilon": _Key("mechanism.epsilon", _budget, _budget_text),
        "quantile": _Key("mechanism.quantile", _float),
        "clip": _Key("mechanism.clip", _budget, _budget_text),
        "clip_table": _Key("clip_table_path", _optional(_str)),
        "scale_table": _Key("scale_table_path", _optional(_str)),
        "budget_weights": _Key(
            "mechanism.budget_weights",
            _optional(_weights),
            lambda t: [list(row) for row in t],
        ),
        "tau": _Key("mechanism.tau", _float),
        "strict_tau": _Key("mechanism.strict_tau", _bool),
        "seed": _Key("mechanism_seed", _int),
    },
    "sweep": {
        "epsilons": _Key(
            "sweep.epsilons", _list(_budget), lambda t: [_budget_text(e) for e in t]
        ),
        "seeds": _Key("sweep.seeds", _seeds, list),
        "variants": _Key("sweep.variants", _list(_str), list),
        "quantile": _Key("sweep.quantile", _float),
        "tau": _Key("sweep.tau", _float),
    },
}


def _table(rows: Any, what: str, shape: tuple[int, int]) -> Table:
    """``rows`` as a stored table of ``shape`` (activity x metric)."""
    try:
        table = as_table(rows, what)
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc
    if (len(table), len(table[0])) != shape:
        raise ConfigError(
            f"{what} must be {shape[0]}x{shape[1]} (activity x metric), "
            f"got {len(table)}x{len(table[0])}"
        )
    return table


def _load_table_csv(path: str, what: str, shape: tuple[int, int]) -> Table:
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
    return _table(values, f"{what} {path!r}", shape)


def parse_config(data: dict | None) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a parsed YAML mapping.

    Each key is read by its entry in the key table; a key left out keeps
    ``ExperimentConfig()``'s value.  The values are checked by the
    dataclasses that hold them, whose errors come back as
    :class:`ConfigError` naming the section.
    """
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    unknown = set(data) - set(_KEYS)
    if unknown:
        raise ConfigError(f"unknown section(s) {sorted(unknown, key=str)}")
    # The typed values per part of the config ("" for its own fields).
    values: dict[str, dict[str, Any]] = defaultdict(dict)
    for section, keys in _KEYS.items():
        raw = data.get(section) or {}
        if not isinstance(raw, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        unknown = set(raw) - set(keys)
        if unknown:
            raise ConfigError(f"{section}: unknown key(s) {sorted(unknown, key=str)}")
        for name, value in raw.items():
            part, _, attr = keys[name].field.rpartition(".")
            values[part][attr] = keys[name].read(value, f"{section}.{name}")

    # The keys that are more than a field: the corpus seed follows the run
    # seed, the query may come from a file, and the tables from CSVs.
    top, task, mechanism = values[""], values["task"], values["mechanism"]
    if "seed" in top:
        values["corpus"].setdefault("seed", top["seed"])
    query_file = task.get("query_file")
    if query_file is not None:
        if "query_text" in task:
            raise ConfigError("task: give either 'query' or 'query_file', not both")
        try:
            with open(query_file, "r", encoding="utf-8") as fh:
                task["query_text"] = fh.read()
        except OSError as exc:
            raise ConfigError(
                f"task.query_file: cannot read {query_file!r}: {exc}"
            ) from exc
    defaults = ExperimentConfig()
    parts = {"corpus": _build("corpus", defaults.corpus, values["corpus"])}
    table_shape = parts["corpus"].schema().shape[:2]
    for name in ("scale_table", "clip_table"):
        if top.get(f"{name}_path") is not None:
            mechanism[name] = _load_table_csv(
                top[f"{name}_path"], f"mechanism.{name}", table_shape
            )
    if mechanism.get("budget_weights") is not None:
        mechanism["budget_weights"] = _table(
            mechanism["budget_weights"], "mechanism.budget_weights", table_shape
        )
    for part in ("fleet", "task", "mechanism", "sweep"):
        parts[part] = _build(part, getattr(defaults, part), values[part])
    return ExperimentConfig(**parts, **top)


def _build(section: str, default: Any, fields: dict[str, Any]) -> Any:
    """``default`` with ``fields`` replaced, checked by its class."""
    try:
        return dataclasses.replace(default, **fields)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


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
