"""Deterministic simulation of federated group-by-sum analytics with
windowed differential privacy.

A fleet of simulated devices accumulates trip records, periodically
checks in with a coordinating server, and uploads bounded per-window
histograms.  The server aggregates uploads exactly, then releases each
window through one of three Laplace-noise mechanisms.  Every stage —
synthetic data, device availability, aggregation, and noise — is
deterministic given its seeds.
"""

from .aggcore import AggCoreConfig, AggregationCore, ClientUpdate
from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .dp import (
    MechanismConfig,
    NoisedRelease,
    PreparedMechanism,
    ResolvedMechanism,
    calibrate_clip,
    calibrate_scales,
    prepare_mechanism,
    resolve_mechanism,
)
from .metrics import (
    WindowTruth,
    exact_workload,
    per_user_mean_error,
    weighted_relative_error,
    window_truth,
)
from .model import (
    IndexedHistogram,
    InvalidParameterError,
    Schema,
    SchemaMismatchError,
    TripRecord,
)
from .query import (
    DEFAULT_TRIPS_STREAM,
    ParseError,
    QuerySpec,
    QueryValidationError,
    parse_and_validate,
    parse_query,
    pretty_print,
    validate_split,
)
from .rng import KeyedRng, laplace_from_uniform
from .server import FederatedServer, ServerConfig, SuppressedRelease, TaskConfig
from .sim import FleetConfig, SimulationResult, run_simulation
from .sweep import SweepConfig, run_epsilon_sweep, summarize_sweep
from .synth import Corpus, SyntheticCorpusConfig, generate_corpus
from .windows import TimeWindow, WindowAlignment, round_down_window, window_after

__version__ = "0.1.0"

__all__ = [
    "AggCoreConfig",
    "AggregationCore",
    "ClientUpdate",
    "ConfigError",
    "Corpus",
    "DEFAULT_TRIPS_STREAM",
    "ExperimentConfig",
    "FederatedServer",
    "FleetConfig",
    "IndexedHistogram",
    "InvalidParameterError",
    "KeyedRng",
    "MechanismConfig",
    "NoisedRelease",
    "ParseError",
    "PreparedMechanism",
    "QuerySpec",
    "QueryValidationError",
    "ResolvedMechanism",
    "Schema",
    "SchemaMismatchError",
    "ServerConfig",
    "SimulationResult",
    "SuppressedRelease",
    "SweepConfig",
    "SyntheticCorpusConfig",
    "TaskConfig",
    "TimeWindow",
    "TripRecord",
    "WindowAlignment",
    "WindowTruth",
    "calibrate_clip",
    "calibrate_scales",
    "exact_workload",
    "generate_corpus",
    "laplace_from_uniform",
    "load_config",
    "parse_and_validate",
    "parse_config",
    "parse_query",
    "per_user_mean_error",
    "prepare_mechanism",
    "pretty_print",
    "resolve_mechanism",
    "round_down_window",
    "run_epsilon_sweep",
    "run_simulation",
    "summarize_sweep",
    "validate_split",
    "weighted_relative_error",
    "window_after",
    "window_truth",
    "__version__",
]
