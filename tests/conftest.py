"""Shared fixtures: schemas and synthetic corpora.

The large fixtures are session-scoped because several end-to-end checks
share the same fleet; everything here is deterministic, so sharing them
never couples tests.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from fedsum.model import Schema
from fedsum.synth import SyntheticCorpusConfig, generate_corpus
from fedsum.windows import WindowAlignment, round_down_window

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def small_schema() -> Schema:
    return Schema(
        num_activities=3,
        num_metrics=3,
        num_regions=4,
        metric_names=("num_trips", "distance_km", "duration_s"),
        activity_names=("stroll", "cycle", "drive"),
    )


@pytest.fixture(scope="session")
def cell_schema() -> Schema:
    """A single (activity, metric) slice: 1 region, the 3 fixed directions."""
    return Schema(
        num_activities=1,
        num_metrics=1,
        num_regions=1,
        metric_names=("value",),
        activity_names=("only",),
    )


@pytest.fixture(scope="session")
def corpus_300():
    """A one-week fleet small enough for exhaustive pairwise checks."""
    return generate_corpus(
        SyntheticCorpusConfig(
            num_devices=300, num_regions=8, num_weeks=1, seed=11
        )
    )


@pytest.fixture(scope="session")
def week_one_300(corpus_300):
    return round_down_window(corpus_300.config.start_time, WindowAlignment.WEEK)


@pytest.fixture(scope="session")
def corpus_10k():
    """The default-shape fleet at full desk scale (10,000 devices)."""
    return generate_corpus(SyntheticCorpusConfig(num_devices=10_000))


@pytest.fixture(scope="session")
def week_one_10k(corpus_10k):
    return round_down_window(corpus_10k.config.start_time, WindowAlignment.WEEK)
