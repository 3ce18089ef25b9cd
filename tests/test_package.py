"""The package's public surface and the boundaries between its modules."""

from __future__ import annotations

import importlib
import pkgutil
from pathlib import Path

import pytest

import fedsum

MODULES = ["fedsum"] + [
    f"fedsum.{info.name}" for info in pkgutil.iter_modules(fedsum.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{name} has no __all__"
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert missing == []
    assert len(set(exported)) == len(exported)


# The modules that may know how upload rows are keyed: the aggregation
# core and the client's codec (histogram_to_rows / rows_to_histogram).
ROW_FORMAT_MODULES = {"aggcore.py", "client.py"}


def test_only_the_codec_knows_the_row_key_format():
    needles = ("KEY_SEPARATOR", "\\x1f", "\\u001f", "\x1f")
    offenders = []
    for path in sorted(Path(fedsum.__file__).parent.glob("*.py")):
        if path.name in ROW_FORMAT_MODULES:
            continue
        text = path.read_text(encoding="utf-8")
        offenders += [(path.name, n) for n in needles if n in text]
    assert offenders == []


# The one module that may split values for an exact sum: exactsum.py.
EXACT_SUM_MODULE = "exactsum.py"


def test_only_exactsum_keeps_an_exact_accumulator():
    needles = ("_extract", "sigma + ")  # the error-free split
    offenders = []
    for path in sorted(Path(fedsum.__file__).parent.glob("*.py")):
        if path.name == EXACT_SUM_MODULE:
            continue
        text = path.read_text(encoding="utf-8")
        offenders += [(path.name, n) for n in needles if n in text]
    assert offenders == []


# The one module that may scale or clip a device contribution: the
# mechanism's device transform.
DEVICE_TRANSFORM_MODULE = "dp.py"


def test_only_dp_scales_or_clips_a_device_contribution():
    needles = (
        "factor = math.nextafter(1.0",  # the clip loop's nudge
        "bound / norm",
        "scale_by_table",
        "clip_slices",
    )
    offenders = []
    for path in sorted(Path(fedsum.__file__).parent.glob("*.py")):
        if path.name == DEVICE_TRANSFORM_MODULE:
            continue
        text = path.read_text(encoding="utf-8")
        offenders += [(path.name, n) for n in needles if n in text]
    assert offenders == []


# The modules that may name the sparse histogram: the model defines it,
# a release (dp) builds it as its artifact view, and the package exports it.
SPARSE_HISTOGRAM_MODULES = {"model.py", "dp.py", "__init__.py"}


def test_only_model_and_dp_name_the_sparse_histogram():
    offenders = []
    for path in sorted(Path(fedsum.__file__).parent.glob("*.py")):
        if path.name in SPARSE_HISTOGRAM_MODULES:
            continue
        if "IndexedHistogram" in path.read_text(encoding="utf-8"):
            offenders.append(path.name)
    assert offenders == []


# The one module that decides what a release is scored on: the device
# floor and the eligible cells of a window's truth (metrics.WindowTruth).
SCORING_MODULE = "metrics.py"


def test_only_metrics_decides_what_a_release_is_scored_on():
    needles = (
        "default_device_floor(",
        "ravel_multi_index(",  # the eligible cells' flat indices
        "region_trips",  # the weights' denominators
        "WindowTruth(",  # a truth built other than by its builders
    )
    offenders = []
    for path in sorted(Path(fedsum.__file__).parent.glob("*.py")):
        if path.name == SCORING_MODULE:
            continue
        text = path.read_text(encoding="utf-8")
        offenders += [(path.name, n) for n in needles if n in text]
    assert offenders == []


# The one module that builds trip records: the corpus, at its edge.
TRIP_RECORD_MODULE = "synth.py"


def test_only_synth_builds_trip_records():
    offenders = []
    for path in sorted(Path(fedsum.__file__).parent.glob("*.py")):
        if path.name == TRIP_RECORD_MODULE:
            continue
        if "TripRecord(" in path.read_text(encoding="utf-8"):
            offenders.append(path.name)
    assert offenders == []


# The one module that lays partitions out flat: DeviceSubtotals.partitions.
PARTITION_MODULE = "model.py"


def test_only_model_writes_the_flat_partition_index():
    offenders = []
    for path in sorted(Path(fedsum.__file__).parent.glob("*.py")):
        if path.name == PARTITION_MODULE:
            continue
        if "* num_regions +" in path.read_text(encoding="utf-8"):
            offenders.append(path.name)
    assert offenders == []
