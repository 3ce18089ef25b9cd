"""Golden artifacts: a small ``fedsum run`` and ``fedsum sweep``, pinned by sha256.

Every artifact is written deterministically (see :mod:`fedsum.outputs`),
so a refactor that claims bit-identical results must leave each digest
here unchanged.  A change that moves one on purpose re-records it and
says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import yaml

from fedsum.cli import EXIT_OK, main

RUN_ARTIFACTS = {
    "releases/2024-W20.csv": (
        "c82053b1d52ac504ca5bca3ab1239f7de6113a8c303df81f1f68ff69d39fe144"
    ),
    "releases/2024-W21.csv": (
        "ef2f71cab2b994651b30f5006174b676d39414b0f28b60a6fa562defec5cfe2d"
    ),
    "eval.csv": (
        "33b28abe32483aa9fd8c79b66103549d7c07c26ab03ea54293e445c07cee7144"
    ),
    "reach.csv": (
        "e5ba32fb8ba64f57f09f73f101b78011177851d269b3cc89ca12a19bc77be01f"
    ),
    "events.jsonl": (
        "2680ca4efc6744c0d8cd5321ae2ec29a95fb28e813d3609ee1ab50496f583c90"
    ),
    "resolved_config.yaml": (
        "35c24cc68003f8d0e8b4404e5927497cc4bebc7f4803205c2b598d7cf575d906"
    ),
    "run_summary.json": (
        "b62a74bf7b975aa3c8f1e40f43ccd9d67124108c01cfe1dc6ada64fc1370933f"
    ),
}
SWEEP_RESULTS = {
    "results.csv": (
        "27dffd3482e94abdeee655416f7bbea3f12e9471de8084145fb5987643d5ca65"
    ),
    "sweep_config.yaml": (
        "0cf7d315784713983f33d7073efd2a9039abf62115357413ef711fd26891de0b"
    ),
}


def experiment(tmp_path, monkeypatch, **sections) -> str:
    """A 300-device experiment file over two weekly windows.

    The run writes to ``out`` under ``tmp_path``, given as a relative path
    so the recorded settings (``run.out``) are the same bytes on every run.
    """
    monkeypatch.chdir(tmp_path)
    data = {
        "run": {"seed": 3, "out": "out"},
        "corpus": {"num_devices": 300, "num_regions": 8, "num_weeks": 2},
        "task": {"num_windows": 2, "min_contributions": 5},
        **sections,
    }
    path = tmp_path / "experiment.yaml"
    path.write_text(yaml.safe_dump(data))
    return str(path)


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_run_artifacts_are_pinned(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    config = experiment(
        tmp_path, monkeypatch, mechanism={"variant": "activity_metric_scaling", "epsilon": 2.0}
    )
    assert main(["run", "--config", config]) == EXIT_OK
    assert sorted(p.name for p in (out / "releases").iterdir()) == [
        "2024-W20.csv",
        "2024-W21.csv",
    ]
    got = {name: sha256(out / name) for name in RUN_ARTIFACTS}
    assert got == RUN_ARTIFACTS


def test_sweep_results_are_pinned(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    config = experiment(
        tmp_path, monkeypatch, sweep={"epsilons": [0.5, 2.0, "inf"], "seeds": 3}
    )
    assert main(["sweep", "--config", config]) == EXIT_OK
    got = {name: sha256(out / "sweep" / name) for name in SWEEP_RESULTS}
    assert got == SWEEP_RESULTS
