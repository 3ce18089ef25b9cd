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
        "363bd9a7c922ffc191123028074fd88761c844c3db93c578518ee318946fef19"
    ),
    "releases/2024-W21.csv": (
        "f5f93c79f5c7b2e728a64fa9c9508b4d1d7bb37d087557c2fb2a0931c6493ab7"
    ),
    "eval.csv": (
        "7464d30f9940ba7ea6e1e49ec9d2c7da906f45af68fbfb09bbc52991100ca50f"
    ),
    "reach.csv": (
        "3eeea3858448d19f8c1fd88f7ca71411e2ccbffcda5d4dae5e6b43494adbc361"
    ),
    "events.jsonl": (
        "822dfb8973247a5f96e4067cedd1f88049193da0f8af7e7458883797691d7172"
    ),
    "resolved_config.yaml": (
        "4e76162b7d56d8a63c7be1fcf4124b50d3e0a9d3d26d032c31a9ea2e6e28ea24"
    ),
    "run_summary.json": (
        "6b4614d00eb51635cc85a51dd5292c53b051bdf27e686ee1af05ada55ef6eb48"
    ),
}
SWEEP_RESULTS = {
    "results.csv": (
        "43951e5e6809362ee44521608b8131e532673a2f8bbce5fca6d1af56647d36ce"
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
