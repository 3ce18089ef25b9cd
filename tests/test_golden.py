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
        "25bbc2ab2477b7f9bf443805adac84771f36866d1b7f41c376ab7d6618c89c62"
    ),
    "releases/2024-W21.csv": (
        "0c0ed24ab93003718df1fbe98ee68b452de0830fa9781a2977c9ef85b97fc5cf"
    ),
    "eval.csv": (
        "106679fb64373a742bae3823bbc754d2256adde24422a625db62c8ddfcd3e6fd"
    ),
    "reach.csv": (
        "d8585c0d643f75664632efe6f4d889b5c479588c4464e4291bb1980687ecf88c"
    ),
    "events.jsonl": (
        "02332fa4a8a142141b5cf7a218565e9d7b5ac1076180c763185c2d12d6a2d762"
    ),
    "resolved_config.yaml": (
        "35c24cc68003f8d0e8b4404e5927497cc4bebc7f4803205c2b598d7cf575d906"
    ),
    "run_summary.json": (
        "3178cef683acea25df533b8ed1550e1ff0d3f0f8edc729aa76eec43d5c7b6d74"
    ),
}
SWEEP_RESULTS = {
    "results.csv": (
        "aa8c7fba4efa482b0493d6c5515e7dbe9032569e955f8d7d59b0b4fd5ae872de"
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
