"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/repeat.py --seeds 1-10 --record perfbench/results/runs.jsonl

runs ``run.py`` once per (seed, workload), one process at a time, with the
workloads interleaved so that drift in machine load reaches each of them
alike.  Every run's full record is appended to ``--record``.  It then
prints, per workload and metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, against the metric's bound in BENCHMARK.json.

    python3 perfbench/repeat.py --summarize perfbench/results/runs.jsonl \\
        --second perfbench/results/runs2.jsonl --out perfbench/results/baseline.json

reads records only and writes the same summary, the traced runs'
per-layer medians and tracing overhead, and the stage table of
ROADMAP.md, as one JSON file.  With ``--second``, a second set of runs of
the same code and seeds, it also gives, per workload and metric, the
change of the second set's median from the first's against the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"n": len(values), "median": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
    }


def run_all(workloads: list[str], seeds: list[int], seconds: int, trace: int, record: Path) -> None:
    for seed in seeds:
        for workload in workloads:
            command = [
                sys.executable, str(ROOT / "perfbench" / "run.py"),
                "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace), "--record", str(record),
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
            result = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
            print(f"{workload} seed={seed} exit={done.returncode} {result}", flush=True)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)


def load(paths: list[Path]) -> list[dict]:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    return records


def summarize(records: list[dict], declared: dict) -> dict:
    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"]}
    summary: dict = {
        "end_to_end": {},
        "informational": {},
        "per_layer": {},
        "trace_overhead_s": {},
        "traced_counts_repeat": {},
    }
    untraced = [r for r in records if not r["trace"]]
    traced = [r for r in records if r["trace"]]
    for workload in sorted({r["workload"] for r in records}):
        mine = [r for r in untraced if r["workload"] == workload]
        if mine:
            summary["end_to_end"][workload] = {
                name: {**spread([r["metrics"][name]["value"] for r in mine]), "bound": bound}
                for name, bound in bounds.items()
            }
            info_names = sorted({k for r in mine for k, v in r["info"].items() if isinstance(v, (int, float))})
            summary["informational"][workload] = {
                name: spread([r["info"][name] for r in mine if name in r["info"]]) for name in info_names
            }
            summary["informational"][workload]["release_digests"] = {
                str(r["seed"]): r["release_digest"] for r in mine
            }
        mine_traced = [r for r in traced if r["workload"] == workload]
        if mine_traced:
            summary["per_layer"][workload] = {
                m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for r in mine_traced)
                for m in declared["per_layer"]
            }
            summary["trace_overhead_s"][workload] = spread(
                [r["metrics"]["trace.overhead_s"]["value"] for r in mine_traced]
            )
            summary["traced_counts_repeat"][workload] = counts_repeat(mine_traced)
    summary["machine"] = records[-1]["machine"] if records else {}
    summary["roadmap_table"] = roadmap_table(summary)
    return summary


def agreement(first: dict, second: dict) -> dict:
    """Per workload and metric: the second set's median against the first's."""
    result: dict = {}
    for workload, metrics in first["end_to_end"].items():
        for name, s in metrics.items():
            other = second["end_to_end"].get(workload, {}).get(name)
            if other is None:
                continue
            change = (other["median"] - s["median"]) / s["median"]
            result.setdefault(workload, {})[name] = {
                "first": s["median"],
                "second": other["median"],
                "change": change,
                "bound": s["bound"],
                "within": abs(change) <= s["bound"],
            }
    return result


def counts_repeat(traced: list[dict]) -> dict[str, bool]:
    """Per seed run more than once: do its work and event counts repeat exactly?"""
    by_seed: dict[int, list[dict]] = {}
    for record in traced:
        counts = {
            name: m["value"]
            for name, m in record["metrics"].items()
            if m["unit"] in ("count", "B") and not name.startswith("py.")
        }
        by_seed.setdefault(record["seed"], []).append(counts)
    return {
        str(seed): all(c == runs[0] for c in runs)
        for seed, runs in by_seed.items()
        if len(runs) > 1
    }


def roadmap_table(summary: dict) -> dict:
    """The stage table of ROADMAP.md, from whichever runs are present."""
    e2e, info, layer = summary["end_to_end"], summary["informational"], summary["per_layer"]
    table = {}
    if "sweep_grid" in e2e:
        table["corpus generation (2 weeks), s"] = info["sweep_grid"]["setup_raw_s"]["median"]
        table["corpus generation at nominal host speed, s"] = e2e["sweep_grid"]["setup_s"]["median"]
        table["240-cell sweep, s"] = info["sweep_grid"]["wall_s"]["median"]
        table["240-cell sweep at nominal host speed, s"] = e2e["sweep_grid"]["wall_norm_s"]["median"]
    if "run_weekly" in layer:
        table["run_simulation (2 weekly windows, hourly ticks), s, traced"] = layer["run_weekly"]["sim.run_simulation.s"]
    if "run_weekly" in e2e:
        table["weekly run (resolve + simulate + outputs), s"] = info["run_weekly"]["wall_s"]["median"]
        table["weekly run at nominal host speed, s"] = e2e["run_weekly"]["wall_norm_s"]["median"]
    if "sweep_grid" in layer:
        table["one full-domain release, ms, traced"] = layer["sweep_grid"]["dp.finalize.p50_ms"]
    if "ingest_replay" in info and "single_shard_updates_per_s" in info["ingest_replay"]:
        table["single-shard ingest (100-row payloads), updates/s"] = info["ingest_replay"]["single_shard_updates_per_s"]["median"]
    return table


def print_spreads(summary: dict) -> None:
    for workload, metrics in summary["end_to_end"].items():
        for name, s in metrics.items():
            flag = ""
            if s.get("spread") is not None:
                if s["spread"] > s["bound"]:
                    flag = "OVER BOUND"
                else:
                    flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
            print(f"{workload:14s} {name:12s} median={s['median']:.4f} "
                  f"spread={s.get('spread', float('nan')):.4f} bound={s['bound']} {flag}")


def print_agreement(result: dict) -> None:
    for workload, metrics in result.items():
        for name, a in metrics.items():
            print(f"{workload:14s} {name:12s} first={a['first']:.4f} second={a['second']:.4f} "
                  f"change={a['change']:+.4f} bound={a['bound']} "
                  f"{'within' if a['within'] else 'OUT OF BOUND'}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma-separated; default: those of BENCHMARK.json")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path)
    parser.add_argument("--summarize", type=Path, nargs="+")
    parser.add_argument("--second", type=Path, nargs="+", help="a second set of the same runs")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    paths = args.summarize
    if paths is None:
        if args.record is None:
            parser.error("--record is required to run")
        workloads = args.workloads or ",".join(w["name"] for w in declared["workloads"])
        run_all(workloads.split(","), parse_seeds(args.seeds), declared["run_seconds"],
                args.trace, args.record)
        paths = [args.record]
    summary = summarize(load(paths), declared)
    print_spreads(summary)
    if args.second is not None:
        second = summarize(load(args.second), declared)
        summary["second_set_end_to_end"] = second["end_to_end"]
        summary["second_set_release_digests_match"] = {
            workload: info["release_digests"]
            == second["informational"].get(workload, {}).get("release_digests")
            for workload, info in summary["informational"].items()
            if workload in second["informational"]
        }
        summary["agreement"] = agreement(summary, second)
        print("second set:")
        print_spreads(second)
        print("agreement of the two sets' medians:")
        print_agreement(summary["agreement"])
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
