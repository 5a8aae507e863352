"""The committed ``BENCH_*.json`` records against ``BENCHMARK.json`` (read, never written), and the CI workflow."""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BENCH_FILES = sorted(path.name for path in ROOT.glob("BENCH_*.json"))


def problems(path: str) -> list[str]:
    """What ``path`` names that ``BENCHMARK.json`` does not define, and where its summary or claim does not hold."""
    workloads = {w["name"] for w in SPEC["workloads"]}
    metrics = {m["name"] for m in SPEC["end_to_end"]}
    bench = json.loads((ROOT / path).read_text(encoding="utf-8"))
    bad = []
    # A claimed gain ({"metric", "workload"}; null claims none) must rest on
    # at least 10 pairs on each of at least two seeds, the change winning at
    # least 9 in 10 pairs of each. Files older than the field (BENCH_9 to
    # BENCH_19) have no "claim" and are skipped.
    claim = bench.get("claim")
    if claim is not None:
        if set(claim) != {"metric", "workload"} or claim["workload"] not in workloads or claim["metric"] not in metrics:
            bad.append(f"{path}: claim {claim!r} is not a defined {{metric, workload}}")
        else:
            seeds = bench["summary"].get(claim["workload"], {}).get(claim["metric"], {}).get("seeds", {})
            held = [seed for seed, s in seeds.items() if s["pairs"] >= 10 and s["change_wins"] >= 0.9 * s["pairs"]]
            if len(held) < 2:
                bad.append(
                    f"{path}: claim on {claim['workload']} {claim['metric']} holds on seeds {held}; "
                    "it needs at least 10 pairs and change_wins >= 0.9 * pairs on each of two seeds"
                )
    for run in bench["runs"]:
        if run["workload"] not in workloads:
            bad.append(f"{path}: run names unknown workload {run['workload']!r}")
        bad += [f"{path}: run names unknown metric {m!r}" for m in set(run["metrics"]) - metrics]
    for w, per_metric in bench["summary"].items():
        if w not in workloads:
            bad.append(f"{path}: summary names unknown workload {w!r}")
        bad += [f"{path}: summary names unknown metric {m!r}" for m in set(per_metric) - metrics]
        # Every summary field restates the listed runs: each side's run
        # count, median and inclusive quartiles, and per seed the pairs, the
        # pairs the change reads better in, the ties, and the ratio of the
        # medians (null where the parent's is 0).
        for m, entry in per_metric.items():
            for seed, summary in entry["seeds"].items():
                where = f"{path}: {w} {m} seed {seed}"
                by_pair = {}
                for run in bench["runs"]:
                    if (run["workload"], str(run["seed"])) == (w, seed):
                        by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"][m]
                medians = {}
                for side in ("parent", "change"):
                    values = [sides[side] for sides in by_pair.values() if side in sides]
                    got = summary[side]
                    if got["runs"] != len(values):
                        bad.append(f"{where} {side}: runs {got['runs']} != {len(values)} runs listed")
                        continue
                    want = {"median": statistics.median(values)}
                    if len(values) > 1:
                        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
                        want.update(q1=q1, q3=q3)
                    bad += [f"{where} {side}: {k} {got[k]} != {v}" for k, v in want.items() if got[k] != v]
                    medians[side] = want["median"]
                both = [s for s in by_pair.values() if len(s) == 2]
                sign = 1 if entry["better"] == "higher" else -1
                wins = sum(sign * (s["change"] - s["parent"]) > 0 for s in both)
                ties = sum(s["change"] == s["parent"] for s in both)
                want = {"pairs": len(both), "change_wins": wins, "ties": ties}
                if len(medians) == 2:
                    parent = medians["parent"]
                    want["median_ratio"] = None if parent == 0 else medians["change"] / parent
                bad += [f"{where}: {k} {summary[k]} != {v}" for k, v in want.items() if summary[k] != v]
    return bad


@pytest.mark.parametrize("path", BENCH_FILES)
def test_names_only_defined_workloads_and_metrics_with_consistent_summaries_and_supported_claims(path):
    assert problems(path) == []


def test_the_workflow_keeps_one_inline_script():
    # Checks belong in the tests, which run locally. The one inline script
    # reads the result files of CI's traced benchmark pass.
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    steps = re.split(r"\n {6}- ", workflow)
    scripts = [re.match(r"name: (.*)", step)[1] for step in steps for _ in re.findall(r"\bpython3? -c?\s", step)]
    assert scripts == ["Benchmark traced pass (reads library internals by name)"]
