"""End-to-end and per-layer benchmark of the dictlp CLI.

Run from the repository root::

    python3 perfbench/run.py --workload solve_random --seed 1 --seconds 30 --trace 0

Workloads (see ``corpus.py``):

* ``solve_random``  ``dictlp solve`` under both rules on seeded random LPs;
* ``pivot_chain``   ``solve`` and ``trace --dual-view`` on Klee-Minty cubes;
* ``verify_enum``   ``dictlp verify`` on small seeded instances.

Each run starts fresh worker processes (``worker.py``) that import dictlp
from ``src/`` and call ``dictlp.cli.main`` in process with stdout captured.
Timings are wall times corrected to a reference machine speed
(``speed.py``), because the machines this runs on change speed from one
second to the next and for minutes on end.
With ``--trace 0`` it prints the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones. Known-defect
probes run afterwards in their own processes under a wall budget and are
never timed. Every output is checked; the last stdout line is one JSON
object, and the exit code is nonzero when any output was wrong. Details,
spans and the generated corpus go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 5
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))

from check import check  # noqa: E402
from corpus import PROBE_BUDGET_S, WORKLOADS, Op, build  # noqa: E402


class BenchError(RuntimeError):
    pass


def run_worker(args: argparse.Namespace, mode: str, deadline: float) -> dict:
    """Run worker.py in a fresh process; adds its setup time to the result."""
    out = OUT / f"worker-{args.workload}-seed{args.seed}-{mode}.json"
    out.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--out", str(out),
    ]  # fmt: skip
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=sys.stderr)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{mode} worker did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}")
    result = json.loads(out.read_text(encoding="utf-8"))
    # CLOCK_MONOTONIC is system-wide, so the worker's clock reading is comparable.
    result["setup_s"] = (result["ready_at"] - spawned) * result["setup_scale"]
    return result


def run_probe(op: Op, directory: Path) -> str | None:
    """Run one probe out of process under its wall budget; returns the failure reason or None."""
    path = directory / f"{op.instance.key}.lp"
    path.write_text(op.instance.text(), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "dictlp.cli", op.command, str(path), *op.flags]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, capture_output=True,
            text=True, timeout=PROBE_BUDGET_S,
        )  # fmt: skip
    except subprocess.TimeoutExpired:
        return f"abandoned after its {PROBE_BUDGET_S:g} s budget"
    return check(op, proc.returncode, proc.stdout)[0]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dictlp" / "__init__.py").is_file():
        print(f"perfbench: no dictlp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # the probes print 5,000-digit numbers
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            worker = run_worker(args, "trace", deadline)
            setup = [worker["setup_s"]]
        else:
            setup = [run_worker(args, "setup", deadline)["setup_s"] for _ in range(SETUP_RUNS - 1)]
            worker = run_worker(args, "measure", deadline)
            setup.append(worker["setup_s"])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    corpus = build(args.workload, args.seed)
    probe_dir = OUT / "corpus" / f"{args.workload}-seed{args.seed}"
    probe_dir.mkdir(parents=True, exist_ok=True)
    probes = {op.id: run_probe(op, probe_dir) for op in corpus.probes}

    failures = dict(worker["failures"])
    failures.update({op_id: reason for op_id, reason in probes.items() if reason is not None})
    attempted = worker["ops"] + len(probes)
    correct = not worker["failures"]

    if args.trace:
        values = worker["metrics"]
        wanted = spec["per_layer"]
    else:
        values = {k: worker[k] for k in ("ops_per_s", "lat_p50_ms", "lat_p90_ms", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setup)
        values["fail_frac"] = len(failures) / attempted
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": worker["backend"],
        "python": worker["python"],
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "calls": worker["calls"],
        "passes": worker["passes"],
        "ops": worker["ops"],
        "probes": len(probes),
        "setup_samples": len(setup),
    }
    detail = dict(meta, metrics=metrics, setup_s_samples=setup, failures=failures, spans=worker.get("spans"))
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")

    for key, value in meta.items():
        print(f"{key} = {value}")
    for op_id, reason in sorted(failures.items()):
        print(f"failed {op_id}: {reason}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    summary = {"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
