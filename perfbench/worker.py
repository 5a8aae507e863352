"""One workload in one fresh process: set up, then measure or trace.

``run.py`` starts this file; it is not meant to be run by hand except to
refresh the committed digests after an intended output change::

    python3 perfbench/worker.py --workload solve_random --seed 1 --mode digests

Modes:

* ``setup``   import dictlp, write the corpus, warm up each operation kind;
* ``measure`` setup, then time CLI calls for ``--seconds`` (tracing off);
* ``trace``   setup, two untraced passes and one traced pass over the corpus;
* ``digests`` setup, one pass, then store its digests in ``expected_seed1.json``.

Every mode checks every output. The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
EXPECTED = HERE / "expected_seed1.json"
MIN_PASSES = 2

sys.path.insert(0, str(HERE))

from check import Summary, check, cross_check, digest  # noqa: E402
from corpus import Corpus, Op, build  # noqa: E402
from speed import REF_S, reference_seconds, scale  # noqa: E402


def import_dictlp():
    """Import dictlp from this checkout's ``src``, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dictlp
    import dictlp.cli

    if Path(dictlp.__file__).resolve().parent != (src / "dictlp").resolve():
        raise ImportError(f"dictlp imported from {dictlp.__file__}, expected {src}")
    return dictlp


class Runner:
    """Calls ``dictlp.cli.main`` in process and checks every output."""

    def __init__(self, corpus: Corpus, cli, corpus_dir: Path, expected: dict[str, str] | None):
        self.corpus = corpus
        self.cli = cli
        self.dir = corpus_dir
        self.expected = expected
        self.digests: dict[str, str] = {}
        self.summaries: dict[str, Summary] = {}
        self.failures: dict[str, str] = {}
        self.stdout_bytes = 0

    def write_corpus(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        for inst in {op.instance.key: op.instance for op in self.corpus.ops}.values():
            (self.dir / f"{inst.key}.lp").write_text(inst.text(), encoding="utf-8")

    def call(self, op: Op) -> tuple[int, str, float, float]:
        """One CLI call; returns exit code, stdout, wall seconds and the reference time around it."""
        before = reference_seconds()
        out = io.StringIO()
        argv = [op.command, str(self.dir / f"{op.instance.key}.lp"), *op.flags]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:  # an uncaught error is a failed operation, not a crash
                code = -1
                out.write(traceback.format_exc(limit=1))
            elapsed = time.perf_counter() - start
        return code, out.getvalue(), elapsed, min(before, reference_seconds())

    def record(self, op: Op, code: int, stdout: str) -> None:
        """Check one call; outside any timed interval."""
        d = digest(code, stdout)
        self.stdout_bytes += len(stdout.encode())
        if op.id in self.digests:
            if d != self.digests[op.id]:
                self._fail(op, "output differs from this op's first call")
            return
        self.digests[op.id] = d
        if self.expected is not None and self.expected.get(op.id) != d:
            self._fail(op, "digest differs from the committed one")
        reason, summary = check(op, code, stdout)
        if reason is not None:
            self._fail(op, reason)
        else:
            self.summaries[op.id] = summary

    def finish_pass(self) -> None:
        for op_id, reason in cross_check(self.corpus.ops, self.summaries).items():
            self.failures.setdefault(op_id, reason)

    def _fail(self, op: Op, reason: str) -> None:
        self.failures.setdefault(op.id, reason)

    def warm_up(self) -> None:
        """One untimed call per operation kind, on its smallest instance."""
        first: dict[str, Op] = {}
        for op in sorted(self.corpus.ops, key=lambda o: o.instance.m * o.instance.n):
            first.setdefault(op.kind, op)
        for op in first.values():
            code, stdout, _, _ = self.call(op)
            self.record(op, code, stdout)

    def one_pass(self) -> float:
        """Every op once, then the checks between ops; returns the seconds in calls at reference speed."""
        busy = 0.0
        for op in self.corpus.ops:
            code, stdout, elapsed, ref = self.call(op)
            busy += elapsed * REF_S / ref
            self.record(op, code, stdout)
        self.finish_pass()
        return busy


def measure(runner: Runner, seconds: float) -> dict:
    """Closed loop, one client: whole passes over the corpus for about ``seconds``.

    Every op runs once per pass, at least MIN_PASSES times; another pass
    starts only if it should end within ``seconds``. An op's latency is its
    best call at reference speed (``speed.py``). p50 and p90 are taken over
    the ops, and ops_per_s is the number of ops over the sum of their
    latencies.
    """
    best: dict[str, float] = {}
    best_ref: dict[str, float] = {}
    passes = 0
    start = time.perf_counter()
    while True:
        for op in runner.corpus.ops:
            code, stdout, elapsed, ref = runner.call(op)
            best[op.id] = min(elapsed, best.get(op.id, elapsed))
            best_ref[op.id] = min(ref, best_ref.get(op.id, ref))
            runner.record(op, code, stdout)
        runner.finish_pass()
        passes += 1
        spent = time.perf_counter() - start
        if passes >= MIN_PASSES and spent * (passes + 1) / passes > seconds:
            break
    latencies = [best[k] * REF_S / best_ref[k] for k in best]
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "calls": passes * len(latencies),
        "passes": passes,
        "ops_per_s": len(latencies) / sum(latencies),
        "lat_p50_ms": deciles[4] * 1e3,
        "lat_p90_ms": deciles[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _entry_bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def solve_trace_counts(trace) -> dict[str, int]:
    """Pivots per phase, degenerate pivots and the largest bit length in a SolveTrace.

    A pivot is degenerate when it leaves the phase's objective value unchanged.
    """
    counts = {"phase1": 0, "phase2": 0, "degenerate": 0, "max_bits": 0}
    for phase in trace.phases:
        counts["phase1" if phase.name.startswith("phase 1") else "phase2"] += len(phase.steps)
        z = phase.start.z_star
        for d in [phase.start] + [step.dictionary for step in phase.steps]:
            entries = [*d.p, *d.q, d.z_star, *(x for row in d.Q.row_lists() for x in row)]
            counts["max_bits"] = max(counts["max_bits"], max(map(_entry_bits, entries)))
            if d is not phase.start:
                counts["degenerate"] += d.z_star == z
                z = d.z_star
    return counts


# Per-layer metric -> (span name, field); fields: calls, s, self_s.
SPAN_METRICS = {
    "model.parse_lp.s": ("model.parse_lp", "s"),
    "model.augment.calls": ("model.augment", "calls"),
    "model.augment.s": ("model.augment", "s"),
    "model.dual_lp.calls": ("model.dual_lp", "calls"),
    "model.dual_lp.s": ("model.dual_lp", "s"),
    "kernels.pivot_update.calls": ("kernels.pivot_update", "calls"),
    "kernels.pivot_update.s": ("kernels.pivot_update", "s"),
    "kernels.rref.calls": ("kernels.rref", "calls"),
    "kernels.rref.s": ("kernels.rref", "s"),
    "dictionary.pivot.calls": ("dictionary.pivot", "calls"),
    "dictionary.pivot.self_s": ("dictionary.pivot", "self_s"),
    "dictionary.dictionary_from_basis.calls": ("dictionary.dictionary_from_basis", "calls"),
    "dictionary.dictionary_from_basis.self_s": ("dictionary.dictionary_from_basis", "self_s"),
    "dictionary.negative_transpose.s": ("dictionary.negative_transpose", "s"),
    "dictionary.canonical.s": ("dictionary.canonical", "s"),
    "simplex.primal_simplex.s": ("simplex.primal_simplex", "s"),
    "simplex.dual_simplex.s": ("simplex.dual_simplex", "s"),
    "simplex.solve.self_s": ("simplex.solve", "self_s"),
    "exact.solve_linear.calls": ("exact.solve_linear", "calls"),
    "exact.solve_linear.s": ("exact.solve_linear", "s"),
    "exact.rank.calls": ("exact.rank", "calls"),
    "exact.rank.s": ("exact.rank", "s"),
    "exact.rowspace_equal.s": ("exact.rowspace_equal", "s"),
    "duality.enumerate_bases.s": ("duality.enumerate_bases", "s"),
    "duality.verify_bijection.self_s": ("duality.verify_bijection", "self_s"),
    "duality.dual_dictionary_direct.s": ("duality.dual_dictionary_direct", "s"),
    "cli.main.self_s": ("cli.main", "self_s"),
}


def traced_pass(runner: Runner):
    """Every op once with every layer wrapped; returns (metrics, seconds in calls, tracer).

    All metrics but the timings are exact counts and repeat from run to run.
    Span timings are raw wall time; the seconds in calls are corrected to
    reference speed like every end-to-end timing.
    """
    from tracing import Tracer

    tracer = Tracer()
    pivots = {"phase1": 0, "phase2": 0, "degenerate": 0, "max_bits": 0}
    runner.stdout_bytes = 0
    busy = 0.0
    tracer.install()
    try:
        for k, op in enumerate(runner.corpus.ops):
            tracer.op_id = k
            code, stdout, elapsed, ref = runner.call(op)
            busy += elapsed * REF_S / ref
            runner.record(op, code, stdout)
            for solve_trace in tracer.solve_traces:
                counts = solve_trace_counts(solve_trace)
                for key in ("phase1", "phase2", "degenerate"):
                    pivots[key] += counts[key]
                pivots["max_bits"] = max(pivots["max_bits"], counts["max_bits"])
            tracer.solve_traces.clear()
    finally:
        tracer.uninstall()
    runner.finish_pass()
    layers = tracer.layer_times()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    metrics = {name: layers.get(span, empty)[field] for name, (span, field) in SPAN_METRICS.items()}
    for key in ("kernels.pivot_update.cells", "kernels.rref.cells", "duality.subsets", "duality.bases"):
        metrics[key] = tracer.counts.get(key, 0)
    subsets = metrics["duality.subsets"]
    metrics["duality.basis_yield"] = metrics["duality.bases"] / subsets if subsets else 0.0
    for key in ("phase1", "phase2", "degenerate"):
        metrics[f"simplex.pivots.{key}"] = pivots[key]
    metrics["simplex.max_bits"] = pivots["max_bits"]
    metrics["cli.stdout_bytes"] = runner.stdout_bytes
    return metrics, busy, tracer


def trace_run(runner: Runner) -> dict:
    """Untraced passes, then the same ops traced; the ratio is the tracing overhead.

    The first pass pays for memory the process has not touched yet, so the
    untraced time is the better of two passes.
    """
    untraced = min(runner.one_pass(), runner.one_pass())
    metrics, traced, tracer = traced_pass(runner)
    metrics["trace.overhead"] = traced / untraced
    spans = ROOT / "perfbench" / "out" / f"spans-{runner.corpus.workload}-seed{runner.corpus.seed}.tsv"
    tracer.write(spans, [op.id for op in runner.corpus.ops])
    calls = 3 * len(runner.corpus.ops)
    return {"calls": calls, "passes": 3, "metrics": metrics, "spans": str(spans.relative_to(ROOT))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=["setup", "measure", "trace", "digests"], required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    dictlp = import_dictlp()
    corpus = build(args.workload, args.seed)
    expected = None
    if args.seed == DEFAULT_SEED and args.mode != "digests":
        expected = json.loads(EXPECTED.read_text(encoding="utf-8")).get(args.workload, {})
    corpus_dir = ROOT / "perfbench" / "out" / "corpus" / f"{args.workload}-seed{args.seed}"
    runner = Runner(corpus, dictlp.cli, corpus_dir, expected)
    runner.write_corpus()
    runner.warm_up()
    result: dict = {"ready_at": time.monotonic(), "setup_scale": scale(), "mode": args.mode}

    if args.mode == "measure":
        result.update(measure(runner, args.seconds))
    elif args.mode == "trace":
        result.update(trace_run(runner))
    elif args.mode == "digests":
        runner.one_pass()
        if not runner.failures:
            table = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
            table[args.workload] = dict(sorted(runner.digests.items()))
            EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    result.update(
        backend=dictlp.BACKEND,
        python=platform.python_version(),
        ops=len(corpus.ops),
        failures=runner.failures,
    )
    text = json.dumps(result, indent=1, sort_keys=True)
    if args.out is None:
        print(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
