"""One layered end-to-end benchmark through the real ``Gateway``.

    python3 benchmarks/e2e/run.py                      # every workload, both passes
    python3 benchmarks/e2e/run.py --workload hot_popular
    python3 benchmarks/e2e/run.py --quick              # <1 min sanity pass
    python3 benchmarks/e2e/run.py --check-repeat       # run the set twice, compare

Each workload runs in its own fresh interpreter.  With both ``--workload``
and ``--trace`` given the run happens in this process and the last line of
standard output is the machine-readable result
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
of ``BENCHMARK.json`` for ``--trace 0`` (wrappers off), the per-layer
metrics for ``--trace 1``.  The exit code is non-zero when an operation
failed, a sampled response disagrees with the flat scalar oracle, or a
private sketch was re-drawn on a read path.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} is missing: there is no program to benchmark")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from e2e import layers, oracle  # noqa: E402
from e2e.metrics import (  # noqa: E402
    END_TO_END,
    EXACT,
    HIGHER,
    PER_LAYER,
    highest_supported_percentile,
    percentile,
    quiet_quartile,
    steady_percentile,
    windowed_rates,
)
from e2e.workloads import WORKLOADS, Samples, State, Workload, by_name  # noqa: E402

_clock = time.perf_counter

DEFAULT_SECONDS = 15
SETUP_REPS = 5
# Share of --seconds a traced run spends on its untraced reference pass
# (the base of bench.trace_overhead_share).
UNTRACED_SHARE = 0.3
TRACED_CURSOR = 1_000_000
SKETCH_SAMPLE = 32


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(
    setup_seconds, first_ok, setups, samples: Samples, rss_mb, snapshot_bytes
) -> dict[str, float]:
    """The ``BENCHMARK.json`` end-to-end metrics of one untraced pass.

    ``setups`` holds the registration latencies (ms) of each set-up
    repetition.  Registration latencies and ``first_ok_s`` come from the
    timed pass when it has them (churn's durable registrations, the restart
    cycles) and from the set-up repetitions otherwise.  Every timing is a
    quiet quartile over repeated measurements (``metrics.quiet_quartile``).
    """
    if samples.mutation_windows:
        registers = samples.register_ms
        # groups of 4 cycles = 64 mutations = one snapshot cadence, so every
        # rate pays for exactly one snapshot stall
        mutation_rates = windowed_rates(samples.mutation_windows, group=4)
    else:
        registers = [latency for setup in setups for latency in setup]
        mutation_rates = windowed_rates((len(s), sum(s) / 1000.0) for s in setups)
    return {
        "setup_s": quiet_quartile(setup_seconds),
        "first_ok_s": quiet_quartile(samples.first_ok_s or first_ok),
        "search_p50_ms": steady_percentile(samples.search_ms, 50),
        "search_rps": quiet_quartile(samples.search_rates, HIGHER),
        "register_p50_ms": steady_percentile(registers, 50),
        "register_p90_ms": steady_percentile(registers, 90),
        "mutation_rps": quiet_quartile(mutation_rates, HIGHER),
        "peak_rss_mb": rss_mb,
        "snapshot_bytes_per_dataset": snapshot_bytes,
    }


def _peak_rss_mb() -> float:
    """High-water resident set of this process plus its reaped children."""
    kilobytes = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kilobytes / 1024.0


def _snapshot_bytes_per_dataset(state: State) -> float:
    path = state.scratch / "final_snapshot.bin"
    state.platform.save(path)
    return path.stat().st_size / len(state.platform.corpus)


def _sketch_pickle_bytes(state: State) -> float:
    """Computed, not measured: mean pickled size of a fixed sample of sketches."""
    names = state.platform.dataset_names()[:SKETCH_SAMPLE]
    sketches = state.platform.corpus.sketches
    return statistics.mean(len(pickle.dumps(sketches.get(name))) for name in names)


def _coalesced(state: State) -> int:
    if state.gateway is None:
        return 0
    return state.gateway.metrics.counter_value("gateway.coalesced")


def _traced_pass(workload: Workload, state: State, seconds, ops, untraced, out: Path):
    """Install the wrappers, run the fixed-size pass, derive the layer metrics."""
    recorder = layers.Recorder()
    coalesced = _coalesced(state)
    # The untraced reference before this pass ran for a time, not a count:
    # restart the operation sequence at a fixed index so that the traced
    # operations (and their step counts) are the same in every run.
    state.cursor = TRACED_CURSOR
    undo = layers.install(recorder)
    try:
        traced = workload.measure(state, seconds, ops=ops, recorder=recorder)
    finally:
        layers.restore(undo)
    facts = {
        "requests": len(traced.search_ms),
        "request_seconds": sum(traced.search_ms) / 1000.0,
        "compute_seconds": traced.compute_seconds,
        "cache_hits": traced.cache_hits,
        "coalesced": _coalesced(state) - coalesced,
        "waited_seconds": traced.waited_seconds,
        "lag_seconds": traced.lag_seconds,
        "untraced_p50_ms": _median(untraced.search_ms),
        "traced_p50_ms": _median(traced.search_ms),
        "dispatch_overhead_ms": _median(traced.dispatch_ms),
        "pickle_bytes": statistics.mean(traced.pickle_bytes) if traced.pickle_bytes else 0.0,
        "worker_start_s": _median(traced.worker_start_s),
        "sketch_pickle_bytes": _sketch_pickle_bytes(state),
    }
    spans_path = out / f"{workload.name}.spans.jsonl"
    written = layers.write_spans(recorder, spans_path)
    print(f"  spans: {written} written to {spans_path}")
    return traced, layers.derive(recorder, facts)


def _report_timing(label: str, values, unit: str) -> None:
    """Median plus the highest percentile with >= 10 samples beyond it."""
    if not values:
        return
    line = f"  {label}: n={len(values)} p50={percentile(values, 50):.4f} {unit}"
    tail = highest_supported_percentile(len(values))
    if tail is not None and tail > 50:
        line += f" p{tail:g}={percentile(values, tail):.4f} {unit}"
    print(line)


def run_one(args) -> int:
    """Contract mode: one workload, one pass kind, in this process."""
    workload = by_name(args.workload)
    seconds = float(args.seconds)
    trace_ops = workload.trace_ops
    reps = SETUP_REPS
    if args.quick:
        seconds = max(1.0, seconds / 10.0)
        trace_ops = max(workload.min_ops, trace_ops // 10)
        reps = 1
        print("QUICK: counts / 10 — these numbers are not comparable with any other run")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out))
    state = None
    try:
        setup_seconds, first_ok, setups = [], [], []
        for rep in range(reps):
            if state is not None:
                workload.teardown(state)
                state = None
                gc.collect()
            started = _clock()
            state = workload.setup(args.seed, scratch)
            setup_seconds.append(_clock() - started)
            first_ok.extend(state.first_ok_s)
            setups.append(state.register_ms)
        started = _clock()
        workload.prewarm(state)
        prewarm_seconds = _clock() - started

        print(f"== {workload.name} seed={args.seed} trace={args.trace} ==")
        print(f"  why: {workload.why}")
        layer_values = None
        if args.trace:
            untraced = workload.measure(state, seconds * UNTRACED_SHARE)
            traced, layer_values = _traced_pass(
                workload, state, seconds, trace_ops, untraced, out
            )
        else:
            untraced = workload.measure(state, seconds)
            traced = Samples()
        if not untraced.search_ms:
            print("no search completed inside the measuring window", file=sys.stderr)
            return 1
        rss_mb = _peak_rss_mb()
        snapshot_bytes = _snapshot_bytes_per_dataset(state)
        values = end_to_end(
            setup_seconds, first_ok, setups, untraced, rss_mb, snapshot_bytes
        )

        kept = untraced.kept + traced.kept
        checked, mismatches = oracle.check(
            args.seed, state.history, kept, sample=2 if args.quick else oracle.SAMPLE
        )
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed + len(mismatches)
        read_path_draws = (
            layer_values["privacy.privatize_calls_on_read_path"] if layer_values else 0
        )
        correct = failed == 0 and checked > 0 and read_path_draws == 0

        if args.trace:
            print("  end-to-end below: short untraced reference pass, not comparable")
        for name, unit, _, bound in END_TO_END:
            print(f"  {name} = {values[name]:.6g} {unit}  (bound {bound})")
        _report_timing("search latency", untraced.search_ms, "ms")
        _report_timing(
            "register latency", untraced.register_ms or sum(setups, []), "ms"
        )
        _report_timing("first ok", untraced.first_ok_s or first_ok, "s")
        ok = attempted - failed
        searches = len(untraced.search_ms) + len(traced.search_ms)
        print(f"  setup_s samples: {[round(s, 3) for s in setup_seconds]}")
        print(f"  prewarm_s = {prewarm_seconds:.4f} s (untimed cache fill)")
        print(f"  final_r2_mean = {(untraced.r2_sum + traced.r2_sum) / searches:.12f}")
        print(f"  failed_share = {failed / attempted:.6f} ({failed} of {attempted}; {ok} ok)")
        print(f"  oracle: {checked} responses replayed, {len(mismatches)} mismatched")
        for mismatch in mismatches:
            print(f"    MISMATCH at history {mismatch[0]}: {mismatch[1]} != {mismatch[2]}")
        if layer_values is not None:
            print(f"  traced pass: {trace_ops} operations, {len(traced.search_ms)} requests")
            if traced.cut_short:
                print("  WARNING: traced pass hit the --seconds cap; step counts are partial")
            for name, unit, _ in PER_LAYER:
                mark = "=" if name in EXACT else " "
                print(f"  {mark} {name} = {layer_values[name]:.6g} {unit}")
        metrics = values if layer_values is None else layer_values
        units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in metrics.items()
            },
        }
    finally:
        if state is not None:
            workload.teardown(state)
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0 if correct else 1


# -- the all-workloads driver ------------------------------------------------------
def _child(args, workload: str, trace: int) -> dict | None:
    """Run one (workload, pass) in a fresh interpreter; echo its report."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--out", str(args.out),
    ]  # fmt: skip
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print(done.stdout)
        print(f"{workload} trace={trace}: no result (exit code {done.returncode})")
        return None
    print("\n".join(lines[:-1]))
    if done.returncode != 0 or not result["correct"]:
        print(f"{workload} trace={trace}: FAILED (exit code {done.returncode})")
        return None
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def run_set(args, names) -> dict[tuple[str, str], float] | None:
    """Both passes of every named workload; ``{(workload, metric): value}``."""
    values: dict[tuple[str, str], float] = {}
    healthy = True
    for name in names:
        passes = (1,) if args.quick else (0, 1)
        for trace in passes:
            metrics = _child(args, name, trace)
            if metrics is None:
                healthy = False
                continue
            values.update({(name, metric): value for metric, value in metrics.items()})
    return values if healthy else None


def check_repeat(args, names) -> int:
    """Run the full set twice on the same code and seed; compare within bounds."""
    first = run_set(args, names)
    second = run_set(args, names)
    if first is None or second is None:
        return 1
    breaches = 0
    print("== repeatability: end-to-end (two runs, relative difference, bound) ==")
    for name in names:
        for metric, unit, _, bound in END_TO_END:
            a, b = first[name, metric], second[name, metric]
            difference = abs(b - a) / a
            verdict = "ok" if difference <= bound else "BREACH"
            breaches += verdict != "ok"
            print(
                f"  {name:16s} {metric:28s} {a:12.6g} {b:12.6g} {unit:5s} "
                f"diff={difference:.4f} bound={bound} {verdict}"
            )
    print("== repeatability: exact step counts ==")
    for name in names:
        for metric in sorted(EXACT):
            a, b = first[name, metric], second[name, metric]
            if a != b:
                breaches += 1
                print(f"  {name:16s} {metric:40s} {a!r} != {b!r}  BREACH")
    print(f"== {breaches} breach(es) ==")
    return 1 if breaches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    names = [workload.name for workload in WORKLOADS]
    parser.add_argument("--workload", choices=names, help="default: all of them")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument(
        "--out",
        default=str(ROOT / "bench_e2e_out"),
        help="directory for span files and temporary durable state",
    )
    parser.add_argument("--quick", action="store_true", help="counts / 10, not comparable")
    parser.add_argument(
        "--check-repeat", action="store_true", help="run the set twice and compare"
    )
    args = parser.parse_args(argv)
    if args.workload is not None and args.trace is not None:
        return run_one(args)
    chosen = [args.workload] if args.workload else names
    if args.check_repeat:
        return check_repeat(args, chosen)
    return 0 if run_set(args, chosen) is not None else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing is a hidden input: with it randomised, dict and set
        # layouts (and so set-up and registration times) differ by 10-20 %
        # from one interpreter to the next.  Pin it, for this process and
        # every child, so that --seed is the only source of variation.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.orig_argv[1:]])
    sys.exit(main())
