"""Benchmark-regression gate: smoke benches vs the committed baselines.

The repo carries measured perf numbers (the tracked ``BENCH_*.json``
artifacts) as baselines.  This script keeps them
honest: it runs the *smoke* configuration of each benchmark and fails
(exit 1) when a speedup ratio drops more than ``--tolerance`` (default
30%) below the committed baseline.

Only **dimensionless ratios measured within a single run** are compared —
vectorized-vs-scalar discovery speedups, gateway-backend-vs-sequential
throughput — never absolute req/s or milliseconds, which vary with the
machine.  Ratios that exist only in one side (e.g. a baseline recorded
before a new backend existed) are reported but not enforced, and
machine-bound ratios (parallel compute, process spawn, constant factors;
see :func:`enforceable`) are enforced only when the baseline was recorded
on a machine with the same cpu_count.

CI wires this up after the test job and skips it when the commit message
contains ``[bench-skip]``; the smoke JSONs are uploaded as workflow
artifacts either way (see ``.github/workflows/ci.yml``).

Run locally (``--only discovery,gateway`` checks a subset)::

    PYTHONPATH=src python benchmarks/check_regression.py --out-dir /tmp/bench_smoke
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


def run_smoke(script: str, out: Path, extra: list[str]) -> None:
    command = [sys.executable, str(BENCH_DIR / script), "--out", str(out), *extra]
    print(f"$ {' '.join(command)}")
    subprocess.run(command, check=True, cwd=REPO_ROOT)


def discovery_ratios(report: dict) -> dict[str, float]:
    """Speedup ratios for the smallest (smoke-comparable) corpus size."""
    results = sorted(report.get("results", []), key=lambda row: row["datasets"])
    if not results:
        return {}
    smallest = results[0]
    return {
        f"discovery[{smallest['datasets']}].{name}": value
        for name, value in smallest.get("speedup", {}).items()
    }


def persist_ratios(report: dict) -> dict[str, float]:
    """Warm-start speedups for the smallest (smoke-comparable) corpus size."""
    results = sorted(report.get("results", []), key=lambda row: row["datasets"])
    if not results:
        return {}
    smallest = results[0]
    return {
        f"persist[{smallest['datasets']}].{name}": value
        for name, value in smallest.get("speedup", {}).items()
    }


def faults_ratios(report: dict) -> dict[str, float]:
    """Recovery-efficiency ratios from the fault-tolerance benchmark."""
    ratios: dict[str, float] = {}
    for entry in report.get("results", []):
        for name, value in entry.get("speedup", {}).items():
            ratios[f"faults.{name}"] = value
    return ratios


def obs_ratios(report: dict) -> dict[str, float]:
    """Exposition-cost and exemplar-overhead ratios from the obs bench."""
    summary = report.get("summary", {})
    return {f"obs.{name}": value for name, value in summary.items()}


def gateway_ratios(report: dict) -> dict[str, float]:
    ratios: dict[str, float] = {}
    for entry in report.get("results", []):
        for row in entry.get("rows", []):
            key = f"gateway.{row['workload']}.{row['backend']}.vs_sequential"
            ratios[key] = row["speedup_vs_sequential"]
    return ratios


def enforceable(extract, baseline_report: dict, current_report: dict):
    """Which of one bench's ratios are comparable between these two machines.

    Machine-bound ratios are enforced only when the baseline was recorded
    on a machine with the same cpu_count (the JSONs carry it in config):

    * gateway *distinct*-workload ratios measure parallel compute and
      scale with cores (the *popular*-workload ratios are cache/coalescing
      wins and hold anywhere);
    * faults recovery efficiency is dominated by process-spawn cost;
    * the obs ratios compare single-threaded constant factors (string
      rendering, attribute checks vs dict updates) that shift between CPU
      generations and Python builds.

    Discovery and persist ratios are single-threaded and dimensionless,
    so they are always enforced.
    """
    base_cpus = baseline_report.get("config", {}).get("cpu_count")
    now_cpus = current_report.get("config", {}).get("cpu_count")
    same_cores = base_cpus is not None and base_cpus == now_cpus
    if extract is gateway_ratios:
        return lambda name: same_cores or ".distinct." not in name
    if extract in (faults_ratios, obs_ratios):
        return lambda name: same_cores
    return lambda name: True


def compare(
    baseline: dict[str, float],
    current: dict[str, float],
    tolerance: float,
    enforce=lambda name: True,
) -> tuple[list[str], list[str]]:
    """Returns (report lines, failure lines)."""
    lines: list[str] = []
    failures: list[str] = []
    for name in sorted(set(baseline) | set(current)):
        base = baseline.get(name)
        now = current.get(name)
        if base is None or now is None:
            lines.append(f"  {name:<48} baseline={base} current={now}  (not enforced)")
            continue
        if not enforce(name):
            lines.append(
                f"  {name:<48} baseline={base:>8.2f} current={now:>8.2f} "
                f"(core-count dependent, baseline from a different machine — "
                f"not enforced)"
            )
            continue
        floor = base * (1.0 - tolerance)
        status = "ok" if now >= floor else "REGRESSION"
        lines.append(
            f"  {name:<48} baseline={base:>8.2f} current={now:>8.2f} "
            f"floor={floor:>8.2f}  {status}"
        )
        if now < floor:
            failures.append(
                f"{name}: {now:.2f} is more than {tolerance:.0%} below "
                f"the committed {base:.2f}"
            )
    return lines, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tolerance", type=float, default=0.30)
    parser.add_argument("--out-dir", type=Path, default=REPO_ROOT / "bench_smoke")
    parser.add_argument(
        "--no-run",
        action="store_true",
        help="compare existing smoke JSONs in --out-dir instead of running",
    )
    parser.add_argument(
        "--only",
        default=None,
        help="comma-separated bench names to check (e.g. 'discovery,gateway'); "
        "the default runs every bench",
    )
    args = parser.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)

    benches = [
        # 10 repeats: the 100-dataset joins are sub-millisecond, and a
        # 3-repeat median was noisy enough to trip the 30% tolerance on a
        # healthy build.
        (
            "discovery",
            "bench_discovery.py",
            ["--sizes", "100", "--repeats", "10"],
            REPO_ROOT / "BENCH_discovery.json",
            args.out_dir / "bench_discovery_smoke.json",
            discovery_ratios,
        ),
        # The gateway bench's default configuration is already CI-sized
        # (~1 min) and is exactly what the committed baseline records, so
        # the gate reruns it verbatim: the popular-workload ratio scales
        # with the cache-hit fraction and is only comparable between runs
        # of the *same* request mix.
        (
            "gateway",
            "bench_gateway.py",
            [],
            REPO_ROOT / "BENCH_gateway.json",
            args.out_dir / "bench_gateway_smoke.json",
            gateway_ratios,
        ),
        # Warm-start vs rebuild is single-threaded and dimensionless, so
        # the smoke size compares across machines like the discovery
        # ratios do.
        (
            "persist",
            "bench_persist.py",
            ["--sizes", "100", "--repeats", "10"],
            REPO_ROOT / "BENCH_persist.json",
            args.out_dir / "bench_persist_smoke.json",
            persist_ratios,
        ),
        # Worker-kill recovery vs clean dispatch.  The ratio is
        # within-run and dimensionless but dominated by process-spawn
        # cost, so it is only enforced when the baseline machine matches
        # (see enforceable).
        (
            "faults",
            "bench_faults.py",
            ["--repeats", "3"],
            REPO_ROOT / "BENCH_faults.json",
            args.out_dir / "bench_faults_smoke.json",
            faults_ratios,
        ),
        # OpenMetrics exposition cost and the exemplar observe tax.  Both
        # ratios are within-round quotients (median across rounds), so
        # they survive machine-load wobble; they compare constant factors
        # and are enforced only on a matching machine.
        (
            "obs",
            "bench_obs.py",
            ["--repeats", "5"],
            REPO_ROOT / "BENCH_obs.json",
            args.out_dir / "bench_obs_smoke.json",
            obs_ratios,
        ),
    ]

    known = {name for name, *_ in benches}
    if args.only:
        selected = {name.strip() for name in args.only.split(",") if name.strip()}
        unknown = selected - known
        if unknown:
            parser.error(
                f"unknown bench name(s) {sorted(unknown)}; choose from {sorted(known)}"
            )
    else:
        selected = known

    all_failures: list[str] = []
    for name, script, extra, baseline_path, smoke_path, extract in benches:
        if name not in selected:
            continue
        if not baseline_path.exists():
            print(f"-- {script}: no committed baseline at {baseline_path.name}, skipping")
            continue
        if not args.no_run:
            run_smoke(script, smoke_path, extra)
        if not smoke_path.exists():
            print(f"-- {script}: smoke output {smoke_path} missing, skipping")
            continue
        baseline_report = json.loads(baseline_path.read_text())
        current_report = json.loads(smoke_path.read_text())
        baseline = extract(baseline_report)
        current = extract(current_report)
        enforce = enforceable(extract, baseline_report, current_report)
        print(f"\n-- {script} vs {baseline_path.name} (tolerance {args.tolerance:.0%})")
        lines, failures = compare(baseline, current, args.tolerance, enforce)
        print("\n".join(lines))
        all_failures.extend(failures)

    if all_failures:
        print("\nBenchmark regression gate FAILED:")
        for failure in all_failures:
            print(f"  - {failure}")
        print("(commit with [bench-skip] in the message to bypass, or refresh "
              "the BENCH_*.json baselines with a full local run)")
        return 1
    print("\nBenchmark regression gate passed.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
