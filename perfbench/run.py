"""End-to-end benchmark of the reproduction, with per-layer attribution.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

One run builds nothing and installs nothing: it imports ``repro`` from
``src/`` of the checkout it lives in.  It

1. times ``setup_s`` (a fresh interpreter importing the workload and
   constructing its inputs) several times and keeps the median;
2. runs one untimed warm-up iteration at the default seed and compares
   its outputs with ``tests/golden/``;
3. repeats timed iterations, each at a seed that no earlier iteration of
   the process used, for ``--seconds`` seconds, checking each one's work
   counts against the warm-up's and against the fingerprint ledger;
4. with ``--trace 1``, runs one more iteration with every layer wrapped
   (``layers.py``) and reports per-layer metrics instead.

The last line of standard output is the JSON result; a per-metric
summary with quartiles and sample counts goes to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import pathlib
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"
GOLDEN_FILES = ("table4_pairs.json", "model_r2.json")

#: Scratch space inside the checkout: per-run work directories and the
#: fingerprint ledger.
STATE_DIR = ROOT / ".perfbench"

#: End-to-end metrics, in report order: (name, unit).
END_TO_END: tuple[tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("cold_s", "s"),
    ("warm_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
)

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 7

#: Timed iterations a run makes even when ``--seconds`` is short.
MIN_ITERATIONS = 3


def summarize(values: list[float]) -> dict[str, float]:
    """Median, first and third quartile, and sample count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def seed_schedule(seed: int, count: int = 256) -> list[int]:
    """Distinct iteration seeds derived from the run's seed argument."""
    return random.Random(seed).sample(range(1, 2**31 - 1), count)


def source_digest() -> str:
    """Digest of the package and benchmark sources, naming their ledger."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Ledger:
    """Work counts per (workload, seed) across runs of the same sources.

    A seed must do the same work in every run; a memo answering a timed
    call, or a shortcut taken on some seeds, changes the counts.
    """

    def __init__(self, path: pathlib.Path) -> None:
        self.path = path
        self.entries: dict[str, dict[str, int]] = (
            json.loads(path.read_text()) if path.exists() else {}
        )

    def check(self, workload: str, seed: int, counts: dict[str, int]) -> None:
        from workloads import CheckFailed

        key = f"{workload}:{seed}"
        known = self.entries.get(key)
        if known is not None and known != counts:
            raise CheckFailed(
                f"seed {seed} did different work than in an earlier run: "
                f"{counts} != {known}"
            )
        self.entries[key] = counts

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        scratch = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
        scratch.write_text(json.dumps(self.entries, sort_keys=True))
        os.replace(scratch, self.path)


def bootstrap() -> None:
    """Make the checkout's ``src/`` and this directory importable."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {SRC}")
    missing = [n for n in GOLDEN_FILES if not (GOLDEN_DIR / n).is_file()]
    if missing:
        sys.exit(f"perfbench: missing golden files {missing} in {GOLDEN_DIR}")
    sys.path[:0] = [str(SRC), str(HERE)]


def probe_setup(workload: str) -> None:
    """Body of one set-up probe: import and construct, then print reference
    readings taken in this process, so the parent can scale by this
    process's host speed."""
    from hostclock import reference_loop
    from workloads import WORKLOADS, WorkCounter

    WORKLOADS[workload](STATE_DIR / "probe", WorkCounter(), None).setup()
    print(json.dumps([reference_loop() for _ in range(3)]))


def time_setup(workload: str) -> list[tuple[float, float]]:
    """Fresh-interpreter set-ups: (seconds, reference) each.

    The reference is the probe's fastest own reading; the seconds
    exclude the time its readings took.
    """
    probes = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--probe-setup", workload],
            cwd=ROOT,
            check=True,
            capture_output=True,
            text=True,
        )
        seconds = time.perf_counter() - start
        readings = json.loads(done.stdout.splitlines()[-1])
        probes.append((seconds - sum(readings), min(readings)))
    return probes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stop_workers() -> None:
    """Shut the persistent pool down and wait for every child to exit."""
    pool = sys.modules.get("repro.execution.pool")
    if pool is not None:
        pool.shutdown_pool()
    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.terminate()
            child.join()


class BenchRun:
    """One invocation: set-up, warm-up, timed loop, optional trace."""

    def __init__(self, args: argparse.Namespace, workdir: pathlib.Path) -> None:
        from hostclock import HostClock
        from workloads import WORKLOADS, WorkCounter

        self.args = args
        self.attempted = 0
        self.clock = HostClock()
        self.counter = WorkCounter()
        self.workload = WORKLOADS[args.workload](
            workdir, self.counter, self.clock
        )
        self.ledger = Ledger(STATE_DIR / f"ledger-{source_digest()}.json")
        self.golden = {n: (GOLDEN_DIR / n).read_text() for n in GOLDEN_FILES}

    def check_counts(self, seed: int, outcome: Any, reference: Any) -> None:
        from workloads import check_work

        check_work(self.workload, seed, outcome, reference)
        self.ledger.check(self.workload.name, seed, outcome.counts)

    def span_seconds(self, spans: list[tuple[int, int]], raw: bool) -> float:
        measure = self.clock.raw if raw else self.clock.normalized
        return sum(measure(first, last) for first, last in spans)

    def measure(self) -> dict[str, dict[str, Any]]:
        from hostclock import scaled
        from layers import Patches
        from workloads import install_probes

        args, workload = self.args, self.workload
        setup = time_setup(args.workload)
        workload.setup()
        with Patches() as patches:
            install_probes(self.counter, self.clock, patches)
            reference = workload.iteration(None)
            workload.check_warmup(reference, self.golden)
            seeds = iter(seed_schedule(args.seed))
            outcomes = []
            rss = None
            start = time.perf_counter()
            while True:
                done = len(outcomes)
                elapsed = time.perf_counter() - start
                if done >= MIN_ITERATIONS and elapsed * (done + 1) / done > (
                    args.seconds
                ):
                    break
                seed = next(seeds)
                self.attempted += 1
                outcome = workload.iteration(seed)
                self.check_counts(seed, outcome, reference)
                outcomes.append(outcome)
                if rss is None:
                    rss = peak_rss_mb()
            summaries, raw = {}, {}
            for name in outcomes[0].spans:
                for table, is_raw in ((summaries, False), (raw, True)):
                    table[name] = summarize(
                        [self.span_seconds(o.spans[name], is_raw)
                         for o in outcomes]
                    )
            for name in ("cold_s", "warm_s"):
                summaries.setdefault(name, summaries["wall_s"])
            summaries["setup_s"] = summarize(
                [scaled(seconds, reference) for seconds, reference in setup]
            )
            raw["setup_s"] = summarize([seconds for seconds, _ in setup])
            summaries["ok_share"] = summarize([o.ok_share for o in outcomes])
            values = {name: s["median"] for name, s in summaries.items()}
            values["peak_rss_mb"] = rss
            report(workload.name, summaries, raw, reference.counts)
            if args.trace:
                self.clock.enabled = False
                metrics = self.traced(
                    next(seeds), reference, raw["wall_s"]["median"]
                )
            else:
                metrics = {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in END_TO_END
                }
        self.ledger.save()
        return metrics

    def traced(
        self, seed: int, reference: Any, untraced_s: float
    ) -> dict[str, dict[str, Any]]:
        import layers
        from workloads import CheckFailed

        clock = layers.LayerClock()
        self.attempted += 1
        with layers.Patches() as patches:
            layers.install(clock, patches)
            outcome = self.workload.iteration(seed)
        self.check_counts(seed, outcome, reference)
        missing = layers.zero_call_layers(clock, self.workload.active_layers)
        if missing:
            raise CheckFailed(f"active layers recorded no calls: {missing}")
        wall = self.span_seconds(outcome.spans["wall_s"], raw=True)
        if clock.attributed_s > wall:
            raise CheckFailed(
                f"layers account for {clock.attributed_s:.4f}s of a "
                f"{wall:.4f}s iteration: some wrapped call ran untimed"
            )
        values = layers.layer_metrics(clock, wall, untraced_s)
        print(
            f"traced iteration: {wall:.3f}s, layers cover "
            f"{clock.attributed_s / wall:.1%}",
            file=sys.stderr,
        )
        return {
            name: {"value": values[name], "unit": unit}
            for name, unit in layers.LAYER_METRICS
        }


def report(
    workload: str,
    summaries: dict[str, dict[str, float]],
    raw: dict[str, dict[str, float]],
    counts: dict[str, int],
) -> None:
    """Human-readable summary on standard error."""
    print(f"perfbench {workload}: work per iteration {counts}", file=sys.stderr)
    for name, s in summaries.items():
        line = (
            f"  {name:12s} median {s['median']:.4f}  q1 {s['q1']:.4f}  "
            f"q3 {s['q3']:.4f}  n {s['n']}"
        )
        if name in raw:
            line += f"   (host-speed raw: median {raw[name]['median']:.4f})"
        print(line, file=sys.stderr)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("tables", "campaign", "chaos"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and args.probe_setup is None:
        parser.error("--workload is required")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    bootstrap()
    if args.probe_setup is not None:
        probe_setup(args.probe_setup)
        return 0
    from workloads import CheckFailed

    workdir = STATE_DIR / f"run-{os.getpid()}"
    run = BenchRun(args, workdir)
    try:
        metrics = run.measure()
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        result = {"correct": False, "attempted": max(run.attempted, 1),
                  "failed": 1, "metrics": {}}
        print(json.dumps(result))
        return 1
    finally:
        stop_workers()
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": True, "attempted": run.attempted, "failed": 0,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
