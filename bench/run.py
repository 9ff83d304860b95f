"""hierembed benchmark: one workload through the public CLI, closed loop.

    python3 bench/run.py --workload labels --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the program is imported from its
``src`` directory. The run repeats rounds of the workload (set up inputs
from the seed, then run the workload's CLI commands one after another in
this process) until ``--seconds`` have passed, at least twice. Every round
must exit cleanly, pass the output checks and leave a work directory that
is byte-identical to the first round's.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` untraced and traced rounds alternate and it reports the
per-layer metrics of the traced rounds plus the tracing overhead (spans
recorded times the measured cost of one span). The lines before it give
every metric of the workload by name and unit and a ``machine`` block.
Spans of traced rounds are written to
``.bench_work/spans-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import spans
# ``workloads`` imports NumPy, so it is imported inside functions: a script
# run caps the BLAS threads first.

CHECKOUT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SRC = CHECKOUT / "src"
MIN_ROUNDS = 2  # so that rounds can be compared byte for byte
# Reported times are scaled to a host on which ``reference_time`` takes this
# long (about its fastest time on the 2-CPU baseline machine). The host's speed
# swings by up to a factor of two within seconds; the scaling cancels most
# of that. ``HostSpeed`` times the reference every SAMPLE_S seconds.
REF_S = 0.0004
SAMPLE_S = 0.1
# Set-up is short, so an untraced round sets up this many times and reports
# the median; the inputs of the last set-up are used.
SETUP_REPEATS = 5

# end-to-end metric -> unit; must match BENCHMARK.json
E2E = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "items/s",
    "quality_f1": "F1",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# Each workload's work rate reported as work_per_s.
PRIMARY = {"labels": "train", "joint": "train", "eval-wide": "recon", "heads": "heads"}

# step kind -> name and unit of its rate in the report
RATES = {
    "train": ("train_pos_per_s", "pairs/s"),
    "recon": ("recon_pairs_per_s", "pairs/s"),
    "classify": ("classify_rows_per_s", "inst*levels/s"),
    "heads": ("heads_samples_per_s", "samples/s"),
}


def import_program():
    """Import hierembed from this checkout's ``src``, or exit 2 if it is absent."""
    if not (SRC / "hierembed" / "__init__.py").is_file():
        sys.stderr.write(f"error: no program sources at {SRC / 'hierembed'}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hierembed
    from hierembed import cli, geometry, heads, hierarchy, joint, storage, training

    if Path(hierembed.__file__).resolve().parent != (SRC / "hierembed").resolve():
        sys.stderr.write(f"error: imported hierembed from {hierembed.__file__}\n")
        raise SystemExit(2)
    modules = {"geometry": geometry, "heads": heads, "hierarchy": hierarchy,
               "joint": joint, "storage": storage, "training": training}
    return cli, modules


def reference_time() -> float:
    """Seconds taken by a fixed pure-Python loop of dict and string work.

    About half a millisecond; it does not call the program. Scaled by it,
    round times of every workload spread less than scaled by a reference
    that also makes small NumPy calls: those calls' own timing is noisy.
    """
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(1600):
        d[i % 97] = d.get(i % 97, 0) + len(str(i))
    return time.perf_counter() - t0


class HostSpeed:
    """Samples the host's speed every ``SAMPLE_S`` seconds while installed.

    A timer signal interrupts whatever runs and times ``reference_time``
    (about 0.5 % of the run). ``scale(t0, t1)`` turns seconds measured
    between ``t0`` and ``t1`` into seconds on a host where the reference
    takes ``REF_S``. Sampling during a command, not only around it, matters
    because the speed can change in the middle of a two-second command.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (when, reference seconds)

    def _sample(self, *_) -> None:
        self.samples.append((time.perf_counter(), reference_time()))

    def __enter__(self) -> "HostSpeed":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference(self, t0: float, t1: float) -> float:
        """Mean reference time of the samples from a period before t0 to one after t1."""
        near = [r for t, r in self.samples if t0 - SAMPLE_S <= t <= t1 + SAMPLE_S]
        if not near:  # a long C call held the signal back
            near = [min(self.samples, key=lambda s: abs(s[0] - t1))[1]]
        return statistics.fmean(near)

    def scale(self, t0: float, t1: float) -> float:
        return (t1 - t0) * REF_S / self.reference(t0, t1)


def machine() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(os.environ[BLAS_VARS[0]]) if BLAS_VARS[0] in os.environ else None,
        "platform": platform.platform(),
    }


class Runner:
    """Runs rounds of one workload and keeps their timings and outcomes."""

    def __init__(self, workload: str, seed: int, sizes: dict, work_root: Path):
        import workloads

        self.wl = workloads
        self.cli, self.modules = import_program()
        self.workload = workload
        self.seed = seed
        self.size = sizes[workload]
        self.root = work_root / f"{workload}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.tracer = None
        self.speed = HostSpeed()

    def _call(self, argv: list[str], record: list | None) -> bool:
        self.attempted += 1
        t0 = time.perf_counter()
        span = self.tracer.command(argv[0]) if self.tracer else nullcontext()
        try:
            with span:
                code = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
        t1 = time.perf_counter()
        if code != 0:
            self.failed += 1
            sys.stderr.write(f"command failed ({code}): {' '.join(argv[:1])}\n")
        if record is not None:
            record.append((t0, t1))
        return code == 0

    def round(self, tracer=None) -> dict:
        self.tracer = tracer
        rnd = self.wl.Round(self.root, self.seed, self.size, lambda argv: self._call(argv, None))
        setups: list[tuple[float, float]] = []
        try:
            for _ in range(1 if tracer else SETUP_REPEATS):
                if self.root.exists():
                    shutil.rmtree(self.root)
                t0 = time.perf_counter()
                self.wl.SETUP[self.workload](rnd)
                setups.append((t0, time.perf_counter()))
            steps = self.wl.STEPS[self.workload](rnd)
            commands: list[tuple[float, float]] = []
            for step in steps:
                self._call(step.argv, commands)
        finally:
            self.tracer = None
        scaled = [self.speed.scale(t0, t1) for t0, t1 in commands]
        spent: dict[str, float] = {}
        work: dict[str, int] = {}
        for step, t in zip(steps, scaled):
            spent[step.kind] = spent.get(step.kind, 0.0) + t
            work[step.kind] = work.get(step.kind, 0) + step.work()
        problems = self.wl.check_outputs(rnd)
        try:
            quality = self.wl.quality(self.workload, rnd)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            quality = {}
            problems.append(f"quality scores unreadable: {exc!r}")
        return {
            "setup_s": [self.speed.scale(t0, t1) for t0, t1 in setups],
            "raw_setup_s": [t1 - t0 for t0, t1 in setups],
            "wall_s": sum(scaled),
            "raw_wall_s": sum(t1 - t0 for t0, t1 in commands),
            "ref_s": self.speed.reference(commands[0][0], commands[-1][1]),
            "spent": spent,
            "work": work,
            "quality": quality,
            "problems": problems,
            "digest": self.wl.digest(self.root),
        }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  sizes: dict | None = None, work_root: Path | None = None) -> dict:
    """Run one workload; returns the result line plus report details."""
    import workloads

    runner = Runner(workload, seed, sizes or workloads.FULL,
                    work_root or CHECKOUT / ".bench_work")
    tracer = spans.Tracer(runner.modules) if trace else None
    rounds, traced_rounds, layer_rows, took = [], [], [], []
    start = time.perf_counter()
    try:
        with runner.speed:
            # Start no round that would end past the deadline, so a run lasts
            # about ``seconds`` whatever the round length.
            while (len(took) < MIN_ROUNDS
                   or time.perf_counter() - start + statistics.median(took) < seconds):
                t0 = time.perf_counter()
                if trace and len(rounds) > len(traced_rounds):
                    tracer.spans = []
                    with tracer:
                        traced_rounds.append(runner.round(tracer))
                    row = spans.layer_metrics(tracer.spans, tracer.disabled)
                    # Tracing cost in raw seconds, like the self times: spans
                    # recorded times what one wrapper adds to a call. A traced
                    # minus an untraced round would mostly measure host drift.
                    row["trace.overhead_s"] = len(tracer.spans) * tracer.span_cost()
                    layer_rows.append(row)
                    write_spans(runner.root.parent / f"spans-{workload}-seed{seed}.jsonl",
                                len(traced_rounds), tracer.spans)
                else:
                    rounds.append(runner.round())
                took.append(time.perf_counter() - t0)
    finally:
        shutil.rmtree(runner.root, ignore_errors=True)

    every = rounds + traced_rounds
    problems = [p for r in every for p in r["problems"]]
    if len({r["digest"] for r in every}) != 1:
        problems.append("rounds with one seed left different output bytes")
    quality = every[0]["quality"]
    # Rates are work over time summed across the untraced rounds, and wall_s
    # is the mean round: on a host whose speed drifts, these totals spread
    # less from run to run than medians of a few rounds do.
    rates = {kind: sum(r["work"][kind] for r in rounds) / sum(r["spent"][kind] for r in rounds)
             for kind in every[0]["spent"]}
    fail_ratio = runner.failed / runner.attempted
    e2e = {
        "setup_s": med([t for r in every for t in r["setup_s"]]),
        "wall_s": statistics.fmean(r["wall_s"] for r in rounds),
        "work_per_s": rates.get(PRIMARY[workload], 0.0),
        "quality_f1": float(sum(quality.values()) / len(quality)) if quality else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - fail_ratio,
    }
    report = {name: (e2e[name], unit) for name, unit in E2E.items()}
    report["fail_ratio"] = (fail_ratio, "ratio")
    report["raw_setup_s"] = (med([t for r in every for t in r["raw_setup_s"]]), "s")
    report["raw_wall_s"] = (statistics.fmean(r["raw_wall_s"] for r in rounds), "s")
    report["ref_s"] = (statistics.fmean(r["ref_s"] for r in rounds), "s")
    for kind, value in rates.items():
        report[RATES[kind][0]] = (value, RATES[kind][1])
    for name, value in quality.items():
        report[name] = (value, "F1")
    if trace:
        per_layer = {name: med([row[name] for row in layer_rows]) for name in spans.METRICS}
        metrics = {n: {"value": per_layer[n], "unit": u} for n, u in spans.METRICS.items()}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in E2E.items()}
    result = {
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return {"result": result, "report": report, "problems": problems,
            "rounds": len(rounds), "traced_rounds": len(traced_rounds),
            "machine": machine()}


def med(values: list):
    """Median (a count stays whole), or None for no values (a disabled layer)."""
    values = [v for v in values if v is not None]
    if not values:
        return None
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def write_spans(path: Path, round_no: int, spans_: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w" if round_no == 1 else "a", encoding="utf-8") as f:
        for i, (name, layer, t0, t1, parent, counts) in enumerate(spans_):
            f.write(json.dumps({"round": round_no, "id": i, "name": name, "layer": layer,
                                "start": t0, "end": t1, "parent": parent,
                                "counts": counts}) + "\n")


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.FULL))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_program()  # fail before any output when the sources are missing

    out = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload} seed {args.seed}: {out['rounds']} rounds, "
          f"{out['traced_rounds']} traced; why: {workloads.WHY[args.workload]}")
    for name, (value, unit) in out["report"].items():
        print(f"  {name:<22} {value:.6g} {unit}")
    for problem in out["problems"]:
        print(f"  check failed: {problem}")
    print("machine " + json.dumps(out["machine"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    # Cap BLAS threads before NumPy loads, so only the program's own work is timed.
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    raise SystemExit(main())
