"""The benchmark harness: set-up, the timed closed loop, the traced run, output.

One single-threaded client in one process runs a workload's fixed job list
in passes, each job starting when the previous one ends, for about
`--seconds`.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
the machine facts and every metric with its unit.  Times are in reference
seconds (see speed.py); the wall-clock figures are printed above the result.
Each job's time is its median over the passes; `jobs_per_s` is the number of
jobs over the sum of those medians, and the percentiles are taken over them.

With `--trace 0` the metrics are the end-to-end ones, measured with tracing
off.  With `--trace 1` the run is split: half the time untraced, half with
the per-layer wrappers of `tracing.py` installed, then the frontier sweeps
and probes of `frontier.py` for the workload, untraced.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import feyncomb
from feyncomb import fixtures

import frontier
import tracing
import workloads
from speed import REFERENCE_KERNEL_S, calibrate, to_reference

SETUP_REPS = 3
HASH_SEEDS = ("0", "12345")
# Workloads whose outputs are compared with a file recorded at the commit that
# added the benchmark; `--transcript WORKLOAD` prints what that file holds.
TRANSCRIPTS = {"cli-matrix": workloads.REFERENCE_PATH, "hopf-bphz": workloads.HOPF_REFERENCE_PATH}

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "ok_ratio": "fraction",
    "peak_rss_mb": "MB",
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.startswith("frontier."):
        return "size"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".yield") or name.startswith("share."):
        return "fraction"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# Job times are closed in segments of about SEGMENT_S and converted to
# reference seconds (see speed.py) with the kernel timed around each segment.
SEGMENT_S = 0.05


@dataclass
class Phase:
    """Job runs of one timed phase."""

    n_jobs: int
    passes: int = 0
    wall: list[float] = field(default_factory=list)  # seconds per job run, pass after pass
    samples: list[float] = field(default_factory=list)  # the same in reference seconds
    kernel_s: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    # (job wall time, self time summed over layers), traced phases only
    accounting: list[tuple[float, float]] = field(default_factory=list)


def run_passes(jobs: list[workloads.Job], seconds: float, tracer: tracing.Tracer | None = None) -> Phase:
    """Run whole passes over `jobs` while the next pass still fits in `seconds`."""
    phase = Phase(len(jobs))
    segment: list[int] = []
    gc.collect()
    kernel = calibrate()
    phase.kernel_s.append(kernel)

    def close_segment() -> None:
        nonlocal kernel, segment_start
        now = calibrate()
        phase.kernel_s.append(now)
        for i in segment:
            phase.samples[i] = to_reference(phase.wall[i], kernel, now)
        segment.clear()
        kernel = now
        segment_start = perf_counter()

    begin = segment_start = perf_counter()
    while True:
        pass_start = perf_counter()
        for job in jobs:
            if tracer is not None:
                tracer.begin_job()
                before = tracer.layer_total()
            t0 = perf_counter()
            try:
                ok = job.check(job.run()) is True
                why = "wrong output"
            except Exception as exc:  # a failing job is counted, never fatal
                ok = False
                why = f"{type(exc).__name__}: {exc}"
            wall = perf_counter() - t0
            segment.append(len(phase.wall))
            phase.wall.append(wall)
            phase.samples.append(wall)
            if tracer is not None:
                phase.accounting.append((wall, tracer.layer_total() - before))
            if not ok:
                phase.failures.append(f"{job.name}: {why}")
            if perf_counter() - segment_start >= SEGMENT_S:
                close_segment()
        if segment:
            close_segment()
        phase.passes += 1
        pass_s = perf_counter() - pass_start
        if perf_counter() - begin + pass_s > seconds:
            return phase


def job_summary(samples: list[float], n_jobs: int) -> tuple[float, float, float]:
    """jobs_per_s, job_p50_ms and job_p90_ms from each job's median time over the passes."""
    per_job = [statistics.median(samples[j::n_jobs]) for j in range(n_jobs)]
    ms = [1000 * t for t in per_job]
    p90 = statistics.quantiles(ms, n=10)[8] if n_jobs > 1 else ms[0]
    return n_jobs / sum(per_job), statistics.median(ms), p90


def end_to_end_metrics(setup_times: list[float], phase: Phase) -> dict[str, float]:
    rate, p50, p90 = job_summary(phase.samples, phase.n_jobs)
    return {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": rate,
        "job_p50_ms": p50,
        "job_p90_ms": p90,
        "ok_ratio": 1 - len(phase.failures) / len(phase.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(workload: str, jobs: list[workloads.Job], seconds: float, sweeps: bool = True):
    """Per-layer metrics: an untraced half, a traced half, then frontiers and probes."""
    plain = run_passes(jobs, seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_passes(jobs, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    host_labels = sum(len({g.canonical_form() for g in hosts.values()}) for hosts in tracer.hosts)
    wall = sum(w for w, _ in traced.accounting)
    scale = REFERENCE_KERNEL_S / statistics.median(traced.kernel_s)
    metrics = tracing.per_layer_metrics(tracer, wall, host_labels, scale, traced.passes)
    plain_rate = job_summary(plain.samples, plain.n_jobs)[0]
    metrics["trace.overhead_ratio"] = plain_rate / job_summary(traced.samples, traced.n_jobs)[0]
    metrics.update(frontier.frontier_metrics(workload if sweeps else None))
    return metrics, plain, traced


def set_up(workload: str, seed: int, scratch: str, import_s: float):
    """Build the job list SETUP_REPS times.

    Returns the jobs and each set-up's time, including the import, in
    reference seconds and in wall seconds.
    """
    times, wall_times = [], []
    jobs: list[workloads.Job] = []
    for rep in range(SETUP_REPS):
        before = calibrate()
        t0 = perf_counter()
        jobs = workloads.WORKLOADS[workload](seed, os.path.join(scratch, f"setup{rep}"))
        wall = import_s + perf_counter() - t0
        wall_times.append(wall)
        times.append(to_reference(wall, before, calibrate()))
    return jobs, times, wall_times


# -- machine facts ---------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(root: str, seed: int | None) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg": list(os.getloadavg()),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
        "seed": seed,
        "commit": _git_commit(root),
    }


# -- modes --------------------------------------------------------------------------------


def _print_result(facts: dict, metrics: dict[str, float], attempted: int, failed: int, notes: list[str]) -> None:
    print("facts " + json.dumps(facts, sort_keys=True))
    for line in notes:
        print(line)
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {unit_of(name)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def measure(args, root: str, import_s: float) -> int:
    facts = machine_facts(root, args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as scratch:
        jobs, setup_times, setup_wall = set_up(args.workload, args.seed, scratch, import_s)
        if args.trace:
            metrics, plain, traced = traced_run(args.workload, jobs, args.seconds)
            phases = [plain, traced]
        else:
            phase = run_passes(jobs, args.seconds)
            metrics = end_to_end_metrics(setup_times, phase)
            phases = [phase]
    attempted = sum(len(p.samples) for p in phases)
    failures = [f for p in phases for f in p.failures]
    kernel_ms = 1000 * statistics.median(k for p in phases for k in p.kernel_s)
    notes = [
        f"workload {args.workload}: {len(jobs)} jobs, {attempted} job runs in "
        f"{sum(p.passes for p in phases)} passes; percentiles over the {len(jobs)} jobs' median times",
        f"failed_ratio {len(failures) / attempted:.6g} fraction ({len(failures)} of {attempted})",
        f"speed kernel median {kernel_ms:.4f} ms (reference {1000 * REFERENCE_KERNEL_S:g} ms)",
    ]
    if not args.trace:
        rate, p50, p90 = job_summary(phase.wall, phase.n_jobs)
        notes.append(
            f"wall (not normalized): setup_s {statistics.median(setup_wall):.6g} "
            f"jobs_per_s {rate:.6g} job_p50_ms {p50:.6g} job_p90_ms {p90:.6g}"
        )
    for failure in failures[:10]:
        print(f"failed job: {failure}", file=sys.stderr)
    _print_result(facts, metrics, attempted, len(failures), notes)
    return 0


def transcript(workload: str, root: str) -> dict:
    """The outputs of a workload's jobs that have a stored reference."""
    if workload == "hopf-bphz":
        return workloads.hopf_transcript()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as scratch:
        fixtures.write_all(scratch)
        return workloads.cli_transcript(scratch)


def check_determinism(root: str, script: str) -> int:
    """Replay each transcript in subprocesses under two PYTHONHASHSEED values."""
    ok = True
    for workload, reference_path in TRANSCRIPTS.items():
        transcripts = []
        for hash_seed in HASH_SEEDS:
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, script, "--transcript", workload],
                env=env, cwd=root, capture_output=True, text=True, timeout=80,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            transcripts.append(json.loads(proc.stdout))
        with open(reference_path, encoding="utf-8") as fh:
            reference = json.load(fh)
        same = transcripts[0] == transcripts[1]
        matches = transcripts[0] == reference
        print(f"determinism {workload}: {len(transcripts[0])} outputs; PYTHONHASHSEED {' vs '.join(HASH_SEEDS)} "
              f"identical: {same}; matches {os.path.basename(reference_path)}: {matches}")
        ok = ok and same and matches
    return 0 if ok else 1


def main(argv: list[str], root: str, start: float) -> int:
    src = os.path.join(root, "src") + os.sep
    if not os.path.abspath(feyncomb.__file__).startswith(src):
        print(f"perfbench: feyncomb was imported from {feyncomb.__file__}, not {src}", file=sys.stderr)
        return 2
    import_s = perf_counter() - start
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-determinism", action="store_true", help="untimed: transcripts under two hash seeds")
    parser.add_argument("--transcript", choices=sorted(TRANSCRIPTS), help="print the outputs kept as a reference")
    args = parser.parse_args(argv)
    if args.transcript:
        print(json.dumps(transcript(args.transcript, root), indent=1, sort_keys=True))
        return 0
    if args.check_determinism:
        return check_determinism(root, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"))
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args, root, import_s)
