"""Benchmark of the liouville-sums command line, one workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the CLI as a subprocess, one invocation at a time (a closed
loop), for about S seconds: it starts the next invocation only while that is
expected to end within S, judged by the median so far, and always runs at
least one. Every invocation gets a new working directory and its outputs are
checked against the workload's known result.

--trace 0 prints the end-to-end metrics: the shortest wall time, the
throughput at that time, the shortest set-up time (a fresh interpreter
importing liouville_sums.cli) and the median peak RSS of the child.
Timings are minima: on a shared 2-vCPU KVM guest, CPU speed drifts by up to
1.5x in phases lasting seconds to minutes. Noise only adds time, and the
fastest of some 20 invocations repeats from run to run better than their
median or 90th percentile does (see perfbench/README.md).
--trace 1 alternates plain invocations with ones run under traced_cli.py and
prints the per-layer metrics, including the tracing overhead.

The workloads are fixed commands with known outputs, so the seed changes no
input; it only names the run's working directory. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from workloads import TRACE, WORKLOADS, Workload, load_report

ROOT = Path.cwd()
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"

#: Cold starts per run for setup_s, at least. One is taken before each
#: invocation and the rest after the loop, spreading them over the run.
SETUP_SAMPLES = 20

#: An invocation that runs longer than this is killed and the run fails.
INVOCATION_TIMEOUT_S = 120

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {
    "wall_min_s": "s",
    "items_per_s_max": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

LAYER_UNITS = {
    "liouville.sieve_s": "s",
    "liouville.blocks": "count",
    "liouville.ns_per_int": "ns",
    "partial_sum.accumulate_s": "s",
    "partial_sum.accumulate_ints": "count",
    "partial_sum.work_ratio": "ratio",
    "partial_sum.scan_self_s": "s",
    "partial_sum.io_s": "s",
    "partial_sum.trace_rows": "count",
    "partial_sum.trace_bytes": "bytes",
    "partial_sum.checkpoints": "count",
    "zeros.load_s": "s",
    "zeta.calls": "count",
    "zeta.s": "s",
    "aux_poly.build_s": "s",
    "aux_poly.residues": "count",
    "aux_poly.scan_s": "s",
    "aux_poly.term_evals": "count",
    "aux_poly.ns_per_term_eval": "ns",
    "aux_poly.sign_changes": "count",
    "cli.overhead_s": "s",
    "proc.wall_p50_s": "s",
    "proc.wall_p90_s": "s",
    "proc.cpu_s": "s",
    "trace.overhead_s": "s",
    "failed_frac": "ratio",
}


class BenchError(Exception):
    """The run cannot produce a valid result."""


@dataclass
class Sample:
    """One child process: exit code, wall, user + sys CPU, peak RSS."""

    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mib: float


def _on_alarm(signum, frame):
    raise TimeoutError(f"invocation exceeded {INVOCATION_TIMEOUT_S} s")


def spawn(argv: list[str], cwd: Path, env: dict, out) -> Sample:
    """Run argv to completion; wall time is from spawn to reaping the exit."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
    signal.alarm(INVOCATION_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def child_env(nproc: int) -> dict:
    """The caller's environment with the package on the path and thread pools capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        try:
            env[var] = str(max(1, min(int(env.get(var, nproc)), nproc)))
        except ValueError:
            env[var] = str(nproc)
    return env


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(nproc: int, env: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "unknown"
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy,
        "git_commit": git_commit(),
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def setup_time(env: dict, workdir: Path) -> float:
    """One cold start: fresh interpreter plus `import liouville_sums.cli`."""
    with open(os.devnull, "wb") as out:
        s = spawn([sys.executable, "-c", "import liouville_sums.cli"], workdir, env, out)
    if s.exit_code != 0:
        raise BenchError(f"importing liouville_sums.cli exited {s.exit_code}")
    return s.wall_s


def invoke(w: Workload, workdir: Path, env: dict, traced: bool) -> tuple[Sample, list[str], dict]:
    """Run the workload once in a new directory; return sample, problems, spans.

    `verify --checkpoint` resumes from any checkpoint it finds, so reusing a
    directory would time a resumed (near-empty) scan. mkdir raises
    FileExistsError for a directory that exists, which fails the run.
    """
    workdir.mkdir(parents=True)
    if traced:
        argv = [sys.executable, str(TRACED_CLI), "spans.json", *w.args]
    else:
        argv = [sys.executable, "-m", "liouville_sums.cli", *w.args]
    with open(workdir / "stdout.txt", "wb") as out:
        sample = spawn(argv, workdir, env, out)
    try:
        problems = w.expect.check(workdir, sample.exit_code)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    spans = {}
    if traced:
        try:
            spans = json.loads((workdir / "spans.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            problems.append(f"no span dump: {exc!r}")
    return sample, problems, spans


def layer_metrics(sample: Sample, spans: dict, workdir: Path) -> dict:
    """Per-layer figures of one traced invocation, from its spans and outputs."""
    total: dict = defaultdict(float)
    children: dict = defaultdict(float)
    top_level = 0.0
    for layer, parent, t0, t1 in spans.get("spans", ()):
        total[layer] += t1 - t0
        if parent < 0:
            top_level += t1 - t0
        else:
            children[parent] += t1 - t0
    scan_self = sum(
        (t1 - t0) - children[i]
        for i, (layer, _, t0, t1) in enumerate(spans.get("spans", ()))
        if layer == "partial_sum.scan"
    )
    counts = defaultdict(int, spans.get("counts", {}))
    try:
        payload = load_report(workdir)
    except (OSError, ValueError):
        payload = {}
    report = payload.get("report", {})
    trace = workdir / TRACE
    trace_bytes = trace.stat().st_size if trace.exists() else 0
    trace_rows = max(0, trace.read_bytes().count(b"\n") - 1) if trace_bytes else 0
    classified = report.get("checked", 0) if payload.get("kind") == "verify" else 0
    term_evals = payload.get("n_terms", 0) * report.get("n_points", 0) if payload.get("kind") == "aux-scan" else 0
    ints = counts["liouville.ints"]
    return {
        "liouville.sieve_s": total["liouville.sieve"],
        "liouville.blocks": counts["liouville.blocks"],
        "liouville.ns_per_int": total["liouville.sieve"] * 1e9 / ints if ints else 0.0,
        "partial_sum.accumulate_s": total["partial_sum.accumulate"],
        "partial_sum.accumulate_ints": counts["partial_sum.accumulate_ints"],
        "partial_sum.work_ratio": (ints + counts["partial_sum.accumulate_ints"]) / classified if classified else 0.0,
        "partial_sum.scan_self_s": scan_self,
        "partial_sum.io_s": total["partial_sum.io"],
        "partial_sum.trace_rows": trace_rows,
        "partial_sum.trace_bytes": trace_bytes,
        "partial_sum.checkpoints": counts["partial_sum.checkpoints"],
        "zeros.load_s": total["zeros.load"],
        "zeta.calls": counts["zeta.calls"],
        "zeta.s": total["zeta"],
        "aux_poly.build_s": total["aux_poly.build"],
        "aux_poly.residues": counts["aux_poly.residues"],
        "aux_poly.scan_s": total["aux_poly.scan"],
        "aux_poly.term_evals": term_evals,
        "aux_poly.ns_per_term_eval": total["aux_poly.scan"] * 1e9 / term_evals if term_evals else 0.0,
        "aux_poly.sign_changes": len(report.get("sign_changes", ())) if term_evals else 0,
        "cli.overhead_s": sample.wall_s - top_level,
    }


def run(w: Workload, seconds: int, traced: bool, env: dict, rundir: Path) -> dict:
    """Closed loop with one client for `seconds`; returns the result object."""
    metrics: dict = {}
    rundir.mkdir(parents=True)
    setups: list[float] = []
    plain: list[Sample] = []
    traced_samples: list[Sample] = []
    layers: list[dict] = []
    attempted = failed = 0
    start = time.perf_counter()
    rounds: list[float] = []
    i = 0
    while i == 0 or time.perf_counter() - start + statistics.median(rounds) <= seconds:
        round_start = time.perf_counter()
        if not traced:
            setups.append(setup_time(env, rundir))
        # The traced run alternates which of the pair goes first.
        kinds = [False] if not traced else ([False, True] if i % 2 == 0 else [True, False])
        for kind in kinds:
            workdir = rundir / f"{i:03d}-{'traced' if kind else 'plain'}"
            sample, problems, spans = invoke(w, workdir, env, kind)
            attempted += 1
            failed += bool(problems)
            print(
                f"{w.name} #{i} {'traced' if kind else 'plain'}: exit {sample.exit_code} "
                f"wall {sample.wall_s:.3f} s cpu {sample.cpu_s:.3f} s rss {sample.rss_mib:.1f} MiB"
                + (f" FAILED: {'; '.join(problems)}" if problems else ""),
                file=sys.stderr,
            )
            for note in spans.get("notes", ()):
                print(f"  note: {note}", file=sys.stderr)
            if kind:
                traced_samples.append(sample)
                layers.append(layer_metrics(sample, spans, workdir))
            else:
                plain.append(sample)
            shutil.rmtree(workdir)
        rounds.append(time.perf_counter() - round_start)
        i += 1

    if not traced:
        setups += [setup_time(env, rundir) for _ in range(SETUP_SAMPLES - len(setups))]
    if traced:
        for name in layers[0]:
            metrics[name] = statistics.median(m[name] for m in layers)
        walls = [s.wall_s for s in plain]
        metrics["proc.wall_p50_s"] = statistics.median(walls)
        metrics["proc.wall_p90_s"] = statistics.quantiles(walls, n=10, method="inclusive")[8] if len(walls) > 1 else walls[0]
        metrics["proc.cpu_s"] = statistics.median(s.cpu_s for s in plain)
        metrics["trace.overhead_s"] = statistics.median(s.wall_s for s in traced_samples) - metrics["proc.wall_p50_s"]
        metrics["failed_frac"] = failed / attempted
        units = LAYER_UNITS
    else:
        metrics["wall_min_s"] = min(s.wall_s for s in plain)
        metrics["items_per_s_max"] = w.expect.items / metrics["wall_min_s"]
        metrics["setup_s"] = min(setups)
        metrics["peak_rss_mib"] = statistics.median(s.rss_mib for s in plain)
        units = END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "liouville_sums" / "cli.py").is_file():
        print(f"error: no liouville_sums package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    rundir = RUNS / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        print(json.dumps({"workload": args.workload, "seed": args.seed, "environment": environment(nproc, env)}))
        result = run(WORKLOADS[args.workload], args.seconds, bool(args.trace), env, rundir)
    except (BenchError, TimeoutError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
