"""Self-test of the benchmark itself, on tiny versions of the workloads.

Usage, from the root of a checkout (about a minute):

    python3 perfbench/selftest.py

It checks that:
- correct outputs pass and every end-to-end metric is reported;
- a wrong expected value, of each kind the checks use, is counted as a
  failed invocation and makes the result incorrect;
- duplicate trace rows, as a scan resumed from a stale checkpoint appends
  them, fail the trace check;
- a working directory that already exists fails the run;
- the traced run reports 0 for layers a workload does not use, and a hook
  whose function is missing leaves a note instead of crashing;
- BENCHMARK.json names exactly the workloads and metrics run.py produces;
- the benchmark fails, printing no result, outside a checkout.

Exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
from workloads import AUX_TOL, CHECKPOINT, REPORT, TRACE, WORKLOADS, Workload, scan_tolerance

HERE = Path(__file__).resolve().parent

TINY_POLYA = Workload(
    "tiny-polya",
    ("verify", "--alpha", "0", "--from", "2", "--to", "200000", "--sign", "nonpositive",
     "--segment-size", "16384", "--report", REPORT),
    dataclasses.replace(WORKLOADS["verify-polya"].expect, x_hi=200_000, argmin=153_529, min_value=-479.0),
)
TINY_HALF = Workload(
    "tiny-half",
    ("verify", "--alpha", "0.5", "--from", "17", "--to", "200000", "--sign", "nonpositive",
     "--segment-size", "16384", "--report", REPORT),
    dataclasses.replace(WORKLOADS["verify-half"].expect, x_hi=200_000, argmin=153_529, min_value=-4.107675276260878),
)
TINY_TURAN = Workload(
    "tiny-turan-io",
    ("verify", "--alpha", "1", "--from", "1", "--to", "200000", "--sign", "nonnegative",
     "--segment-size", "16384", "--report", REPORT, "--trace", TRACE, "--trace-every", "50",
     "--checkpoint", CHECKPOINT, "--checkpoint-every", "10000"),
    dataclasses.replace(
        WORKLOADS["verify-turan-io"].expect, x_hi=200_000, argmin=96_862, min_value=0.00011996019317436378,
        trace_rows=4001, trace_last=(200_000, 0.0016230500554379704),
    ),
)
TINY_AUX = Workload(
    "tiny-aux",
    ("aux", "--alpha", "0.5", "--cutoff", "100", "--u-from", "0", "--u-to", "50", "--step", "0.01",
     "--report", REPORT),
    dataclasses.replace(
        WORKLOADS["aux-1000"].expect, n_terms=29, n_points=5001, sign_changes=20,
        argmax_index=3350, max_value=0.04441322429206365, argmin_index=1903, min_value=-0.8358192019847818,
    ),
)

def wrong_expectations() -> list[Workload]:
    """One workload per kind of check, each with one wrong expected value."""
    half, turan, aux = TINY_HALF.expect, TINY_TURAN.expect, TINY_AUX.expect
    return [
        dataclasses.replace(TINY_POLYA, expect=dataclasses.replace(TINY_POLYA.expect, argmin=153_530)),
        dataclasses.replace(TINY_POLYA, expect=dataclasses.replace(TINY_POLYA.expect, min_value=-478.0)),
        dataclasses.replace(TINY_HALF, expect=dataclasses.replace(
            half, min_value=half.min_value + 3 * scan_tolerance(0.5, half.argmin, half.min_value))),
        dataclasses.replace(TINY_TURAN, expect=dataclasses.replace(turan, trace_rows=turan.trace_rows - 1)),
        dataclasses.replace(TINY_AUX, expect=dataclasses.replace(aux, sign_changes=aux.sign_changes + 1)),
        dataclasses.replace(TINY_AUX, expect=dataclasses.replace(aux, max_value=aux.max_value + 3 * AUX_TOL)),
        dataclasses.replace(TINY_AUX, expect=dataclasses.replace(aux, argmin_index=1904)),
    ]


def main() -> int:
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    env = run.child_env(2)
    base = run.RUNS / f"selftest-{os.getpid()}"
    try:
        for i, w in enumerate((TINY_POLYA, TINY_HALF, TINY_TURAN, TINY_AUX)):
            result = run.run(w, 0, False, env, base / f"good-{i}")
            check(result["correct"] and result["attempted"] == 1 and result["failed"] == 0,
                  f"{w.name}: correct outputs pass")
            check(set(result["metrics"]) == set(run.END_TO_END_UNITS)
                  and all(m["value"] > 0 for m in result["metrics"].values()),
                  f"{w.name}: every end-to-end metric is reported and nonzero")

        for i, w in enumerate(wrong_expectations()):
            result = run.run(w, 0, False, env, base / f"wrong-{i}")
            check(not result["correct"] and result["failed"] == 1, f"{w.name}: wrong expectation {i} counted as failed")

        workdir = base / "rerun"
        _, problems, _ = run.invoke(TINY_TURAN, workdir, env, traced=False)
        check(not problems, "tiny-turan-io: first invocation passes")
        with open(workdir / TRACE, "rb") as fh:
            rows = fh.read().splitlines(keepends=True)
        with open(workdir / TRACE, "ab") as fh:
            fh.writelines(rows[-10:])
        check(any("trace rows" in p for p in TINY_TURAN.expect.check(workdir, 0)),
              "duplicate trace rows fail the trace check")
        try:
            run.invoke(TINY_TURAN, workdir, env, traced=False)
            check(False, "a reused working directory fails the run")
        except FileExistsError:
            check(True, "a reused working directory fails the run")

        for i, (w, unused) in enumerate(((TINY_TURAN, "aux_poly.scan_s"), (TINY_AUX, "liouville.sieve_s"))):
            result = run.run(w, 0, True, env, base / f"traced-{i}")
            m = {k: v["value"] for k, v in result["metrics"].items()}
            check(result["correct"] and set(m) == set(run.LAYER_UNITS), f"{w.name}: traced run reports every layer metric")
            check(m[unused] == 0, f"{w.name}: {unused} reads 0")
            if w is TINY_TURAN:
                check(m["liouville.sieve_s"] > 0 and m["liouville.blocks"] > 0
                      and m["partial_sum.trace_rows"] == 4001 and m["partial_sum.checkpoints"] > 0,
                      f"{w.name}: sieve, trace and checkpoint layers are seen")
            else:
                check(m["partial_sum.accumulate_s"] == 0 and m["aux_poly.scan_s"] > 0 and m["zeta.calls"] > 0,
                      f"{w.name}: aux layers are seen and accumulate reads 0")

        sys.path.insert(0, str(run.SRC))
        import traced_cli

        tracer = traced_cli.Tracer()
        traced_cli.install(tracer, (traced_cli.Hook("gone", "partial_sum", "no_such_function"),))
        check(any("not found" in n for n in tracer.notes), "a missing hook leaves a note")

        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        check({w["name"] for w in spec["workloads"]} == set(WORKLOADS), "BENCHMARK.json names every workload")
        check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
              "BENCHMARK.json end_to_end matches run.py")
        check({m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS,
              "BENCHMARK.json per_layer matches run.py")

        bare = base / "bare"
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "aux-1000", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        check(proc.returncode != 0 and '"metrics"' not in proc.stdout, "outside a checkout the benchmark fails without a result")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
