"""Repeat the benchmark over seeds, and compare a change against its parent.

Usage, from the root of the checkout holding the change:

    python3 perfbench/compare.py --workload NAME [--seeds 10] [--trace 0|1]
                                 [--base PARENT_CHECKOUT] [--log runs.jsonl]

Runs perfbench/run.py of this checkout once per seed (1..N). With --base it
also runs the same benchmark code from the parent checkout's root, in
alternating order, so both sides are measured by identical code and
settings. Prints, for every metric, each side's median and quartiles and the
spread (quartile distance over median). With --base it adds the change's
median relative to the parent, the share of pairs the change won, and a
verdict: "regression" when the change's median is worse by more than the
metric's bound in BENCHMARK.json, "gain" when the change won at least 9 in 10
pairs and the medians differ by more than the parent's quartile distance,
"unresolved" when the parent's spread exceeds the bound, else "unchanged".
Every run's result line is appended to --log when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"benchmark failed in {root} (seed {seed}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--base", type=Path, help="root of the parent checkout")
    parser.add_argument("--log", type=Path, help="append every result line here")
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sides = {"change": Path.cwd()}
    if args.base:
        sides["parent"] = args.base.resolve()
    results: dict = {side: [] for side in sides}
    for seed in range(1, args.seeds + 1):
        order = list(sides) if seed % 2 else list(reversed(sides))
        for side in order:
            result = run_once(sides[side], args.workload, seed, spec["run_seconds"], args.trace)
            results[side].append(result)
            if args.log:
                with open(args.log, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"side": side, "seed": seed, "workload": args.workload, **result}) + "\n")
            print(f"seed {seed} {side}: correct={result['correct']} failed={result['failed']}/{result['attempted']}",
                  file=sys.stderr)

    for side, rs in results.items():
        print(f"{side}: {sum(r['failed'] for r in rs)} failed of {sum(r['attempted'] for r in rs)} attempted")
    for name, first in results["change"][0]["metrics"].items():
        line = f"{name} [{first['unit']}]"
        stats = {}
        for side, rs in results.items():
            q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in rs])
            spread = (q3 - q1) / abs(med) if med else 0.0
            stats[side] = (q1, med, q3)
            line += f"  {side} median {med:.6g} (q1 {q1:.6g}, q3 {q3:.6g}, spread {spread:.2%})"
        if "parent" in stats and name in bounds:
            line += "  " + verdict(name, bounds[name], results, stats)
        print(line)
    return 0


def verdict(name: str, spec: dict, results: dict, stats: dict) -> str:
    sign = 1.0 if spec["better"] == "lower" else -1.0
    p_q1, p_med, p_q3 = stats["parent"]
    c_med = stats["change"][1]
    pairs = zip(results["change"], results["parent"])
    wins = sum(sign * (p["metrics"][name]["value"] - c["metrics"][name]["value"]) > 0 for c, p in pairs)
    rel = (c_med - p_med) / abs(p_med) if p_med else 0.0
    text = f"change/parent {rel:+.2%}, change won {wins}/{len(results['parent'])} pairs"
    bound = spec.get("bound")
    if bound is None:
        return text
    if sign * rel > bound:
        return text + ": regression"
    if wins >= 0.9 * len(results["parent"]) and abs(c_med - p_med) > (p_q3 - p_q1):
        return text + ": gain"
    if p_med and (p_q3 - p_q1) / abs(p_med) > bound:
        return text + ": unresolved"
    return text + ": unchanged"


if __name__ == "__main__":
    sys.exit(main())
