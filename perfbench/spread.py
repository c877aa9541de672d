"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload plan-sweep --seeds 1-10 [--out FILE]

Runs one seed at a time, untraced, for BENCHMARK.json's run_seconds.  For
each metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the inter-quartile distance as a
share of the median, next to the bound BENCHMARK.json sets for it, and flags
each spread that is not below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--out", help="write the per-seed values and the summary as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(done.stdout, file=sys.stderr)
            raise SystemExit(f"seed {seed}: incorrect result")
        runs.append({"seed": seed, **{k: v["value"] for k, v in result["metrics"].items()}})
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in runs[-1].items() if k != "seed"),
              flush=True)

    summary = {}
    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in runs[0]:
        if name == "seed":
            continue
        values = [run[name] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  WIDE"
        print(f"{name:40} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{bound if bound is not None else '-':>6}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
