"""Run the benchmark over several seeds and summarize each metric.

Usage (from the repository root)::

    python3 perfbench/matrix.py --seeds 1-10 --out perfbench/results/baseline.json
    python3 perfbench/matrix.py --seeds 1-5 --workloads f9-n17 --traced 0

Each run is ``run.py`` in its own process, one at a time.  For every
end-to-end metric and workload it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  With ``--traced 1`` (the default) it
adds one traced run per workload on the first seed.  ``--out`` writes every
run's result line and the summary as JSON, a before/after record for
performance changes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """One run in its own process: its record and its report lines."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    wall = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(ln[6:]) for ln in lines if ln.startswith("# env "))
    record = {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
              "env": env, "result": json.loads(lines[-1])}
    for ln in lines:
        if ln.startswith("# largest_self_time "):
            _, _, name, secs, _ = ln.split()
            record["largest_self"] = [name, float(secs)]
    return record, lines[:-1]


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--traced", type=int, choices=(0, 1), default=1)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs, summary = [], {}
    for wl in args.workloads.split(","):
        wl_runs = []
        for seed in seeds:
            r, _ = run_once(wl, seed, args.seconds, 0)
            wl_runs.append(r)
            ok = r["result"]["correct"]
            print(f"{wl} seed {seed}: {r['wall_s']:.1f} s wall, correct={ok}", flush=True)
        runs += wl_runs
        summary[wl] = {}
        for metric, bound in bounds.items():
            vals = [r["result"]["metrics"][metric]["value"] for r in wl_runs]
            s = summarize(vals) if len(vals) > 1 else {"median": vals[0]}
            s["bound"] = bound
            summary[wl][metric] = s
            spread = s.get("spread")
            flag = "" if spread is None or spread < bound / 3 else "  <-- above bound/3"
            print(f"  {metric:16s} median {s['median']:.6g}  "
                  f"spread {spread if spread is None else round(spread, 4)}  "
                  f"bound {bound}{flag}", flush=True)
            print("    " + " ".join(f"{v:.4g}" for v in vals), flush=True)
        summary[wl]["wall_s_max"] = max(r["wall_s"] for r in wl_runs)
        if args.traced:
            r, report = run_once(wl, seeds[0], args.seconds, 1)
            runs.append(r)
            print(f"{wl} traced seed {seeds[0]}: {r['wall_s']:.1f} s wall", flush=True)
            for line in report:
                if line.startswith(("# largest_self_time", "# untraced_s", "trace.",
                                    "ddf.smooth_tree_calls", "ddf.engine_over_shadow")):
                    print("  " + line, flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"seconds": args.seconds, "seeds": seeds, "summary": summary, "runs": runs},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
