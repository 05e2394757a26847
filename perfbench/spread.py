"""Run the benchmark over several seeds and summarise each end-to-end metric.

Usage, from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--out perfbench/baseline.json]
    python3 perfbench/spread.py --counters [--seeds 1]

Every workload of BENCHMARK.json runs for its run_seconds.  For every
workload and metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median,
next to the metric's bound in BENCHMARK.json.  --out writes the summary,
with the sample count, machine, git commit and src/ line count.

--counters instead makes two traced runs per workload with the first seed
and lists every per-layer work counter that differs between them.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import TIME_UNITS

HERE = Path(__file__).resolve().parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def git_head():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def run(bench, workload, seed, trace):
    proc = subprocess.run(
        bench["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(bench["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def workloads(bench):
    return [w["name"] for w in bench["workloads"]]


def compare_counters(bench, args):
    """Two traced runs of each workload on one seed: work counters must repeat."""
    counters = [m["name"] for m in bench["per_layer"] if m["unit"] not in TIME_UNITS]
    drifting = 0
    for workload in workloads(bench):
        a, b = (run(bench, workload, args.seeds[0], 1)["metrics"]
                for _ in range(2))
        diff = [f"{n}: {a[n]['value']} vs {b[n]['value']}" for n in counters
                if a[n]["value"] != b[n]["value"]]
        drifting += len(diff)
        print(f"{workload}: {len(counters)} counters, {len(diff)} differ"
              + "".join(f"\n  {d}" for d in diff), flush=True)
    return 1 if drifting else 0


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--out")
    ap.add_argument("--counters", action="store_true")
    args = ap.parse_args()
    if args.counters:
        return compare_counters(bench, args)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    for workload in workloads(bench):
        runs = []
        for seed in args.seeds:
            res = run(bench, workload, seed, 0)
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)
        rows = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med, "n": len(values),
                          "unit": runs[0]["metrics"][name]["unit"], "values": values}
            print(f"  {name:12s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                  f"spread {rows[name]['spread']:.4f}  (bound {bounds[name]}, "
                  f"a third {bounds[name] / 3:.4f})", flush=True)
        summary[workload] = {"correct": all(r["correct"] for r in runs),
                             "attempted": sum(r["attempted"] for r in runs),
                             "failed": sum(r["failed"] for r in runs),
                             "seeds": args.seeds, "metrics": rows}
    if args.out:
        result = json.loads((HERE / "out" / f"result-{workload}-seed{args.seeds[-1]}-trace0.json")
                            .read_text())
        doc = {"git_head": git_head(), "seconds": bench["run_seconds"],
               "machine": result["machine"], "src_lines": result["src_lines"],
               "workloads": summary}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(s["correct"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
