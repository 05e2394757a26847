"""ltnet benchmark: one closed-loop client, one workload process at a time.

Usage, from the repository root:

    python3 perfbench/run.py --workload {fit,sweep,map_build,map_query} \\
        --seed N --seconds S --trace {0,1}

The client starts the workload process (perfbench/worker.py) as a fresh
interpreter with BLAS pinned to one thread; that process runs the
workload's job list back to back for S seconds, checks every output and
reports.  With --trace 0 it first starts SETUP_PROBES extra processes that
only set up, so setup_s is the median of several cold starts.  The last
line of stdout is the result JSON: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1.  Details go to perfbench/out/.

run_s and setup_s are wall times scaled to one machine speed: each is
multiplied by CAL_UNIT_S / (the time of one calibration unit measured in
the same process right beside it; see worker.Calibration).  The shared
machine's speed drifts by up to 1.6x within minutes; the calibration
slows with it, and the scaled times drift far less.  The raw wall times
are kept in the result file and printed on the # lines.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import worker  # noqa: E402
WORKLOADS = ("fit", "sweep", "map_build", "map_query")
SETUP_PROBES = 8
# one calibration unit on the baseline machine (a 2-vCPU Xeon at 2.1 GHz)
# at its usual speed; scaled times read as seconds at that speed
CAL_UNIT_S = 0.010
DEADLINE_S = 170.0
PINNED = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                           "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def spawn(args, extra, deadline):
    """Run one workload process to completion; its stdout's last line is JSON."""
    t_spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--t-spawn", repr(t_spawn), *extra]
    env = {**os.environ, **PINNED, "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit(f"workload process exceeded the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        sys.exit(f"workload process exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def src_lines(root):
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "ltnet" / "__init__.py").is_file():
        sys.exit("run from the repository root: src/ltnet is missing")

    probes = [] if args.trace else [spawn(args, ["--setup-only"], deadline)
                                    for _ in range(SETUP_PROBES)]
    res = spawn(args, ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    setups = [p["setup_s"] for p in probes + [res]]
    scaled_setups = [scaled(p["setup_s"], p["setup_cal_s"], worker.SETUP_CAL_UNITS)
                     for p in probes + [res]]

    attempted, failures = res["attempted"], res["failures"]
    failed = len(failures)  # one entry per failed job execution
    passes = res["pass_s"]
    scaled_passes = [scaled(t, cal, res["pass_cal_units"])
                     for t, cal in zip(passes, res["pass_cal_s"])]
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "jobs": res["jobs"], "warmup_s": res["warmup_s"], "pass_s": passes,
        "pass_cal_s": res["pass_cal_s"], "pass_cal_units": res["pass_cal_units"],
        "scaled_pass_s": scaled_passes, "setup_samples": setups,
        "setup_cal_s": [p["setup_cal_s"] for p in probes + [res]],
        "scaled_setup_samples": scaled_setups, "failures": failures,
        "machine": {"nproc": os.cpu_count(), **res["versions"]},
        "src_lines": src_lines(root),
    }
    if args.trace:
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, unit in _per_layer_units()}
        info.update(traced_pass_s=res["traced_pass_s"], counter_drift=res["drift"])
    else:
        metrics = {
            "setup_s": {"value": statistics.median(scaled_setups), "unit": "s"},
            "run_s": {"value": statistics.median(scaled_passes), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "pass_ratio": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
    info["metrics"] = metrics
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=1) + "\n")

    print(f"# workload {args.workload} seed {args.seed}: {len(res['jobs'])} jobs x "
          f"{1 + len(passes) + len(res.get('traced_pass_s', []))} passes (1 warm-up), "
          f"{attempted} attempted, {failed} failed (fail_ratio {failed / attempted:.4f})")
    print(f"# wall times, not scaled: setup {statistics.median(setups):.4f} s, pass "
          f"{statistics.median(passes):.4f} s; calibration unit "
          f"{statistics.median(res['pass_cal_s']) / res['pass_cal_units'] * 1e3:.2f} ms "
          f"(reference {CAL_UNIT_S * 1e3:.2f} ms)")
    print(f"# nproc {os.cpu_count()}, python {res['versions']['python']}, numpy "
          f"{res['versions']['numpy']}, scipy {res['versions']['scipy']}, "
          f"src lines {info['src_lines']}")
    for line in failures[:20]:
        print(f"# FAIL {line}")
    for line in res.get("drift", []):
        print(f"# DRIFT {line}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def scaled(seconds, cal_s, units):
    """A wall time scaled to the speed at which one calibration unit takes CAL_UNIT_S."""
    return seconds * CAL_UNIT_S * units / cal_s


def _per_layer_units():
    import tracing

    return tracing.PER_LAYER


if __name__ == "__main__":
    main()
