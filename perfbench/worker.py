"""One workload process: set up, run passes of the job list, check, report.

Started by run.py, one at a time, as a fresh interpreter with BLAS pinned
to one thread.  It prints one JSON object on stdout.  --t-spawn is the
client's time.monotonic() just before it started this process, so the
set-up time covers interpreter start, ``import ltnet``, ``import ltnet.cli``
and making the workload's inputs.  A fixed calibration mix is timed right
after set-up and before every job, so run.py can scale both times to one
machine speed.
"""

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_CAL_UNITS = 8  # calibration units timed right after set-up
PASS_CAL_UNITS = 16  # calibration units per pass, at least one before each job


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    t = time.perf_counter()
    import ltnet
    t_ltnet = time.perf_counter() - t
    t = time.perf_counter()
    import ltnet.cli  # noqa: F401
    t_cli = time.perf_counter() - t
    if Path(ltnet.__file__).resolve().parent != (root / "src" / "ltnet").resolve():
        sys.exit(f"ltnet was imported from {ltnet.__file__}, not from this checkout's src/")

    import numpy as np
    import scipy
    import workloads

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
        jobs = wl.jobs()
        setup_s = time.monotonic() - args.t_spawn
        calibrate = Calibration()
        result = {"setup_s": setup_s, "setup_cal_s": calibrate(SETUP_CAL_UNITS),
                  "jobs": [label for label, _ in jobs],
                  "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                               "scipy": scipy.__version__}}
        if not args.setup_only:
            result.update(measure(args, wl, jobs, out_dir, calibrate))
            if "per_layer" in result:
                result["per_layer"].update({"import.ltnet.s": t_ltnet, "import.ltnet_cli.s": t_cli})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


class Calibration:
    """A fixed mix of the kinds of work ltnet does, timed as a gauge of the
    machine's speed at that moment: an interpreter loop, small-vector NumPy
    steps, batched einsum steps and a small HiGHS LP, about 2.5 ms each on
    the baseline machine.  It allocates little, so peak_rss_mb stays the
    workload's, and it calls nothing in ltnet, so a change to ltnet does not
    change its time."""

    def __init__(self):
        import numpy as np
        from scipy.optimize import linprog

        rng = np.random.default_rng(0)
        self.np, self.linprog = np, linprog
        self.W, self.Wb = np.full((8, 8), 0.01), np.full((64, 8, 8), 0.01)
        self.A, self.b = rng.normal(size=(12, 4)), np.abs(rng.normal(size=12)) + 1.0

    def __call__(self, units):
        np = self.np
        t = time.perf_counter()
        for _ in range(units):
            acc = 0
            for i in range(26_000):
                acc += i * i
            x, d = np.zeros(8), np.ones(8)
            for _ in range(500):
                x = np.minimum(np.maximum(self.W @ x + d, 0.0), 5.0)
            X = np.ones((64, 8))
            for _ in range(180):
                X = np.maximum(np.einsum("bij,bj->bi", self.Wb, X) + 0.5, 0.0)
            self.linprog(np.zeros(4), A_ub=self.A, b_ub=self.b, bounds=[(None, None)] * 4,
                         method="highs")
        return time.perf_counter() - t


def measure(args, wl, jobs, out_dir, calibrate):
    """A warm-up pass, then passes over the job list for --seconds.

    Before each job the calibration runs; a pass's time is the sum of its
    jobs' times, and its calibration time is recorded beside it."""
    import tracing
    import workloads

    ref = []  # first-pass outputs; later passes must reproduce them exactly
    failures = []
    times, traced_times, cals = [], [], []
    units = max(1, PASS_CAL_UNITS // len(jobs))

    def run_pass(tracer=None):
        p = len(times) + len(traced_times) + bool(ref)
        outputs = []
        elapsed = cal = 0.0
        for j, (label, job) in enumerate(jobs):
            cal += calibrate(units)
            t0 = time.perf_counter()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    if tracer is None:
                        outputs.append(job())
                    else:
                        tracer.job = f"p{p}.j{j}:{label}"
                        with tracer.span("job"):
                            outputs.append(job())
            except Exception as e:  # a job that raises counts as failed
                outputs.append(e)
            elapsed += time.perf_counter() - t0
        for j, ((label, _), out) in enumerate(zip(jobs, outputs)):
            if isinstance(out, Exception):
                failures.append(f"pass {p} {label}: raised {out!r}")
            elif not ref:
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        wl.check(label, out)
                except workloads.CheckFailed as e:
                    failures.append(f"pass {p} {label}: {e}")
            elif not workloads.same(ref[j], out):
                failures.append(f"pass {p} {label}: output differs from the first pass")
        if not ref:
            ref.extend(outputs)
        return elapsed, cal

    # the first pass warms caches and lazy imports and is checked against the
    # oracles; it is not timed into run_s.  With --trace 1, untraced and traced
    # passes alternate, so both see the same machine conditions.
    warmup_s, _ = run_pass()
    tracer = tracing.Tracer() if args.trace else None
    per_pass, rounds = [], []
    # stop before the round (one untraced pass, and one traced pass with
    # --trace 1) that would overrun --seconds, judged by the median round
    while len(times) < 2 or sum(rounds) + statistics.median(rounds) <= args.seconds:
        t_round = time.perf_counter()
        elapsed, cal = run_pass()
        times.append(elapsed)
        cals.append(cal)
        if tracer is not None:
            first = len(tracer.spans)
            tracer.install()
            try:
                traced_times.append(run_pass(tracer)[0])
            finally:
                tracer.uninstall()
            per_pass.append(tracer.take_pass(first))
        rounds.append(time.perf_counter() - t_round)
    result = {"warmup_s": warmup_s, "pass_s": times, "pass_cal_s": cals,
              "pass_cal_units": units * len(jobs), "failures": failures,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        layer, drift = {}, []
        for name, unit in tracing.PER_LAYER:
            values = [m[name] for m in per_pass]
            if unit in tracing.TIME_UNITS:
                layer[name] = statistics.median(values)
            else:  # a work counter: every traced pass must give the same count
                layer[name] = values[0]
                if any(v != values[0] for v in values):
                    drift.append(f"{name}: {values}")
        layer["trace.counter_drift"] = len(drift)
        layer["trace.untraced_run_s"] = statistics.median(times)
        layer["trace.run_s"] = statistics.median(traced_times)
        layer["trace.overhead_ratio"] = layer["trace.run_s"] / layer["trace.untraced_run_s"]
        result.update(traced_pass_s=traced_times, per_layer=layer, drift=drift)
    result["attempted"] = len(jobs) * (1 + len(times) + len(traced_times))
    return result


if __name__ == "__main__":
    main()
