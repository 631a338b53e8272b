"""curvebound benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload W --seed N --seconds 32 --trace 0|1

Workloads: inprocess, cli_mix (see workloads.py for what each
one loads and why).  The run

1. pins BLAS/OpenMP to one thread, so each run is a single-threaded baseline;
2. with --trace 0, times set-up in fresh interpreters (import curvebound and
   build the first job's family), several probes spread over the run;
3. starts the workload process (worker.py), which warms up and then runs jobs
   one at a time for --seconds (a closed loop with one client), pausing at
   even points of that phase while this process times a set-up probe;
4. times the calibration kernel (calib.py) right before and after every
   job and set-up probe, and scales the reported times by it to a machine
   of fixed speed, so the drifting speed of a shared machine cancels;
5. checks every job's output and compares a fixed number of jobs against
   references (closed forms, an independent 1-d quadrature, or refined
   sampling and quadrature);
6. prints a detail line (environment, job counts, raw wall times, tail
   percentile, worst deviation) and, last, one JSON object with the metrics.

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the worker
runs each job untraced and then again under the span tracer, and the metrics
are per layer, per job.  At most one process computes at a time: the
workload process (with a cli_mix job's CLI child) or one set-up probe, while
this one waits.

Exits 2 without a result when the checkout has no curvebound sources.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from calib import REF_S, calibrate, scale  # noqa: E402

SETUP_PROBES = 12
TAIL_BEYOND = 10
DIGITS_CAP = 16.0  # deviations below 1e-16 are below double-precision resolution
DEADLINE_S = 170.0


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _worker_argv(args, out_dir, *extra):
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--root", str(ROOT), "--out-dir", str(out_dir), *extra]


def measure_setup(args, out_dir, deadline, probes):
    """Times from starting a fresh interpreter to the first job ready, each
    with the calibration kernel's mean time right before and after it."""
    times = []
    for _ in range(probes):
        cal = calibrate()
        t0 = time.perf_counter()
        proc = subprocess.Popen(_worker_argv(args, out_dir, "--setup-only"),
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            _fail("set-up probe failed")
        times.append((t1 - t0, 0.5 * (cal + calibrate())))
    return times


def _tail(times):
    """Time at the highest percentile with at least TAIL_BEYOND jobs beyond it."""
    s = sorted(times)
    i = len(s) - TAIL_BEYOND - 1
    if i < 0:  # too few jobs: report the maximum and say so
        return s[-1], 100.0
    return s[i], 100.0 * (i + 1) / len(s)


def _job_mean(records, weights):
    """Mean job time scaled to the reference machine: each job class scaled
    by its own calibrations, then weighted by its share of the workload's job
    cycle, so the classes a run happens to end on do not move the mean."""
    done = [r for r in records if r["error"] is None and r["t"] is not None]
    per_class = {c: scale([r["t"] for r in done if r["class"] == c],
                          [r["cal"] for r in done if r["class"] == c])
                 for c in weights if any(r["class"] == c for r in done)}
    return sum(weights[c] * v for c, v in per_class.items()) / sum(weights[c] for c in per_class)


def check_records(cb, records, accuracy_jobs, reruns=None):
    """Count failed jobs and the worst reference deviation of the first
    accuracy_jobs jobs."""
    failed, worst, problems = 0, 0.0, []
    for rec in records:
        spec, accurate = rec["spec"], rec["id"] < accuracy_jobs
        if rec["error"] is not None:
            issues, err = [rec["error"]], None
        elif spec["workload"] == "cli_mix":
            issues, err = workloads.check_cli(cb, spec, rec["exit"], rec["out"], accurate)
            if reruns is not None and str(rec["id"]) in reruns and reruns[str(rec["id"])] != rec["out"]:
                issues.append("rerun output not byte-identical")
        else:
            issues, err = workloads.check_inprocess(cb, spec, rec["out"], accurate)
        if err is not None:
            worst = max(worst, err)
        if issues:
            failed += 1
            problems.append({"id": rec["id"], "class": rec["class"], "issues": issues})
    return failed, worst, problems


def _environment(args):
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu": cpu, "nproc": os.cpu_count(),
            "seed": args.seed, "commit": commit, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    src = ROOT / "src"
    if not (src / "curvebound" / "__init__.py").is_file():
        _fail(f"no curvebound sources under {src}")
    sys.path.insert(0, str(src))

    out_dir = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    setup = []
    probes = 0
    if args.trace == 0:
        # one unmeasured probe leaves compiled bytecode on disk, as for a
        # user's second run; the measured probes are spread over the whole run
        # (evenly through the timed phase, while the worker waits, and one
        # after it)
        measure_setup(args, out_dir, deadline, 1)
        probes = SETUP_PROBES - 1

    # own process group, so a timeout also ends the CLI child of a cli_mix job
    proc = subprocess.Popen(_worker_argv(args, out_dir, "--probes", str(probes)),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    watchdog = threading.Timer(max(deadline - time.monotonic() - 20.0, 1.0),
                               os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    lines = []
    try:
        for line in proc.stdout:
            if line.strip() == "probe":
                setup += measure_setup(args, out_dir, deadline, 1)
                proc.stdin.write("go\n")
                proc.stdin.flush()
            else:
                lines.append(line)
    except BrokenPipeError:
        pass
    except BaseException:  # a failed probe or an interrupt: end the worker too
        os.killpg(proc.pid, signal.SIGKILL)
        raise
    finally:
        watchdog.cancel()
        proc.stdin.close()
        proc.stdout.close()
        proc.wait()
    if proc.returncode == -signal.SIGKILL:
        _fail("workload process timed out")
    if proc.returncode != 0:
        _fail(f"workload process exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if args.trace == 0:
        setup += measure_setup(args, out_dir, deadline, 1)

    import curvebound as cb

    for module_file in (cb.__file__, result["module_file"]):
        if not Path(module_file).resolve().is_relative_to(src.resolve()):
            _fail(f"curvebound imported from {module_file}, not from {src}")

    records = result["records"]
    for rec in records:
        rec["spec"] = workloads.make_job(args.workload, args.seed, rec["id"])
    failed, worst, problems = check_records(cb, records, workloads.ACCURACY_JOBS[args.workload],
                                            result.get("reruns"))
    attempted = len(records)
    times = [r["t"] for r in records if r["error"] is None and r["t"] is not None]
    if not times:
        _fail("no job completed")

    detail = {"environment": _environment(args), "jobs": attempted, "failed": failed,
              "problems": problems[:10], "max_rel_err": worst,
              "class_p50_s": {c: statistics.median(r["t"] for r in records
                                                   if r["class"] == c and r["t"] is not None)
                              for c in sorted({r["class"] for r in records})}}
    if args.trace == 0:
        tail, pct = _tail(times)
        cals = [r["cal"] for r in records if r["error"] is None and r["t"] is not None]
        # raw wall times are printed here but not bounded: on a shared machine
        # they move with the machine's speed, which the scaled metrics cancel
        # (see calib.py and README)
        detail.update(job_p50_s=statistics.median(times), job_tail_s=tail,
                      tail_percentile=pct, tail_jobs_beyond=min(TAIL_BEYOND, len(times) - 1),
                      jobs_per_s=len(times) / result["phase_s"], import_s=result["import_s"],
                      setup_p50_s=statistics.median(t for t, _ in setup),
                      setup_probes_s=[round(t, 4) for t, _ in setup],
                      calibration_ref_s=REF_S, calibration_p50_s=statistics.median(cals),
                      setup_calibrations_s=[round(c, 4) for _, c in setup],
                      job_times_s=[round(t, 4) for t in times],
                      job_calibrations_s=[round(c, 4) for c in cals])
        metrics = {
            "setup_s": {"value": scale(*zip(*setup)), "unit": "s"},
            "job_mean_s": {"value": _job_mean(records, workloads.CLASS_WEIGHTS[args.workload]),
                           "unit": "s"},
            "accuracy_digits": {"value": min(-math.log10(worst), DIGITS_CAP) if worst > 0
                                else DIGITS_CAP, "unit": "digits"},
            "peak_rss_mb": {"value": result["maxrss_kb"] / 1024.0, "unit": "MB"},
        }
    else:
        traced = result["traced_records"]
        for rec in traced:
            rec["spec"] = workloads.make_job(args.workload, args.seed, rec["id"])
        # the traced pass repeats the untraced jobs: structural checks only
        t_failed, _, t_problems = check_records(cb, traced, 0)
        failed += t_failed
        attempted += len(traced)
        problems += t_problems
        plain_t = {r["id"]: r["t"] for r in records if r["error"] is None and r["t"]}
        ratios = [r["t"] / plain_t[r["id"]] for r in traced
                  if r["error"] is None and r["t"] and r["id"] in plain_t]
        metrics = dict(result["layers"])
        metrics["trace.overhead_frac"] = {"value": statistics.median(ratios) - 1.0, "unit": "ratio"}
        detail.update(absent=result["absent"], spans_file=result["spans_file"],
                      traced_jobs=len(traced), failed=failed, problems=problems[:10])

    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
