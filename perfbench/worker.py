"""The workload process: import, warm up, run jobs in a closed loop, report.

One job runs at a time.  In-process jobs build their family before the job
clock starts (building families is set-up, measured separately), then time the
library call.  cli_mix jobs time one CLI subprocess each.

Modes:
  --setup-only   import curvebound, build the first job's family, print "ready"
  --trace 0      run jobs for --seconds, print per-job results (with the
                 calibration kernel's time around each job) as JSON; with
                 --probes K, print "probe" and wait for a line on standard
                 input at K evenly spaced points of the timed phase, so the
                 parent can time a set-up probe while this process is idle
  --trace 1      for --seconds, run each job untraced and then again under the
                 tracer; print both timings and layer metrics

Usage: python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
       --root CHECKOUT --out-dir DIR [--setup-only | --probes K]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from calib import calibrate  # noqa: E402


def _cli_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _run_cli(spec, job_dir, root, traced_out=None):
    """Run one CLI job; returns (seconds, exit code, output text or None)."""
    job_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = job_dir / "config.json"
    cfg_path.write_text(json.dumps(spec["config"], indent=1), encoding="utf-8")
    command = spec["class"]
    out_dir = job_dir / "out"
    if traced_out is None:
        argv = [sys.executable, "-m", "curvebound.cli"]
    else:
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(traced_out)]
    argv += [command, "--config", str(cfg_path), "--out", str(out_dir)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=_cli_env(root), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=120)
    dt = time.perf_counter() - t0
    out_file = out_dir / workloads.cli_output_name(command)
    text = out_file.read_text(encoding="utf-8") if out_file.is_file() else None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
    return dt, proc.returncode, text


class Runner:
    def __init__(self, cb, workload, seed, root, out_dir):
        self.cb, self.workload, self.seed = cb, workload, seed
        self.root, self.out_dir = root, out_dir

    def prepare(self, job):
        spec = workloads.make_job(self.workload, self.seed, job)
        if self.workload == "cli_mix":
            return spec, None
        return spec, workloads.build_families(self.cb, spec)

    def run(self, spec, built, tag="", traced_out=None):
        """Time one job; returns a result record."""
        rec = {"id": spec["id"], "class": spec["class"], "t": None, "out": None, "error": None}
        if self.workload == "cli_mix":
            job_dir = self.out_dir / f"job{tag}{spec['id']}"
            try:
                rec["t"], rec["exit"], rec["out"] = _run_cli(spec, job_dir, self.root, traced_out)
            except subprocess.TimeoutExpired:
                rec["error"] = "CLI timed out"
            return rec
        t0 = time.perf_counter()
        try:
            out = workloads.run_job(self.cb, spec, built)
        except Exception as exc:  # a failed job is counted, not fatal
            rec["error"] = f"{type(exc).__name__}: {exc}"
            return rec
        rec["t"] = time.perf_counter() - t0
        rec["out"] = out
        return rec


def _pause_for_probe():
    """Hand the machine to the parent for one set-up probe; returns the pause."""
    t0 = time.perf_counter()
    print("probe", flush=True)
    sys.stdin.readline()
    return time.perf_counter() - t0


def _timed_loop(runner, seconds, probes=0):
    """Run jobs for `seconds` of phase time, pausing for a set-up probe before
    the first job at or past each of `probes` evenly spaced points of it
    (0, seconds/probes, ...).  The calibration kernel runs right before each
    job and once after the last; a job's calibration, `rec["cal"]`, is the
    mean of the runs on either side of it.  Pauses and calibrations are not
    phase time."""
    records, cals = [], []
    job, paused, done = 0, 0.0, 0
    t_start = time.perf_counter()
    while not records or time.perf_counter() - t_start - paused - sum(cals) < seconds:
        if done < probes and (time.perf_counter() - t_start - paused - sum(cals)
                              >= seconds * done / probes):
            paused += _pause_for_probe()
            done += 1
        spec, built = runner.prepare(job)
        cals.append(calibrate())
        records.append(runner.run(spec, built))
        job += 1
    cals.append(calibrate())
    for i, rec in enumerate(records):
        rec["cal"] = 0.5 * (cals[i] + cals[i + 1])
    return records, time.perf_counter() - t_start - paused - sum(cals)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--probes", type=int, default=0,
                    help="pauses for set-up probes in the timed phase (--trace 0)")
    args = ap.parse_args(argv)
    root, out_dir = Path(args.root), Path(args.out_dir)
    sys.path.insert(0, str(root / "src"))

    t0 = time.perf_counter()
    import curvebound as cb
    import_s = time.perf_counter() - t0

    runner = Runner(cb, args.workload, args.seed, root, out_dir)
    if args.setup_only:
        runner.prepare(0)
        print("ready", flush=True)
        return 0

    # warm-up: one job from a seed stream the timed jobs never use
    warm = Runner(cb, args.workload, args.seed + 1_000_003, root, out_dir / "warm")
    warm.run(*warm.prepare(0))
    calibrate()

    result = {"import_s": import_s, "module_file": cb.__file__}
    if args.trace == 0:
        records, phase_s = _timed_loop(runner, args.seconds, args.probes)
        result.update(records=records, phase_s=phase_s)
        if args.workload == "cli_mix":
            # byte-identical reruns of the first job of each subcommand, untimed
            result["reruns"] = {}
            first = {cmd: job for job, cmd in reversed(list(enumerate(workloads.CLI_COMMANDS)))}
            for job in sorted(j for j in first.values() if j < len(records)):
                spec, _ = runner.prepare(job)
                _, code, text = _run_cli(spec, out_dir / f"rerun{job}", root)
                result["reruns"][str(job)] = text if code == 0 else None
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        else:
            usage = resource.getrusage(resource.RUSAGE_SELF)
        result["maxrss_kb"] = usage.ru_maxrss
    else:
        from tracer import JOB, Tracer, layer_metrics

        # each job runs untraced and then traced, back to back, so both
        # timings of a job see the same load on a shared machine
        tracer = Tracer()
        plain, traced, span_sets, import_times = [], [], [], []
        job, t_start = 0, time.perf_counter()
        while not plain or time.perf_counter() - t_start < args.seconds:
            plain.append(runner.run(*runner.prepare(job)))
            tracer.job = job
            if args.workload == "cli_mix":
                span_file = out_dir / f"spans{job}.json"
                spec, built = runner.prepare(job)
                traced.append(runner.run(spec, built, tag="t", traced_out=span_file))
                if span_file.is_file():
                    child = json.loads(span_file.read_text(encoding="utf-8"))
                    for span in child["spans"]:
                        span[JOB] = job
                    span_sets.append(child["spans"])
                    import_times.append(child["import_s"])
                    tracer.absent = child["absent"]
            else:
                tracer.install()
                try:
                    traced.append(runner.run(*runner.prepare(job)))
                finally:
                    tracer.uninstall()
            job += 1
        if args.workload != "cli_mix":
            span_sets.append(tracer.export())
        result.update(records=plain, traced_records=traced, absent=tracer.absent,
                      layers=layer_metrics(span_sets, len(traced), import_times))
        spans_path = out_dir / "spans.jsonl"
        with spans_path.open("w", encoding="utf-8") as fh:
            # one line per span: [span set, name, start, end, parent, job, work, error];
            # parent indexes into the same span set
            for i, spans in enumerate(span_sets):
                for span in spans:
                    fh.write(json.dumps([i, *span]) + "\n")
        result["spans_file"] = str(spans_path)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
