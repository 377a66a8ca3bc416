"""csmulgen benchmark: runs the real CLI on fixed job lists.

    python3 perfbench/run.py --workload exhaustive_sweep --seed 1 --seconds 55 --trace 0

The load is a closed loop with one client: this process runs one CLI
subprocess at a time and starts the next job when the previous one has
exited.  The seed is passed to the CLI as `--seed`; it changes the
verification and testbench vectors, never the designs.

With `--trace 0` the job list is run round-robin for `--seconds`
seconds (at least one full pass) and the end-to-end metrics are
reported: per-job medians summed over the job list for time, the
largest `ru_maxrss` for memory.  With `--trace 1` the job list runs
once as CLI subprocesses and once in-process under the span tracer
(tracer.py), and the per-layer metrics are reported.  Every job is
checked (checks.py); a job that fails a check, crashes or times out
counts in `failed`.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import jobs as jobs_mod
import summary
import tracer

RUN_LIMIT_S = 170.0  # every job must have ended by then
JOB_TIMEOUT_S = 120.0
SETUP_FIRST_SAMPLES = 5
SETUP_CMD = [sys.executable, "-c", "import csmulgen.cli"]


class SetupTimer:
    """Wall time of a fresh interpreter importing csmulgen.cli.

    One unmeasured import first, so that byte-code compilation (paid
    once per checkout, not per run) is not counted.  Then a few samples,
    and one more after every job: host speed on a shared machine drifts,
    so samples spread over the whole run give a steadier median than
    samples taken back to back.
    """

    def __init__(self, work_dir, deadline):
        self.work_dir, self.deadline = work_dir, deadline
        self.samples = []
        for _ in range(SETUP_FIRST_SAMPLES + 1):
            self.sample()
        del self.samples[0]

    def sample(self):
        timeout = min(30.0, self.deadline - time.monotonic())
        if timeout <= 0 and self.samples:
            return
        code, wall, _, timed_out = jobs_mod.run_process(
            SETUP_CMD, timeout, self.work_dir / "setup.stdout", jobs_mod.cli_env())
        if code != 0 or timed_out:
            raise SystemExit("error: `import csmulgen.cli` failed in a fresh interpreter")
        self.samples.append(wall)

    @property
    def median(self):
        return statistics.median(self.samples)


def run_job(job, seed, work_dir, deadline, setup):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        result = jobs_mod.JobResult(job)
        result.problems.append("not run: the run's time limit was reached")
        return result
    result = jobs_mod.run_cli_job(job, seed, work_dir, min(JOB_TIMEOUT_S, remaining))
    setup.sample()
    return result


def untraced_results(job_list, seed, seconds, work_dir, deadline, setup):
    """One full pass, then more jobs round-robin while they fit in `seconds`."""
    results = []
    start = time.monotonic()
    last_wall = {}
    i = 0
    while True:
        job = job_list[i % len(job_list)]
        if i >= len(job_list) and (time.monotonic() - start + last_wall[job.name] > seconds
                                   or time.monotonic() >= deadline):
            break
        result = run_job(job, seed, work_dir, deadline, setup)
        results.append(result)
        last_wall[job.name] = result.wall_s
        i += 1
    return results


def job_facts(result):
    return (result.vectors, result.cells, result.latency_cycles, result.vhdl_bytes)


def check_repeats(results):
    """Every run of a job must produce the same exact facts as its first."""
    first = {}
    for r in results:
        if r.ok and first.setdefault(r.job.name, job_facts(r)) != job_facts(r):
            r.problems.append(f"exact facts {job_facts(r)} differ from an earlier "
                              f"run's {first[r.job.name]}")


def end_to_end(job_list, results, setup_s):
    by_job = {job.name: [r for r in results if r.job.name == job.name] for job in job_list}
    firsts = [runs[0] for runs in by_job.values()]
    return {
        "wall_s": sum(statistics.median(r.wall_s for r in runs) for runs in by_job.values()),
        "cpu_s": sum(statistics.median(r.cpu_s for r in runs) for runs in by_job.values()),
        "setup_s": setup_s,
        "peak_rss_mb": max(r.rss_mb for r in results),
        "vectors_verified": sum(r.vectors for r in firsts),
        "design_cells": sum(r.cells for r in firsts),
        "vhdl_bytes": sum(r.vhdl_bytes for r in firsts),
    }


def traced(workload, job_list, seed, work_dir, deadline, setup):
    """Untraced CLI pass, then the traced in-process pass; per-layer metrics."""
    cli_results = [run_job(job, seed, work_dir, deadline, setup) for job in job_list]
    spans_path = jobs_mod.WORK_ROOT / f"trace_{workload}.json"
    spans_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(jobs_mod.BENCH_DIR / "tracer.py"),
           "--workload", workload, "--seed", str(seed), "--out", str(spans_path)]
    code, _, _, timed_out = jobs_mod.run_process(
        cmd, max(deadline - time.monotonic(), 0.0), work_dir / "tracer.stdout")
    if code != 0 or timed_out or not spans_path.is_file():
        for job in job_list:
            failed = jobs_mod.JobResult(job)
            failed.problems.append("traced run did not finish" +
                                   (" (timed out)" if timed_out else f" (exit {code})"))
            cli_results.append(failed)
        return cli_results, None

    doc = json.loads(spans_path.read_text(encoding="utf-8"))
    by_name = {job.name: job for job in job_list}
    traced_results = []
    for rec in doc["jobs"]:
        r = jobs_mod.JobResult(by_name[rec["name"]])
        r.problems, r.wall_s = rec["problems"], rec["wall_s"]
        r.vectors, r.cells = rec["vectors"], rec["cells"]
        r.latency_cycles, r.vhdl_bytes = rec["latency_cycles"], rec["vhdl_bytes"]
        traced_results.append(r)
    results = cli_results + traced_results
    check_repeats(results)

    untraced_net_s = sum(r.wall_s for r in cli_results) - setup.median * len(cli_results)
    metrics = tracer.layer_metrics(doc["spans"], traced_results, untraced_net_s)
    print(summary.render(doc), file=sys.stderr)
    return results, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    if not jobs_mod.program_present():
        print(f"error: {jobs_mod.SRC / 'csmulgen'} is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    ref = jobs_mod.load_reference()
    if args.workload not in ref["workloads"]:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(ref['workloads'])}", file=sys.stderr)
        return 2
    declared = json.loads((jobs_mod.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    job_list = jobs_mod.workload_jobs(ref, args.workload)
    work_dir = jobs_mod.fresh_dir(jobs_mod.WORK_ROOT / args.workload)

    setup = SetupTimer(work_dir, deadline)
    if args.trace:
        results, values = traced(args.workload, job_list, args.seed, work_dir, deadline,
                                 setup)
        declared_metrics = declared["per_layer"]
    else:
        results = untraced_results(job_list, args.seed, args.seconds, work_dir, deadline,
                                   setup)
        check_repeats(results)
        values = end_to_end(job_list, results, setup.median)
        declared_metrics = declared["end_to_end"]

    failed = [r for r in results if not r.ok]
    for r in failed:
        print(f"FAILED {r.job.name}: " + "; ".join(r.problems), file=sys.stderr)
    correct = not failed and values is not None
    metrics = {m["name"]: {"value": values[m["name"]] if values else 0, "unit": m["unit"]}
               for m in declared_metrics}
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
