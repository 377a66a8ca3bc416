"""Job lists, CLI invocation and per-job checking.

A job is one `csmulgen` CLI invocation.  The job lists, the expected
vector counts and the pinned design digests live in reference.json next
to this file.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"


@dataclass(frozen=True)
class Job:
    name: str
    width_a: int
    width_b: int
    pipeline: bool
    tests: int
    min_vectors: int
    design_sha256: str | None = None

    @property
    def entity(self):
        return f"mul_{self.width_a}x{self.width_b}{'_p' if self.pipeline else ''}"

    def argv(self, seed: int, out_dir: Path):
        args = ["--width-a", str(self.width_a), "--width-b", str(self.width_b),
                "--tests", str(self.tests), "--seed", str(seed),
                "--out-dir", str(out_dir)]
        return args + (["--pipeline"] if self.pipeline else [])


@dataclass
class JobResult:
    job: Job
    problems: list = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    vectors: int = 0
    cells: int = 0
    latency_cycles: int = 0
    vhdl_bytes: int = 0

    @property
    def ok(self):
        return not self.problems


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def job_from_reference(ref: dict, name: str) -> Job:
    spec = ref["jobs"][name]
    return Job(name=name, width_a=spec["width_a"], width_b=spec["width_b"],
               pipeline=spec["pipeline"], tests=spec["tests"],
               min_vectors=spec["min_vectors"],
               design_sha256=spec.get("design_sha256"))


def workload_jobs(ref: dict, workload: str):
    return [job_from_reference(ref, name) for name in ref["workloads"][workload]["jobs"]]


def program_present() -> bool:
    return (SRC / "csmulgen" / "cli.py").is_file()


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def check_job(result: JobResult, exit_code: int | None, stdout: str, out_dir: Path):
    """Run every correctness check on a finished job and fill in its facts.

    `exit_code` is None for an in-process job that raised; the caller has
    already recorded the exception.
    """
    job = result.job
    if exit_code not in (0, None):
        result.problems.append(f"exit code {exit_code}")
    result.vectors, found = checks.verified_vectors(stdout, job.min_vectors)
    result.problems += found
    try:
        design = (out_dir / f"{job.entity}.vhd").read_bytes()
        bench = (out_dir / f"{job.entity}_tb.vhd").read_bytes()
        metrics = (out_dir / f"{job.entity}_metrics.json").read_text(encoding="utf-8")
    except OSError as exc:
        result.problems.append(f"missing output: {exc}")
        return result
    result.problems += checks.design_problems(design, job.design_sha256)
    result.problems += checks.testbench_problems(
        bench.decode("utf-8"), job.width_a, job.width_b, job.tests)
    result.cells, result.latency_cycles, found = checks.design_facts(metrics)
    result.problems += found
    result.vhdl_bytes = len(design) + len(bench)
    return result


def run_process(cmd, timeout: float, stdout_path: Path, env=None):
    """Run one subprocess to completion or until `timeout` seconds pass.

    Returns (exit_code, wall_s, rusage, timed_out).  The child is always
    reaped before this returns; on timeout it is killed first.
    """
    killed = threading.Event()

    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=env,
                                cwd=ROOT)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage, killed.is_set()


def run_cli_job(job: Job, seed: int, work_dir: Path, timeout: float) -> JobResult:
    """One CLI subprocess, timed with its own rusage, then checked."""
    out_dir = fresh_dir(work_dir / job.name)
    stdout_path = work_dir / f"{job.name}.stdout"
    cmd = [sys.executable, "-m", "csmulgen.cli"] + job.argv(seed, out_dir)
    code, wall, usage, timed_out = run_process(cmd, timeout, stdout_path, cli_env())
    result = JobResult(job, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                       rss_mb=usage.ru_maxrss / 1024.0)
    if timed_out:
        result.problems.append(f"timed out after {timeout:.0f} s")
        return result
    return check_job(result, code, stdout_path.read_text(encoding="utf-8"), out_dir)
