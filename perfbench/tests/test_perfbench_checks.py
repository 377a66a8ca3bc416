"""Each correctness check rejects a deliberately corrupted artifact.

    python3 -m pytest -q perfbench/tests
"""

import re
import shutil
import sys

import pytest

import checks
import jobs
import record_digests

SEED = 7


@pytest.fixture(scope="module")
def job_run(tmp_path_factory):
    """One real CLI run of the pinned 2x2p job: (job, result, out_dir, stdout)."""
    work_dir = tmp_path_factory.mktemp("work")
    job = jobs.job_from_reference(jobs.load_reference(), "2x2p")
    result = jobs.run_cli_job(job, SEED, work_dir, timeout=120)
    stdout = (work_dir / f"{job.name}.stdout").read_text(encoding="utf-8")
    return job, result, work_dir / job.name, stdout


def copy_outputs(job_run, tmp_path):
    job, _, out_dir, _ = job_run
    dst = tmp_path / job.name
    shutil.copytree(out_dir, dst)
    return dst


def test_pristine_job_passes(job_run):
    job, result, _, _ = job_run
    assert result.ok, result.problems
    assert result.vectors == 16 and result.cells > 0 and result.latency_cycles > 0


def test_wrong_expected_product_in_testbench_is_rejected(job_run, tmp_path):
    job, _, _, stdout = job_run
    out_dir = copy_outputs(job_run, tmp_path)
    tb = out_dir / f"{job.entity}_tb.vhd"
    text = tb.read_text(encoding="utf-8")
    m = re.search(r"assert \(vec2int\(sp\) = (\d+)\)", text)
    wrong = str(int(m.group(1)) + 1)
    tb.write_text(text[:m.start(1)] + wrong + text[m.end(1):], encoding="utf-8")

    assert checks.testbench_problems(tb.read_text(encoding="utf-8"), 2, 2, job.tests)
    result = jobs.check_job(jobs.JobResult(job), 0, stdout, out_dir)
    assert not result.ok


def test_missing_assert_is_a_failure_not_a_skipped_check(job_run, tmp_path):
    job, _, _, _ = job_run
    out_dir = copy_outputs(job_run, tmp_path)
    text = (out_dir / f"{job.entity}_tb.vhd").read_text(encoding="utf-8")
    lines = text.splitlines()
    first_assert = next(i for i, line in enumerate(lines) if "vec2int(sp) =" in line)
    del lines[first_assert]
    assert checks.testbench_problems("\n".join(lines), 2, 2, job.tests)


def test_flipped_byte_in_design_is_rejected(job_run, tmp_path):
    job, _, _, stdout = job_run
    out_dir = copy_outputs(job_run, tmp_path)
    design = out_dir / f"{job.entity}.vhd"
    data = bytearray(design.read_bytes())
    data[len(data) // 2] ^= 0x01
    design.write_bytes(bytes(data))

    assert checks.design_problems(bytes(data), job.design_sha256)
    assert not jobs.check_job(jobs.JobResult(job), 0, stdout, out_dir).ok


def test_pass_line_with_too_few_vectors_is_rejected(job_run):
    job, _, out_dir, stdout = job_run
    weakened = stdout.replace("PASS: 16 ", "PASS: 15 ")
    assert weakened != stdout
    vectors, problems = checks.verified_vectors(weakened, job.min_vectors)
    assert vectors == 15 and problems
    assert not jobs.check_job(jobs.JobResult(job), 0, weakened, out_dir).ok


def test_missing_pass_line_is_rejected(job_run):
    job, _, out_dir, stdout = job_run
    without = "\n".join(line for line in stdout.splitlines() if not line.startswith("PASS"))
    assert checks.verified_vectors(without, job.min_vectors)[1]
    assert not jobs.check_job(jobs.JobResult(job), 0, without, out_dir).ok


def test_hanging_job_is_killed_and_counted(tmp_path):
    cmd = [sys.executable, "-c", "import time; time.sleep(60)"]
    code, wall, _, timed_out = jobs.run_process(cmd, 0.5, tmp_path / "out.txt")
    assert timed_out and code != 0 and wall < 30


def test_recorder_refuses_to_overwrite_a_digest_unless_repinned():
    ref = {"jobs": {"a": {"design_sha256": "old"}, "b": {}}}
    changed, refused = record_digests.pin(ref, {"a": "new", "b": "fresh"}, repin=set())
    assert changed == ["b"] and len(refused) == 1
    assert ref["jobs"]["a"]["design_sha256"] == "old"

    changed, refused = record_digests.pin(ref, {"a": "new"}, repin={"a"})
    assert changed == ["a"] and not refused
    assert ref["jobs"]["a"]["design_sha256"] == "new"
