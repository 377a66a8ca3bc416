"""Pin the sha256 of each job's design .vhd in reference.json.

    python3 perfbench/record_digests.py                 # record missing digests
    python3 perfbench/record_digests.py --repin 8x8p    # deliberately re-pin one job

Every job is run through the CLI once and must pass every other
correctness check first.  A digest that is already recorded and differs
is never overwritten unless its job is named with --repin: a design
change has to be re-pinned on purpose, not silently.  Nothing is
written unless every job passes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys

import checks
import jobs as jobs_mod

RECORD_SEED = 1
RECORD_TIMEOUT_S = 600.0


def pin(ref: dict, digests: dict, repin: set):
    """Write `digests` into the reference's jobs; returns (changed, refused).

    A recorded digest that differs is replaced only when its job is in
    `repin`; otherwise it is left alone and reported as refused.
    """
    changed, refused = [], []
    for name, digest in digests.items():
        spec = ref["jobs"][name]
        old = spec.get("design_sha256")
        if old == digest:
            continue
        if old and name not in repin:
            refused.append(f"{name}: recorded {old}, now {digest}")
            continue
        spec["design_sha256"] = digest
        changed.append(name)
    return changed, refused


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repin", action="append", default=[], metavar="JOB",
                        help="allow replacing this job's recorded digest (repeatable)")
    args = parser.parse_args(argv)

    ref = jobs_mod.load_reference()
    unknown = set(args.repin) - set(ref["jobs"])
    if unknown:
        parser.error(f"unknown jobs: {sorted(unknown)}")
    work_dir = jobs_mod.fresh_dir(jobs_mod.WORK_ROOT / "record")
    digests, broken = {}, []
    for name in ref["jobs"]:
        job = dataclasses.replace(jobs_mod.job_from_reference(ref, name), design_sha256=None)
        result = jobs_mod.run_cli_job(job, RECORD_SEED, work_dir, RECORD_TIMEOUT_S)
        problems = [p for p in result.problems if p != checks.UNPINNED]
        if problems:
            broken.append(f"{name}: " + "; ".join(problems))
        else:
            digests[name] = checks.sha256_hex(
                (work_dir / name / f"{job.entity}.vhd").read_bytes())
    changed, refused = pin(ref, digests, set(args.repin))
    for line in broken:
        print(f"error: job fails its checks, not recording: {line}", file=sys.stderr)
    for line in refused:
        print(f"error: digest changed; pass --repin to replace it: {line}", file=sys.stderr)
    if broken or refused:
        return 1
    if changed:
        ref["recorded_with"] = {"python": platform.python_version(),
                                "nproc": len(os.sched_getaffinity(0))}
        jobs_mod.REFERENCE.write_text(json.dumps(ref, indent=2) + "\n", encoding="utf-8")
    for name in changed:
        print(f"{name}: {digests[name]}")
    print(f"{len(changed)} digests recorded, {len(ref['jobs']) - len(changed)} unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
