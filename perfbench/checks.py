"""Correctness checks on the artifacts of one csmulgen CLI job.

Every check is strict: a line or field that is missing counts as a
failure, never as a check skipped.  Each function returns a list of
problem strings; an empty list means the artifact passed.
"""

from __future__ import annotations

import hashlib
import json
import re

PASS_RE = re.compile(r"^PASS: (\d+) (\w+) vectors, all exact$")
SX_RE = re.compile(r'^\s*sx <= "([01]+)";$')
SY_RE = re.compile(r'^\s*sy <= "([01]+)";$')
OUTPUT_COMMENT_RE = re.compile(r"^\s*-- output: (\d+)$")
ASSERT_INT_RE = re.compile(r"^\s*assert \(vec2int\(sp\) = (\d+)\)$")
ASSERT_BITS_RE = re.compile(r'^\s*assert \(sp = "([01]+)"\)$')


def verified_vectors(stdout: str, min_vectors: int):
    """Parse the CLI's PASS line; returns (vectors, problems).

    Exactly one PASS line must be present and it must report at least
    `min_vectors` vectors: fewer means verification was weakened.
    """
    lines = stdout.splitlines()
    if any(line.startswith("FAIL") for line in lines):
        return 0, ["stdout reports a verification FAIL"]
    found = [m for m in map(PASS_RE.match, lines) if m]
    if len(found) != 1:
        return 0, [f"stdout has {len(found)} PASS lines, expected exactly 1"]
    vectors = int(found[0].group(1))
    if vectors < min_vectors:
        return vectors, [f"PASS reports {vectors} vectors, expected at least {min_vectors}"]
    return vectors, []


def testbench_problems(text: str, width_a: int, width_b: int, tests: int):
    """Check every vector of an emitted testbench against Python `a*b`.

    A vector is an `sx` assignment, an `sy` assignment, an `-- output`
    comment and the asserting comparison, in that order.  The operands
    are read from the stimulus bit strings and the expectation from the
    assert itself, because those are what a VHDL simulator would use.
    """
    problems = []
    vectors = 0
    a = b = comment = None
    for lineno, line in enumerate(text.splitlines(), 1):
        if m := SX_RE.match(line):
            if a is not None:
                problems.append(f"line {lineno}: sx assigned twice without an assert")
            a, b, comment = _operand(m.group(1), width_a, lineno, problems), None, None
        elif m := SY_RE.match(line):
            if a is None or b is not None:
                problems.append(f"line {lineno}: sy assignment out of order")
            b = _operand(m.group(1), width_b, lineno, problems)
        elif m := OUTPUT_COMMENT_RE.match(line):
            comment = int(m.group(1))
        elif m := ASSERT_INT_RE.match(line) or ASSERT_BITS_RE.match(line):
            if m.re is ASSERT_INT_RE:
                expected = int(m.group(1))
            else:
                bits = m.group(1)
                if len(bits) != width_a + width_b:
                    problems.append(f"line {lineno}: product literal has {len(bits)} bits")
                expected = int(bits, 2)
            if a is None or b is None:
                problems.append(f"line {lineno}: assert without both operands")
            elif expected != a * b:
                problems.append(f"line {lineno}: expects {expected}, but {a}*{b} = {a * b}")
            elif comment != expected:
                problems.append(f"line {lineno}: output comment {comment} != {expected}")
            vectors += 1
            a = b = comment = None
    if a is not None:
        problems.append("testbench ends inside an unfinished vector")
    if vectors != tests:
        problems.append(f"testbench checks {vectors} vectors, expected {tests}")
    return problems


def _operand(bits, width, lineno, problems):
    if len(bits) != width:
        problems.append(f"line {lineno}: operand literal has {len(bits)} bits, expected {width}")
    return int(bits, 2)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


UNPINNED = "no design digest is recorded for this job"


def design_problems(data: bytes, pinned_sha256: str | None):
    if not pinned_sha256:
        return [UNPINNED]
    got = sha256_hex(data)
    if got != pinned_sha256:
        return [f"design sha256 {got} differs from the recorded {pinned_sha256}"]
    return []


def design_facts(metrics_text: str):
    """(cells, latency_cycles, problems) from the CLI's metrics JSON.

    Cells are the instantiated primitives: AND gates, adders and DFFs.
    A combinational design reports latency 0 cycles.
    """
    try:
        doc = json.loads(metrics_text)
        cells = sum(int(doc[key]) for key in
                    ("and_gates", "full_adders", "half_adders", "dffs"))
        cycles = doc["latency"]["cycles"]
    except (ValueError, KeyError, TypeError) as exc:
        return 0, 0, [f"metrics JSON is malformed: {exc!r}"]
    if cells <= 0:
        return 0, 0, ["metrics JSON reports no cells"]
    return cells, int(cycles or 0), []
