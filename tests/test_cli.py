import json
import subprocess
import sys

import pytest

from csmulgen.cli import main


def run_cli(*argv):
    return main(list(argv))


def test_happy_path_writes_three_files(tmp_path, capsys):
    code = run_cli("--width-a", "4", "--width-b", "4",
                   "--out-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "mul_4x4.vhd").exists()
    assert (tmp_path / "mul_4x4_tb.vhd").exists()
    assert (tmp_path / "mul_4x4_metrics.json").exists()
    out = capsys.readouterr().out
    assert "pass" in out.lower()


def test_pipeline_flag_changes_entity_name(tmp_path):
    assert run_cli("--width-a", "4", "--width-b", "4", "--pipeline",
                   "--out-dir", str(tmp_path)) == 0
    assert (tmp_path / "mul_4x4_p.vhd").exists()


def test_metrics_file_is_valid_json(tmp_path):
    run_cli("--width-a", "3", "--width-b", "5", "--out-dir", str(tmp_path))
    data = json.loads((tmp_path / "mul_3x5_metrics.json").read_text())
    assert data["width_a"] == 3 and data["width_b"] == 5
    assert data["generation_time_ms"] is not None


def test_usage_error_on_bad_width(tmp_path, capsys):
    assert run_cli("--width-a", "0", "--width-b", "4",
                   "--out-dir", str(tmp_path)) == 1
    out = capsys.readouterr()
    assert out.err == "error: operand widths must be >= 1\n"
    assert "generating" not in out.out
    assert not list(tmp_path.iterdir())


def test_usage_error_on_negative_tests(tmp_path, capsys):
    assert run_cli("--width-a", "4", "--width-b", "4", "--tests", "-1",
                   "--out-dir", str(tmp_path)) == 1
    assert "--tests must be >= 0" in capsys.readouterr().err


def test_usage_error_on_unknown_flag(capsys):
    assert run_cli("--frobnicate") == 1


def test_usage_error_on_exhaustive_too_wide(tmp_path, capsys):
    assert run_cli("--width-a", "16", "--width-b", "16",
                   "--verify", "exhaustive", "--out-dir", str(tmp_path)) == 1
    out = capsys.readouterr()
    assert "capped at" in out.err
    assert "generating" not in out.out
    assert not list(tmp_path.iterdir())


def test_capacity_ceiling_respected(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CSMULGEN_MAX_WIDTH", "4")
    assert run_cli("--width-a", "5", "--width-b", "2",
                   "--out-dir", str(tmp_path)) == 1
    assert "ceiling" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["abc", "2.5", "0", "-5",
                                 pytest.param("0" * 5000 + "8", id="5001-digits")])
def test_bad_capacity_env_is_a_usage_error(tmp_path, monkeypatch, capsys, raw):
    monkeypatch.setenv("CSMULGEN_MAX_WIDTH", raw)
    assert run_cli("--width-a", "4", "--width-b", "4",
                   "--out-dir", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert "CSMULGEN_MAX_WIDTH" in err and "positive integer" in err
    assert len(err) < 200  # quotes a long value's head and its length
    assert not list(tmp_path.iterdir())


def test_verify_off_prints_no_verification(tmp_path, capsys):
    """With `--verify off` the testbench's pairs are still simulated, but
    a passing check prints nothing."""
    assert run_cli("--width-a", "4", "--width-b", "4", "--verify", "off",
                   "--out-dir", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "verifying" not in out
    assert "PASS" not in out
    assert (tmp_path / "mul_4x4_tb.vhd").exists()


def test_verify_off_without_vectors(tmp_path, capsys):
    """`--tests 0` checks no pairs and writes a testbench without asserts."""
    assert run_cli("--width-a", "4", "--width-b", "4", "--pipeline", "--verify", "off",
                   "--tests", "0", "--out-dir", str(tmp_path)) == 0
    assert "FAIL" not in capsys.readouterr().out
    text = (tmp_path / "mul_4x4_p_tb.vhd").read_text()
    assert "constant waittime" in text and "assert" not in text


def test_entity_name_override(tmp_path):
    assert run_cli("--width-a", "2", "--width-b", "2",
                   "--entity-name", "tiny_mult",
                   "--out-dir", str(tmp_path)) == 0
    assert (tmp_path / "tiny_mult.vhd").exists()
    text = (tmp_path / "tiny_mult_tb.vhd").read_text()
    assert "tiny_mult_tb" in text


@pytest.mark.parametrize("name", ["signal", "abc\n"])
def test_reserved_entity_name_fails_cleanly(tmp_path, capsys, name):
    code = run_cli("--width-a", "2", "--width-b", "2",
                   "--entity-name", name, "--out-dir", str(tmp_path))
    assert code == 1
    assert "error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_empty_entity_name_fails_cleanly(tmp_path, capsys):
    """An empty name is given, and illegal: it is not the default."""
    code = run_cli("--width-a", "2", "--width-b", "2",
                   "--entity-name", "", "--out-dir", str(tmp_path))
    assert code == 1
    assert "'' is not a legal VHDL basic identifier" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["--width-a", "20", "--width-b", "20", "--pipeline"],
    ["--width-a", "8", "--width-b", "8"],
    ["--width-a", "20", "--width-b", "20", "--pipeline", "--verify", "off"],
], ids=["random", "exhaustive", "off"])
def test_cli_job_settles_the_netlist_once(tmp_path, monkeypatch, argv):
    """Verification and the testbench's pairs share one simulation; with
    `--verify off` that simulation checks the testbench's pairs alone."""
    from csmulgen import sim
    settle = sim._settle
    calls = []

    def counted(*args):
        calls.append(1)
        return settle(*args)

    monkeypatch.setattr(sim, "_settle", counted)
    assert run_cli(*argv, "--out-dir", str(tmp_path)) == 0
    assert len(calls) == 1


def test_more_than_100_tests_verify_the_testbench_pairs(tmp_path, capsys):
    from csmulgen.sim import random_pairs
    assert run_cli("--width-a", "20", "--width-b", "20", "--tests", "150",
                   "--seed", "4", "--out-dir", str(tmp_path)) == 0
    assert "PASS: 150 random vectors, all exact" in capsys.readouterr().out
    text = (tmp_path / "mul_20x20_tb.vhd").read_text()
    words = [int(line.rsplit(":", 1)[1]) for line in text.splitlines()
             if "-- input vector:" in line]
    assert list(zip(words[::2], words[1::2])) == random_pairs(20, 20, 150, 4)


def test_repeat_runs_are_byte_identical(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for d in (a_dir, b_dir):
        assert run_cli("--width-a", "6", "--width-b", "6", "--pipeline",
                       "--seed", "11", "--tests", "17",
                       "--out-dir", str(d)) == 0
    for name in ("mul_6x6_p.vhd", "mul_6x6_p_tb.vhd"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()
    am = json.loads((a_dir / "mul_6x6_p_metrics.json").read_text())
    bm = json.loads((b_dir / "mul_6x6_p_metrics.json").read_text())
    am.pop("generation_time_ms"), bm.pop("generation_time_ms")
    assert am == bm


def test_cli_import_leaves_out_dataclasses(src_env):
    """A CLI job's start-up is mostly the package's import, so importing
    `csmulgen.cli` leaves out `dataclasses` and what it pulls in."""
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, csmulgen.cli; "
         f"print(sorted(set({heavy!r}) & set(sys.modules)))"],
        capture_output=True, text=True, env=src_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_module_entry_point(tmp_path, src_env):
    proc = subprocess.run(
        [sys.executable, "-m", "csmulgen",
         "--width-a", "2", "--width-b", "3", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=src_env)
    assert proc.returncode == 0
    assert (tmp_path / "mul_2x3.vhd").exists()


@pytest.mark.parametrize("mode", ["auto", "random", "exhaustive", "off"])
def test_verification_failure_exit_code(tmp_path, monkeypatch, capsys, swap_outputs,
                                        mode):
    """Every mode, `off` included, simulates the testbench's pairs at
    least, names the first wrong product and writes nothing."""
    from csmulgen.netlist import CODE, FULL_ADDER, validate
    from csmulgen.sim import verify_exhaustive, verify_random
    nets = []

    def defect(nl):
        swap_outputs(nl, nl.kinds.index(CODE[FULL_ADDER]))
        nets.append(nl)
    _generate_sabotaged(monkeypatch, defect)
    code = run_cli("--width-a", "4", "--width-b", "4", "--verify", mode,
                   "--out-dir", str(tmp_path))
    assert code == 3
    (nl,) = nets
    report = validate(nl)
    want = (verify_exhaustive(report) if mode in ("auto", "exhaustive")
            else verify_random(report, 100, 1))
    c = want.counterexample
    assert f"FAIL: {c['a']} x {c['b']} expected {c['expected']}" in capsys.readouterr().out
    assert not list(tmp_path.iterdir())


def _generate_sabotaged(monkeypatch, defect):
    """Have the CLI apply `defect` to each netlist it generates."""
    import csmulgen.cli as cli_mod
    real = cli_mod.generate_with_annotations

    def sabotaged(cfg):
        nl, passes = real(cfg)
        defect(nl)
        return nl, passes

    monkeypatch.setattr(cli_mod, "generate_with_annotations", sabotaged)


def _bypass_validation(monkeypatch):
    """Let any defect past the findings of the CLI's one `validate`;
    the report keeps its latency verdict."""
    import csmulgen.cli as cli_mod
    from csmulgen.netlist import validate

    def without_findings(nl):
        report = validate(nl)
        report.findings.clear()
        return report
    monkeypatch.setattr(cli_mod, "validate", without_findings)


def _reversed(reorder):
    """A defect that stores a netlist's primitives in reverse order."""
    return lambda nl: reorder(nl, range(len(nl.kinds) - 1, -1, -1))


def _first_dff_dropped(drop_dff):
    """A defect that drops a netlist's first register."""
    from csmulgen.netlist import CODE, DFF
    return lambda nl: drop_dff(nl, nl.kinds.index(CODE[DFF]))


def test_unbalanced_pipeline_fails_validation(tmp_path, monkeypatch, capsys, drop_dff):
    _generate_sabotaged(monkeypatch, _first_dff_dropped(drop_dff))
    assert run_cli("--width-a", "4", "--width-b", "4", "--pipeline",
                   "--out-dir", str(tmp_path)) == 2
    assert "unbalanced-registers" in capsys.readouterr().err


def test_out_of_order_netlist_fails_validation(tmp_path, monkeypatch, capsys, reorder):
    _generate_sabotaged(monkeypatch, _reversed(reorder))
    assert run_cli("--width-a", "4", "--width-b", "4", "--pipeline",
                   "--out-dir", str(tmp_path)) == 2
    assert "validation error [out-of-order]" in capsys.readouterr().err


def test_unknown_signal_fails_validation(tmp_path, monkeypatch, capsys, set_pin):
    _generate_sabotaged(monkeypatch, lambda nl: set_pin(nl, 0, 0, nl.signal_count))
    assert run_cli("--width-a", "4", "--width-b", "4",
                   "--out-dir", str(tmp_path)) == 2
    assert "validation error [unknown-signal]" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_netlist_error_after_validation_exits_2(tmp_path, monkeypatch, capsys,
                                                drop_dff):
    _generate_sabotaged(monkeypatch, _first_dff_dropped(drop_dff))
    _bypass_validation(monkeypatch)
    assert run_cli("--width-a", "4", "--width-b", "4", "--pipeline",
                   "--verify", "off", "--out-dir", str(tmp_path)) == 2
    assert "register" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.vhd"))


def test_out_of_order_netlist_after_validation_exits_2(tmp_path, monkeypatch, capsys,
                                                       reorder):
    """With `validate`'s findings dropped, the out-of-order verdict its
    report carries still stops the job with exit 2."""
    _generate_sabotaged(monkeypatch, _reversed(reorder))
    _bypass_validation(monkeypatch)
    assert run_cli("--width-a", "4", "--width-b", "4", "--pipeline",
                   "--verify", "off", "--out-dir", str(tmp_path)) == 2
    assert "is read before its driver" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.vhd"))


def test_sim_error_after_validation_exits_3(tmp_path, monkeypatch, capsys):
    import csmulgen.cli as cli_mod
    from csmulgen.sim import SimError

    def broken(report, count, seed):
        raise SimError("simulator refused")

    monkeypatch.setattr(cli_mod, "verify_random", broken)
    assert run_cli("--width-a", "4", "--width-b", "4", "--verify", "random",
                   "--out-dir", str(tmp_path)) == 3
    assert "simulator refused" in capsys.readouterr().err


def test_miswired_skew_chain_fails_verification(tmp_path, monkeypatch, capsys,
                                                 signal_levels):
    """Cross the last output-deskew registers of product bits 0 and 1.
    Both sit at the same register depth and the netlist stays in
    dependency order, so validate finds nothing; only simulation can
    catch it.  On 4x4p every other same-depth register swap either
    breaks the order, which validate reports, or leaves the product
    unchanged."""
    import csmulgen.cli as cli_mod
    from csmulgen.mulgen import GeneratorConfig, generate_with_annotations
    from csmulgen.netlist import DFF, validate

    nl, passes = generate_with_annotations(GeneratorConfig(4, 4, True))
    q1, q2 = nl.output_p[:2]
    dff_outputs = {p.outputs[0] for p in nl.primitives if p.kind == DFF}
    assert {q1, q2} <= dff_outputs
    reg_min = signal_levels(nl)[1]
    assert reg_min[q1] == reg_min[q2] == 6
    nl.output_p[:2] = [q2, q1]
    assert validate(nl).findings == []

    monkeypatch.setattr(cli_mod, "generate_with_annotations", lambda cfg: (nl, passes))
    assert run_cli("--width-a", "4", "--width-b", "4", "--pipeline",
                   "--out-dir", str(tmp_path)) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "PASS" not in out
