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
    assert "error" in capsys.readouterr().err


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


@pytest.mark.parametrize("raw", ["abc", "2.5", "0", "-5"])
def test_bad_capacity_env_is_a_usage_error(tmp_path, monkeypatch, capsys, raw):
    monkeypatch.setenv("CSMULGEN_MAX_WIDTH", raw)
    assert run_cli("--width-a", "4", "--width-b", "4",
                   "--out-dir", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert "CSMULGEN_MAX_WIDTH" in err and "positive integer" in err
    assert not list(tmp_path.iterdir())


def test_verify_off_skips_simulation(tmp_path, capsys):
    assert run_cli("--width-a", "4", "--width-b", "4", "--verify", "off",
                   "--out-dir", str(tmp_path)) == 0
    assert "verifying" not in capsys.readouterr().out


def test_entity_name_override(tmp_path):
    assert run_cli("--width-a", "2", "--width-b", "2",
                   "--entity-name", "tiny_mult",
                   "--out-dir", str(tmp_path)) == 0
    assert (tmp_path / "tiny_mult.vhd").exists()
    text = (tmp_path / "tiny_mult_tb.vhd").read_text()
    assert "tiny_mult_tb" in text


def test_reserved_entity_name_fails_cleanly(tmp_path, capsys):
    code = run_cli("--width-a", "2", "--width-b", "2",
                   "--entity-name", "signal", "--out-dir", str(tmp_path))
    assert code == 1
    assert "error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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


def test_module_entry_point(tmp_path, src_env):
    proc = subprocess.run(
        [sys.executable, "-m", "csmulgen",
         "--width-a", "2", "--width-b", "3", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=src_env)
    assert proc.returncode == 0
    assert (tmp_path / "mul_2x3.vhd").exists()


def test_verification_failure_exit_code(tmp_path, monkeypatch, capsys):
    import csmulgen.cli as cli_mod
    from csmulgen.netlist import FULL_ADDER
    real = cli_mod.generate_with_annotations

    def sabotaged(cfg):
        nl, passes = real(cfg)
        victim = next(p for p in nl.primitives if p.kind == FULL_ADDER)
        victim.outputs[0], victim.outputs[1] = \
            victim.outputs[1], victim.outputs[0]
        return nl, passes

    monkeypatch.setattr(cli_mod, "generate_with_annotations", sabotaged)
    code = run_cli("--width-a", "4", "--width-b", "4",
                   "--out-dir", str(tmp_path))
    assert code == 3


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
    """Let any defect past the CLI's and the emitter's `validate`."""
    import csmulgen.cli as cli_mod
    import csmulgen.vhdl as vhdl_mod
    from csmulgen.netlist import ValidationReport
    for module in (cli_mod, vhdl_mod):
        monkeypatch.setattr(module, "validate", lambda nl: ValidationReport())


def _reverse_primitives(nl):
    nl.primitives.reverse()


def test_unbalanced_pipeline_fails_validation(tmp_path, monkeypatch, capsys, drop_dff):
    from csmulgen.netlist import DFF
    _generate_sabotaged(monkeypatch, lambda nl: drop_dff(
        nl, next(p for p in nl.primitives if p.kind == DFF)))
    assert run_cli("--width-a", "4", "--width-b", "4", "--pipeline",
                   "--out-dir", str(tmp_path)) == 2
    assert "unbalanced-registers" in capsys.readouterr().err


def test_out_of_order_netlist_fails_validation(tmp_path, monkeypatch, capsys):
    _generate_sabotaged(monkeypatch, _reverse_primitives)
    assert run_cli("--width-a", "4", "--width-b", "4", "--pipeline",
                   "--out-dir", str(tmp_path)) == 2
    assert "validation error [out-of-order]" in capsys.readouterr().err


def test_unknown_signal_fails_validation(tmp_path, monkeypatch, capsys):
    def past_the_end(nl):
        nl.primitives[0].inputs[0] = nl.signal_count
    _generate_sabotaged(monkeypatch, past_the_end)
    assert run_cli("--width-a", "4", "--width-b", "4",
                   "--out-dir", str(tmp_path)) == 2
    assert "validation error [unknown-signal]" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_netlist_error_after_validation_exits_2(tmp_path, monkeypatch, capsys,
                                                drop_dff):
    from csmulgen.netlist import DFF
    _generate_sabotaged(monkeypatch, lambda nl: drop_dff(
        nl, next(p for p in nl.primitives if p.kind == DFF)))
    _bypass_validation(monkeypatch)
    assert run_cli("--width-a", "4", "--width-b", "4", "--pipeline",
                   "--verify", "off", "--out-dir", str(tmp_path)) == 2
    assert "register" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.vhd"))


def test_out_of_order_netlist_after_validation_exits_2(tmp_path, monkeypatch, capsys):
    """With `validate` bypassed, `analyze`'s own order check still
    stops the job with exit 2."""
    _generate_sabotaged(monkeypatch, _reverse_primitives)
    _bypass_validation(monkeypatch)
    assert run_cli("--width-a", "4", "--width-b", "4", "--pipeline",
                   "--verify", "off", "--out-dir", str(tmp_path)) == 2
    assert "is read before its driver" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.vhd"))


def test_sim_error_after_validation_exits_3(tmp_path, monkeypatch, capsys):
    import csmulgen.cli as cli_mod
    from csmulgen.sim import SimError

    def broken(nl, count, seed, *, analysis=None):
        raise SimError("simulator refused")

    monkeypatch.setattr(cli_mod, "verify_random", broken)
    assert run_cli("--width-a", "4", "--width-b", "4", "--verify", "random",
                   "--out-dir", str(tmp_path)) == 3
    assert "simulator refused" in capsys.readouterr().err


def test_miswired_skew_chain_fails_verification(tmp_path, monkeypatch, capsys):
    """Cross the last output-deskew registers of product bits 0 and 1.
    Both sit at the same register depth and the netlist stays in
    dependency order, so validate finds nothing; only simulation can
    catch it.  On 4x4p every other same-depth register swap either
    breaks the order, which validate reports, or leaves the product
    unchanged."""
    import csmulgen.cli as cli_mod
    from csmulgen.mulgen import GeneratorConfig, generate_with_annotations
    from csmulgen.netlist import DFF, analyze, validate

    nl, passes = generate_with_annotations(GeneratorConfig(4, 4, True))
    q1, q2 = nl.output_p[:2]
    dff_outputs = {p.outputs[0] for p in nl.primitives if p.kind == DFF}
    assert {q1, q2} <= dff_outputs
    an = analyze(nl)
    assert an.reg_min[q1] == an.reg_min[q2] == 6
    nl.output_p[:2] = [q2, q1]
    assert validate(nl).findings == []

    monkeypatch.setattr(cli_mod, "generate_with_annotations", lambda cfg: (nl, passes))
    assert run_cli("--width-a", "4", "--width-b", "4", "--pipeline",
                   "--out-dir", str(tmp_path)) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "PASS" not in out


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv, stub, code", [
    (["--width-a", "4", "--width-b", "4"], None, 0),
    (["--width-a", "0", "--width-b", "4"], None, 1),
    (["--width-a", "4", "--width-b", "4", "--pipeline"], "drop_dff", 2),
    (["--width-a", "4", "--width-b", "4", "--verify", "random"], "sim_error", 3),
])
def test_collector_paused_during_job_and_restored(tmp_path, monkeypatch, drop_dff,
                                                  enabled, argv, stub, code):
    import gc
    import csmulgen.cli as cli_mod
    from csmulgen.netlist import DFF
    from csmulgen.sim import SimError

    if stub == "drop_dff":
        real = cli_mod.generate_with_annotations

        def sabotaged(cfg):
            nl, passes = real(cfg)
            drop_dff(nl, next(p for p in nl.primitives if p.kind == DFF))
            return nl, passes
        monkeypatch.setattr(cli_mod, "generate_with_annotations", sabotaged)
    elif stub == "sim_error":
        def broken(nl, count, seed, *, analysis=None):
            raise SimError("simulator refused")
        monkeypatch.setattr(cli_mod, "verify_random", broken)
    during = []  # collector state seen by the job itself
    real_run = cli_mod.run

    def watched(args):
        during.append(gc.isenabled())
        return real_run(args)
    monkeypatch.setattr(cli_mod, "run", watched)

    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert run_cli(*argv, "--out-dir", str(tmp_path)) == code
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert during == [False]
