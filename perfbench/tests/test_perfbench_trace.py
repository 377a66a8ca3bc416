"""The traced run: exact counts repeat, and every per-layer metric is produced."""

import json

import jobs
import tracer

SEED = 3


def tiny_jobs():
    ref = jobs.load_reference()
    return [jobs.job_from_reference(ref, name) for name in ref["test_jobs"]]


def declared_per_layer():
    return json.loads((jobs.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]


def traced_metrics(work_dir):
    t, results = tracer.traced_run(tiny_jobs(), SEED, work_dir)
    assert all(r.ok for r in results), [r.problems for r in results]
    return t, tracer.layer_metrics(t.spans, results, 1.0)


def test_exact_counts_repeat_between_two_traced_runs(tmp_path):
    _, first = traced_metrics(tmp_path / "one")
    _, second = traced_metrics(tmp_path / "two")
    exact = [m["name"] for m in declared_per_layer()
             if m["unit"] in ("count", "bytes", "cycles")]
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first["sim.vectors_verified"] == 32
    assert first["sim.run_to_output_calls"] == 16
    assert first["mulgen.latency_calls"] == 4
    assert first["netlist.topo_sort_calls"] > 0 and first["mulgen.dffs"] > 0


def test_every_declared_per_layer_metric_is_computed(tmp_path):
    _, metrics = traced_metrics(tmp_path)
    assert {m["name"] for m in declared_per_layer()} <= set(metrics)


def test_spans_nest_under_their_job(tmp_path):
    t, _ = traced_metrics(tmp_path)
    for span in t.spans:
        if span[tracer.NAME] == tracer.JOB_SPAN:
            assert span[tracer.PARENT] == -1
        else:
            parent = t.spans[span[tracer.PARENT]]
            assert parent[tracer.JOB] == span[tracer.JOB]
            assert parent[tracer.START] <= span[tracer.START] <= span[tracer.END] <= parent[tracer.END]


def test_missing_wrapped_name_reports_zero_calls(tmp_path, monkeypatch):
    monkeypatch.setattr(tracer, "WRAPPED", tracer.WRAPPED + [
        ("csmulgen.sim", "no_such_function", "sim.gone")])
    t, metrics = traced_metrics(tmp_path)
    assert t.missing == ["csmulgen.sim.no_such_function"]
    assert metrics["cli.errors"] == 0
