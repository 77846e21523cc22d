"""Tests of the benchmark itself: tiny end-to-end runs of every workload,
stub request counts against the traced HTTP calls, span self times and
seeded input generation."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from bench import inputs, speed, tracing  # noqa: E402
from bench.run import WORKLOAD_NAMES  # noqa: E402
from bench.stub_server import StubProcess, request_counts  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = ROOT / "bench" / "run.py"


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_is_correct_and_reports_every_end_to_end_metric(workload):
    result = _run(workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


def test_traced_tiny_run_reports_every_per_layer_metric():
    result = _run("steer-http", trace=1)
    assert result["correct"] is True
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["http.retries"] == 0 and metrics["http.failures"] == 0
    assert metrics["llm_requests"] > 0 and metrics["embed_requests"] > 0
    assert metrics["metric.train.self_s"] <= metrics["metric.train.busy_s"]


def test_stub_counts_equal_post_json_calls_without_retries(tmp_path):
    from pdial.embedding import EmbeddingBackendConfig, embed_batch
    from pdial.llm_client import LlmBackendConfig, complete

    table = tmp_path / "chat.json"
    table.write_text(json.dumps({"say hi": "hi there"}), encoding="utf-8")
    with StubProcess(16, table, 0.0, 2, cwd=ROOT) as stub:
        embed_cfg = EmbeddingBackendConfig(kind="http", endpoint_url=stub.embed_url, dimension=16, batch_size=2)
        llm_cfg = LlmBackendConfig(kind="http", endpoint_url=stub.chat_url, samples_n=2)
        with tracing.Tracer() as tracer:
            vectors = embed_batch(["one", "two", "three"], embed_cfg)
            outputs = complete("say hi", llm_cfg)
        counts = request_counts(stub.stats())
    assert len(vectors) == 3 and outputs == ["hi there", "hi there"]
    posts = [s for s in tracer.spans if s.name == "http.post_json"]
    assert counts == {"llm_requests": 2, "embed_requests": 2, "non_200": 0}
    assert len(posts) == counts["llm_requests"] + counts["embed_requests"]
    assert not any(s.failed for s in posts)


def test_tracer_restores_every_wrapped_name():
    import pdial.cli
    import pdial.pca

    before = (pdial.cli.train, pdial.pca.jacobi_eigh)
    with tracing.Tracer():
        assert pdial.cli.train is not before[0]
        assert pdial.pca.jacobi_eigh is not before[1]
    assert (pdial.cli.train, pdial.pca.jacobi_eigh) == before


def _span(i, start, end, parent=None):
    return tracing.Span(id=i, name=f"s{i}", start=start, end=end, parent=parent, command=1)


def test_self_times_of_a_span_tree_sum_to_the_root_duration():
    spans = [_span(1, 0, 10), _span(2, 1, 4, 1), _span(3, 2, 3, 2), _span(4, 5, 7, 1)]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 5, 2: 2, 3: 1, 4: 2}
    assert sum(selfs.values()) == spans[0].duration


def test_overlapping_children_are_subtracted_once():
    # Concurrent children [1, 4] and [3, 6], and one running past its parent.
    spans = [_span(1, 0, 10), _span(2, 1, 4, 1), _span(3, 3, 6, 1), _span(4, 8, 12, 1)]
    selfs = tracing.self_times(spans)
    assert selfs[1] == 10 - 5 - 2
    assert tracing.span_problems(spans) == []


def test_speed_correction_scales_cpu_time_and_keeps_waiting():
    probe = speed.SpeedProbe(capacity=3)
    slow = 2 * speed.REFERENCE_PROBE_S
    # Two probes at half the reference speed inside [10, 14], one before it.
    probe.starts[:], probe.walls[:], probe.cpus[:] = speed.array("d", [9.0, 11.0, 12.0]), *[speed.array("d", [slow] * 3)] * 2
    probe.count = 3
    # 4 s of wall time, 3 s of it CPU (the probes included): 1 s waiting stays,
    # the 3 s - 2 probes of CPU run twice as fast at the reference speed.
    got = probe.corrected(10.0, 14.0, 3.0)
    assert got == pytest.approx(1.0 + (3.0 - 2 * slow) / 2)
    # Too short to be probed: the probes before it set the speed.
    assert probe.corrected(12.5, 12.6, 0.1) == pytest.approx(0.05)


def test_inputs_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    fixtures = ROOT / "tests" / "fixtures"

    def tables(seed, name):
        files = inputs.write_steer_inputs(fixtures, tmp_path / name, seed)
        return files.table.read_bytes(), files.prompts.read_bytes()

    assert tables(5, "a") == tables(5, "b")
    assert tables(5, "a") != tables(6, "c")
    spec = json.loads((tmp_path / "a" / "prompts.json").read_text(encoding="utf-8"))
    table = json.loads((tmp_path / "a" / "mock_table.json").read_text(encoding="utf-8"))
    assert len(spec["base_phrases"]) * len(spec["slots"][0]) * len(spec["slots"][1]) == len(table) == 27
