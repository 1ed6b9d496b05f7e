"""The benchmark's tracer still fits the code: every binding it must wrap
exists, and one generate -> verify reaches every span it expects."""

from conftest import load_perfbench


def test_tracer_wraps_and_covers_a_generate_verify_run(tmp_path):
    workloads = load_perfbench("workloads")
    spans = load_perfbench("tracer")
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.unpatched() == []
        for cmd in workloads.instance("rational", (2, 0, "u"), str(tmp_path)).commands:
            code, output = workloads.run_in_process(cmd, tracer)
            assert code == 0, output
    finally:
        tracer.uninstall()
    assert spans.coverage_problems(tracer.spans, tracer.snapshot_counts(), generates=True) == []
