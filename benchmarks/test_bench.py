"""Self-tests of the benchmark harness; run with `python -m pytest benchmarks`.

They sit outside the Tier-1 `testpaths`, so benchmark timing never runs
in the default test suite.
"""
from __future__ import annotations

import json

import pytest
from antinomy import builtin_registry

import bench
import tracing
import workloads


def small(name: str, seed: int = 5) -> workloads.Workload:
    if name == "generate-all":
        return workloads.generate_all(seed, count=3)
    return workloads.BUILDERS[name](seed, 60)


@pytest.mark.parametrize("name", list(workloads.BUILDERS))
def test_traced_output_matches_untraced_cli(name):
    workload = small(name)
    untraced = bench.run_cli(workload.args, workload.stdin, "selftest")
    assert not untraced.crashed
    stdout, values, _tracer = bench.traced_once(workload)
    assert stdout == untraced.stdout
    assert workloads.count_failures(workload, stdout) == 0
    assert values["trace.self_sum_s"] == pytest.approx(values["trace.wall_s"], abs=1e-9)


def test_wrappers_are_restored_even_after_an_error():
    def bindings():
        out = {}
        for module_name, path, _name in tracing.TARGETS:
            owner, attr = tracing._resolve(module_name, path)
            out[(module_name, path)] = vars(owner)[attr]
        return out

    before = bindings()
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.Tracer()) as installed:
            assert len(installed) == len(tracing.TARGETS)
            during = bindings()
            assert all(during[key] is not before[key] for key in before)
            raise RuntimeError("boom")
    after = bindings()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("name", list(workloads.BUILDERS))
def test_builders_are_deterministic_per_seed(name):
    assert small(name, 7) == small(name, 7)
    assert small(name, 7).digest == small(name, 7).digest
    assert small(name, 7).digest != small(name, 8).digest


def test_detect_inputs_have_the_promised_shape():
    generated = workloads.detect_generated(3, 72)
    assert len(generated.lines) == len(generated.labels) == 72
    assert "27" not in generated.labels and generated.labels.count("23") == 4
    first_block = workloads.head(generated, 36)
    assert first_block.lines == generated.lines[:36]
    assert sorted(first_block.labels) == sorted(
        workloads.IDENTICAL_PATTERNS.get(s.class_id, s.class_id) for s in builtin_registry())
    prose = workloads.detect_prose(3, 200)
    vocab = set(workloads.prose_vocabulary())
    for line in prose.lines:
        tokens = line[:-1].replace(",", " ,").split() + [line[-1]]
        assert 4 <= len(tokens) <= 30
        assert all(t == "," or t.lower() in vocab for t in tokens[:-1])


def test_peak_rss_is_the_childs_own():
    # A child forked from a large parent must not report the parent's RSS.
    ballast = bytearray(64 * 1024 * 1024)
    ballast[::4096] = b"x" * len(ballast[::4096])
    run = bench.run_cli(*workloads.empty_input(small("detect-prose")), "selftest")
    assert not run.crashed
    assert 0 < run.peak_rss_kb < 48 * 1024


def test_checks_count_wrong_outputs():
    generated = small("detect-generated")
    stdout = bench.run_cli(generated.args, generated.stdin, "selftest").stdout
    records = [json.loads(line) for line in stdout.decode().splitlines()]
    first = records[0]
    wrong = "1" if first["class"] != "1" else "4"
    records[0] = dict(first, **{"class": wrong})
    broken = "".join(json.dumps(r) + "\n" for r in records).encode()
    assert workloads.count_failures(generated, broken) == 1
    assert workloads.count_failures(generated, stdout + b"not json\n") == 1

    gen = small("generate-all")
    stdout = bench.run_cli(gen.args, gen.stdin, "selftest").stdout
    assert workloads.count_failures(gen, stdout) == 0
    assert workloads.count_failures(gen, stdout.replace(b'"seed": ', b'"seed": 1', 1)) == 1
    assert workloads.count_failures(gen, b"\n".join(stdout.splitlines()[:-1])) == 1


def test_reference_sub_seed_matches_published_splitmix64():
    # First outputs of SplitMix64 seeded with 1234567 (reference C code).
    assert [workloads.reference_sub_seed(1234567, i) for i in range(3)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423]


def test_self_time_subtracts_covered_child_intervals():
    # root [0,10] with children a [1,4] (child g [2,3]), b [5,9], c [8,11];
    # c overlaps b and runs past the root, so only [5,10] counts once.
    start = [0.0, 1.0, 2.0, 5.0, 8.0]
    end = [10.0, 4.0, 3.0, 9.0, 11.0]
    parent = [-1, 0, 1, 0, 0]
    assert tracing.self_times(start, end, parent) == pytest.approx([2.0, 2.0, 1.0, 4.0, 3.0])


def test_summary_sums_self_time_per_layer():
    tracer = tracing.Tracer()
    with tracer.span("cli.main"):
        with tracer.span("detector.classify"):
            with tracer.span("lexicon.entry"):
                pass
        with tracer.span("lexicon.entry"):
            pass
    values = tracing.summarize(tracer)
    assert values["lexicon.entry.calls"] == 2
    layers = sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers == pytest.approx(values["trace.wall_s"], abs=1e-12)
    assert values["trace.spans"] == 4
