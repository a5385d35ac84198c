"""Self-tests of the benchmark's own code.

Run from the repository root with ``python -m pytest perfbench -q``.
They need neither the program nor a network; nothing here is timed.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import loads  # noqa: E402
import measure  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def test_nearest_rank_picks_the_ceil_rank():
    samples = [float(x) for x in range(1, 101)]  # 1..100
    assert measure.nearest_rank(samples, 50) == (50.0, 50)
    assert measure.nearest_rank(samples, 99) == (99.0, 1)
    assert measure.nearest_rank(samples, 99.5) == (100.0, 0)
    assert measure.nearest_rank([3.0, 1.0, 2.0], 50) == (2.0, 1)


def test_tail_percentile_keeps_ten_samples_beyond():
    tail = measure.tail_percentile([float(x) for x in range(2000)])
    assert (tail["percentile"], tail["beyond"], tail["qualified"]) == (99.0, 20, True)
    tail = measure.tail_percentile([float(x) for x in range(1000)])
    assert (tail["percentile"], tail["beyond"], tail["value"]) == (99.0, 10, 989.0)
    tail = measure.tail_percentile([float(x) for x in range(500)])
    assert (tail["percentile"], tail["beyond"]) == (98.0, 10)
    tail = measure.tail_percentile([float(x) for x in range(200)])
    assert (tail["percentile"], tail["beyond"]) == (95.0, 10)


def test_tail_percentile_with_too_few_samples_is_the_median():
    tail = measure.tail_percentile([5.0, 1.0, 3.0])
    assert tail == {"percentile": 50.0, "value": 3.0, "beyond": 1,
                    "samples": 3, "qualified": False}


def test_tail_percentile_basis_fixes_the_percentile():
    # 48 samples would allow p75, but a run always has only 16
    samples = [float(x) for x in range(48)]
    assert measure.tail_percentile(samples)["percentile"] == 75.0
    tail = measure.tail_percentile(samples, basis=16)
    assert (tail["percentile"], tail["qualified"], tail["beyond"]) == (50.0, False, 24)
    assert tail["value"] == 23.5


# ----------------------------------------------------------------------
# failures
# ----------------------------------------------------------------------
def test_failed_refused_and_mismatched_ops_all_count():
    ops = measure.Ops()
    for _ in range(7):
        ops.ok()
    ops.fail("failed", "exit 1")
    ops.fail("refused", "bad-spec")
    ops.fail("mismatched", "digest")
    assert (ops.attempted, ops.bad) == (10, 3)
    assert ops.failed_ratio == pytest.approx(0.3)
    with pytest.raises(ValueError):
        ops.fail("slow", "not a failure kind")


def _context(reference):
    return run.Context("figures-cold", 1, 1.0, Path("."), reference)


def _finished(code, stdout):
    return measure.Finished(code, stdout, "", 0.0, 1.0, 50.0)


def test_wrong_figures_output_is_a_failed_operation():
    ctx = _context({"figures": {"stdout_sha256": oracle.digest("right\n")}})
    assert run._check_figures(ctx, _finished(0, "right\n"))
    assert not run._check_figures(ctx, _finished(0, "wrong\n"))
    assert not run._check_figures(ctx, _finished(1, "right\n"))
    assert (ctx.ops.attempted, ctx.ops.mismatched, ctx.ops.failed) == (3, 1, 1)


def test_wrong_run_output_is_a_failed_operation():
    out = "total cycles        : 1234\n"
    ctx = _context({"run": {"pairs": {"art/smarq": {
        "stdout_sha256": oracle.digest(out), "total_cycles": 1234}}}})
    assert run._check_run(ctx, _finished(0, out), ("art", "smarq")) == 1234
    assert run._check_run(ctx, _finished(0, out + "x"), ("art", "smarq")) is None
    assert (ctx.ops.attempted, ctx.ops.bad) == (2, 1)
    assert oracle.total_cycles(out) == 1234


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def _tree():
    """root [0,10] -> a [1,4], b [5,9] -> c [6,7]; plus a second root."""
    tree = spans.Spans()
    tree.extend(
        ["root", "a", "b", "c", "other"],
        [0.0, 1.0, 5.0, 6.0, 11.0],
        [10.0, 4.0, 9.0, 7.0, 12.0],
        [-1, 0, 0, 2, -1],
        [1, 1, 1, 1, 2],
    )
    return tree


def test_self_time_subtracts_direct_children_only():
    assert spans.self_times(_tree()) == [3.0, 3.0, 3.0, 1.0, 1.0]


def test_unattributed_is_window_minus_root_coverage():
    tree = _tree()
    assert spans.unattributed(tree, (0.0, 14.0)) == pytest.approx(3.0)
    assert spans.unattributed(tree, (2.0, 11.5)) == pytest.approx(1.0)
    assert spans.covered([(0, 2), (1, 3), (5, 6)]) == 4


def test_recorder_nests_spans_and_assigns_jobs(tmp_path):
    recorder = spans.SpanRecorder()
    job_name = spans.JOB_SPANS[0]
    leaf = recorder.wrap("leaf", lambda x: x + 1)
    job = recorder.wrap(job_name, lambda x: leaf(x) * 2)
    assert leaf(1) == 2  # outside any job
    assert job(1) == 4
    assert job(2) == 6
    out = tmp_path / "spans.bin"
    recorder.dump(str(out))
    back = spans.load(str(out))
    assert back.names == ["leaf", job_name, "leaf", job_name, "leaf"]
    assert back.parent == [-1, -1, 1, -1, 3]
    assert back.job == [0, 1, 1, 2, 2]
    assert all(e >= s for s, e in zip(back.start, back.end))


def test_recorder_counts_from_return_values():
    recorder = spans.SpanRecorder()
    name = "repro.opt.translation_cache.TranslationCache.get_stage"
    get = recorder.wrap(name, lambda key: None if key % 2 else key)
    for key in range(4):
        get(key)
    assert recorder.counts[name]["hit"] == 2


def test_layer_metrics_divide_by_units():
    tree = spans.Spans()
    step = "repro.frontend.interpreter.Interpreter.step"
    tree.extend([step, step], [0.0, 2.0], [1.0, 4.0], [-1, -1], [0, 0],
                {step: {"steps": 2}})
    metrics = spans.layer_metrics(tree, units=2)
    assert metrics["frontend.interpret_s"] == pytest.approx(1.5)
    assert metrics["frontend.steps"] == 1.0
    assert set(run.PER_LAYER) - {"unattributed_s", "trace.overhead_ratio"} <= set(metrics)


# ----------------------------------------------------------------------
# seeded draws
# ----------------------------------------------------------------------
def _rounds(seed, n):
    stream = loads.run_rounds(seed)
    return [next(stream) for _ in range(n)]


def test_run_rounds_are_deterministic_and_balanced():
    assert _rounds(7, 3) == _rounds(7, 3)
    assert _rounds(7, 3) != _rounds(8, 3)
    for pairs in _rounds(7, 3):
        assert [b for b, _ in pairs] == list(loads.BENCHMARKS)
        schemes = [s for _, s in pairs]
        assert all(schemes.count(s) >= 2 for s in loads.SCHEMES)
    seven = [pair for pairs in _rounds(7, 7) for pair in pairs]
    assert sorted(seven) == sorted(
        (b, s) for b in loads.BENCHMARKS for s in loads.SCHEMES)


def test_serve_batches_are_deterministic_and_mixed():
    def take(seed, n):
        stream = loads.serve_batches(seed)
        return [next(stream) for _ in range(n)]

    assert take(3, 40) == take(3, 40)
    assert take(3, 40) != take(4, 40)
    batches = take(3, 40)
    warmup = loads.SERVE_WARMUP_BATCHES
    seen = {spec for batch in batches[:warmup] for spec in batch}
    # the warm-up touches every (benchmark, scheme) pair once
    assert len(seen) == loads.SERVE_WARMUP_SPECS
    assert {(b, s) for b, s, _ in seen} == {
        (b, s) for b in loads.BENCHMARKS for s in loads.SERVE_SCHEMES}
    assert {x for _, _, x in seen} == {loads.SERVE_WARMUP_SCALE}
    order = [spec for batch in batches[:warmup] for spec in batch]
    for batch in batches[warmup:]:
        recent = set(order[-loads.SERVE_REPEAT_WINDOW:])
        fresh = [spec for spec in batch if spec not in seen]
        # every repeat comes from the recent window
        assert set(batch) - set(fresh) <= recent
        order.extend(fresh)
        assert len(batch) == loads.SERVE_BATCH
        assert len(set(fresh)) == loads.SERVE_FRESH_PER_BATCH
        seen.update(batch)
    assert seen <= set(loads.serve_universe())


def test_reference_covers_every_draw():
    reference = oracle.load_reference()
    assert reference["backend"] == "interp"
    assert set(reference["run"]["pairs"]) == {
        loads.pair_key((b, s)) for b in loads.BENCHMARKS for s in loads.SCHEMES}
    assert set(reference["serve"]["specs"]) == {
        loads.spec_key(spec) for spec in loads.serve_universe()}


# ----------------------------------------------------------------------
# comparing records
# ----------------------------------------------------------------------
def test_compare_refuses_different_settings():
    base = {"settings": {"seed": 1, "batch_flavor": "numpy", "nproc": 2},
            "metrics": {"wall_s": 10.0}}
    same = {"settings": dict(base["settings"]), "metrics": {"wall_s": 11.0}}
    other = {"settings": dict(base["settings"], batch_flavor="pure"),
             "metrics": {"wall_s": 10.0}}
    assert compare.settings_differences(base, same) == []
    assert compare.settings_differences(base, other) == [
        "batch_flavor: 'numpy' != 'pure'"]
    bounds = {"wall_s": {"better": "lower", "bound": 0.05}}
    assert compare.verdicts(base, same, bounds)[0]["within"] is False
    assert compare.verdicts(base, base, bounds)[0]["within"] is True
