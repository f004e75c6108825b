"""Checks on the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter

import dfinite.minimize
import dfinite.transcend
import pytest

import make_inputs
import run
import workloads as W
from tracer import Tracer, counters


def _traced_pass(cases):
    tracer = Tracer()
    tracer.install()
    try:
        p = W.Pass()
        W.run_cases(cases, p)
        return counters(tracer.snapshot()), p
    finally:
        tracer.uninstall()


def _mixed_cases():
    """A few cases of every workload kind, small enough for a test."""
    small = W.small_ops_cases(3)
    local = W.local_scan_cases()
    return (W.family_cases()[:1] + local[:1] + small[:10]
            + small[W.SMALL_LCLM_PAIRS:W.SMALL_LCLM_PAIRS + 10])


def test_traced_runs_repeat_exactly():
    first, p1 = _traced_pass(_mixed_cases())
    second, p2 = _traced_pass(_mixed_cases())
    assert p1.failed == p2.failed == 0, p1.errors + p2.errors
    assert first == second
    # the recorded reports are to_json() without "timings"
    assert p1.outputs == p2.outputs
    assert first["linalg.kernel_rank_mod_p"]["cells"] > 0
    assert first["series.unroll"]["terms"] > 0


def test_wrappers_reach_every_alias_and_come_off():
    original = dfinite.linalg.kernel_rank_mod_p
    assert dfinite.minimize.kernel_rank_mod_p is original  # copied by "from .linalg import"
    tracer = Tracer()
    tracer.install()
    try:
        assert dfinite.minimize.kernel_rank_mod_p is not original
        assert dfinite.minimize.kernel_rank_mod_p is dfinite.linalg.kernel_rank_mod_p
        assert dfinite.transcendence_test is dfinite.transcend.transcendence_test
        assert tracer.unwrapped_aliases() == []
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    assert dfinite.minimize.kernel_rank_mod_p is original


def test_self_check_names_a_layer_that_reads_zero():
    _, p = _traced_pass(W.family_cases()[:1])
    tracer = Tracer()
    p.layers = {}
    with pytest.raises(run.HarnessError, match="cli.main recorded no call"):
        run.self_check("family", tracer, p)


def test_small_ops_inputs_come_from_the_seed():
    def as_json(inputs):
        pairs, picks = inputs
        return json.dumps([[W.D.fileio.op_to_json(x) for x in pair] for pair in pairs] + picks)

    a, b, c = W.small_ops_inputs(5), W.small_ops_inputs(5), W.small_ops_inputs(6)
    assert as_json(a) == as_json(b)
    assert as_json(a) != as_json(c)
    # the degree vectors are one deal for every seed (small_ops_shapes)
    assert [(x.order, y.order) for x, y in a[0]] == [(u.order, v.order) for u, v in c[0]]
    assert [s for s, _ in a[1]] == [s for s, _ in c[1]]
    for _, picks in (a, c):
        assert len(set(picks)) == len(picks)  # no pool entry twice in a pass


def test_a_verdict_other_than_the_pinned_one_fails():
    pool = W.verdict_pool()
    with open(W.DATA / "small_verdicts.json") as fh:
        pinned = json.load(fh)
    shape = next(s for s in pinned if "T" in pinned[s])
    j = pinned[shape].index("T")
    p = W.Pass()
    W.run_cases([W._verdict_case(0, *pool[shape][j], "T"),
                 W._verdict_case(1, *pool[shape][j], "FAIL")], p)
    assert (p.attempted, p.failed) == (4, 1)
    assert p.errors == ["verdict 1: T, pinned FAIL"]


def test_shape_decks_deal_every_degree_vector_before_repeating():
    for order, shapes in ((1, 9), (2, 27)):
        dealt = []
        for seed in (5, 6):
            deck = W._ShapeDeck(random.Random(seed), 2)
            dealt.append(Counter(deck.draw(order) for _ in range(3 * shapes)))
        assert dealt[0] == dealt[1]
        assert set(dealt[0].values()) == {3}


def test_speed_probe_samples_and_keeps_its_time_off_the_clock():
    with run.SpeedProbe() as probe:
        t0, c0 = time.perf_counter(), probe.clock()
        while time.perf_counter() - t0 < 0.5:
            pass
        wall, program = time.perf_counter() - t0, probe.clock() - c0
    assert len(probe.samples) >= 5
    assert probe.spent == pytest.approx(sum(probe.samples))
    assert program == pytest.approx(wall - probe.spent, abs=1e-3)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_inputs_regenerate_byte_for_byte():
    for name, text in make_inputs.generate().items():
        assert (W.DATA / name).read_text() == text, name


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "family", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
