"""Tests of the benchmark's own arithmetic: self time, the tail percentile,
and the computed flop and byte counts.  Run with ``python -m pytest bench``."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import genpgd  # noqa: E402
from genpgd import generator, projection  # noqa: E402

import stats  # noqa: E402
import tracing  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def nested_calls():
    """outer -> (inner -> leaf) x2 plus a direct leaf, on a clock that only
    moves when a function says so."""
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.tick(0.5)

    def inner():
        clock.tick(5.0)
        traced_leaf()
        clock.tick(1.0)

    def outer():
        clock.tick(1.0)
        traced_inner()
        clock.tick(2.0)
        traced_leaf()
        traced_inner()
        clock.tick(3.0)

    traced_leaf = tracer.wrap("objective.value", leaf)
    traced_inner = tracer.wrap("solver.epsilon_pgd", inner)
    traced_outer = tracer.wrap("harness.run_solve", outer)
    tracer.solve = 7
    traced_outer()
    return tracer


def test_self_time_subtracts_children():
    tracer = nested_calls()
    # inner: 5 + 0.5 + 1; outer: 1 + 6.5 + 2 + 0.5 + 6.5 + 3
    assert tracer.seconds("solver.epsilon_pgd") == pytest.approx(13.0)
    assert tracer.self_seconds("solver.epsilon_pgd") == pytest.approx(12.0)
    assert tracer.seconds("harness.run_solve") == pytest.approx(19.5)
    assert tracer.self_seconds("harness.run_solve") == pytest.approx(6.0)
    assert tracer.self_seconds("objective.value") == pytest.approx(1.5)
    assert tracer.calls("objective.value") == 3


def test_self_times_add_up_to_the_outermost_span():
    tracer = nested_calls()
    total_self = sum(t[2] for t in tracer.totals.values())
    assert total_self == pytest.approx(19.5)
    assert tracer.root_total == pytest.approx(19.5)


def test_spans_record_parent_solve_and_folded_leaves():
    tracer = nested_calls()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span["name"], []).append(span)
    (outer,) = by_name["harness.run_solve"]
    inners = by_name["solver.epsilon_pgd"]
    assert outer["parent"] is None
    assert [s["parent"] for s in inners] == [outer["id"], outer["id"]]
    assert {s["solve"] for s in tracer.spans} == {7}
    assert outer["leaves"] == {"objective.value": [1, 0.5]}
    assert all(s["leaves"] == {"objective.value": [1, 0.5]} for s in inners)
    assert outer["end"] - outer["start"] == pytest.approx(19.5)


@pytest.mark.parametrize("n", [20, 25, 37, 100, 1000])
def test_tail_has_ten_samples_beyond_it(n):
    samples = [float(i) for i in range(n, 0, -1)]  # unsorted input
    value, pct = stats.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


@pytest.mark.parametrize("n", [1, 5, 19])
def test_tail_falls_back_to_the_median_when_too_few_samples(n):
    samples = [float(i) for i in range(n)]
    assert stats.tail(samples) == (stats.median(samples), 50.0)


def test_generator_flops_count_two_per_multiply_accumulate():
    net = generator.make_random_generator(4, 60, 2, [20], seed=0)
    macs = 4 * 20 + 20 * 60
    assert stats.layer_macs(net) == macs
    assert stats.generator_flops("forward", net) == 2 * macs
    assert stats.generator_flops("vjp", net) == 4 * macs
    assert stats.generator_flops("forward_batch", net, batch=7) == 14 * macs


def test_traced_calls_count_flops_through_every_binding():
    net = generator.make_random_generator(4, 60, 2, [20], seed=0)
    macs = stats.layer_macs(net)
    tracer = tracing.Tracer()
    with tracing.traced(tracer, genpgd):
        # projection looks the generator maps up in its own namespace
        projection.forward(net, np.zeros(4))
        projection.vjp(net, np.zeros(4), np.ones(60))
        projection.forward_batch(net, np.zeros((4, 3)))
    assert tracer.calls("generator.forward") == 1
    assert tracer.calls("generator.vjp") == 1
    assert tracer.counters["flops"] == 2 * macs + 4 * macs + 2 * macs * 3
    assert tracing.wrapped_attributes(genpgd) == []
    assert projection.forward is generator.forward


def test_tree_bytes_sums_nested_files(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "x.csv").write_bytes(b"12345")
    (tmp_path / "y.json").write_bytes(b"{}\n")
    assert stats.tree_bytes(tmp_path) == 8
    assert stats.tree_bytes(tmp_path / "missing") == 0

