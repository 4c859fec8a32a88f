"""Tests of the benchmark's own helpers.

    python3 -m pytest bench/test_helpers.py
"""

import types

import pytest

from stats import quartile_spread, tail
from tracing import (
    Instrument,
    Span,
    Tracer,
    count_wrapper,
    covered_length,
    self_times,
    span_wrapper,
)


@pytest.mark.parametrize(
    "n, rank, pct",
    [
        (11, 1, 100 / 11),  # only the lowest sample has ten above it
        (20, 10, 50.0),
        (40, 30, 75.0),
        (100, 90, 90.0),
        (1000, 990, 99.0),
    ],
)
def test_tail_is_highest_sample_with_ten_beyond(n, rank, pct):
    values = [float(v) for v in range(n, 0, -1)]  # n..1, unsorted on purpose
    value, percentile = tail(values)
    assert value == rank
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(pct)


@pytest.mark.parametrize("n", [0, 1, 10])
def test_tail_needs_more_than_ten_samples(n):
    assert tail([1.0] * n) is None


def test_quartile_spread():
    assert quartile_spread([10.0] * 5) == 0.0
    # quartiles of 1..9 are 2.5 and 7.5 around a median of 5
    assert quartile_spread([float(v) for v in range(1, 10)]) == pytest.approx(1.0)


def test_covered_length_merges_and_clips():
    assert covered_length([], 0, 10) == 0
    assert covered_length([(1, 4), (3, 6)], 0, 10) == 5  # overlap counted once
    assert covered_length([(1, 2), (5, 7)], 0, 10) == 3  # disjoint
    assert covered_length([(-5, 2), (8, 20)], 0, 10) == 4  # clipped to the parent
    assert covered_length([(2, 8), (3, 4)], 0, 10) == 6  # one inside another


def test_self_time_with_nested_and_overlapping_children():
    spans = [
        Span("op", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a
        Span("a.inner", 1.5, 2.5, 1, 0),  # nested: counts against a, not op
        Span("c", 9.0, 12.0, 0, 0),  # runs past its parent's end
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def _fake_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_self_times_under_an_op_sum_to_its_duration():
    tracer = Tracer(clock=_fake_clock())
    leaf = span_wrapper(tracer, "leaf")(lambda: None)

    def middle():
        leaf()
        leaf()

    middle = span_wrapper(tracer, "middle")(middle)
    for op in range(2):
        tracer.op = op
        root = tracer.begin("cli.op")
        middle()
        leaf()
        tracer.end(root)

    selfs = self_times(tracer.spans)
    for op in range(2):
        idx = [i for i, sp in enumerate(tracer.spans) if sp.op == op]
        root = tracer.spans[idx[0]]
        assert root.parent == -1
        assert sum(selfs[i] for i in idx) == pytest.approx(root.end - root.start)
    assert [sp.name for sp in tracer.spans[:5]] == ["cli.op", "middle", "leaf", "leaf", "leaf"]


def test_span_wrapper_measures_and_survives_exceptions():
    tracer = Tracer(clock=_fake_clock())

    def boom():
        raise ValueError("no")

    sized = span_wrapper(tracer, "sized", lambda args, result: len(result))(lambda xs: xs * 2)
    failing = span_wrapper(tracer, "boom")(boom)
    assert sized([1, 2]) == [1, 2, 1, 2]
    with pytest.raises(ValueError):
        failing()
    assert tracer.spans[0].value == 4
    assert tracer.spans[1].end > tracer.spans[1].start
    tracer.begin("after")  # the stack unwound, so this is a root span
    assert tracer.spans[-1].parent == -1


def test_instrument_patches_every_reference_and_restores():
    def original(x):
        return x + 1

    class Field:
        def mul(self, a, b):
            return a * b

    lib = types.ModuleType("lib")
    lib.original = original
    user = types.ModuleType("user")
    user.renamed = original  # imported under another name
    tracer = Tracer()
    inst = Instrument([lib, user])
    inst.patch(lib, "original", span_wrapper(tracer, "lib.original"))
    inst.patch(Field, "mul", count_wrapper(tracer, "field.mul.calls"))

    assert lib.original(1) == 2 and user.renamed(2) == 3
    assert Field().mul(3, 4) == 12
    assert [sp.name for sp in tracer.spans] == ["lib.original", "lib.original"]
    assert tracer.counters["field.mul.calls"] == 1

    inst.restore()
    assert lib.original is original and user.renamed is original
    assert Field.__dict__["mul"].__name__ == "mul" and not hasattr(Field.mul, "__wrapped__")
