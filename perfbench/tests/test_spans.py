"""Self-time arithmetic of the span ledger and the tracer around igafin."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import spans


def replay(events):
    """events: (t, "open", sid, parent, name[, weight]) or (t, "close", sid)."""
    led = spans.Ledger()
    for t, kind, sid, *rest in sorted(events, key=lambda e: e[0]):
        if kind == "open":
            led.open(sid, rest[0], rest[1], t, *rest[2:])
        else:
            led.close(sid, t)
    return led


def test_one_thread_self_is_duration_minus_children():
    led = replay([(0, "open", 1, None, "root"), (2, "open", 2, 1, "a"),
                  (3, "open", 3, 2, "b"), (4, "close", 3),
                  (5, "close", 2), (10, "close", 1)])
    assert dict(led.self_s) == {"root": 7, "a": 2, "b": 1}
    assert dict(led.total_s) == {"root": 10, "a": 3, "b": 1}
    assert dict(led.calls) == {"root": 1, "a": 1, "b": 1}


def test_two_threads_share_the_wall_time():
    # thread A: root [0, 10] with child a [1, 3]; thread B works for root:
    # b [2, 6] with child c [4, 5].  During [2, 3] a and b run together.
    led = replay([(0, "open", 1, None, "root"), (1, "open", 2, 1, "a"),
                  (2, "open", 3, 1, "b"), (3, "close", 2),
                  (4, "open", 4, 3, "c"), (5, "close", 4),
                  (6, "close", 3), (10, "close", 1)])
    assert led.self_s == pytest.approx(
        {"root": 5.0, "a": 1.5, "b": 2.5, "c": 1.0})
    assert led.total_s == pytest.approx(
        {"root": 10.0, "a": 1.5, "b": 3.5, "c": 1.0})
    assert sum(led.self_s.values()) == pytest.approx(10.0)


def test_concurrent_share_follows_weights():
    # a thread that got a quarter of a processor takes a fifth of [1, 2]
    led = replay([(0, "open", 1, None, "root"),
                  (1, "open", 2, 1, "busy", 1.0),
                  (1, "open", 3, 1, "starved", 0.25),
                  (2, "close", 2), (2, "close", 3), (3, "close", 1)])
    assert led.self_s == pytest.approx(
        {"root": 2.0, "busy": 0.8, "starved": 0.2})


def test_tracer_parents_pool_spans_to_the_caller():
    tracer = spans.Tracer()

    def leaf(n):
        time.sleep(0.002)
        return n

    def work():
        traced_leaf = tracer.wrap("leaf", leaf,
                                  lambda a, k, r: {"items": r})
        with ThreadPoolExecutor(max_workers=3) as pool:
            return sum(pool.map(traced_leaf, range(12)))

    t0 = time.perf_counter()
    assert tracer.wrap("root", work)() == 66
    wall = time.perf_counter() - t0
    led = tracer.ledger()
    assert led.calls == {"root": 1, "leaf": 12}
    assert tracer.counts() == {"items": 66}
    # pool spans are the root's children, so its total covers them once
    assert led.total_s["root"] == pytest.approx(sum(led.self_s.values()))
    assert led.total_s["root"] <= wall
    assert led.total_s["root"] == pytest.approx(wall, rel=0.1)
    assert tracer.check() == []


def test_check_finds_a_span_that_outlives_its_parent():
    tracer = spans.Tracer()
    started = threading.Event()
    pool = ThreadPoolExecutor(max_workers=1)

    def late():
        started.set()
        time.sleep(0.02)

    def root():
        job = pool.submit(tracer.wrap("late", late))
        started.wait()
        return job

    tracer.wrap("root", root)().result()
    pool.shutdown()
    assert tracer.check() == ["1 late spans outside their parent span"]


def test_check_finds_an_open_span_and_a_second_root():
    tracer = spans.Tracer()
    # checked from inside the root span, which has not closed yet
    assert tracer.wrap("root", tracer.check)() == [
        "0 root spans, expected one", "1 spans never closed"]
    assert tracer.check() == []
    tracer.wrap("again", lambda: None)()
    assert tracer.check() == ["2 root spans, expected one"]


def test_instrument_traces_and_restores_igafin():
    from igafin import basis, greeks, stepper
    original = basis.eval_spline_many
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert stepper.eval_spline_many is greeks.eval_spline_many
        assert stepper.eval_spline_many is not original
        disc = stepper.build_discretization(-1.0, 1.0, 8)
        stepper.eval_spline_many(disc.basis, [1.0] * disc.n_basis,
                                 [0.1, 0.5, 0.9])
    assert basis.eval_spline_many is original
    assert stepper.eval_spline_many is original
    assert greeks.eval_spline_many is original
    led = tracer.ledger()
    assert led.calls["basis.eval"] == 1
    assert led.calls["assembly.build"] == 1
    assert led.calls["assembly.assemble"] == 1
    assert tracer.counts()["basis.eval_points"] == 3
