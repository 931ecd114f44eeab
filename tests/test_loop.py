import math
import select
import socket
import threading
import time
import weakref

import pytest

from censorprobe.loop import drive, run


def _wait(sock, deadline):
    """A step generator that waits once for sock to be readable."""
    return (yield [(sock.fileno(), select.POLLIN)], deadline)


def test_wait_past_the_deadline_still_sees_what_arrived():
    ready, idle = socket.socketpair()
    with ready, idle:
        idle.send(b"x")
        past = time.monotonic() - 1
        assert drive(_wait(ready, past)) == [(ready.fileno(), select.POLLIN)]
        assert drive(_wait(idle, past)) == []


def test_a_task_is_resumed_with_only_its_own_ready_descriptors():
    one, one_peer = socket.socketpair()
    two, two_peer = socket.socketpair()
    with one, one_peer, two, two_peer:
        one_peer.send(b"x")
        two_peer.send(b"x")
        soon = time.monotonic() + 5
        assert run([_wait(one, soon), _wait(two, soon)]) == [
            [(one.fileno(), select.POLLIN)],
            [(two.fileno(), select.POLLIN)],
        ]


def test_results_keep_task_order_and_each_deadline_holds():
    def sleep(seconds):
        started = time.monotonic()
        assert (yield [], started + seconds) == []
        return time.monotonic() - started

    started = time.monotonic()
    slept = run([sleep(0.2), sleep(0.0), sleep(0.1)])
    assert time.monotonic() - started < 0.35  # side by side, not in turn
    assert slept[0] >= 0.2 and slept[2] >= 0.1 and slept[1] < 0.1


def test_deadlines_superseded_many_times_lose_no_live_one():
    def busy(sock, count):
        # woken at once every time, each time with a later deadline
        for i in range(count):
            assert (yield [(sock.fileno(), select.POLLIN)], time.monotonic() + 60 + i)
        return count

    def sleep(seconds):
        started = time.monotonic()
        assert (yield [], started + seconds) == []
        return time.monotonic() - started >= seconds

    ready, peer = socket.socketpair()
    with ready, peer, ready.dup() as twin:
        peer.send(b"x")
        assert run([busy(ready, 5000), sleep(0.01), busy(twin, 10)]) == [5000, True, 10]


def test_a_task_that_raises_closes_the_others():
    closed = []

    def waiting():
        try:
            yield [], time.monotonic() + 60
        finally:
            closed.append(True)

    def failing():
        yield [], time.monotonic()
        raise RuntimeError("boom")

    started = time.monotonic()
    with pytest.raises(RuntimeError, match="boom"):
        run([waiting(), failing()])
    assert closed == [True] and time.monotonic() - started < 5


def test_deadlines_passed_together_resume_each_task_once_with_nothing():
    resumed = []

    def sleep(index, deadline):
        resumed.append((index, (yield [], deadline)))
        return index

    past = time.monotonic() - 1
    assert run([sleep(i, past - i * 1e-3) for i in range(200)]) == list(range(200))
    assert sorted(resumed) == [(i, []) for i in range(200)]


def test_a_reused_descriptor_wakes_its_new_owner():
    first, first_peer = socket.socketpair()
    first_peer.send(b"x")

    def closing():
        with first:
            assert (yield [(first.fileno(), select.POLLIN)], time.monotonic() + 5)
            return first.fileno()

    def reopening():
        assert (yield [], time.monotonic() + 0.05) == []  # until closing() has returned
        pair = socket.socketpair()
        with pair[0], pair[1]:
            pair[0].send(b"x")
            ready = yield [(pair[1].fileno(), select.POLLIN)], time.monotonic() + 5
            pair[1].send(b"x")
            again = yield [(pair[0].fileno(), select.POLLIN)], time.monotonic() + 5
            return [s.fileno() for s in pair], ready, again

    with first_peer:
        closed, ([one, two], ready, again) = run([closing(), reopening()])
    assert closed in (one, two)  # the new pair took the closed descriptor's number
    assert ready == [(two, select.POLLIN)] and again == [(one, select.POLLIN)]


def test_a_task_that_returns_without_waiting_gives_its_value():
    def at_once(value):
        return value
        yield  # a generator that never yields

    assert drive(at_once(7)) == 7
    idle, peer = socket.socketpair()
    with idle, peer:
        soon = time.monotonic() + 0.01
        assert run([at_once(1), _wait(idle, soon), at_once(3)]) == [1, [], 3]


def test_a_started_task_runs_and_nothing_of_it_is_kept_once_it_returns():
    started, ran, refs = [], [], []

    def child():
        ran.append((yield [], time.monotonic()))
        return "dropped"

    def parent():
        steps = child()
        refs.append(weakref.ref(steps))
        started.append(steps)
        del steps
        yield [], time.monotonic() + 0.05  # the child returns meanwhile
        return refs[0]() is None

    assert run([parent()], started) == [True]
    assert ran == [[]] and started == []


def test_a_task_with_no_deadline_sleeps_until_its_descriptor_is_ready():
    ready, peer = socket.socketpair()
    with ready, peer:
        waker = threading.Timer(0.2, peer.send, args=(b"x",))
        waker.start()
        started, cpu = time.monotonic(), time.thread_time()
        try:
            sleeper, short = run([_wait(ready, math.inf), _wait(peer, time.monotonic())])
        finally:
            waker.join()
        assert sleeper == [(ready.fileno(), select.POLLIN)] and short == []
        assert time.monotonic() - started >= 0.15
        assert time.thread_time() - cpu < 0.1  # it slept in poll, it did not spin


def test_a_task_that_raises_closes_every_task_started_ones_too():
    started, closed, kept = [], [], []

    def waiting(name):
        try:
            yield [], time.monotonic() + 60
        finally:
            closed.append(name)

    def parent():
        kept.append(waiting("child"))  # closed by run, not by its finalizer
        started.append(kept[0])
        yield from waiting("parent")

    def failing():
        yield [], time.monotonic() + 0.05
        raise RuntimeError("boom")

    started_at = time.monotonic()
    with pytest.raises(RuntimeError, match="boom"):
        run([parent(), failing()], started)
    assert sorted(closed) == ["child", "parent"] and time.monotonic() - started_at < 5


def test_a_deadline_no_longer_waited_for_wakes_nothing():
    ready, peer = socket.socketpair()

    def task():
        first = yield [], time.monotonic() + 0.01
        return first, (yield from _wait(ready, math.inf))

    with ready, peer:
        waker = threading.Timer(0.2, peer.send, args=(b"x",))
        waker.start()
        try:
            [(first, second)] = run([task()])
        finally:
            waker.join()
        # resumed by the timer's write alone, not by its passed first deadline
        assert first == [] and second == [(ready.fileno(), select.POLLIN)]


class _Measured(Exception):
    """Ends a run from its measuring task, with the CPU seconds it measured."""


def test_tasks_waiting_with_no_deadline_cost_a_wake_nothing():
    def idle():
        yield [], math.inf

    def waker(wakes):
        yield [], 0  # the idle tasks start meanwhile
        cpu = time.thread_time()
        for _ in range(wakes):
            yield [], 0
        raise _Measured(time.thread_time() - cpu)

    def cost(idle_tasks):
        with pytest.raises(_Measured) as measured:
            run([waker(200), *(idle() for _ in range(idle_tasks))])
        return measured.value.args[0]

    # a min or a scan over every idle task's deadline would cost 10-100 times more
    assert cost(20000) < 5 * cost(0) + 0.02
