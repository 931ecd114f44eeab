"""Step generators and the one loop that runs them side by side.

A step generator does its socket work without blocking. Where it must wait
it yields `(watch, deadline)`: a list of `(fd, poll events)` and a
time.monotonic() deadline. It is resumed with the `(fd, revents)` pairs
that are ready, or with [] once a poll begun at or after its deadline found
nothing, so what arrived in time counts however late the loop gets back to
it. What it returns is its result. Blocking calls run a lone generator
with drive(); a campaign runs many with run().
"""

from __future__ import annotations

import heapq
import itertools
import select
import time
from collections.abc import Generator


class _Task:
    __slots__ = ("index", "steps", "watch", "timer")

    def __init__(self, index: int, steps: Generator):
        self.index, self.steps = index, steps
        self.watch: list[tuple[int, int]] = []  # registered on the poller
        self.timer: list | None = None  # its entry in the deadline heap


def run(tasks: list[Generator]) -> list:
    """Run step generators side by side on this thread and one poll until
    each returns; their results, in order. Each descriptor belongs to the
    task that yields it, and a task that yields the same watch list again
    keeps its registrations, so the work per wake follows the ready
    descriptors, not the number of tasks. If one raises, every other is
    closed and the exception propagates."""
    if len(tasks) == 1:  # the same waits, without the bookkeeping of many
        return [drive(tasks[0])]
    poller = select.poll()
    poll, monotonic = poller.poll, time.monotonic
    heappush, heappop = heapq.heappush, heapq.heappop
    owner: dict[int, _Task] = {}  # registered fd -> its task
    timers: list[list] = []  # heap of [deadline, seq, task], task None once superseded
    seq = itertools.count()
    results = [None] * len(tasks)
    everyone = [_Task(index, steps) for index, steps in enumerate(tasks)]
    left = len(everyone)
    woken: dict[_Task, list | None] = dict.fromkeys(everyone)
    try:
        while True:
            for task, ready in woken.items():
                try:
                    watch, deadline = task.steps.send(ready)
                except StopIteration as done:
                    results[task.index] = done.value
                    watch, deadline = [], None
                    left -= 1
                if watch != task.watch:
                    for fd, _ in task.watch:
                        poller.unregister(fd)
                        del owner[fd]
                    for fd, events in watch:
                        poller.register(fd, events)
                        owner[fd] = task
                    task.watch = watch
                timer = task.timer
                if timer is None or timer[0] != deadline:
                    if timer is not None:
                        timer[2] = None
                    if deadline is None:
                        task.timer = None
                    else:
                        task.timer = timer = [deadline, next(seq), task]
                        heappush(timers, timer)
                        if len(timers) > 2 * left + 64:  # mostly superseded entries
                            timers = [t for t in timers if t[2] is not None]
                            heapq.heapify(timers)
            if not left:
                return results
            first = timers[0]
            while first[2] is None:
                heappop(timers)
                first = timers[0]
            now = monotonic()
            wait = first[0] - now
            events = poll(wait * 1000.0 if wait > 0 else 0)
            woken = {}
            for event in events:
                task = owner[event[0]]
                ready = woken.get(task)
                if ready is None:
                    woken[task] = [event]
                else:
                    ready.append(event)
            # due before this poll began, and nothing ready for them in it
            if first[0] <= now:
                while timers and timers[0][0] <= now:
                    task = heappop(timers)[2]
                    if task is not None:
                        task.timer = None
                        woken.setdefault(task, [])
    finally:
        for task in everyone:
            task.steps.close()


def drive(steps: Generator):
    """Run one step generator to its end on this thread; its result."""
    poller = select.poll()
    poll, monotonic = poller.poll, time.monotonic
    watch: list[tuple[int, int]] = []  # registered on the poller
    ready = None
    try:
        while True:
            try:
                waits, deadline = steps.send(ready)
            except StopIteration as done:
                return done.value
            if waits != watch:
                for fd, _ in watch:
                    poller.unregister(fd)
                for fd, events in waits:
                    poller.register(fd, events)
                watch = waits
            while True:
                wait = deadline - monotonic()
                ready = poll(wait * 1000.0 if wait > 0 else 0)
                if ready or wait <= 0:
                    break
    finally:
        steps.close()
