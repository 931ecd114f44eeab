"""Step generators and the one loop that runs them side by side.

A step generator does its socket work without blocking. Where it must wait
it yields `(watch, deadline)`: a list of `(fd, poll events)` and a
time.monotonic() deadline. It is resumed with the `(fd, revents)` pairs
that are ready, or with [] once a poll begun at or after its deadline found
nothing, so what arrived in time counts however late the loop gets back to
it. What it returns is its result. A campaign runs many with run(); the
blocking calls run a lone one with drive(), run's one-task case.
"""

from __future__ import annotations

import select
import time
from collections.abc import Generator


def run(tasks: list[Generator]) -> list:
    """Run step generators side by side on this thread and one poll until
    each returns; their results, in order. Each descriptor belongs to the
    task that yields it, and a task that yields the same watch list again
    keeps its registrations. The work per wake is the ready descriptors
    plus a min over the deadlines of the tasks in flight; only once that
    min has passed are the due tasks looked for. If one raises, every other
    is closed and the exception propagates."""
    poller = select.poll()
    poll, monotonic = poller.poll, time.monotonic
    owner: dict[int, int] = {}  # registered fd -> index of its task
    watches: list[list] = [[] for _ in tasks]  # each task's registered watch list
    deadlines: dict[int, float] = {}  # unfinished task's index -> its deadline
    results = [None] * len(tasks)
    woken: dict[int, list | None] = dict.fromkeys(range(len(tasks)))
    try:
        while True:
            for index, ready in woken.items():
                try:
                    watch, deadlines[index] = tasks[index].send(ready)
                except StopIteration as done:
                    results[index] = done.value
                    watch = []
                    deadlines.pop(index, None)  # none yet if it never yielded
                if watch != watches[index]:
                    for fd, _ in watches[index]:
                        poller.unregister(fd)
                        del owner[fd]
                    for fd, events in watch:
                        poller.register(fd, events)
                        owner[fd] = index
                    watches[index] = watch
            if not deadlines:
                return results
            first = min(deadlines.values())
            now = monotonic()
            wait = first - now
            woken = {}
            for event in poll(wait * 1000.0 if wait > 0 else 0):
                index = owner[event[0]]
                ready = woken.get(index)
                if ready is None:
                    woken[index] = [event]
                else:
                    ready.append(event)
            # due before this poll began, and nothing ready for them in it
            if first <= now:
                for index, deadline in deadlines.items():
                    if deadline <= now and index not in woken:
                        woken[index] = []
    finally:
        for steps in tasks:
            steps.close()


def drive(steps: Generator):
    """Run one step generator to its end on this thread; its result."""
    return run([steps])[0]
