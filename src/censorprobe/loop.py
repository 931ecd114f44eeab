"""Step generators and the one loop that runs them side by side.

A step generator does its socket work without blocking. Where it must wait
it yields `(watch, deadline)`: a list of `(fd, poll events)` and a
time.monotonic() deadline, or math.inf to wait for its descriptors alone.
It is resumed with the `(fd, revents)` pairs that are ready, or with []
once a poll begun at or after its deadline found nothing, so what arrived
in time counts however late the loop gets back to it. What it returns is
its result. A campaign runs many with run(); the blocking calls run a lone
one with drive(), run's one-task case; a server runs its listeners with
run(), each starting a task per connection, and stops when a task raises.
"""

from __future__ import annotations

import select
import time
from collections.abc import Generator
from math import inf


def run(tasks: list[Generator], started: list[Generator] | None = None) -> list:
    """Run step generators side by side on this thread and one poll until
    each returns; the results of `tasks`, in order. A running task starts
    another by appending it to `started`, and its result is dropped; nothing
    of a task is kept once it has returned. Each descriptor belongs to the
    task that yields it, and a task that yields the same watch list again
    keeps its registrations. The work per wake is the ready descriptors plus
    a min over the finite deadlines of the tasks in flight, so a task that
    waits on its descriptors alone costs a wake nothing; only once that min
    has passed are the due tasks looked for. If one raises, every other,
    started ones included, is closed and the exception propagates."""
    poller = select.poll()
    poll, monotonic = poller.poll, time.monotonic
    live = dict(enumerate(tasks))  # unfinished task's id -> its generator
    owner: dict[int, int] = {}  # registered fd -> id of its task
    watches: dict[int, list] = dict.fromkeys(live, [])  # live task's id -> its registered fds
    deadlines: dict[int, float] = {}  # live task's id -> its deadline, if finite
    results = [None] * len(tasks)
    count = len(tasks)  # ids given so far; the caller's tasks have the first ones
    woken: dict[int, list | None] = dict.fromkeys(live)
    try:
        while True:
            while woken:
                for index, ready in woken.items():
                    try:
                        watch, deadline = live[index].send(ready)
                    except StopIteration as done:
                        if index < len(results):
                            results[index] = done.value
                        del live[index]
                        watch, deadline = None, inf
                    if deadline == inf:
                        deadlines.pop(index, None)
                    else:
                        deadlines[index] = deadline
                    if watch != watches[index]:
                        for fd, _ in watches[index]:
                            poller.unregister(fd)
                            del owner[fd]
                        if watch is None:
                            del watches[index]
                            continue
                        for fd, events in watch:
                            poller.register(fd, events)
                            owner[fd] = index
                        watches[index] = watch
                # run each new task up to its first wait
                woken = dict.fromkeys(range(count, count + len(started))) if started else {}
                if woken:
                    live.update(zip(woken, started))
                    watches.update(dict.fromkeys(woken, []))
                    count += len(woken)
                    started.clear()
            if not live:
                return results
            first = min(deadlines.values(), default=inf)
            now = monotonic()
            wait = first - now
            woken = {}
            for event in poll(None if wait == inf else wait * 1000.0 if wait > 0 else 0):
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
        for steps in [*live.values(), *(started or ())]:
            steps.close()


def drive(steps: Generator):
    """Run one step generator to its end on this thread; its result."""
    return run([steps])[0]
