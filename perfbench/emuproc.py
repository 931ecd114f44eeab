"""The censor emulator in the benchmark process or in a process of its own.

``InProcessEmulator`` and ``EmulatorProcess`` expose the same handle: the
resolver specs and HTTP endpoints to probe, request counters, CPU seconds
spent outside the benchmark process, and ``close``, which returns what the
emulator side measured (peak RSS, peak threads, spans).

Run as a script, this module is the child side of ``EmulatorProcess``. It
reads one JSON object per line on stdin and answers one per line on stdout:
first ``{"policy": <policy JSON text>, "sites": [...]}``, answered with the
endpoints once the listeners are bound; then ``{"cmd": "trace_on"}``,
``{"cmd": "trace_off"}``, ``{"cmd": "stats"}`` and ``{"cmd": "stop"}``.
End of input stops it too.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time

import common
import spans
import workloads
from censorprobe import emulator
from censorprobe.model import ResolverSpec


def counters(emu: emulator.Emulator) -> dict[str, int]:
    """Requests seen so far, per listener, from the transcripts and the origin.

    A proxy session is one accepted connection; the probe's TCP step opens
    one that carries no request, so ``proxy_requests`` counts only the
    sessions that carried an HTTP request line.
    """
    sessions = list(emu.recorder.sessions)
    proxy = [s for s in sessions if s.listener == "censor-http"]
    return {
        "proxy": len(proxy),
        "proxy_requests": sum(1 for s in proxy if s.entries),
        "warning": sum(1 for s in sessions if s.listener == "warning-site"),
        "origin": len(emu.origin.requests),
        "sessions": len(sessions),
    }


def _build(policy_json: str, sites: list[str]) -> emulator.Emulator:
    emu = emulator.Emulator(emulator.load_policy(policy_json))
    for host in sites:
        emu.origin.add_site(host, workloads.origin_body(host))
    return emu


class InProcessEmulator:
    """Emulator threads inside the benchmark process; traced by its tracer."""

    def __init__(self, corpus: workloads.Corpus):
        self.emu = _build(corpus.policy_json, corpus.sites)
        self.emu.start()
        self.resolvers = self.emu.resolver_endpoints()
        self.proxy = self.emu.proxy.endpoint
        self.http_endpoints = [self.proxy, self.emu.warning.endpoint, self.emu.origin.endpoint]

    def counters(self) -> dict[str, int]:
        return counters(self.emu)

    def cpu_s(self) -> float:
        return 0.0

    def trace(self, on: bool) -> None:
        pass

    def close(self) -> dict:
        self.emu.stop()
        return {"counters": counters(self.emu), "maxrss_kb": 0, "threads_peak": 0, "spans": []}


class EmulatorProcess:
    """The emulator in a child process, driven over its stdin and stdout."""

    def __init__(self, corpus: workloads.Corpus):
        self.proc = subprocess.Popen(
            [sys.executable, str(common.BENCH_DIR / "emuproc.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=common.ROOT,
        )
        self.final: dict | None = None
        try:
            ready = self._call({"policy": corpus.policy_json, "sites": corpus.sites})
        except BaseException:
            self._reap()
            raise
        self.resolvers = [ResolverSpec(**spec) for spec in ready["resolvers"]]
        self.proxy = tuple(ready["proxy"])
        self.http_endpoints = [self.proxy, tuple(ready["warning"]), tuple(ready["origin"])]

    def _call(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"emulator process exited with {self.proc.wait()}")
        return json.loads(line)

    def counters(self) -> dict[str, int]:
        return self._call({"cmd": "stats"})["counters"]

    def cpu_s(self) -> float:
        return self._call({"cmd": "stats"})["cpu_s"]

    def trace(self, on: bool) -> None:
        self._call({"cmd": "trace_on" if on else "trace_off"})

    def close(self) -> dict:
        if self.final is None:
            try:
                self.final = self._call({"cmd": "stop"})
            finally:
                self._reap()
        return self.final

    def _reap(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _stats(emu: emulator.Emulator) -> dict:
    return {"cpu_s": time.process_time(), "counters": counters(emu)}


def serve(stdin, stdout) -> None:
    def reply(doc: dict) -> None:
        stdout.write(json.dumps(doc) + "\n")
        stdout.flush()

    spec = json.loads(stdin.readline())
    emu = _build(spec["policy"], spec["sites"])
    tracer = spans.Tracer()
    emu.start()
    try:
        reply(
            {
                "resolvers": [
                    {
                        "name": r.name,
                        "address": r.address,
                        "nxdomain_redirector": r.nxdomain_redirector,
                        "port": r.port,
                    }
                    for r in emu.resolver_endpoints()
                ],
                "proxy": emu.proxy.endpoint,
                "warning": emu.warning.endpoint,
                "origin": emu.origin.endpoint,
            }
        )
        for line in stdin:
            cmd = json.loads(line)["cmd"]
            if cmd == "trace_on":
                tracer.install()
                reply({})
            elif cmd == "trace_off":
                tracer.uninstall()
                reply({})
            elif cmd == "stats":
                reply(_stats(emu))
            elif cmd == "stop":
                tracer.uninstall()
                emu.stop()
                final = {
                    **_stats(emu),
                    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    "threads_peak": tracer.threads_peak,
                    "spans": tracer.spans,
                }
                emu = None
                reply(final)
                return
    finally:
        if emu is not None:
            emu.stop()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
