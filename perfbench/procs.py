"""Child processes: timed CLI invocations and a ``repro serve`` handle.

Every child starts in its own session, so a timeout or an early exit
can signal the whole process group (pool workers included), and the
benchmark waits until the group is empty before it moves on.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

#: one invocation may not run longer than this (the slowest, a cold
#: table3, takes about 12 s on a busy 2-CPU host)
TIMEOUT_S = 60.0


def _reap_group(pgid: int, grace_s: float = 10.0) -> None:
    """Kill what is left of process group ``pgid`` and wait until it is
    gone (members that are not our children are reaped by init)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


@dataclass
class Invocation:
    """One finished CLI run."""

    code: int
    wall_s: float
    cpu_s: float           #: user + system, the child and its reaped workers
    peak_rss_mb: float     #: largest resident set in the child's tree
    stdout: bytes
    stderr: bytes


def invoke(argv: list[str], env: dict, scratch: str) -> Invocation:
    """Run ``argv`` to completion; time it and read its rusage."""
    out_path = os.path.join(scratch, "stdout")
    err_path = os.path.join(scratch, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                stdin=subprocess.DEVNULL,
                                start_new_session=True)
        timer = threading.Timer(TIMEOUT_S, _reap_group, (proc.pid, 0.0))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    _reap_group(proc.pid)
    with open(out_path, "rb") as out, open(err_path, "rb") as err:
        stdout, stderr = out.read(), err.read()
    return Invocation(code=proc.returncode, wall_s=wall,
                      cpu_s=usage.ru_utime + usage.ru_stime,
                      peak_rss_mb=usage.ru_maxrss / 1024.0,
                      stdout=stdout, stderr=stderr)


# -- the evaluation server ----------------------------------------------------

def _proc_stat(pid: int) -> tuple[float, float]:
    """(CPU seconds so far, peak RSS in MB) of a live process."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    cpu = (int(fields[11]) + int(fields[12])) / ticks
    peak = 0.0
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                peak = int(line.split()[1]) / 1024.0
    return cpu, peak


class Server:
    """A ``repro serve`` child on an ephemeral port."""

    def __init__(self, argv: list[str], env: dict, log_path: str):
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=self._log, env=env,
                                     stdin=subprocess.DEVNULL,
                                     start_new_session=True)
        line = self._readline_within(60.0)
        match = re.search(rb"listening on [^:]+:(\d+)", line)
        if not match:
            self.close()
            raise RuntimeError(f"server did not announce a port: {line!r}")
        self.port = int(match.group(1))

    def _readline_within(self, timeout_s: float) -> bytes:
        timer = threading.Timer(timeout_s, _reap_group, (self.proc.pid, 0.0))
        timer.start()
        try:
            return self.proc.stdout.readline()
        finally:
            timer.cancel()

    def cpu_and_rss(self) -> tuple[float, float]:
        return _proc_stat(self.proc.pid)

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def close(self) -> int | None:
        """SIGTERM, wait for the graceful drain; returns the exit code
        (``None`` when it had to be killed)."""
        code = None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                code = self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                code = None
        else:
            code = self.proc.returncode
        _reap_group(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return code


class Connection:
    """One keep-alive HTTP/1.1 client connection (asyncio streams)."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port)

    async def request(self, method: str, path: str,
                      body: bytes = b"") -> tuple[int, bytes]:
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        lines = (await self.reader.readuntil(b"\r\n\r\n")).split(b"\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


def request_json(port: int, method: str, path: str, payload=None,
                 timeout_s: float = 60.0) -> dict:
    """One request on a fresh connection; the 200 response, decoded."""
    body = b"" if payload is None else json.dumps(payload).encode()

    async def once():
        conn = Connection("127.0.0.1", port)
        await conn.open()
        try:
            return await conn.request(method, path, body)
        finally:
            await conn.close()
    status, reply = asyncio.run(asyncio.wait_for(once(), timeout_s))
    if status != 200:
        raise RuntimeError(f"{method} {path} -> {status}: {reply[:200]!r}")
    return json.loads(reply)


def python() -> str:
    """The interpreter running the benchmark, for its children too."""
    return sys.executable or "python3"
