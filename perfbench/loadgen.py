"""Server process control and the open-loop HTTP client for ``serve_pub_da``.

The client is one asyncio process holding at most ``n_conns`` keep-alive
connections. Requests follow a precomputed schedule regardless of how fast
answers come back (an open loop), and each is timed from when it was due,
so a stall also counts against every request queued behind it.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

_SERVING = re.compile(r"serving .* on (http://[\w.\-]+:\d+)")


@dataclass
class Server:
    """A running ``repro serve`` process and where it listens."""

    proc: subprocess.Popen
    host: str
    port: int


def start_server(
    root: Path, artifacts: Path, env: dict, log: Path, spans: Path | None = None
) -> Server:
    """Start ``python -m repro serve`` (or the traced launcher) on a free port.

    Output goes to ``log`` rather than a pipe, so a chatty server can never
    block on a full pipe buffer. Waits for the ``serving ... on URL`` line.
    """
    if spans is None:
        cmd = [sys.executable, "-m", "repro", "serve"]
    else:
        launcher = root / "perfbench" / "serve_traced.py"
        cmd = [sys.executable, str(launcher), "--spans", str(spans)]
    cmd += ["--artifacts", str(artifacts), "--port", "0"]
    with open(log, "wb") as out:
        proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=out, stderr=subprocess.STDOUT
        )
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        match = _SERVING.search(log.read_text(errors="replace"))
        if match:
            host, port = match.group(1).removeprefix("http://").rsplit(":", 1)
            return Server(proc, host, int(port))
        if proc.poll() is not None:
            break
        time.sleep(0.02)
    stop_server(proc)
    raise RuntimeError(f"server did not start: {log.read_text(errors='replace')[-2000:]}")


def stop_server(proc: subprocess.Popen, timeout: float = 30.0) -> int:
    """SIGTERM (graceful drain), then kill if it overruns; always reaps."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return proc.returncode


def cpu_ms(pid: int) -> float:
    """User plus system CPU time of a live process (all its threads), in ms."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * 1000.0 / os.sysconf("SC_CLK_TCK")


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Connection:
    """One keep-alive HTTP/1.1 connection speaking JSON."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        return cls(*await asyncio.open_connection(host, port))

    async def request(self, method: str, path: str, body: dict | None = None):
        """Send one request; returns ``(status, decoded JSON body)``."""
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n\r\n"
        )
        self.writer.write(head.encode("latin-1") + payload)
        await self.writer.drain()
        raw = await self.reader.readuntil(b"\r\n\r\n")
        lines = raw.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, json.loads(await self.reader.readexactly(length))

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@dataclass
class Answer:
    """One scheduled request's outcome, on the ``time.monotonic`` clock."""

    due: float
    sent: float
    done: float
    status: int
    body: dict | None
    error: str | None = None

    @property
    def latency_ms(self) -> float:
        """From when the request was due to when its answer arrived."""
        return (self.done - self.due) * 1000.0

    @property
    def send_lag_ms(self) -> float:
        return (self.sent - self.due) * 1000.0

    @property
    def round_trip_ms(self) -> float:
        return (self.done - self.sent) * 1000.0


async def open_loop(host: str, port: int, schedule: list, n_conns: int) -> list[Answer]:
    """Fire ``schedule`` — ``(offset_s, method, path, body)`` rows — on time.

    A request that finds every connection busy waits for one; that wait is
    send lag and is part of its latency. Returns one :class:`Answer` per row.
    """
    pool: asyncio.Queue = asyncio.Queue()
    conns = [await Connection.open(host, port) for _ in range(n_conns)]
    for conn in conns:
        pool.put_nowait(conn)
    start = time.monotonic() + 0.05

    async def fire(offset: float, method: str, path: str, body):
        due = start + offset
        await asyncio.sleep(max(0.0, due - time.monotonic()))
        conn = await pool.get()
        sent = time.monotonic()
        try:
            status, payload = await conn.request(method, path, body)
            answer = Answer(due, sent, time.monotonic(), status, payload)
        except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
            answer = Answer(due, sent, time.monotonic(), 0, None, repr(exc))
            # the connection is unusable after a failed exchange: replace it
            await conn.close()
            conn = await Connection.open(host, port)
        pool.put_nowait(conn)
        return answer

    tasks = [asyncio.ensure_future(fire(*row)) for row in schedule]
    try:
        return list(await asyncio.gather(*tasks))
    finally:
        while not pool.empty():
            await pool.get_nowait().close()


async def call(host: str, port: int, method: str, path: str, body=None):
    """One request on a fresh connection: ``(status, decoded JSON body)``."""
    conn = await Connection.open(host, port)
    try:
        return await conn.request(method, path, body)
    finally:
        await conn.close()


def server_env(root: Path, pins: dict) -> dict:
    """The benchmark's environment for the server: pinned BLAS, ``src`` on the path."""
    env = dict(os.environ)
    env.update(pins)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
