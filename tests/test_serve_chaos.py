"""Service chaos harness: overload, deadlines, drain, and injected faults.

These tests drive a real :class:`~repro.serve.app.ServeApp` over real
sockets while the fault-injection layer (installed process-wide with
:func:`~repro.reliability.faultinject.inject_global`, because the server's
event loop and writer thread never see a test's contextvars) arms the
serve failpoints: slow or failing engine passes (``serve.engine.pass``),
writer-thread stalls (``serve.writer.job``), reload failures
(``serve.reload``), and socket resets mid-response
(``serve.http.write_response``).

The invariants, stated once and checked throughout:

* **no silent drops** — every request the client managed to send gets an
  HTTP response with a typed status (200, or 503/504/429 with a ``reason``),
  or a visibly dead socket; never a hang;
* **never a third state** — a record id is in the store iff its request
  was answered 200 (or its response was cut after execution by an injected
  socket reset); shed and expired requests leave no trace;
* **bounded latency while shedding** — read endpoints (``/healthz``,
  ``/metrics``) answer fast even while the writer thread is wedged inside
  a long engine pass;
* **drain is graceful** — after SIGTERM / ``POST /admin/drain``, in-flight
  requests finish, new resolves shed with typed 503s, ``/healthz`` reports
  ``draining``, and the process exits within the drain budget.
"""

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.error import HTTPError, URLError
from urllib.request import Request, urlopen

import pytest

import repro
from repro import ERPipeline
from repro.data.table import Table
from repro.reliability.faultinject import FaultInjector, SimulatedCrash, inject_global
from repro.serve import BackgroundServer, ServeApp

_SUFFIXES = ("grill", "bistro", "cafe", "diner", "tavern", "kitchen")
_WORDS = (
    "harbor", "maple", "sunset", "copper", "willow", "granite",
    "juniper", "crimson", "meadow", "ivory", "cobalt", "timber",
    "velvet", "orchid", "saffron", "lagoon", "ember", "prairie",
)
_CITIES = ("oakland", "berkeley", "alameda")


def _record(entity: int, variant: str) -> dict:
    suffix = _SUFFIXES[entity % len(_SUFFIXES)]
    name = f"{_WORDS[entity % len(_WORDS)]} {_WORDS[(entity + 7) % len(_WORDS)]} {suffix}"
    return {
        "id": f"{variant}{entity}",
        "name": name,
        "city": _CITIES[entity % len(_CITIES)],
        "phone": f"555-01{entity % 100:02d}",
    }


def _call(base_url: str, path: str, method: str = "GET", body=None, headers=None,
          timeout: float = 30.0):
    """One HTTP exchange; returns ``(status, parsed_json, headers)``."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = Request(base_url + path, data=data, method=method,
                      headers=dict(headers or {}))
    try:
        with urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


@pytest.fixture(scope="module")
def artifact_template(tmp_path_factory):
    """Fit once on the a/b variants and freeze to a versioned artifact dir."""
    initial = [_record(e, v) for e in range(18) for v in ("a", "b")]
    table = Table(initial, attributes=["name", "city", "phone"])
    pipeline = ERPipeline(blocking_attribute="name")
    pipeline.run(table)
    path = tmp_path_factory.mktemp("chaos-template") / "artifacts"
    pipeline.freeze().save(path)
    return path


@pytest.fixture
def artifacts(artifact_template, tmp_path):
    dst = tmp_path / "artifacts"
    shutil.copytree(artifact_template, dst)
    return dst


def _resolve_from_thread(base_url, rid, results, *, headers=None, variant="c",
                         replies=None):
    """One client: resolve one record, record (rid, status, body) or the error.

    With a ``replies`` dict, the response headers are kept there under ``rid``.
    """
    record = _record(int(rid[1:]) % 18, rid[0])
    record["id"] = rid
    try:
        status, body, response_headers = _call(
            base_url, "/resolve", "POST", {"records": [record]}, headers=headers
        )
        results.append((rid, status, body))
        if replies is not None:
            replies[rid] = response_headers
    except (URLError, ConnectionError, socket.timeout, TimeoutError) as exc:
        results.append((rid, None, repr(exc)))


class TestOverloadShedding:
    def test_queue_overflow_sheds_typed_503_with_retry_after(self, artifacts):
        """Flood a tiny queue behind a slow engine: sheds are 503 + Retry-After."""
        injector = FaultInjector().arm(
            "serve.engine.pass", exc=None, delay_s=0.3, times=None
        )
        app = ServeApp(
            artifacts, port=0, max_wait_ms=0.0, max_batch=1, max_queue=2
        )
        with inject_global(injector), BackgroundServer(app) as server:
            results: list = []
            threads = [
                threading.Thread(
                    target=_resolve_from_thread,
                    args=(server.base_url, f"c{i}", results),
                )
                for i in range(16)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads), "a client hung"

            assert len(results) == 16, "a request was silently dropped"
            ok = [r for r in results if r[1] == 200]
            shed = [r for r in results if r[1] == 503]
            assert len(ok) + len(shed) == 16
            assert ok, "nothing got through at all"
            assert shed, "a 2-deep queue absorbed 16 concurrent slow resolves"
            for _rid, _status, body in shed:
                assert body["reason"] in ("queue_full", "inflight_records")

            # shed responses carry the backoff hint
            status, _body, headers = _call(server.base_url, "/metrics")
            assert status == 200
            metrics = _body["metrics"]["counters"]
            assert metrics["serve.shed_total"] == len(shed)

            # never a third state: resolved ids are in the store, shed ids
            # are not — checked through the same server
            for rid, status, _body in results:
                lookup_status, _, _ = _call(server.base_url, f"/lookup/{rid}")
                assert lookup_status == (200 if status == 200 else 404)

    def test_shed_response_carries_retry_after_header(self, artifacts):
        """Six slow resolves against a 1-deep queue: every 503 has Retry-After."""
        injector = FaultInjector().arm(
            "serve.engine.pass", exc=None, delay_s=0.5, times=None
        )
        app = ServeApp(
            artifacts, port=0, max_wait_ms=0.0, max_batch=1, max_queue=1
        )
        with inject_global(injector), BackgroundServer(app) as server:
            results: list = []
            replies: dict = {}
            threads = [
                threading.Thread(
                    target=_resolve_from_thread,
                    args=(server.base_url, f"c{i}", results),
                    kwargs={"replies": replies},
                )
                for i in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads), "a client hung"
            assert len(results) == 6, "a request was silently dropped"
            assert {status for _rid, status, _body in results} <= {200, 503}, results
            shed = [rid for rid, status, _body in results if status == 503]
            assert shed, "six concurrent slow resolves never overflowed a 1-deep queue"
            for rid in shed:
                assert replies[rid].get("Retry-After") is not None, replies[rid]

    def test_per_connection_rate_limit_answers_429(self, artifacts):
        app = ServeApp(artifacts, port=0, max_wait_ms=0.0, conn_rate_limit=2.0)
        with BackgroundServer(app) as server:
            # one keep-alive connection, hand-rolled so every request rides
            # the same socket (urllib opens a fresh connection per request)
            host, port = server.base_url.removeprefix("http://").split(":")
            statuses = []
            with socket.create_connection((host, int(port)), timeout=30) as sock:
                f = sock.makefile("rwb")
                for i in range(8):
                    payload = json.dumps(
                        {"records": [dict(_record(i, "r"), id=f"r{i}")]}
                    ).encode()
                    f.write(
                        b"POST /resolve HTTP/1.1\r\n"
                        b"Host: x\r\nContent-Type: application/json\r\n"
                        + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                        + payload
                    )
                    f.flush()
                    status_line = f.readline().decode()
                    statuses.append(int(status_line.split()[1]))
                    length = 0
                    while True:
                        line = f.readline()
                        if line in (b"\r\n", b""):
                            break
                        if line.lower().startswith(b"content-length:"):
                            length = int(line.split(b":")[1])
                    f.read(length)
            assert 429 in statuses, f"burst of 8 never hit the 2 rps limit: {statuses}"
            assert statuses[0] == 200, "the first request must be admitted"


class TestDeadlines:
    def test_request_expired_in_queue_gets_504_and_no_store_mutation(self, artifacts):
        injector = FaultInjector().arm(
            "serve.engine.pass", exc=None, delay_s=0.5, times=None
        )
        app = ServeApp(artifacts, port=0, max_wait_ms=0.0, max_batch=1)
        with inject_global(injector), BackgroundServer(app) as server:
            results: list = []
            # a blocker pinning the writer + a doomed request with a budget
            # far shorter than the blocker's injected 500ms pass
            blocker = threading.Thread(
                target=_resolve_from_thread, args=(server.base_url, "c0", results)
            )
            blocker.start()
            time.sleep(0.15)  # blocker is inside the slow engine pass
            doomed = threading.Thread(
                target=_resolve_from_thread,
                args=(server.base_url, "c1", results),
                kwargs={"headers": {"X-Request-Deadline-Ms": "100"}},
            )
            doomed.start()
            blocker.join(timeout=60)
            doomed.join(timeout=60)

            by_rid = {rid: (status, body) for rid, status, body in results}
            assert by_rid["c0"][0] == 200
            status, body = by_rid["c1"]
            assert status == 504
            assert body["reason"] == "deadline"
            # the expired request never reached the engine
            assert _call(server.base_url, "/lookup/c1")[0] == 404
            assert _call(server.base_url, "/lookup/c0")[0] == 200

    def test_server_default_deadline_applies_without_header(self, artifacts):
        injector = FaultInjector().arm(
            "serve.engine.pass", exc=None, delay_s=0.5, times=None
        )
        app = ServeApp(
            artifacts, port=0, max_wait_ms=0.0, max_batch=1, default_deadline_ms=100.0
        )
        with inject_global(injector), BackgroundServer(app) as server:
            results: list = []
            blocker = threading.Thread(
                target=_resolve_from_thread, args=(server.base_url, "c0", results)
            )
            blocker.start()
            time.sleep(0.15)
            doomed = threading.Thread(
                target=_resolve_from_thread, args=(server.base_url, "c1", results)
            )
            doomed.start()
            blocker.join(timeout=60)
            doomed.join(timeout=60)
            by_rid = {rid: status for rid, status, _ in results}
            assert by_rid == {"c0": 200, "c1": 504}

    def test_garbled_deadline_header_is_400(self, artifacts):
        app = ServeApp(artifacts, port=0, max_wait_ms=0.0)
        with BackgroundServer(app) as server:
            status, body, _ = _call(
                server.base_url,
                "/resolve",
                "POST",
                {"records": [_record(0, "x")]},
                headers={"X-Request-Deadline-Ms": "soon"},
            )
            assert status == 400
            assert "X-Request-Deadline-Ms".lower() in body["error"].lower()


class TestReadPathStaysLive:
    def test_healthz_and_metrics_answer_while_writer_is_wedged(self, artifacts):
        """Satellite invariant: a long engine pass never blocks the read path."""
        injector = FaultInjector().arm(
            "serve.engine.pass", exc=None, delay_s=1.5, times=None
        )
        app = ServeApp(artifacts, port=0, max_wait_ms=0.0)
        with inject_global(injector), BackgroundServer(app) as server:
            results: list = []
            wedged = threading.Thread(
                target=_resolve_from_thread, args=(server.base_url, "c0", results)
            )
            wedged.start()
            time.sleep(0.2)  # the writer thread is now sleeping in the pass
            for path in ("/healthz", "/metrics", "/lookup/a0", "/"):
                t0 = time.monotonic()
                status, _body, _ = _call(server.base_url, path, timeout=5)
                elapsed = time.monotonic() - t0
                assert status == 200, f"{path} -> {status} while writer busy"
                assert elapsed < 1.0, f"{path} took {elapsed:.2f}s behind the writer"
            wedged.join(timeout=60)
            assert results and results[0][1] == 200


class TestInjectedFaults:
    def test_engine_crash_fails_batch_but_not_store_or_server(self, artifacts):
        injector = FaultInjector().arm("serve.engine.pass", exc=SimulatedCrash)
        app = ServeApp(artifacts, port=0, max_wait_ms=0.0)
        with inject_global(injector), BackgroundServer(app) as server:
            status, body, _ = _call(
                server.base_url, "/resolve", "POST",
                {"records": [dict(_record(0, "c"), id="c0")]},
            )
            assert status == 500
            # the crash fired before resolver.resolve: old state, no third one
            assert _call(server.base_url, "/lookup/c0")[0] == 404
            # the arm is exhausted; the very next resolve succeeds
            status, _body, _ = _call(
                server.base_url, "/resolve", "POST",
                {"records": [dict(_record(0, "c"), id="c0")]},
            )
            assert status == 200
            assert _call(server.base_url, "/lookup/c0")[0] == 200

    def test_socket_reset_mid_response_does_not_poison_server(self, artifacts):
        injector = FaultInjector().arm(
            "serve.http.write_response", exc=ConnectionResetError
        )
        app = ServeApp(artifacts, port=0, max_wait_ms=0.0)
        with inject_global(injector), BackgroundServer(app) as server:
            results: list = []
            _resolve_from_thread(server.base_url, "c0", results)
            rid, status, detail = results[0]
            # this client's socket died before the response flushed
            assert status is None, f"expected a dead socket, got {status}"
            # but the request executed (the reset hit on the way out), the
            # store is consistent, and the server keeps serving everyone else
            assert _call(server.base_url, "/lookup/c0")[0] == 200
            assert _call(server.base_url, "/healthz")[0] == 200
            status, _body, _ = _call(
                server.base_url, "/resolve", "POST",
                {"records": [dict(_record(1, "c"), id="c1")]},
            )
            assert status == 200

    def test_writer_stall_during_save_answers_typed_500(self, artifacts):
        injector = FaultInjector().arm("serve.writer.job", exc=SimulatedCrash)
        app = ServeApp(artifacts, port=0, max_wait_ms=0.0)
        with inject_global(injector), BackgroundServer(app) as server:
            status, body, _ = _call(server.base_url, "/admin/save", "POST")
            assert status == 500
            assert "SimulatedCrash" in body["error"]
            # the writer thread survives for the next serialized job
            status, _body, _ = _call(server.base_url, "/admin/save", "POST")
            assert status == 200


class TestGracefulDrain:
    def test_admin_drain_finishes_inflight_sheds_new_and_exits(self, artifacts):
        injector = FaultInjector().arm(
            "serve.engine.pass", exc=None, delay_s=0.8, times=None
        )
        app = ServeApp(
            artifacts, port=0, max_wait_ms=0.0, max_batch=1, drain_timeout_s=30.0
        )
        with inject_global(injector), BackgroundServer(app) as server:
            results: list = []
            inflight = [
                threading.Thread(
                    target=_resolve_from_thread,
                    args=(server.base_url, f"c{i}", results),
                )
                for i in range(3)
            ]
            for t in inflight:
                t.start()
            time.sleep(0.2)  # the first is executing, the rest are queued

            status, body, _ = _call(server.base_url, "/admin/drain", "POST")
            assert status == 200
            assert body["draining"] is True

            # healthz flips to draining (503) while in-flight work finishes
            status, body, _ = _call(server.base_url, "/healthz")
            assert status == 503
            assert body["status"] == "draining"

            # new resolves shed with the typed reason
            status, body, _ = _call(
                server.base_url, "/resolve", "POST",
                {"records": [dict(_record(9, "z"), id="z9")]},
            )
            assert status == 503
            assert body["reason"] == "draining"

            # reload during drain is refused, not wedged
            status, _body, _ = _call(server.base_url, "/admin/reload", "POST")
            assert status == 503

            # zero failed in-flight: everything admitted before the drain
            # completes with 200
            for t in inflight:
                t.join(timeout=60)
            assert sorted(r[1] for r in results) == [200, 200, 200]

            # and the server then exits on its own (drain completed)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                try:
                    _call(server.base_url, "/healthz", timeout=2)
                except (URLError, ConnectionError, socket.timeout, TimeoutError):
                    break
                time.sleep(0.1)
            else:
                pytest.fail("server kept listening after drain completed")
        assert app.drained_clean is True

    def test_drain_is_idempotent(self, artifacts):
        app = ServeApp(artifacts, port=0, max_wait_ms=0.0, drain_timeout_s=30.0)
        with BackgroundServer(app) as server:
            first, _, _ = _call(server.base_url, "/admin/drain", "POST")
            assert first == 200
            try:
                status, body, _ = _call(server.base_url, "/admin/drain", "POST")
            except (URLError, ConnectionError):
                return  # already fully drained and gone: acceptable
            assert status == 200
            assert body.get("already_draining", False) or body["draining"]

    def test_drain_budget_forces_a_wedged_writer(self, artifacts):
        injector = FaultInjector().arm(
            "serve.engine.pass", exc=None, delay_s=20.0, times=None
        )
        app = ServeApp(
            artifacts, port=0, max_wait_ms=0.0, max_batch=1, drain_timeout_s=0.5
        )
        with inject_global(injector), BackgroundServer(app) as server:
            results: list = []
            wedged = threading.Thread(
                target=_resolve_from_thread, args=(server.base_url, "c0", results)
            )
            wedged.start()
            time.sleep(0.2)
            t0 = time.monotonic()
            status, _body, _ = _call(server.base_url, "/admin/drain", "POST")
            assert status == 200
            wedged.join(timeout=30)
            elapsed = time.monotonic() - t0
            assert elapsed < 15.0, f"forced drain took {elapsed:.1f}s"
            # the wedged request got a typed answer (503 via BatcherClosed
            # mapping), or its socket was cut — never silence
            assert results, "the wedged client never returned"
        assert app.drained_clean is False


class TestChaosSwarm:
    def test_32_clients_with_armed_failpoints_leave_consistent_state(self, artifacts):
        """The headline invariant run: 32 concurrent clients, slow passes,
        a tiny queue, tight deadlines on some requests — every request is
        answered, and the store matches the answers exactly."""
        injector = FaultInjector().arm(
            "serve.engine.pass", exc=None, delay_s=0.05, times=None
        )
        app = ServeApp(
            artifacts,
            port=0,
            max_wait_ms=5.0,
            max_batch=4,
            max_queue=8,
            drain_timeout_s=30.0,
        )
        with inject_global(injector), BackgroundServer(app) as server:
            results: list = []
            threads = []
            for i in range(32):
                headers = {"X-Request-Deadline-Ms": "120"} if i % 4 == 0 else None
                threads.append(
                    threading.Thread(
                        target=_resolve_from_thread,
                        args=(server.base_url, f"s{i}", results),
                        kwargs={"headers": headers},
                    )
                )
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads), "a client hung"

            # invariant 1: no silent drops — 32 in, 32 answered
            assert len(results) == 32
            allowed = {200, 503, 504}
            by_rid = {}
            for rid, status, body in results:
                assert status in allowed, f"{rid}: unexpected {status}: {body}"
                if status in (503, 504):
                    assert body["reason"] in (
                        "queue_full", "inflight_records", "deadline", "draining"
                    )
                by_rid[rid] = status

            # invariant 2: the store is exactly the set of 200s — shed and
            # expired requests left no trace (never a third state)
            for rid, status in by_rid.items():
                lookup, _, _ = _call(server.base_url, f"/lookup/{rid}")
                assert lookup == (200 if status == 200 else 404), (
                    f"{rid} answered {status} but lookup says {lookup}"
                )

            # invariant 3: the shed accounting matches the responses
            _status, metrics_body, _ = _call(server.base_url, "/metrics")
            counters = metrics_body["metrics"]["counters"]
            n_shed = sum(1 for s in by_rid.values() if s in (503, 504))
            assert counters.get("serve.shed_total", 0) == n_shed


class TestSigterm:
    def test_sigterm_drains_and_exits_cleanly(self, artifacts):
        """The full CLI process: SIGTERM → drain banner → exit 0 in budget."""
        src_root = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_root) + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--artifacts", str(artifacts),
                "--port", "0",
                "--drain-timeout", "10",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "serving" in banner and "http://" in banner, banner
            base_url = next(
                tok for tok in banner.split() if tok.startswith("http://")
            )
            status, _body, _ = _call(base_url, "/healthz", timeout=10)
            assert status == 200

            t0 = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
            elapsed = time.monotonic() - t0
            assert proc.returncode == 0, f"exit {proc.returncode}: {out}"
            assert elapsed < 15.0, f"drain took {elapsed:.1f}s against a 10s budget"
            assert "draining" in out
            assert "drained (clean)" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
