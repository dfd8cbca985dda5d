"""Serving-layer integration tests: real sockets, real artifacts.

A model is fitted once (module-scoped) on the unambiguous 18-entity dedup
fixture and frozen to a versioned artifact template; each test copies the
template and runs a real :class:`~repro.serve.app.ServeApp` on an
ephemeral port, talking to it over HTTP with stdlib ``urllib``. Covered:

* endpoint round-trips (resolve / lookup / explain / healthz / metrics)
  and the protocol error envelope (400/404/405/409);
* micro-batching: concurrent resolves coalesce into fewer engine batches;
* hot reload: ``POST /admin/reload`` swaps to the artifact root's current
  version with **zero failed in-flight requests**, and the reloaded state
  equals a fresh :meth:`IncrementalResolver.load` of the same artifacts;
* ``/healthz`` surfacing the reliability layer's
  :class:`~repro.reliability.health.HealthReport` flags.
"""

import json
import shutil
import threading
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import pytest

from repro import ERPipeline, IncrementalResolver
from repro.data.table import Table
from repro.reliability.health import EMPTY_CANDIDATE_SET
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
    name = f"{_WORDS[entity]} {_WORDS[(entity + 7) % len(_WORDS)]} {suffix}"
    if variant == "c":
        name = f"{_WORDS[entity]} {suffix}"
    return {
        "id": f"{variant}{entity}",
        "name": name,
        "city": _CITIES[entity % len(_CITIES)],
        "phone": f"555-01{entity:02d}",
    }


def _call(base_url: str, path: str, method: str = "GET", body=None, raw: bytes | None = None):
    """One HTTP exchange; returns ``(status, parsed_json)`` even for errors."""
    data = raw if raw is not None else (
        json.dumps(body).encode("utf-8") if body is not None else None
    )
    request = Request(base_url + path, data=data, method=method)
    try:
        with urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture(scope="module")
def artifact_template(tmp_path_factory):
    """Fit once on the a/b variants and freeze to a versioned artifact dir."""
    initial = [_record(e, v) for e in range(18) for v in ("a", "b")]
    table = Table(initial, attributes=["name", "city", "phone"])
    pipeline = ERPipeline(blocking_attribute="name")
    pipeline.run(table)
    path = tmp_path_factory.mktemp("serve-template") / "artifacts"
    pipeline.freeze().save(path)
    return path


@pytest.fixture
def artifacts(artifact_template, tmp_path):
    """A private copy of the template, so tests can mutate freely."""
    dst = tmp_path / "artifacts"
    shutil.copytree(artifact_template, dst)
    return dst


@pytest.fixture
def server(artifacts):
    with BackgroundServer(ServeApp(artifacts, port=0, max_wait_ms=20.0)) as srv:
        yield srv


class TestEndpoints:
    def test_root_lists_the_surface(self, server):
        status, body = _call(server.base_url, "/")
        assert status == 200
        assert body["service"] == "repro-serve"
        assert body["artifact_version"] == "v000001"
        assert "POST /resolve" in body["endpoints"]

    def test_healthz_reports_store_index_and_version(self, server):
        status, body = _call(server.base_url, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["artifact_version"] == "v000001"
        assert body["store"] == {"records": 36, "entities": 6}
        assert body["index"]["records"] == 36
        assert body["health"]["ok"] is True

    def test_resolve_then_lookup_round_trip(self, server):
        status, body = _call(
            server.base_url, "/resolve", "POST", {"records": [_record(0, "c")]}
        )
        assert status == 200
        entity = body["assignments"]["c0"]
        assert body["threshold"] == 0.5
        assert any(m["right"] == "c0" for m in body["matches"])
        assert all(m["score"] > 0.5 for m in body["matches"])

        # lookup by record id and by entity id agree
        status, by_record = _call(server.base_url, "/lookup/c0")
        assert status == 200
        assert by_record["entity_id"] == entity
        assert "c0" in by_record["members"]
        status, by_entity = _call(server.base_url, f"/lookup/{entity}")
        assert status == 200
        assert by_entity["members"] == by_record["members"]
        assert {r["id"] for r in by_entity["records"]} == set(by_entity["members"])

    def test_lone_surrogate_escape_is_resolved_and_scored(self, server):
        rec = _record(2, "c")
        body = json.dumps({"records": [dict(rec, name=rec["name"] + "\ud800")]})
        assert "\\ud800" in body  # sent as the JSON escape, not as UTF-8
        status, payload = _call(server.base_url, "/resolve", "POST", raw=body.encode())
        assert status == 200, payload
        assert any(m["right"] == "c2" for m in payload["matches"])
        _, lookup = _call(server.base_url, "/lookup/c2")
        assert {"a2", "b2", "c2"} <= set(lookup["members"])

    def test_explain_decomposes_a_stored_pair(self, server):
        status, body = _call(server.base_url, "/explain?left=a0&right=b0")
        assert status == 200
        assert body["posterior"] > 0.5
        # the decomposition is exact: prior + group contributions == log-odds
        total = body["prior_log_odds"] + sum(
            c["log_likelihood_ratio"] for c in body["contributions"]
        )
        assert abs(total - body["log_odds"]) < 1e-9
        # top=1 truncates to the single largest |contribution|
        status, top1 = _call(server.base_url, "/explain?left=a0&right=b0&top=1")
        assert status == 200
        assert len(top1["contributions"]) == 1

    def test_metrics_snapshot_counts_traffic(self, server):
        _call(server.base_url, "/resolve", "POST", {"records": [_record(2, "c")]})
        _call(server.base_url, "/healthz")
        status, body = _call(server.base_url, "/metrics")
        assert status == 200
        counters = body["metrics"]["counters"]
        # the /metrics request itself is counted after its handler snapshots
        assert counters["serve.requests"] >= 2
        assert counters["serve.requests.resolve"] == 1
        assert counters["serve.resolved.records"] == 1
        assert counters["serve.batches"] == 1
        assert body["metrics"]["gauges"]["serve.store.records"] == 37
        assert body["metrics"]["histograms"]["serve.latency_ms"]["count"] >= 2


class TestProtocolErrors:
    def test_error_envelope_shapes(self, server):
        cases = [
            # (path, method, body/raw, expected status, message fragment)
            ("/resolve", "POST", {"nope": 1}, 400, "unknown key"),
            ("/resolve", "POST", {"records": []}, 400, "non-empty"),
            ("/resolve", "GET", None, 405, "not allowed"),
            ("/lookup/zzz", "GET", None, 404, "no entity or record"),
            ("/explain?left=a0", "GET", None, 400, "both 'left' and 'right'"),
            ("/explain?left=a0&right=zzz", "GET", None, 404, "no record"),
            ("/nowhere", "GET", None, 404, "no route"),
        ]
        for path, method, body, expected, fragment in cases:
            status, payload = _call(server.base_url, path, method, body)
            assert status == expected, (path, status, payload)
            assert payload["status"] == expected
            assert fragment in payload["error"], (path, payload)

    def test_malformed_json_body_is_a_400(self, server):
        status, payload = _call(
            server.base_url, "/resolve", "POST", raw=b"this is not json"
        )
        assert status == 400
        assert "not valid JSON" in payload["error"]

    def test_bodyless_post_has_an_empty_body(self, server):
        """``curl -X POST .../admin/reload`` sends no Content-Length at all."""
        from http.client import HTTPConnection
        from urllib.parse import urlsplit

        netloc = urlsplit(server.base_url).netloc
        conn = HTTPConnection(netloc, timeout=30)
        try:
            # http.client omits Content-Length when body is None
            conn.request("POST", "/admin/reload")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["reloaded"] is True
            conn.request("POST", "/resolve")
            response = conn.getresponse()
            assert response.status == 400
            assert "not valid JSON" in json.loads(response.read())["error"]
        finally:
            conn.close()

    def test_duplicate_id_within_one_request_is_a_409(self, server):
        rec = _record(3, "c")
        status, payload = _call(
            server.base_url, "/resolve", "POST", {"records": [rec, dict(rec)]}
        )
        assert status == 409
        assert "appears twice" in payload["error"]

    def test_already_resolved_id_is_a_409_and_store_is_untouched(self, server):
        assert _call(
            server.base_url, "/resolve", "POST", {"records": [_record(4, "c")]}
        )[0] == 200
        status, payload = _call(
            server.base_url, "/resolve", "POST", {"records": [_record(4, "c")]}
        )
        assert status == 409
        assert "already resolved" in payload["error"]
        _, health = _call(server.base_url, "/healthz")
        assert health["store"]["records"] == 37  # the retry added nothing

    def test_conflicting_request_does_not_fail_cobatched_ones(self, server):
        """One 409 in a coalesced batch leaves the other requests whole."""
        results = {}
        barrier = threading.Barrier(3)

        def send(name, records):
            barrier.wait()
            results[name] = _call(
                server.base_url, "/resolve", "POST", {"records": records}
            )

        threads = [
            threading.Thread(target=send, args=("ok1", [_record(5, "c")])),
            threading.Thread(target=send, args=("dup", [_record(0, "a")])),  # exists
            threading.Thread(target=send, args=("ok2", [_record(6, "c")])),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert results["dup"][0] == 409
        assert results["ok1"][0] == 200
        assert results["ok2"][0] == 200


class TestMicroBatching:
    def test_concurrent_resolves_coalesce_into_fewer_batches(self, artifacts):
        """8 simultaneous one-record resolves reach the engine in < 8 passes."""
        app = ServeApp(artifacts, port=0, max_batch=64, max_wait_ms=150.0)
        with BackgroundServer(app) as server:
            n = 8
            barrier = threading.Barrier(n)
            statuses = []
            batch_sizes = []
            lock = threading.Lock()

            def send(i):
                barrier.wait()
                status, body = _call(
                    server.base_url,
                    "/resolve",
                    "POST",
                    {"records": [_record(i, "c")]},
                )
                with lock:
                    statuses.append(status)
                    batch_sizes.append(body["batch"]["requests"])

            threads = [threading.Thread(target=send, args=(i,)) for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)

            assert statuses == [200] * n
            # at least one engine pass carried multiple requests, and the
            # server-side batch counter agrees
            assert max(batch_sizes) >= 2
            _, metrics = _call(server.base_url, "/metrics")
            assert metrics["metrics"]["counters"]["serve.batches"] < n

    def test_cross_request_matches_within_one_batch(self, artifacts):
        """Two variants of the same entity arriving together still merge."""
        app = ServeApp(artifacts, port=0, max_batch=64, max_wait_ms=150.0)
        with BackgroundServer(app) as server:
            barrier = threading.Barrier(2)
            results = {}

            def send(name, rec):
                barrier.wait()
                results[name] = _call(
                    server.base_url, "/resolve", "POST", {"records": [rec]}
                )

            first = _record(7, "c")
            second = dict(_record(7, "c"), id="c7bis")
            threads = [
                threading.Thread(target=send, args=("first", first)),
                threading.Thread(target=send, args=("second", second)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)

            assert results["first"][0] == results["second"][0] == 200
            # both land in entity e7's cluster regardless of batching order
            assert (
                results["first"][1]["assignments"]["c7"]
                == results["second"][1]["assignments"]["c7bis"]
            )


class TestHotReload:
    def test_reload_equals_fresh_load(self, artifacts, server):
        """After save + reload, served state == IncrementalResolver.load()."""
        for i in (0, 1, 2):
            assert _call(
                server.base_url, "/resolve", "POST", {"records": [_record(i, "c")]}
            )[0] == 200
        status, saved = _call(server.base_url, "/admin/save", "POST")
        assert status == 200 and saved["saved_version"] == "v000002"

        # records resolved after the save exist only in memory...
        assert _call(
            server.base_url, "/resolve", "POST", {"records": [_record(3, "c")]}
        )[0] == 200
        status, reloaded = _call(server.base_url, "/admin/reload", "POST")
        assert status == 200
        assert reloaded.pop("server_time_ms") >= 0
        assert reloaded == {
            "reloaded": True,
            "previous_version": "v000001",
            "version": "v000002",
            "store_records": 39,
            "store_entities": 6,
        }

        # ...so the reload rolled them back to the saved artifact state,
        fresh = IncrementalResolver.load(artifacts)
        assert _call(server.base_url, "/lookup/c3")[0] == 404
        assert "c3" not in fresh.store
        # and what it serves now matches a fresh load exactly
        for rid in ("c0", "c1", "c2", "a0", "b17"):
            status, body = _call(server.base_url, f"/lookup/{rid}")
            assert status == 200
            assert body["entity_id"] == fresh.store.entity_of(rid)
            assert body["members"] == fresh.store.members(body["entity_id"])
        _, health = _call(server.base_url, "/healthz")
        assert health["artifact_version"] == "v000002"
        assert health["reloads"] == 1
        assert health["store"]["records"] == len(fresh.store)

    def test_lookup_forms_agree_and_survive_save_then_reload(self, server):
        """Record and entity ids answer one body; a retired entity id is a 404."""
        status, body = _call(
            server.base_url, "/resolve", "POST", {"records": [_record(0, "c")]}
        )
        assert status == 200
        entity = body["assignments"]["c0"]
        # c0 arrived as e36 (36 stored records) and merged into an older entity
        assert entity != "e36"

        def lookups() -> list:
            answers = []
            for path in ("/lookup/c0", f"/lookup/{entity}"):
                status, payload = _call(server.base_url, path)
                assert status == 200, payload
                payload.pop("server_time_ms")
                answers.append(payload)
            return answers

        by_record, by_entity = lookups()
        assert by_record == by_entity
        assert by_record["entity_id"] == entity and "c0" in by_record["members"]
        assert _call(server.base_url, "/lookup/e36")[0] == 404
        assert _call(server.base_url, "/admin/save", "POST")[0] == 200
        assert _call(server.base_url, "/admin/reload", "POST")[0] == 200
        assert lookups() == [by_record, by_record]
        assert _call(server.base_url, "/lookup/e36")[0] == 404

    def test_zero_failed_in_flight_requests_during_reload(self, artifacts):
        """Resolves hammering the server across repeated hot reloads all succeed."""
        app = ServeApp(artifacts, port=0, max_batch=16, max_wait_ms=5.0)
        with BackgroundServer(app) as server:
            # publish a second version so reloads genuinely swap directories
            assert _call(server.base_url, "/admin/save", "POST")[0] == 200

            n_threads, per_thread = 6, 8
            statuses = []
            lock = threading.Lock()
            start = threading.Barrier(n_threads + 1)

            def resolve_worker(worker: int):
                start.wait()
                for j in range(per_thread):
                    rid = f"w{worker}x{j}"
                    rec = dict(_record((worker + j) % 18, "c"), id=rid)
                    status, body = _call(
                        server.base_url, "/resolve", "POST", {"records": [rec]}
                    )
                    with lock:
                        statuses.append((status, body.get("error")))

            threads = [
                threading.Thread(target=resolve_worker, args=(w,))
                for w in range(n_threads)
            ]
            for t in threads:
                t.start()
            start.wait()
            reload_statuses = [
                _call(server.base_url, "/admin/reload", "POST")[0] for _ in range(5)
            ]
            for t in threads:
                t.join(timeout=120)

            assert reload_statuses == [200] * 5
            failed = [s for s in statuses if s[0] != 200]
            assert failed == [], failed
            assert len(statuses) == n_threads * per_thread
            _, health = _call(server.base_url, "/healthz")
            assert health["reloads"] == 5
            assert health["artifact_version"] == "v000002"

    def test_failed_reload_keeps_previous_version_serving(self, artifacts, server):
        (artifacts / "CURRENT").write_text("v999999\n", encoding="utf-8")
        status, payload = _call(server.base_url, "/admin/reload", "POST")
        assert status == 503
        assert "previous version still serving" in payload["error"]
        # the old resolver still answers
        assert _call(server.base_url, "/lookup/a0")[0] == 200
        _, health = _call(server.base_url, "/healthz")
        assert health["artifact_version"] == "v000001"
        # the failure is on the health record now
        assert health["status"] == "error"
        assert any(
            f["condition"] == "serve_reload_failed"
            for f in health["health"]["flags"]
        )


class TestHealthSurfacing:
    def test_degraded_resolve_surfaces_health_flags(self, server):
        """A no-candidate batch flags EMPTY_CANDIDATE_SET on /healthz."""
        alien = {
            "id": "alien1",
            "name": "xqzzt qwrrgh",
            "city": "nowhere",
            "phone": "000-0000",
        }
        status, body = _call(
            server.base_url, "/resolve", "POST", {"records": [alien]}
        )
        assert status == 200
        assert body["matches"] == []
        assert body["assignments"]["alien1"].startswith("e")

        status, health = _call(server.base_url, "/healthz")
        assert status == 200  # warnings degrade, they don't fail liveness
        assert health["status"] == "ok"
        assert health["degraded"] is True
        conditions = {f["condition"] for f in health["health"]["flags"]}
        assert EMPTY_CANDIDATE_SET in conditions
