"""The resolver's feature memo: scores of distinct value pairs kept across batches.

``FeatureGenerator.transform(..., memo=...)`` scores only the value pairs its
memo lacks. Everything here holds the memo path to the memo-less one:

* streamed six-dataset parity — several held-out batches through one
  resolver, records reused under fresh ids so their values repeat, against
  ``reference_resolve`` (no memo) bit for bit;
* hypothesis streams over ``str`` (``""``, non-BMP characters, lone
  surrogates), ``None``, ``int``/``bool``, ``float`` (±0.0, NaN, inf) and list
  values, with the memo bound patched down to 1, 2 and 3: parity, the
  bound, and every stored row equal to a fresh transform of its value pair;
* a kernel that raises mid-pass leaves no wrong or partial rows;
* the fit and ``GET /explain`` never pass a memo; telemetry counts hits.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.features.generator as generator_module
from reference_engine import reference_freeze, reference_resolve
from repro import ERPipeline
from repro.data.table import Table
from repro.features.generator import FeatureGenerator
from repro.obs import configure_telemetry, reset_metrics
from test_shard_parity import DATASETS, _fitted


def _memo_entries(table):
    """``(value_a, value_b, row)`` of every pair an attribute's memo stores."""
    values = list(table.ids)
    for code, slot in table.slots.items():
        yield values[code >> 32], values[code & 0xFFFFFFFF], table.rows[slot]


def _assert_memo_matches_fresh(generator, memo):
    """Every stored row equals a memo-less transform of its value pair, bit for bit."""
    for attribute, table in memo.items():
        entries = list(_memo_entries(table))
        if not entries:
            continue
        records, pairs = {}, []
        for i, (value_a, value_b, _) in enumerate(entries):
            records[f"a{i}"] = {attribute: value_a}
            records[f"b{i}"] = {attribute: value_b}
            pairs.append((f"a{i}", f"b{i}"))
        group = generator.feature_groups_[generator.attributes_.index(attribute)]
        fresh = generator.transform(records, None, pairs)[:, group[0] : group[-1] + 1]
        stored = np.array([row for _, _, row in entries])
        assert stored.tobytes() == fresh.tobytes(), attribute


def _stream(pipeline, batches):
    """Resolve ``batches`` through one resolver and through the reference loop.

    Returns the resolver; asserts pairs, score bytes and assignments agree
    batch by batch.
    """
    resolver = pipeline.freeze(0.5)
    index, store = reference_freeze(pipeline, 0.5)
    for batch in batches:
        result = resolver.resolve([dict(r) for r in batch])
        pairs, scores = reference_resolve(
            pipeline.generator_, pipeline.model_, index, store, [dict(r) for r in batch]
        )
        assert result.pairs == pairs
        assert result.scores.tobytes() == np.asarray(scores, dtype=np.float64).tobytes()
        assert result.assignments == {rid: store.entity_of(rid) for rid in result.record_ids}
    assert set(resolver.store.clusters()) == set(store.clusters())
    return resolver


def _reused(records, tag, id_attr="id"):
    """The records again, under fresh ids: their values repeat."""
    return [dict(rec, **{id_attr: f"{tag}-{i}"}) for i, rec in enumerate(records)]


@pytest.mark.parametrize("name", DATASETS)
def test_streamed_batches_match_the_reference(name):
    """Batches whose values repeat hit the memo and still score bit for bit."""
    pipeline, bench = _fitted(name)
    records, id_attr = list(bench.left)[:30], bench.left.id_attr
    batches = [
        _reused(records[lo:hi], f"s{b}", id_attr)
        for b, (lo, hi) in enumerate([(0, 20), (10, 30), (0, 20), (5, 25)])
    ]
    resolver = _stream(pipeline, batches)
    memo = resolver._feature_memo
    assert any(len(table) for table in memo.values()), f"{name}: nothing was memoized"
    _assert_memo_matches_fresh(resolver.generator, memo)


# -- hypothesis streams ----------------------------------------------------------

#: Values a memo must key exactly, or refuse to key: equal-hashing
#: non-strings, empty and non-BMP strings, lone surrogates, lists.
_VALUES = (
    "",
    "oak",
    "oak street",
    "\U0001d518\U0001d52b",
    "café \ud800",
    "\udfff",
    "1",
    "True",
    None,
    0,
    1,
    True,
    False,
    0.0,
    -0.0,
    float("nan"),
    float("inf"),
    ["oak"],
)

#: Names draw three of these words: each word's document frequency stays
#: under the blocker's 0.2 cap, so names share tokens that block.
_WORDS = tuple(
    f"{tree}{k}" for tree in ("oak", "elm", "pine", "fir", "ash", "yew") for k in range(5)
)


@pytest.fixture(scope="module")
def fitted_venues():
    """A pipeline fitted on plain strings: name (blocked on), city and year."""
    rng = np.random.default_rng(7)
    records = []
    for i in range(60):
        words = rng.choice(len(_WORDS), size=3, replace=False)
        records.append(
            {
                "id": f"f{i}",
                "name": " ".join(_WORDS[w] for w in words),
                "city": ("north", "south", "east")[i % 3],
                "year": str(1990 + i % 5),
            }
        )
    pipeline = ERPipeline(blocking_attribute="name")
    pipeline.run(Table(records, attributes=["name", "city", "year"]))
    return pipeline


@st.composite
def _value_streams(draw):
    """1–4 batches of 1–40 records; each example draws a small value pool
    per attribute, so values repeat across batches."""
    pools = {
        attribute: draw(st.lists(st.sampled_from(_VALUES), min_size=1, max_size=5))
        for attribute in ("city", "year")
    }
    batches = []
    for b in range(draw(st.integers(1, 4))):
        size = draw(st.integers(1, 40))
        batch = []
        for i in range(size):
            words = draw(st.lists(st.sampled_from(_WORDS[:8]), min_size=2, max_size=3, unique=True))
            batch.append(
                {
                    "id": f"h{b}-{i}",
                    "name": " ".join(words),
                    "city": draw(st.sampled_from(pools["city"])),
                    "year": draw(st.sampled_from(pools["year"])),
                }
            )
        batches.append(batch)
    return batches


@pytest.mark.parametrize("bound", [1, 2, 3, generator_module._MEMO_VALUE_PAIRS])
@settings(max_examples=25, deadline=None)
@given(batches=_value_streams())
def test_hypothesis_streams_match_the_reference_within_the_bound(fitted_venues, bound, batches):
    with mock.patch.object(generator_module, "_MEMO_VALUE_PAIRS", bound):
        resolver = fitted_venues.freeze(0.5)
        index, store = reference_freeze(fitted_venues, 0.5)
        for batch in batches:
            result = resolver.resolve([dict(r) for r in batch])
            pairs, scores = reference_resolve(
                fitted_venues.generator_, fitted_venues.model_, index, store,
                [dict(r) for r in batch],
            )
            assert result.pairs == pairs
            assert result.scores.tobytes() == np.asarray(scores, dtype=np.float64).tobytes()
            assert result.assignments == {r: store.entity_of(r) for r in result.record_ids}
            for table in resolver._feature_memo.values():
                assert len(table) <= table.used <= bound
        _assert_memo_matches_fresh(resolver.generator, resolver._feature_memo)


def _pair(city_a, city_b, year_a="1990", year_b="1990"):
    records = {
        "x": {"name": "oak0 oak1", "city": city_a, "year": year_a},
        "y": {"name": "oak0 pine1", "city": city_b, "year": year_b},
    }
    return records, [("x", "y")]


def test_values_equal_as_strings_are_not_confused(fitted_venues):
    """``True`` and ``"True"``, ``0.0`` and ``"0.0"`` print alike but featurize
    apart; only ``str`` and ``None`` values key the memo, and an attribute
    holding anything else is scored in full and not stored."""
    generator, memo = fitted_venues.generator_, {}
    for year_a, year_b in [
        ("True", "1990"), (True, "1990"), ("0.0", "-0.0"), (0.0, -0.0),
        ("1", "1"), (1, True), (None, "1"), ("None", "1"),
    ]:
        records, pairs = _pair("north", "north", year_a, year_b)
        scored = generator.transform(records, None, pairs, memo=memo)
        assert scored.tobytes() == generator.transform(records, None, pairs).tobytes()
    stored = [value for a, b, _ in _memo_entries(memo["year"]) for value in (a, b)]
    assert ("True", "1990") in {(a, b) for a, b, _ in _memo_entries(memo["year"])}
    assert all(value is None or type(value) is str for value in stored)
    _assert_memo_matches_fresh(generator, memo)


def test_a_full_memo_is_emptied_before_it_would_pass_the_bound(fitted_venues):
    generator, memo = fitted_venues.generator_, {}
    records = {
        rid: {"name": f"oak0 pine{i}", "city": city}
        for i, (rid, city) in enumerate(zip("nsew", ("north", "south", "east", "west")))
    }
    with mock.patch.object(generator_module, "_MEMO_VALUE_PAIRS", 2):
        generator.transform(records, None, [("n", "s"), ("e", "w")], memo=memo)
        # both values of each pair were met before, but the memo is full
        generator.transform(records, None, [("n", "w"), ("e", "s")], memo=memo)
    assert {(a, b) for a, b, _ in _memo_entries(memo["city"])} == {
        ("north", "west"), ("east", "south"),
    }
    _assert_memo_matches_fresh(generator, memo)


def test_clear_caches_empties_the_memo(fitted_venues):
    resolver = fitted_venues.freeze(0.5)
    resolver.resolve([{"id": "c1", "name": "oak0 oak1 oak2", "city": "north", "year": "1990"}])
    assert any(len(table) for table in resolver._feature_memo.values())
    resolver.clear_caches()
    assert resolver._feature_memo == {}


# -- a pass that fails -------------------------------------------------------------


def _stream_with_kernel(resolver, batches, kernel) -> int:
    """Resolve ``batches`` with the Jaro–Winkler kernel replaced; returns
    how many passes raised."""
    failed = 0
    with mock.patch.object(generator_module, "batch_jaro_winkler_indexed", kernel):
        for batch in batches:
            try:
                resolver.resolve(batch)
            except RuntimeError:
                failed += 1
    return failed


@pytest.mark.parametrize("at", [0.0, 0.3, 0.6, 1.0])
def test_a_kernel_raising_mid_pass_leaves_only_complete_rows(at):
    """The k-th Jaro–Winkler kernel call raises; every stored row still
    equals a fresh transform, so no attribute kept a partial row."""
    pipeline, bench = _fitted("rest_fz")
    records = list(bench.left)

    def batches(tag):
        return [_reused(records[lo : lo + 10], f"{tag}{lo}") for lo in range(0, 25, 5)]

    real = generator_module.batch_jaro_winkler_indexed
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return real(*args)

    assert _stream_with_kernel(pipeline.freeze(0.5), batches("dry"), counting) == 0
    k, calls[0] = max(1, round(at * calls[0])), 0

    def flaky(*args):
        calls[0] += 1
        if calls[0] == k:
            raise RuntimeError("injected kernel failure")
        return real(*args)

    resolver = pipeline.freeze(0.5)
    assert _stream_with_kernel(resolver, batches("k"), flaky) == 1
    _assert_memo_matches_fresh(resolver.generator, resolver._feature_memo)


# -- who passes a memo ---------------------------------------------------------------


def _recording_transform(seen: list):
    real = FeatureGenerator.transform

    def transform(self, *args, memo=None, **kwargs):
        seen.append(memo)
        return real(self, *args, memo=memo, **kwargs)

    return transform


def test_the_fit_and_explain_pass_no_memo(fitted_venues, tmp_path):
    from repro.serve import BackgroundServer, ServeApp
    from urllib.request import urlopen

    seen: list = []
    with mock.patch.object(FeatureGenerator, "transform", _recording_transform(seen)):
        ERPipeline(blocking_attribute="name").run(fitted_venues.left_)
        assert seen and all(memo is None for memo in seen)

        fitted_venues.freeze(0.5).save(tmp_path / "art")
        seen.clear()
        with BackgroundServer(ServeApp(tmp_path / "art", port=0)) as server:
            with urlopen(f"{server.base_url}/explain?left=f0&right=f1", timeout=30) as response:
                assert response.status == 200
        assert seen == [None]


# -- telemetry ---------------------------------------------------------------------


@pytest.fixture
def traced():
    configure_telemetry("memory")
    reset_metrics()
    yield
    configure_telemetry(None)
    reset_metrics()


def test_traced_resolves_count_memo_hits(fitted_venues, traced):
    resolver = fitted_venues.freeze(0.5)
    first = resolver.resolve(
        [{"id": "t1", "name": "oak0 oak1 oak2", "city": "north", "year": "1990"}]
    )
    second = resolver.resolve(
        [{"id": "t2", "name": "oak0 oak1 elm2", "city": "north", "year": "1991"}]
    )
    assert first.pairs and second.pairs
    counters = second.telemetry.metrics["counters"]
    assert counters["features.memo.hits"] > 0
    assert counters["features.memo.scored"] >= 0
    gauges = second.telemetry.metrics["gauges"]
    assert gauges["features.memo.entries"] == sum(map(len, resolver._feature_memo.values()))


def test_a_traced_fit_publishes_no_memo_series(fitted_venues, traced):
    result = ERPipeline(blocking_attribute="name").run(fitted_venues.left_)
    metrics = result.telemetry.metrics
    names = set(metrics["counters"]) | set(metrics["gauges"])
    assert not {n for n in names if n.startswith("features.memo.")}
