"""Featurization kernels vs the reference kernels (``reference_batch``).

The acceptance bar for hash-free deduplication, the Monge–Elkan kernel's
two token-pair lookups (the dense table and the sorted keys past its
budget) and the length-class edit kernels in :mod:`repro.text.batch`:

* ``_sorted_unique`` equals ``np.unique`` and ``_unique_inverse`` equals
  ``np.unique(..., return_inverse=True)`` (values and inverse) on
  hypothesis-drawn arrays, lengths 1, 2 and 2^k ± 1, all-equal arrays and
  keys at the largest value the packing allows; empty input is handled;
* Monge–Elkan is bit-identical to the reference kernel under both lookups:
  on hypothesis-drawn bags (whole tuples repeated, ``None``, ``()``,
  non-BMP characters, lone surrogates), and with the chunk cap forced down
  to 1, 3 and 7 cells, so that most pairs are larger than the cap and
  split their token rows into blocks; a pair scored alone equals the same
  pair inside the batch; one real oversized pair stays within a bounded
  transient peak;
* the table budget picks the lookup, and on the sorted lookup a
  vocabulary whose packed cells would overflow int64 makes the kernel
  refuse, and the feature generator falls back to per-pair values;
* on the six fixture datasets the cross matrix and both within-table
  matrices are bit-identical to the oracle's, NaNs included, under both
  lookups; the oracle also swaps in the per-bucket Jaro–Winkler and
  Levenshtein kernels with their scalar fallback.

``REPRO_EM_PARITY_SCALE=paper`` (the ``em-parity`` CI job) runs the six
datasets at paper scale; tier-1 leaves it unset and runs them at tiny
scale.
"""

import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reference_batch import (
    per_pair_transform,
    reference_kernels,
    reference_monge_elkan_jw_indexed,
)
from repro import ERPipeline, load_benchmark
from repro.data.table import Table
from repro.eval.harness import blocker_for, co_candidate_pairs
from repro.features.generator import FeatureGenerator
from repro.text import batch
from repro.text.batch import _sorted_unique, _unique_inverse

PAPER = os.environ.get("REPRO_EM_PARITY_SCALE") == "paper"
SCALE = "paper" if PAPER else "tiny"

DATASETS = ("rest_fz", "pub_da", "pub_ds", "mv_ri", "prod_ab", "prod_ag")

INT64_MAX = np.iinfo(np.int64).max

#: Monge–Elkan's token-pair lookups by table budget: at 2**40 entries every
#: call takes the dense table, at 0 every call the sorted keys.
LOOKUPS = {"dense": 2**40, "sorted": 0}

#: Monge–Elkan's best-match paths by row threshold: at 1 every block takes
#: one ``np.maximum`` per token, at 2**40 every block ``.max(axis=...)``.
MAXIMA = {"loop": 1, "reduce": 2**40}


def _max_packable_key(n: int) -> int:
    """The largest key ``_unique_inverse`` accepts in an array of ``n`` keys."""
    return INT64_MAX >> (n - 1).bit_length()


def _assert_unique_inverse(keys):
    values, inverse = _unique_inverse(keys.copy())
    expected_values, expected_inverse = np.unique(keys, return_inverse=True)
    assert np.array_equal(values, expected_values)
    assert np.array_equal(inverse.ravel(), expected_inverse.ravel())
    assert inverse.shape == keys.shape


# -- helpers ------------------------------------------------------------------------


@st.composite
def _packable_arrays(draw):
    n = draw(st.integers(1, 200))
    top = _max_packable_key(n)
    elements = st.one_of(st.integers(0, 7), st.integers(0, top), st.just(top))
    return draw(hnp.arrays(np.int64, n, elements=elements))


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.int64, st.integers(1, 200), elements=st.integers(-(2**63), 2**63 - 1)))
def test_sorted_unique_matches_numpy(keys):
    assert np.array_equal(_sorted_unique(keys), np.unique(keys))


@settings(max_examples=200, deadline=None)
@given(_packable_arrays())
def test_unique_inverse_matches_numpy(keys):
    _assert_unique_inverse(keys)


EDGE_LENGTHS = sorted({1, 2} | {2**k + d for k in range(1, 11) for d in (-1, 1)})


@pytest.mark.parametrize("n", EDGE_LENGTHS)
def test_helpers_at_edge_lengths(n):
    rng = np.random.default_rng(n)
    top = _max_packable_key(n)
    cases = [
        rng.integers(0, max(1, n // 3), size=n),  # many duplicates
        np.full(n, 5, dtype=np.int64),  # all equal
        np.full(n, top, dtype=np.int64),  # all at the largest packable key
        rng.choice(np.array([0, 1, top - 1, top], dtype=np.int64), size=n),
    ]
    for keys in cases:
        keys = keys.astype(np.int64)
        assert np.array_equal(_sorted_unique(keys), np.unique(keys))
        _assert_unique_inverse(keys)


def test_helpers_on_empty_input():
    empty = np.zeros(0, dtype=np.int64)
    assert _sorted_unique(empty).shape == (0,)
    values, inverse = _unique_inverse(empty.copy())
    assert values.shape == (0,) and inverse.shape == (0,)


def test_helpers_flatten_multidimensional_keys():
    keys = np.random.default_rng(3).integers(0, 9, size=(4, 3, 5)).astype(np.int64)
    assert np.array_equal(_sorted_unique(keys), np.unique(keys))
    values, inverse = _unique_inverse(keys.copy())
    assert inverse.shape == keys.shape
    assert np.array_equal(values[inverse], keys)


# -- Monge–Elkan kernel -------------------------------------------------------------


def _token_pool(rng, size, alphabet="abcdeéx𝕏"):
    pool = set()
    while len(pool) < size:
        pool.add("".join(rng.choice(list(alphabet), size=int(rng.integers(1, 7)))))
    return sorted(pool)


def _random_bags(rng, n, pool):
    bags = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.08:
            bags.append(None)
        elif roll < 0.16:
            bags.append(())
        else:  # drawn with replacement: repeated tokens keep their multiplicity
            picks = rng.integers(0, len(pool), size=int(rng.integers(1, 9)))
            bags.append(tuple(pool[i] for i in picks))
    return bags


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("cap", [1, 3, 7])
def test_monge_elkan_small_chunks_match_reference(monkeypatch, cap, seed):
    monkeypatch.setattr(batch, "_MONGE_ELKAN_CHUNK_CELLS", cap)
    rng = np.random.default_rng(seed)
    pool = _token_pool(rng, 40)
    bags_a, bags_b = _random_bags(rng, 50, pool), _random_bags(rng, 40, pool)
    ua, ub = rng.integers(0, 50, size=600), rng.integers(0, 40, size=600)
    len_a = np.array([len(bag or ()) for bag in bags_a])
    len_b = np.array([len(bag or ()) for bag in bags_b])
    assert (len_a[ua] * len_b[ub] > cap).mean() > 0.5  # most pairs: one-pair chunks over the cap

    cross = reference_monge_elkan_jw_indexed(bags_a, ua, bags_b, ub)
    # one record list on both sides (within-table pairs) shares its encoding
    within = reference_monge_elkan_jw_indexed(bags_a, ua, bags_a, ua[::-1])
    for lookup, entries in LOOKUPS.items():
        monkeypatch.setattr(batch, "_MONGE_ELKAN_TABLE_ENTRIES", entries)
        got = batch.batch_monge_elkan_jw_indexed(bags_a, ua, bags_b, ub)
        assert got.tobytes() == cross.tobytes(), lookup
        got = batch.batch_monge_elkan_jw_indexed(bags_a, ua, bags_a, ua[::-1])
        assert got.tobytes() == within.tobytes(), lookup


# One character per draw: ASCII, a non-BMP character and both lone-surrogate
# ends. Bags come from a small pool, so whole tuples repeat across records
# and equal tuples sit under different record rows.
_ME_TOKENS = st.text(
    alphabet=st.sampled_from(["a", "b", "c", "\U0001d54f", "\ud800", "\udfff"]), max_size=5
)
_ME_BAGS = st.one_of(st.none(), st.just(()), st.lists(_ME_TOKENS, max_size=6).map(tuple))


@st.composite
def _bag_batches(draw):
    """Two record lists drawn from one bag pool, and 1–80 pairs over them."""
    pool = draw(st.lists(_ME_BAGS, min_size=1, max_size=10))
    records = st.lists(st.sampled_from(pool), min_size=1, max_size=16)
    records_a, records_b = draw(records), draw(records)
    n = draw(st.integers(1, 80))
    ua = draw(st.lists(st.integers(0, len(records_a) - 1), min_size=n, max_size=n))
    ub = draw(st.lists(st.integers(0, len(records_b) - 1), min_size=n, max_size=n))
    return records_a, np.array(ua, dtype=np.int64), records_b, np.array(ub, dtype=np.int64)


#: Every (lookup, best-match path) combination, as (label, entries, rows).
KERNEL_PATHS = [
    (f"{lookup}-{maxima}", entries, rows)
    for lookup, entries in LOOKUPS.items()
    for maxima, rows in MAXIMA.items()
]


def _monge_elkan_under(entries, rows, *args):
    """The kernel with its table budget and loop-row threshold patched."""
    with mock.patch.multiple(
        batch, _MONGE_ELKAN_TABLE_ENTRIES=entries, _MONGE_ELKAN_LOOP_ROWS=rows
    ):
        return batch.batch_monge_elkan_jw_indexed(*args)


@settings(max_examples=60, deadline=None)
@given(_bag_batches())
def test_monge_elkan_matches_reference_under_both_lookups(bags):
    records_a, ua, records_b, ub = bags
    for args in ((records_a, ua, records_b, ub), (records_a, ua, records_a, ua[::-1])):
        want = reference_monge_elkan_jw_indexed(*args)
        for label, entries, rows in KERNEL_PATHS:
            assert _monge_elkan_under(entries, rows, *args).tobytes() == want.tobytes(), label


@settings(max_examples=30, deadline=None)
@given(_bag_batches())
def test_monge_elkan_pair_alone_equals_pair_in_batch(bags):
    records_a, ua, records_b, ub = bags
    first = np.zeros(1, dtype=np.int64)
    for label, entries, rows in KERNEL_PATHS:
        whole = _monge_elkan_under(entries, rows, records_a, ua, records_b, ub)
        alone = np.concatenate(
            [
                _monge_elkan_under(entries, rows, [records_a[i]], first, [records_b[j]], first)
                for i, j in zip(ua.tolist(), ub.tolist())
            ]
        )
        assert alone.tobytes() == whole.tobytes(), label


def test_table_budget_selects_the_lookup(monkeypatch):
    # 3 tokens on the left, 4 on the right: a 12-entry table; the sorted
    # lookup is the one that packs cells through _unique_inverse
    bags_a, bags_b = [("ab", "cd"), ("ef",)], [("ab", "x"), ("y", "zz")]
    ua, ub = np.array([0, 1, 0]), np.array([0, 1, 1])
    packed = mock.Mock(wraps=batch._unique_inverse)
    monkeypatch.setattr(batch, "_unique_inverse", packed)
    results = {}
    for entries in (12, 11):
        monkeypatch.setattr(batch, "_MONGE_ELKAN_TABLE_ENTRIES", entries)
        packed.reset_mock()
        results[entries] = batch.batch_monge_elkan_jw_indexed(bags_a, ua, bags_b, ub)
        assert packed.called is (entries == 11), entries
    assert results[12].tobytes() == results[11].tobytes()


def test_monge_elkan_oversized_pair_memory_is_bounded():
    # one 3000×3000-token pair is 9M cells, 4.5× the chunk cap: its A-token
    # rows are split into blocks, so the transient peak stays near one cap's
    # worth of cells (a 200-word vocabulary keeps the Jaro–Winkler table small)
    rng = np.random.default_rng(5)
    vocab = [f"w{i:03d}x" for i in range(200)]
    bags = [tuple(vocab[i] for i in rng.integers(0, 200, size=3000)) for _ in range(2)]
    idx = np.zeros(1, dtype=np.int64)
    tracemalloc.start()
    try:
        got = batch.batch_monge_elkan_jw_indexed(bags[:1], idx, bags[1:], idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got is not None and 0.0 <= got[0] <= 1.0
    assert peak < 64 * 2**20, peak / 2**20


def test_packing_guard_boundary(monkeypatch):
    # on the sorted lookup, with a 2**40-cell cap each cell needs 40
    # position bits, so vocab² must stay at or below 2**23: 2896 tokens
    # pack, 2897 do not
    monkeypatch.setattr(batch, "_MONGE_ELKAN_TABLE_ENTRIES", 0)
    monkeypatch.setattr(batch, "_MONGE_ELKAN_CHUNK_CELLS", 2**40)
    idx = np.zeros(1, dtype=np.int64)
    for vocab, refused in ((2896, False), (2897, True)):
        bags = [(f"t{i}",) for i in range(vocab)]
        got = batch.batch_monge_elkan_jw_indexed(bags, idx, bags, idx)
        assert (got is None) is refused, vocab


def test_packing_overflow_falls_back_to_per_pair(monkeypatch):
    monkeypatch.setattr(batch, "_MONGE_ELKAN_TABLE_ENTRIES", 0)  # the sorted lookup
    rng = np.random.default_rng(7)
    tokens = _token_pool(rng, 3000, alphabet="abcdefghijklmnopqrstuvwxyz")
    n, width = 600, 5

    def table(prefix, order):
        words = [tokens[i] for i in order]
        return Table(
            [
                {"id": f"{prefix}{r}", "title": " ".join(words[r * width : (r + 1) * width])}
                for r in range(n)
            ]
        )

    left, right = table("l", rng.permutation(3000)), table("r", rng.permutation(3000))
    pairs = [(f"l{r}", f"r{(r + d) % n}") for r in range(n) for d in (0, 1)]
    gen = FeatureGenerator().fit(left, right)
    me = gen.feature_names_.index("title_me_jw")
    bags = [tuple(rec["title"].split()) for rec in left]
    rows = np.arange(n, dtype=np.int64)
    assert batch.batch_monge_elkan_jw_indexed(bags, rows, bags, rows) is not None

    monkeypatch.setattr(batch, "_MONGE_ELKAN_CHUNK_CELLS", 2**40)
    assert batch.batch_monge_elkan_jw_indexed(bags, rows, bags, rows) is None
    fallback = gen.transform(left, right, pairs)[:, me]
    per_pair = per_pair_transform(gen, left, right, pairs)[:, me]
    assert np.array_equal(fallback, per_pair, equal_nan=True)


# -- whole transforms ---------------------------------------------------------------


@pytest.mark.parametrize(
    "name,lookup",
    [pytest.param(name, "dense", id=name) for name in DATASETS]
    + [pytest.param(name, "sorted", id=f"{name}-sorted") for name in DATASETS],
)
def test_dataset_matrices_match_reference(monkeypatch, name, lookup):
    # at the default budget every fixture call takes the dense table
    if lookup == "sorted":
        monkeypatch.setattr(batch, "_MONGE_ELKAN_TABLE_ENTRIES", LOOKUPS["sorted"])
    bench = load_benchmark(name, scale=SCALE, seed=11)
    blocker = blocker_for(name)
    pairs = blocker.block(bench.left, bench.right)
    cap = ERPipeline(blocker=blocker).co_candidate_cap
    jobs = {
        "cross": (bench.left, bench.right, pairs),
        "within_left": (bench.left, None, co_candidate_pairs(pairs, side=0, cap=cap)),
        "within_right": (bench.right, None, co_candidate_pairs(pairs, side=1, cap=cap)),
    }
    gen = FeatureGenerator().fit(bench.left, bench.right, bench.attributes)
    fast = {key: gen.transform(*job) for key, job in jobs.items()}
    with reference_kernels():
        reference = {key: gen.transform(*job) for key, job in jobs.items()}
    for key, job in jobs.items():
        assert fast[key].shape == (len(job[2]), len(gen.feature_names_)), key
        assert np.array_equal(fast[key], reference[key], equal_nan=True), key
