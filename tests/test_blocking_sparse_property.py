"""Property-based fuzz: the sparse overlap kernel vs the Counter reference.

Random token tables drawn from a tiny alphabet maximize collisions — shared
tokens, ties, df-pruned stopwords — exactly the structure the kernel's
thresholding/ranking/top-k logic has to get right. Every generated case
asserts the bit-identical pair-list contract in both calling modes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import TokenOverlapBlocker
from repro.data.table import Table

#: Tiny token universe → dense overlap structure and frequent ties.
_TOKENS = ("alpha", "beta", "gamma", "delta", "eps")


def _value():
    """One attribute value: None, empty, or a handful of universe tokens."""
    return st.one_of(
        st.none(),
        st.just(""),
        st.lists(st.sampled_from(_TOKENS), min_size=0, max_size=4).map(" ".join),
    )


def _table(prefix: str, min_rows: int = 0):
    return st.lists(_value(), min_size=min_rows, max_size=8).map(
        lambda values: Table(
            [{"id": f"{prefix}{i}", "toks": v} for i, v in enumerate(values)],
            attributes=["toks"],
        )
    )


_params = st.fixed_dictionaries(
    {
        "min_overlap": st.integers(1, 3),
        "max_df": st.sampled_from([0.1, 0.3, 0.5, 1.0]),
        "top_k": st.one_of(st.none(), st.integers(1, 4)),
    }
)


def _both(params):
    return (
        TokenOverlapBlocker("toks", engine="sparse", **params),
        TokenOverlapBlocker("toks", engine="per-record", **params),
    )


@settings(max_examples=150, deadline=None)
@given(left=_table("l"), right=_table("r"), params=_params)
def test_linkage_parity(left, right, params):
    sparse, ref = _both(params)
    assert sparse.block(left, right) == ref.block(left, right)


@settings(max_examples=150, deadline=None)
@given(table=_table("t"), params=_params)
def test_dedup_parity(table, params):
    sparse, ref = _both(params)
    assert sparse.block(table) == ref.block(table)


@settings(max_examples=50, deadline=None)
@given(table=_table("t"))
def test_all_stopword_column_prunes_everything(table):
    # every record shares one universal token; a tight max_df prunes it, so
    # the only candidates come from the other tokens — engines must agree
    rows = [{"id": rec["id"], "toks": f"common {rec['toks'] or ''}".strip()} for rec in table]
    dense = Table(rows, attributes=["toks"])
    sparse, ref = _both({"min_overlap": 1, "max_df": 0.1, "top_k": None})
    assert sparse.block(dense) == ref.block(dense)


@settings(max_examples=50, deadline=None)
@given(right=_table("r", min_rows=2))
def test_top_k_one_ties_resolved_identically(right):
    # a probe overlapping many equal-count targets: top_k=1 must pick the
    # earliest-inserted target in both engines
    left = Table([{"id": "l0", "toks": " ".join(_TOKENS)}], attributes=["toks"])
    sparse, ref = _both({"min_overlap": 1, "max_df": 1.0, "top_k": 1})
    assert sparse.block(left, right) == ref.block(left, right)
