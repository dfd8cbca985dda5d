"""Token-overlap blocking with DF pruning and per-record top-k capping.

The workhorse blocker for the generated benchmarks: index the right table's
tokens, count shared tokens per left record, keep pairs above a minimum
overlap. Two standard scalability controls are built in:

* **document-frequency pruning** — tokens occurring in more than a fraction
  of right records carry no blocking signal (stop words, boilerplate) and
  are skipped;
* **top-k capping** — keep at most ``top_k`` right candidates per left
  record, ranked by overlap count, which bounds |Cs| ≤ |T| · k.

Counting and ranking run in the sparse columnar kernel of
:mod:`repro.blocking.batch`.
"""

from __future__ import annotations

from repro.blocking.base import Blocker, check_spec_keys
from repro.data.table import Table
from repro.text.tokenizers import (
    Tokenizer,
    WhitespaceTokenizer,
    tokenizer_from_spec,
    tokenizer_spec,
)

__all__ = [
    "TokenOverlapBlocker",
    "validate_overlap_params",
    "record_tokens",
]


def validate_overlap_params(min_overlap: int, max_df: float, top_k: int | None) -> None:
    """Shared parameter validation for token-overlap retrieval.

    Used by both the batch blocker and the incremental index so the two
    stay parameter-compatible.
    """
    if min_overlap < 1:
        raise ValueError(f"min_overlap must be >= 1, got {min_overlap}")
    if not 0.0 < max_df <= 1.0:
        raise ValueError(f"max_df must be in (0, 1], got {max_df}")
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")


def record_tokens(tokenizer: Tokenizer, record: dict, attribute: str) -> set[str]:
    """One record's distinct blocking tokens (the shared token contract)."""
    return set(tokenizer(record.get(attribute)))


class TokenOverlapBlocker(Blocker):
    """Pair records sharing at least ``min_overlap`` tokens on ``attribute``.

    Parameters
    ----------
    attribute:
        Attribute whose tokens are indexed.
    tokenizer:
        Tokenizer applied to both sides (default whitespace words).
    min_overlap:
        Minimum number of distinct shared tokens.
    max_df:
        Tokens appearing in more than this fraction of right-side records
        are ignored (default 0.2).
    top_k:
        If set, keep only the ``top_k`` highest-overlap right candidates per
        left record (ties broken by right row order for determinism).
    """

    spec_type = "token_overlap"

    def __init__(
        self,
        attribute: str,
        tokenizer: Tokenizer | None = None,
        min_overlap: int = 1,
        max_df: float = 0.2,
        top_k: int | None = None,
    ):
        validate_overlap_params(min_overlap, max_df, top_k)
        self.attribute = attribute
        self.tokenizer = tokenizer if tokenizer is not None else WhitespaceTokenizer()
        self.min_overlap = int(min_overlap)
        self.max_df = float(max_df)
        self.top_k = top_k

    def to_spec(self) -> dict:
        """Declarative form; raises ``TypeError`` for custom tokenizer types."""
        return {
            "type": self.spec_type,
            "attribute": self.attribute,
            "tokenizer": tokenizer_spec(self.tokenizer),
            "min_overlap": self.min_overlap,
            "max_df": self.max_df,
            "top_k": self.top_k,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "TokenOverlapBlocker":
        # "engine" named a retired second blocking path: accepted, ignored
        check_spec_keys(
            spec,
            ("attribute", "tokenizer", "min_overlap", "max_df", "top_k", "engine"),
            context="token_overlap blocker",
        )
        if "attribute" not in spec:
            raise ValueError("token_overlap blocker spec needs an 'attribute'")
        tokenizer = (
            tokenizer_from_spec(spec["tokenizer"]) if spec.get("tokenizer") is not None else None
        )
        return cls(
            spec["attribute"],
            tokenizer=tokenizer,
            min_overlap=spec.get("min_overlap", 1),
            max_df=spec.get("max_df", 0.2),
            top_k=spec.get("top_k"),
        )

    def block(self, left: Table, right: Table | None = None) -> list[tuple]:
        from repro.obs import span

        # deferred import: batch.py shares this module's token/param contract
        from repro.blocking.batch import TokenEncoding, sparse_overlap_pairs

        with span(
            f"blocking.{self.spec_type}",
            attribute=self.attribute,
            n_left=len(left),
            n_right=len(right) if right is not None else None,
        ) as sp:
            dedup = right is None
            target = left if dedup else right
            target_enc = TokenEncoding.encode(
                target, self.tokenizer, self.attribute, id_attr=target.id_attr
            )
            if dedup:
                probe_enc = target_enc
            else:
                probe_enc = TokenEncoding.encode(
                    left,
                    self.tokenizer,
                    self.attribute,
                    id_attr=left.id_attr,
                    vocab=target_enc.vocab,
                )
            pairs = sparse_overlap_pairs(
                probe_enc,
                target_enc,
                min_overlap=self.min_overlap,
                max_df=self.max_df,
                top_k=self.top_k,
                dedup=dedup,
            )
            sp.set(n_pairs=len(pairs))
        return pairs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TokenOverlapBlocker({self.attribute!r}, min_overlap={self.min_overlap}, "
            f"top_k={self.top_k})"
        )
