"""Q-gram blocking: token overlap over character q-grams.

Robust to typos (a single edit disturbs at most ``q`` q-grams), at the cost
of larger postings. Implemented as a thin specialization of
:class:`~repro.blocking.overlap.TokenOverlapBlocker`.
"""

from __future__ import annotations

from repro.blocking.base import check_spec_keys
from repro.blocking.overlap import TokenOverlapBlocker
from repro.text.tokenizers import QgramTokenizer

__all__ = ["QgramBlocker"]


class QgramBlocker(TokenOverlapBlocker):
    """Pair records sharing at least ``min_overlap`` character q-grams."""

    spec_type = "qgram"

    def __init__(
        self,
        attribute: str,
        q: int = 3,
        min_overlap: int = 2,
        max_df: float = 0.2,
        top_k: int | None = None,
    ):
        super().__init__(
            attribute,
            tokenizer=QgramTokenizer(q=q, padded=False),
            min_overlap=min_overlap,
            max_df=max_df,
            top_k=top_k,
        )
        self.q = q

    def to_spec(self) -> dict:
        """Declarative form (the q-gram tokenizer is implied by ``q``)."""
        return {
            "type": self.spec_type,
            "attribute": self.attribute,
            "q": self.q,
            "min_overlap": self.min_overlap,
            "max_df": self.max_df,
            "top_k": self.top_k,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "QgramBlocker":
        # "engine" named a retired second blocking path: accepted, ignored
        check_spec_keys(
            spec,
            ("attribute", "q", "min_overlap", "max_df", "top_k", "engine"),
            context="qgram blocker",
        )
        if "attribute" not in spec:
            raise ValueError("qgram blocker spec needs an 'attribute'")
        return cls(
            spec["attribute"],
            q=spec.get("q", 3),
            min_overlap=spec.get("min_overlap", 2),
            max_df=spec.get("max_df", 0.2),
            top_k=spec.get("top_k"),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QgramBlocker({self.attribute!r}, q={self.q}, min_overlap={self.min_overlap})"
