"""Configuration and ablation switches for ZeroER.

Every design choice the paper ablates in Table 4 is an explicit knob here:

=====================  =======================================================
knob                   paper section
=====================  =======================================================
``covariance``         §3.2 feature grouping (``full`` / ``independent`` /
                       ``grouped``)
``regularization``     §3.3 (``none`` / ``tikhonov`` / ``adaptive``)
``kappa``              regularization magnitude (0.15 default; the paper uses
                       0.6 for partially-equipped ablation variants)
``shared_correlation`` §4 class-imbalance handling ("P" in Table 4)
``transitivity``       §5 soft transitivity constraint ("T" in Table 4)
``init_threshold``     §6 initialization ε (default 0.5)
=====================  =======================================================
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = [
    "ZeroERConfig",
    "COVARIANCE_STRUCTURES",
    "REGULARIZATIONS",
    "ablation_variants",
]

COVARIANCE_STRUCTURES = ("grouped", "full", "independent")
REGULARIZATIONS = ("none", "tikhonov", "adaptive")


@dataclass(frozen=True)
class ZeroERConfig:
    """Hyperparameters of the ZeroER generative model.

    The defaults reproduce the paper's full configuration
    (grouped + adaptive + shared correlation + transitivity, κ = 0.15).
    Record linkage has one training schedule, §5's per-iteration
    interleaving of F, Fl and Fr (:class:`~repro.core.linkage.ZeroERLinkage`),
    so no field selects one.
    """

    covariance: str = "grouped"
    regularization: str = "adaptive"
    kappa: float = 0.15
    shared_correlation: bool = True
    transitivity: bool = True
    init_threshold: float = 0.5
    max_iter: int = 200
    tol: float = 1e-5
    tail_window: int = 20
    prior_floor: float = 1e-10
    #: Minimum effective sample mass for a component before its parameters
    #: are frozen instead of re-estimated (numerical guard, not in the paper).
    min_component_mass: float = 1e-3
    #: Per-node cap on high-confidence edges considered by the transitivity
    #: calibrator (bounds the triangle enumeration; §5's efficiency argument).
    transitivity_max_degree: int = 30
    #: EM iterations to run before the first transitivity calibration. The
    #: paper calibrates every E-step; calibrating against *uninitialized*
    #: within-table models mass-demotes posteriors from noise, so we let all
    #: models stabilize first. An implementation choice, not the paper's:
    #: ``bench_ablation_implementation.py`` prints F1 for 0 and 5, and no
    #: checked-in measurement backs the value 5.
    transitivity_warmup: int = 5
    #: Initialization threshold ε for the within-table models Fl/Fr in record
    #: linkage. Their candidate populations are co-candidate neighborhoods —
    #: *every* pair is textually similar — so the cross-model default ε = 0.5
    #: seeds far too large a match component; only near-identical pairs
    #: should seed it. An implementation choice, not the paper's; no
    #: checked-in measurement backs the value 0.7.
    within_init_threshold: float = 0.7

    def __post_init__(self):
        if self.covariance not in COVARIANCE_STRUCTURES:
            raise ValueError(
                f"covariance must be one of {COVARIANCE_STRUCTURES}, got {self.covariance!r}"
            )
        if self.regularization not in REGULARIZATIONS:
            raise ValueError(
                f"regularization must be one of {REGULARIZATIONS}, got {self.regularization!r}"
            )
        if self.kappa < 0.0:
            raise ValueError(f"kappa must be non-negative, got {self.kappa}")
        if not 0.0 <= self.init_threshold <= 1.0:
            raise ValueError(f"init_threshold must be in [0, 1], got {self.init_threshold}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.tol <= 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.tail_window < 1:
            raise ValueError(f"tail_window must be >= 1, got {self.tail_window}")
        if not 0.0 < self.prior_floor < 0.5:
            raise ValueError(f"prior_floor must be in (0, 0.5), got {self.prior_floor}")
        if self.transitivity_max_degree < 2:
            raise ValueError(
                f"transitivity_max_degree must be >= 2, got {self.transitivity_max_degree}"
            )
        if self.transitivity_warmup < 0:
            raise ValueError(
                f"transitivity_warmup must be >= 0, got {self.transitivity_warmup}"
            )
        if not 0.0 <= self.within_init_threshold <= 1.0:
            raise ValueError(
                f"within_init_threshold must be in [0, 1], got {self.within_init_threshold}"
            )

    def replace(self, **changes) -> "ZeroERConfig":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """All fields as a JSON-serializable dict (inverse of :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ZeroERConfig":
        """Build a config from a (possibly partial) field dict.

        Missing fields take their defaults; unknown keys raise ``ValueError``
        so a typo in a spec file fails loudly instead of silently running
        with defaults. Field values go through the usual ``__post_init__``
        validation. The retired ``linkage_mode`` key (record linkage has one
        schedule now), which every earlier spec and artifact carries, is
        accepted and ignored.
        """
        if not isinstance(data, dict):
            raise ValueError(f"config must be a dict, got {type(data).__name__}")
        data = {key: value for key, value in data.items() if key != "linkage_mode"}
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown key(s) {unknown} in ZeroERConfig spec")
        return cls(**data)


def ablation_variants(kappa_partial: float = 0.6, kappa_full: float = 0.15) -> dict[str, ZeroERConfig]:
    """The eleven model variants of Table 4, keyed by the paper's column names.

    ``kappa_partial`` (0.6 in the paper) is used for every variant that is
    not the final model; ``kappa_full`` (0.15) for G+A+P and G+A+P+T.
    """
    def base(**kw) -> ZeroERConfig:
        defaults = dict(shared_correlation=False, transitivity=False, kappa=kappa_partial)
        defaults.update(kw)
        return ZeroERConfig(**defaults)

    return {
        # no regularization
        "Full": base(covariance="full", regularization="none"),
        "Independent": base(covariance="independent", regularization="none"),
        "Grouped": base(covariance="grouped", regularization="none"),
        # Tikhonov regularization
        "F-Tik": base(covariance="full", regularization="tikhonov"),
        "I-Tik": base(covariance="independent", regularization="tikhonov"),
        "G-Tik": base(covariance="grouped", regularization="tikhonov"),
        # adaptive regularization
        "F-Adp": base(covariance="full", regularization="adaptive"),
        "I-Adp": base(covariance="independent", regularization="adaptive"),
        "G-Adp": base(covariance="grouped", regularization="adaptive"),
        # + Pearson (shared correlation), + transitivity
        "G+A+P": base(regularization="adaptive", shared_correlation=True, kappa=kappa_full),
        "G+A+P+T": base(
            regularization="adaptive",
            shared_correlation=True,
            transitivity=True,
            kappa=kappa_full,
        ),
    }
