"""Tests for ZeroERConfig and the Table 4 ablation variants."""

import pytest

from repro.core.config import ZeroERConfig, ablation_variants


class TestValidation:
    def test_defaults_are_papers_final_model(self):
        cfg = ZeroERConfig()
        assert cfg.covariance == "grouped"
        assert cfg.regularization == "adaptive"
        assert cfg.kappa == 0.15
        assert cfg.shared_correlation and cfg.transitivity
        assert cfg.init_threshold == 0.5
        assert cfg.max_iter == 200
        assert cfg.tol == 1e-5
        assert cfg.tail_window == 20

    @pytest.mark.parametrize(
        "field,value",
        [
            ("covariance", "diagonal"),
            ("regularization", "ridge"),
            ("kappa", -0.1),
            ("init_threshold", 1.5),
            ("max_iter", 0),
            ("tol", 0.0),
            ("tail_window", 0),
            ("prior_floor", 0.7),
            ("transitivity_max_degree", 1),
            ("transitivity_warmup", -1),
            ("within_init_threshold", -0.2),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            ZeroERConfig(**{field: value})

    def test_frozen(self):
        cfg = ZeroERConfig()
        with pytest.raises(Exception):
            cfg.kappa = 0.3

    def test_replace(self):
        cfg = ZeroERConfig().replace(kappa=0.6, transitivity=False)
        assert cfg.kappa == 0.6 and not cfg.transitivity
        assert ZeroERConfig().kappa == 0.15  # original untouched


class TestAblationVariants:
    def test_table4_column_names(self):
        variants = ablation_variants()
        assert set(variants) == {
            "Full", "Independent", "Grouped",
            "F-Tik", "I-Tik", "G-Tik",
            "F-Adp", "I-Adp", "G-Adp",
            "G+A+P", "G+A+P+T",
        }

    def test_no_reg_variants(self):
        variants = ablation_variants()
        for name in ("Full", "Independent", "Grouped"):
            assert variants[name].regularization == "none"
            assert not variants[name].shared_correlation
            assert not variants[name].transitivity

    def test_covariance_structures(self):
        variants = ablation_variants()
        assert variants["F-Adp"].covariance == "full"
        assert variants["I-Adp"].covariance == "independent"
        assert variants["G-Adp"].covariance == "grouped"

    def test_partial_variants_use_kappa_point_six(self):
        variants = ablation_variants()
        assert variants["G-Adp"].kappa == 0.6
        assert variants["G-Tik"].kappa == 0.6

    def test_final_variants_use_default_kappa(self):
        variants = ablation_variants()
        assert variants["G+A+P"].kappa == 0.15
        assert variants["G+A+P+T"].kappa == 0.15

    def test_only_final_has_transitivity(self):
        variants = ablation_variants()
        for name, cfg in variants.items():
            assert cfg.transitivity == (name == "G+A+P+T")

    def test_p_variants_share_correlation(self):
        variants = ablation_variants()
        assert variants["G+A+P"].shared_correlation
        assert variants["G+A+P+T"].shared_correlation
        assert not variants["G-Adp"].shared_correlation

    def test_custom_kappas(self):
        variants = ablation_variants(kappa_partial=0.4, kappa_full=0.2)
        assert variants["I-Tik"].kappa == 0.4
        assert variants["G+A+P"].kappa == 0.2
