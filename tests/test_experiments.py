"""Tests for the experiment harness (catalog + runner, on small inputs).

These use the smallest suite matrices so the full battery stays fast;
``test_paper_claims.py`` checks the paper's claims on the complete
sweeps.
"""

import pytest

from repro.experiments import scaled_cpu_config, scaled_gamma_config
from repro.experiments.runner import (
    MODEL_SCALE,
    ExperimentRunner,
    preprocess_options,
)
from repro.figures.generators import (
    PAPER_ARTIFACTS,
    artifact_ids,
    get_artifact,
)


class TestRegistry:
    def test_every_figure_and_table_present(self):
        ids = artifact_ids()
        expected = {f"fig{i}" for i in [3] + list(range(10, 26))}
        expected |= {f"table{i}" for i in range(1, 5)}
        expected |= {"ext_matraptor", "ext_dataflows", "ext_energy"}
        assert len(ids) == len(expected) == 24
        assert set(ids) == expected

    def test_lookup(self):
        artifact = get_artifact("fig12")
        assert "traffic" in artifact.title.lower()
        with pytest.raises(KeyError, match="unknown experiment"):
            get_artifact("fig99")

    def test_claims_recorded(self):
        for artifact in PAPER_ARTIFACTS:
            assert artifact.paper_claim
            assert artifact.title


class TestScaledConfigs:
    def test_fibercache_scaled(self):
        config = scaled_gamma_config()
        assert config.fibercache_bytes == 3 * 1024 * 1024 // MODEL_SCALE
        assert config.num_pes == 32
        assert config.radix == 64

    def test_overrides(self):
        config = scaled_gamma_config(num_pes=8)
        assert config.num_pes == 8
        assert config.fibercache_bytes == 3 * 1024 * 1024 // MODEL_SCALE

    def test_cpu_llc_scaled(self):
        assert scaled_cpu_config().llc_bytes == 8 * 1024 * 1024 // MODEL_SCALE

    def test_preprocess_variants(self):
        assert preprocess_options("none") is None
        full = preprocess_options("full")
        assert full.reorder and full.tile and full.selective
        tile_all = preprocess_options("reorder_tile_all")
        assert not tile_all.selective
        with pytest.raises(ValueError, match="variant"):
            preprocess_options("bogus")


class TestRunnerCaching:
    def test_gamma_memoized(self):
        runner = ExperimentRunner()
        first = runner.gamma("wiki-Vote")
        second = runner.gamma("wiki-Vote")
        assert first is second

    def test_distinct_configs_not_conflated(self):
        runner = ExperimentRunner()
        base = runner.gamma("wiki-Vote")
        more_pes = runner.gamma(
            "wiki-Vote", config=scaled_gamma_config(num_pes=8))
        assert base is not more_pes
        assert base.config.num_pes != more_pes.config.num_pes

    def test_baseline_models(self):
        runner = ExperimentRunner()
        for model in ("outerspace", "sparch", "ip", "mkl"):
            result = runner.baseline(model, "wiki-Vote")
            assert result.total_traffic > 0
        with pytest.raises(ValueError, match="unknown baseline"):
            runner.baseline("tpu", "wiki-Vote")

    def test_speedup_positive(self):
        runner = ExperimentRunner()
        result = runner.gamma("wiki-Vote")
        assert runner.speedup_over_mkl(
            "wiki-Vote", result.runtime_seconds) > 1.0

    def test_compulsory_breakdown(self):
        runner = ExperimentRunner()
        compulsory = runner.compulsory("wiki-Vote")
        assert set(compulsory) == {"A", "B", "C"}
        assert runner.compulsory_total("wiki-Vote") == sum(
            compulsory.values())


class TestHeadlineShapes:
    """Spot-check paper-shape invariants on one small matrix per set."""

    @pytest.fixture(scope="class")
    def runner(self):
        return ExperimentRunner()

    def test_gamma_beats_outer_product_traffic(self, runner):
        for name in ("wiki-Vote", "poisson3Da"):
            gamma = runner.gamma(name).total_traffic
            outerspace = runner.baseline("outerspace", name).total_traffic
            assert gamma < outerspace

    def test_gamma_faster_than_mkl(self, runner):
        for name in ("wiki-Vote", "poisson3Da", "msc10848"):
            result = runner.gamma(name, "full")
            assert runner.speedup_over_mkl(
                name, result.runtime_seconds) > 2.0

    def test_preprocessing_never_hurts_traffic_much(self, runner):
        for name in ("wiki-Vote", "poisson3Da", "msc10848"):
            g = runner.gamma(name, "none").normalized_traffic
            gp = runner.gamma(name, "full").normalized_traffic
            assert gp <= g * 1.1
