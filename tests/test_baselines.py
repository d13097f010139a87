"""Tests for the baseline models: reference SpGEMM, MKL, IP, OS, SpArch."""

import numpy as np
import pytest

from repro.analysis.reuse import LruRowCache, b_read_traffic
from repro.analysis.traffic import compulsory_traffic
from repro.baselines import (
    condensed_width,
    run_inner_product_model,
    run_mkl_model,
    run_outerspace_model,
    run_sparch_model,
    spgemm_efficiency,
    spgemm_hash,
    spgemm_spa,
)
from repro.baselines.sparch import condensed_column_stream
from repro.config import CpuConfig, GammaConfig
from repro.matrices import generators, product_nnz


def scipy_product(a, b):
    return (a.to_scipy() @ b.to_scipy()).toarray()


class TestReferenceSpgemm:
    @pytest.mark.parametrize("kernel", [spgemm_spa, spgemm_hash])
    def test_matches_scipy(self, kernel):
        a = generators.uniform_random(50, 60, 4.0, seed=1)
        b = generators.uniform_random(60, 40, 5.0, seed=2)
        c, counts = kernel(a, b)
        np.testing.assert_allclose(c.to_dense(), scipy_product(a, b),
                                   atol=1e-9)
        assert counts.flops > 0
        assert counts.output_nnz == c.nnz
        assert counts.touched_b_rows == a.nnz

    @pytest.mark.parametrize("kernel", [spgemm_spa, spgemm_hash])
    def test_empty_inputs(self, kernel):
        from repro.matrices.csr import CsrMatrix

        a = CsrMatrix.from_rows([], 10)
        b = generators.uniform_random(10, 10, 2.0, seed=3)
        c, counts = kernel(a, b)
        assert c.nnz == 0
        assert counts.flops == 0

    def test_kernels_agree(self):
        a = generators.power_law(80, 80, 5.0, seed=4)
        c1, n1 = spgemm_spa(a, a)
        c2, n2 = spgemm_hash(a, a)
        np.testing.assert_allclose(c1.to_dense(), c2.to_dense(), atol=1e-9)
        assert n1.flops == n2.flops

    def test_dimension_check(self):
        a = generators.uniform_random(5, 6, 2.0, seed=5)
        b = generators.uniform_random(7, 5, 2.0, seed=6)
        with pytest.raises(ValueError, match="inner dimensions"):
            spgemm_spa(a, b)

    def test_output_upper_bound(self):
        """The flop count bounds nnz(C); product_nnz is nnz(C)."""
        a = generators.uniform_random(40, 40, 4.0, seed=7)
        c, counts = spgemm_spa(a, a)
        assert counts.output_nnz == product_nnz(a, a) == c.nnz
        assert product_nnz(a, a) <= counts.flops


class TestLruReuse:
    def test_hits_within_capacity(self):
        cache = LruRowCache(capacity_bytes=100)
        assert cache.access(1, 40) is True
        assert cache.access(2, 40) is True
        assert cache.access(1, 40) is False
        assert cache.miss_bytes == 80

    def test_eviction_order(self):
        cache = LruRowCache(capacity_bytes=80)
        cache.access(1, 40)
        cache.access(2, 40)
        cache.access(3, 40)  # evicts 1
        assert cache.access(1, 40) is True

    def test_move_to_end_protects(self):
        cache = LruRowCache(capacity_bytes=80)
        cache.access(1, 40)
        cache.access(2, 40)
        cache.access(1, 40)  # refresh 1
        cache.access(3, 40)  # evicts 2
        assert cache.access(1, 40) is False

    def test_b_read_traffic_bounds(self):
        a = generators.uniform_random(100, 100, 4.0, seed=8)
        compulsory = b_read_traffic(a.coords, a, 10**9)
        thrash = b_read_traffic(a.coords, a, 0)
        assert compulsory <= thrash
        assert thrash == sum(
            a.row_nnz(int(k)) * 12 for k in a.coords)


class TestMklModel:
    def test_efficiency_curve(self):
        assert spgemm_efficiency(2.0) < spgemm_efficiency(50.0)
        assert spgemm_efficiency(10_000.0) <= 0.12

    def test_runtime_positive_and_scaled(self):
        a = generators.uniform_random(200, 200, 5.0, seed=9)
        small = run_mkl_model(a, a, CpuConfig(), c_nnz=product_nnz(a, a))
        assert small.runtime_seconds > 0
        assert small.flops > 0
        assert small.name == "MKL"

    def test_traffic_contains_compulsory(self):
        a = generators.uniform_random(200, 200, 5.0, seed=10)
        result = run_mkl_model(a, a, c_nnz=product_nnz(a, a))
        compulsory = compulsory_traffic(a, a, product_nnz(a, a))
        assert result.traffic_bytes["A"] >= compulsory["A"]
        assert result.traffic_bytes["C"] >= compulsory["C"] * 0.9

    def test_denser_matrices_more_efficient(self):
        sparse = generators.uniform_random(300, 300, 3.0, seed=11)
        dense = generators.uniform_random(300, 300, 30.0, seed=12)
        r_sparse = run_mkl_model(sparse, sparse,
                                 c_nnz=product_nnz(sparse, sparse))
        r_dense = run_mkl_model(dense, dense, c_nnz=product_nnz(dense, dense))
        gflops = lambda r: r.flops / r.runtime_seconds
        assert gflops(r_dense) > gflops(r_sparse)


class TestOuterSpace:
    def test_input_reuse_is_perfect(self):
        a = generators.uniform_random(150, 150, 5.0, seed=13)
        result = run_outerspace_model(a, a, c_nnz=product_nnz(a, a))
        assert result.traffic_bytes["A"] == a.nnz * 12 + a.num_cols * 4
        assert result.traffic_bytes["B"] == a.nnz * 12 + a.num_rows * 4

    def test_partial_traffic_scales_with_flops(self):
        a = generators.uniform_random(150, 150, 5.0, seed=14)
        result = run_outerspace_model(a, a, c_nnz=product_nnz(a, a))
        assert result.traffic_bytes["partial_write"] == result.flops * 12
        assert (result.traffic_bytes["partial_read"]
                > result.traffic_bytes["partial_write"])

    def test_phases_add(self):
        a = generators.uniform_random(150, 150, 5.0, seed=15)
        result = run_outerspace_model(a, a, c_nnz=product_nnz(a, a))
        assert result.cycles >= result.flops / 1.2  # merge phase floor


class TestSpArch:
    def test_condensed_width_is_max_row(self):
        a = generators.mixed_density(
            60, 60, 4.0, dense_row_fraction=0.05, dense_row_nnz=30,
            seed=16)
        assert condensed_width(a) == int(a.row_lengths().max())

    def test_condensed_stream_covers_all_nonzeros(self):
        a = generators.uniform_random(40, 40, 4.0, seed=17)
        stream = list(condensed_column_stream(a))
        assert len(stream) == a.nnz
        assert sorted(stream) == sorted(a.coords.tolist())

    def test_no_spill_when_narrow(self):
        a = generators.uniform_random(100, 100, 5.0, seed=18)
        assert condensed_width(a) <= 64
        result = run_sparch_model(a, a, c_nnz=product_nnz(a, a))
        assert result.traffic_bytes["partial_write"] == 0

    def test_spill_when_wide(self):
        a = generators.mixed_density(
            100, 400, 5.0, dense_row_fraction=0.05, dense_row_nnz=300,
            seed=19)
        assert condensed_width(a) > 64
        b = a.transpose()
        result = run_sparch_model(a, b, c_nnz=product_nnz(a, b))
        assert result.traffic_bytes["partial_write"] > 0

    def test_b_traffic_at_least_compulsory(self):
        a = generators.uniform_random(200, 200, 6.0, seed=20)
        result = run_sparch_model(a, a, c_nnz=product_nnz(a, a))
        touched = np.unique(a.coords)
        floor = sum(a.row_nnz(int(k)) for k in touched) * 12
        assert result.traffic_bytes["B"] >= floor * 0.9


class TestInnerProduct:
    def test_output_written_once(self):
        a = generators.uniform_random(150, 150, 5.0, seed=21)
        c_nnz = product_nnz(a, a)
        result = run_inner_product_model(a, a, c_nnz=c_nnz)
        assert result.traffic_bytes["C"] == c_nnz * 12 + a.num_rows * 4

    def test_sparser_matrices_suffer_more(self):
        """The Sec. 2.3 claim: IP is inefficient on highly sparse inputs."""
        config = GammaConfig(fibercache_bytes=32 * 1024)
        sparse = generators.power_law(2000, 2000, 3.0, seed=22)
        denser = generators.uniform_random(300, 300, 25.0, seed=23)
        norm = {}
        for label, m in (("sparse", sparse), ("denser", denser)):
            c_nnz = product_nnz(m, m)
            result = run_inner_product_model(m, m, config, c_nnz=c_nnz)
            compulsory = sum(compulsory_traffic(m, m, c_nnz).values())
            norm[label] = result.total_traffic / compulsory
        assert norm["sparse"] > 1.5 * norm["denser"]

    def test_no_partial_traffic(self):
        a = generators.uniform_random(100, 100, 4.0, seed=24)
        result = run_inner_product_model(a, a, c_nnz=product_nnz(a, a))
        assert result.traffic_bytes["partial_read"] == 0
        assert result.traffic_bytes["partial_write"] == 0


class TestCrossModelOrdering:
    """The paper's headline ordering must hold on representative inputs."""

    @pytest.mark.parametrize("seed", [30, 31])
    def test_gamma_traffic_below_outer_product_designs(self, seed):
        from repro.core import GammaSimulator

        a = generators.power_law(1500, 1500, 6.0, seed=seed,
                                 max_degree=60)
        config = GammaConfig(fibercache_bytes=32 * 1024)
        gamma = GammaSimulator(config, keep_output=False).run(a, a)
        outerspace = run_outerspace_model(a, a, config, c_nnz=gamma.c_nnz)
        assert gamma.total_traffic < outerspace.total_traffic

    def test_all_models_report_same_flops(self):
        a = generators.uniform_random(120, 120, 5.0, seed=32)
        c_nnz = product_nnz(a, a)
        results = [
            run_outerspace_model(a, a, c_nnz=c_nnz),
            run_sparch_model(a, a, c_nnz=c_nnz),
            run_inner_product_model(a, a, c_nnz=c_nnz),
            run_mkl_model(a, a, c_nnz=c_nnz),
        ]
        assert len({r.flops for r in results}) == 1
