"""Baseline models: software SpGEMM, CPU platforms, IP, OuterSPACE, SpArch."""

from repro.baselines.common import BaselineResult, compulsory_traffic
from repro.baselines.cpu_model import run_mkl_model, spgemm_efficiency
from repro.baselines.inner_product import run_inner_product_model
from repro.baselines.outerspace import run_outerspace_model
from repro.baselines.rvv import lane_utilization, run_rvv_model, rvv_spgemm
from repro.baselines.sparch import (
    condensed_width,
    run_sparch_model,
)
from repro.baselines.sparsezipper import run_sparsezipper_model, zipper_spgemm
from repro.baselines.spgemm_ref import (
    SpgemmCounts,
    spgemm_hash,
    spgemm_semiring,
    spgemm_spa,
)
from repro.baselines.spmv import (
    DEFAULT_OPERAND,
    OPERAND_SHAPES,
    run_gamma_spmv,
    vector_operand,
)

__all__ = [
    "BaselineResult",
    "DEFAULT_OPERAND",
    "OPERAND_SHAPES",
    "SpgemmCounts",
    "compulsory_traffic",
    "condensed_width",
    "lane_utilization",
    "run_gamma_spmv",
    "run_inner_product_model",
    "run_mkl_model",
    "run_outerspace_model",
    "run_rvv_model",
    "run_sparch_model",
    "run_sparsezipper_model",
    "rvv_spgemm",
    "spgemm_efficiency",
    "spgemm_hash",
    "spgemm_semiring",
    "spgemm_spa",
    "vector_operand",
    "zipper_spgemm",
]
