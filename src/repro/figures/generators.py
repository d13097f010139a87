"""The figure catalog: one generator per paper figure/table family.

Each :class:`FigureGenerator` wraps one of the parameterized builders in
:mod:`repro.experiments.figures` and binds it to a
:class:`~repro.figures.scopes.FigureScope` at generation time. The
``figure_id`` is the artifact basename (``speedup.vl.json`` +
``speedup.csv``); ``paper_ref`` records which paper figure(s) the
artifact reproduces.

Generators are *semantic*, not one-per-paper-figure-number: e.g. the
paper renders per-matrix speedup twice (Fig. 11 common set, Fig. 15
extended set) and the pipeline expresses that as the ``speedup``
generator run at two scopes. :data:`PAPER_ARTIFACTS` is that mapping:
one row per paper figure/table id (``fig12``, ``table3``, ...) naming
the generator and scope that regenerate it, plus the paper's claim.
It is the single declaration behind ``python -m repro list|run|export``
and the claim checks in ``tests/test_paper_claims.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from repro.experiments import figures as fig
from repro.experiments.runner import RUNNER, ExperimentRunner
from repro.figures.scopes import SCOPES, FigureScope


@dataclass(frozen=True)
class FigureGenerator:
    """One versioned-artifact generator.

    Attributes:
        figure_id: Artifact basename and ``--only`` id.
        title: Human title (embedded in the Vega-Lite description).
        paper_ref: The paper figure/table the artifact reproduces.
        build: ``(scope, runner) -> figure dict`` with ``chart_data``.
    """

    figure_id: str
    title: str
    paper_ref: str
    build: Callable[[FigureScope, ExperimentRunner], Dict]


def _title(base: str, scope: FigureScope) -> str:
    return f"{base} [{scope.name} scope]"


FIGURE_GENERATORS: List[FigureGenerator] = [
    FigureGenerator(
        "speedup", "Per-matrix speedup over MKL, all designs",
        "Figs. 11/15",
        lambda s, r: fig.speedup_figure(
            s.matrices, _title("Speedup over MKL", s), r),
    ),
    FigureGenerator(
        "gmean_speedup", "Suite gmean speedup over MKL per design",
        "Fig. 10",
        lambda s, r: fig.gmean_speedup_figure(
            s.matrices, _title("Gmean speedup over MKL", s), r),
    ),
    FigureGenerator(
        "traffic", "Normalized DRAM traffic, all designs",
        "Figs. 12/16",
        lambda s, r: fig.traffic_figure(
            s.matrices, _title("Normalized traffic", s), r),
    ),
    FigureGenerator(
        "traffic_breakdown", "Traffic breakdown by stream and design",
        "Fig. 3",
        lambda s, r: fig.breakdown_figure(
            s.matrices, _title("Traffic breakdown", s), r),
    ),
    FigureGenerator(
        "bandwidth", "Memory bandwidth utilization, G and GP",
        "Figs. 13/17",
        lambda s, r: fig.bandwidth_figure(
            s.matrices, _title("Bandwidth utilization", s), r),
    ),
    FigureGenerator(
        "cache_util", "FiberCache utilization by fiber type",
        "Figs. 14/18",
        lambda s, r: fig.cache_util_figure(
            s.matrices, _title("FiberCache utilization", s), r),
    ),
    FigureGenerator(
        "preprocessing", "Preprocessing ablation traffic breakdown",
        "Fig. 19",
        lambda s, r: fig.preprocessing_figure(
            s.matrices, _title("Preprocessing ablation", s), r),
    ),
    FigureGenerator(
        "scheduling", "Multi-PE vs single-PE-per-row scheduling",
        "Fig. 20",
        lambda s, r: fig.scheduling_figure(
            s.scheduling_matrix, _title("Scheduling ablation", s), r),
    ),
    FigureGenerator(
        "roofline", "Roofline placement of every matrix, G and GP",
        "Fig. 21",
        lambda s, r: fig.roofline_figure(
            s.matrices, _title("Roofline", s), r),
    ),
    FigureGenerator(
        "pe_scaling", "PE-count scaling sweep",
        "Figs. 22/23",
        lambda s, r: fig.pe_sweep_figure(
            s.matrices, _title("PE scaling", s), r),
    ),
    FigureGenerator(
        "cache_scaling", "FiberCache-size scaling sweep",
        "Figs. 24/25",
        lambda s, r: fig.cache_sweep_figure(
            s.matrices, _title("FiberCache scaling", s), r),
    ),
    FigureGenerator(
        "spmv", "Gamma SpMV (GUST-style) by vector operand shape",
        "extension",
        lambda s, r: fig.spmv_figure(
            s.matrices, _title("Gamma SpMV", s), r),
    ),
    FigureGenerator(
        "energy", "Energy across designs (parametric model)",
        "extension",
        lambda s, r: fig.energy_figure(
            s.matrices, _title("Energy", s), r),
    ),
    FigureGenerator(
        "dataflows", "Dataflow work counts (IP/OP/Gustavson)",
        "Fig. 2 / Sec. 2.2",
        lambda s, r: fig.dataflows_figure(
            s.dataflow_matrices, _title("Dataflow work counts", s)),
    ),
    FigureGenerator(
        "matraptor", "MatRaptor vs Gamma (Gustavson without B reuse)",
        "Sec. 7",
        lambda s, r: fig.matraptor_figure(
            s.matrices, _title("MatRaptor vs Gamma", s), r),
    ),
    FigureGenerator(
        "suite", "Matrix-suite characteristics",
        "Tables 3/4",
        lambda s, r: fig.suite_figure(
            s.suite_specs(), _title("Matrix suite", s), r),
    ),
    FigureGenerator(
        "area", "Gamma area breakdown, model vs published",
        "Table 2",
        lambda s, r: fig.area_figure(_title("Area breakdown", s)),
    ),
]

_BY_ID: Dict[str, FigureGenerator] = {
    g.figure_id: g for g in FIGURE_GENERATORS}


def figure_ids() -> List[str]:
    return [g.figure_id for g in FIGURE_GENERATORS]


def get_generator(figure_id: str) -> FigureGenerator:
    try:
        return _BY_ID[figure_id]
    except KeyError:
        raise ValueError(
            f"unknown figure id {figure_id!r}; known: {figure_ids()}"
        ) from None


@dataclass(frozen=True)
class PaperArtifact:
    """One paper figure/table and the generator that regenerates it.

    Attributes:
        artifact_id: Short id ('fig12', 'table2', ...).
        title: What the paper artifact shows.
        paper_claim: The headline result the artifact supports.
        figure_id: The :data:`FIGURE_GENERATORS` entry to run, or
            ``None`` for Table 1, which only lists the configuration.
        scope: The matrix scope the generator runs at.
    """

    artifact_id: str
    title: str
    paper_claim: str
    figure_id: Optional[str]
    scope: Optional[FigureScope]

    def run(self) -> Dict:
        """Regenerate the artifact through the shared memoizing runner.

        Returns the builder's dict: ``rows`` and ``table``, plus
        ``chart``/``chart_data`` and ``pe_rows``/``points``/``speedup``
        where the artifact has them.
        """
        if self.figure_id is None:
            return fig.config_figure()
        return get_generator(self.figure_id).build(self.scope, RUNNER)


_COMMON = SCOPES["common"]
_EXTENDED = SCOPES["extended"]

PAPER_ARTIFACTS: List[PaperArtifact] = [
    PaperArtifact(
        "fig3", "Traffic teaser: IP/OS/S/G/GP on gupta2 and web-Google",
        "Gamma incurs the least traffic on both a denser and a highly "
        "sparse matrix; IP suffers on sparse, OS/S on dense.",
        "traffic_breakdown",
        replace(_COMMON, matrices=("gupta2", "web-Google")),
    ),
    PaperArtifact(
        "fig10", "Gmean speedup over MKL, common set",
        "Gamma outperforms MKL by ~33-38x, SpArch by ~2.1x, and "
        "OuterSPACE by ~7x.",
        "gmean_speedup", _COMMON,
    ),
    PaperArtifact(
        "fig11", "Per-matrix speedup over MKL, common set",
        "Speedups up to ~184x.",
        "speedup", _COMMON,
    ),
    PaperArtifact(
        "fig12", "Normalized traffic, common set",
        "Gamma's traffic is within ~7-26% of compulsory; OuterSPACE ~4x; "
        "SpArch ~1.6x.",
        "traffic", _COMMON,
    ),
    PaperArtifact(
        "fig13", "Memory bandwidth utilization, common set",
        "Gamma saturates the 128 GB/s interface on almost all inputs.",
        "bandwidth", _COMMON,
    ),
    PaperArtifact(
        "fig14", "FiberCache utilization, common set",
        "B fibers dominate; partial fibers take visible space on "
        "wiki-Vote / email-Enron / webbase-1M.",
        "cache_util", _COMMON,
    ),
    PaperArtifact(
        "fig15", "Per-matrix speedup over MKL, extended set",
        "Gmean 17x, up to 50x.",
        "speedup", _EXTENDED,
    ),
    PaperArtifact(
        "fig16", "Normalized traffic, extended set",
        "OuterSPACE is ~14x and SpArch ~3x Gamma's traffic on denser "
        "matrices.",
        "traffic", _EXTENDED,
    ),
    PaperArtifact(
        "fig17", "Memory bandwidth utilization, extended set",
        "Denser matrices become compute-bound and stop saturating "
        "bandwidth.",
        "bandwidth", _EXTENDED,
    ),
    PaperArtifact(
        "fig18", "FiberCache utilization, extended set",
        "Partial-fiber share varies widely (e.g., Maragal_7 ~35%), "
        "justifying a single shared structure.",
        "cache_util", _EXTENDED,
    ),
    PaperArtifact(
        "fig19", "Preprocessing ablations on Maragal_7 and sme3Db",
        "Reordering drastically cuts B traffic on sme3Db; tiling all rows "
        "backfires; selective tiling helps Maragal_7 without the "
        "pathology.",
        "preprocessing",
        replace(_COMMON, matrices=("Maragal_7", "sme3Db")),
    ),
    PaperArtifact(
        "fig20", "Scheduling ablation on email-Enron",
        "Multi-PE scheduling reduces traffic (~18%) and improves "
        "performance (~17%) over single-PE-per-row.",
        "scheduling", _COMMON,
    ),
    PaperArtifact(
        "fig21", "Roofline analysis",
        "Nearly all matrices sit on the roofline; Gamma is driven to "
        "saturation.",
        "roofline", SCOPES["paper"],
    ),
    PaperArtifact(
        "fig22", "PE-count sweep, common set",
        "Common-set matrices are memory-bound by 32 PEs.",
        "pe_scaling", _COMMON,
    ),
    PaperArtifact(
        "fig23", "PE-count sweep, extended set",
        "Denser extended-set matrices keep scaling past 32 PEs.",
        "pe_scaling", _EXTENDED,
    ),
    PaperArtifact(
        "fig24", "FiberCache-size sweep, common set",
        "Smooth improvement above 1.5 MB; a cliff at 0.75 MB.",
        "cache_scaling", _COMMON,
    ),
    PaperArtifact(
        "fig25", "FiberCache-size sweep, extended set",
        "Extended set benefits from extra capacity; small caches degrade "
        "sharply.",
        "cache_scaling", _EXTENDED,
    ),
    PaperArtifact(
        "table1", "System configuration",
        "32 radix-64 PEs, 3 MB FiberCache, 128 GB/s HBM at 1 GHz.",
        None, None,
    ),
    PaperArtifact(
        "table2", "Area breakdown",
        "30.6 mm^2 at 45 nm; FiberCache dominates; the merger is ~30% of "
        "a PE.",
        "area", _COMMON,
    ),
    PaperArtifact(
        "table3", "Common-set matrix characteristics",
        "19 square, highly sparse matrices.",
        "suite", _COMMON,
    ),
    PaperArtifact(
        "table4", "Extended-set matrix characteristics",
        "18 denser / non-square matrices.",
        "suite", _EXTENDED,
    ),
    PaperArtifact(
        "ext_dataflows",
        "Extension: dataflow work counts (Sec. 2.2, Fig. 2)",
        "Inner product drowns in ineffectual intersections on sparse "
        "inputs; outer product buffers partial matrices orders of "
        "magnitude larger than Gustavson's row accumulator.",
        "dataflows", _COMMON,
    ),
    PaperArtifact(
        "ext_energy",
        "Extension: energy comparison (parametric model)",
        "Traffic reduction is energy reduction: Gamma's lower data "
        "movement translates directly into lower energy per spMspM.",
        "energy", _COMMON,
    ),
    PaperArtifact(
        "ext_matraptor",
        "Extension: MatRaptor (Gustavson without B reuse), Sec. 7",
        "MatRaptor beats OuterSPACE by only ~1.8x; Gamma by ~6.6x, because "
        "reusing B fibers is how Gustavson's dataflow minimizes traffic.",
        "matraptor", _COMMON,
    ),
]

_ARTIFACTS: Dict[str, PaperArtifact] = {
    a.artifact_id: a for a in PAPER_ARTIFACTS}


def artifact_ids() -> List[str]:
    return [a.artifact_id for a in PAPER_ARTIFACTS]


def get_artifact(artifact_id: str) -> PaperArtifact:
    try:
        return _ARTIFACTS[artifact_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {artifact_id!r}; "
            f"known: {artifact_ids()}"
        ) from None
