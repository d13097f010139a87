"""One builder per paper table/figure, producing its data and a text table.

Every builder (``speedup_figure``, ``traffic_figure``, ...) is
parameterized by the matrix set and an
:class:`~repro.experiments.runner.ExperimentRunner`. The figure catalog
(:mod:`repro.figures.generators`) binds them to matrix scopes: both the
versioned figure pipeline and the paper-artifact ids (``fig12``,
``table3``, ...) run through it.

Each builder returns a dict with at least:

* ``rows`` — structured per-matrix (or per-config) records,
* ``table`` — a rendered monospace table matching the paper's artifact,
* ``chart_data`` — the structured chart (see
  :mod:`repro.analysis.charts`) both the ASCII ``chart`` and the
  pipeline's Vega-Lite spec + CSV are derived from, so the terminal
  rendering and the committed artifact can never disagree.

Cross-model figures carry *every* comparable design — the paper's
accelerators (OuterSPACE, SpArch, G, GP) plus the CPU matrix-extension
baselines (SparseZipper, RVV) — so cross-model comparisons are
reviewable in one artifact.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.area import (
    gamma_area,
    pe_area,
    pe_component_fractions,
    merger_area,
    sparch_merger_area_ratio,
)
from repro.analysis.charts import (
    bar_data,
    multi_bar_data,
    render_chart,
    scatter_data,
    stacked_bar_data,
)
from repro.analysis.metrics import amean, gmean
from repro.analysis.report import render_table
from repro.analysis.roofline import (
    ridge_intensity,
    roof_at,
    roofline_point,
    roofline_series,
)
from repro.config import GammaConfig
from repro.experiments.runner import (
    MODEL_SCALE,
    RUNNER,
    ExperimentRunner,
    scaled_gamma_config,
)
from repro.matrices import suite
from repro.matrices.stats import MatrixStats

_TRAFFIC_CATEGORIES = ("A", "B", "C", "partial_read", "partial_write")

_Fetch = Callable[[ExperimentRunner, str], object]

#: Design label -> record fetcher for the cross-model comparison
#: figures. Order is presentation order (paper designs first, CPU
#: matrix extensions last); every entry must produce a RunRecord whose
#: runtime is comparable to the MKL reference.
CROSS_MODEL_DESIGNS: Tuple[Tuple[str, _Fetch], ...] = (
    ("OuterSPACE", lambda r, n: r.baseline("outerspace", n)),
    ("SpArch", lambda r, n: r.baseline("sparch", n)),
    ("SparseZipper", lambda r, n: r.baseline("sparsezipper", n)),
    ("RVV", lambda r, n: r.baseline("rvv", n)),
    ("G", lambda r, n: r.gamma(n, "none")),
    ("GP", lambda r, n: r.gamma(n, "full")),
)

#: Designs in the traffic-breakdown (stacked) figures.
BREAKDOWN_DESIGNS: Tuple[Tuple[str, _Fetch], ...] = (
    ("IP", lambda r, n: r.baseline("ip", n)),
    ("OuterSPACE", lambda r, n: r.baseline("outerspace", n)),
    ("SpArch", lambda r, n: r.baseline("sparch", n)),
    ("G", lambda r, n: r.gamma(n, "none")),
    ("GP", lambda r, n: r.gamma(n, "full")),
)

#: Preprocessing ablation variants (paper Fig. 19 labels).
PREPROCESS_ABLATION: Tuple[Tuple[str, str], ...] = (
    ("G", "none"),
    ("+R", "reorder"),
    ("+R+T", "reorder_tile_all"),
    ("+R+ST", "full"),
)


def _resolve(runner: Optional[ExperimentRunner]) -> ExperimentRunner:
    return runner if runner is not None else RUNNER


def _breakdown(name: str, traffic: Dict[str, int],
               runner: ExperimentRunner) -> Dict[str, float]:
    compulsory = runner.compulsory_total(name)
    return {k: traffic.get(k, 0) / compulsory
            for k in _TRAFFIC_CATEGORIES}


def _design_labels(designs) -> List[str]:
    return [label for label, _ in designs]


# ----------------------------------------------------------------------
# Parameterized figure builders (the pipeline's entry points)
# ----------------------------------------------------------------------
def speedup_figure(names: Sequence[str], figure: str,
                   runner: Optional[ExperimentRunner] = None,
                   designs=CROSS_MODEL_DESIGNS) -> Dict:
    """Per-matrix speedup over MKL for every comparable design."""
    runner = _resolve(runner)
    rows = []
    for name in names:
        row: Dict[str, object] = {"matrix": name}
        for label, fetch in designs:
            record = fetch(runner, name)
            row[label] = runner.speedup_over_mkl(
                name, record.runtime_seconds)
        rows.append(row)
    labels = _design_labels(designs)
    rows.append({
        "matrix": "gmean",
        **{label: gmean([r[label] for r in rows]) for label in labels},
    })
    table = render_table(
        ["matrix"] + labels,
        [[r["matrix"]] + [r[label] for label in labels] for r in rows],
        precision=1,
        title=f"{figure}: speedup over MKL (higher is better)",
    )
    chart_data = multi_bar_data(
        [r["matrix"] for r in rows],
        {label: [r[label] for r in rows] for label in labels},
        title=f"{figure}: speedup over MKL",
        label_field="matrix", series_field="design",
        value_field="speedup",
    )
    return {"rows": rows, "table": table, "chart_data": chart_data,
            "chart": render_chart(chart_data)}


def traffic_figure(names: Sequence[str], figure: str,
                   runner: Optional[ExperimentRunner] = None,
                   designs=CROSS_MODEL_DESIGNS) -> Dict:
    """Per-matrix DRAM traffic normalized to compulsory, every design."""
    runner = _resolve(runner)
    rows = []
    for name in names:
        row: Dict[str, object] = {"matrix": name}
        for label, fetch in designs:
            row[label] = fetch(runner, name).normalized_traffic
        rows.append(row)
    labels = _design_labels(designs)
    rows.append({
        "matrix": "gmean",
        **{label: gmean([r[label] for r in rows]) for label in labels},
    })
    table = render_table(
        ["matrix"] + labels,
        [[r["matrix"]] + [r[label] for label in labels] for r in rows],
        title=f"{figure}: off-chip traffic normalized to compulsory "
              "(lower is better)",
    )
    chart_data = multi_bar_data(
        [r["matrix"] for r in rows],
        {label: [r[label] for r in rows] for label in labels},
        title=f"{figure}: normalized traffic (x compulsory, lower is "
              "better)",
        label_field="matrix", series_field="design",
        value_field="normalized_traffic",
    )
    return {"rows": rows, "table": table, "chart_data": chart_data,
            "chart": render_chart(chart_data)}


def gmean_speedup_figure(names: Sequence[str], figure: str,
                         runner: Optional[ExperimentRunner] = None,
                         designs=CROSS_MODEL_DESIGNS) -> Dict:
    """Suite-level gmean speedup over MKL per design (paper Fig. 10)."""
    runner = _resolve(runner)
    rows = []
    for label, fetch in designs:
        speedups = [
            runner.speedup_over_mkl(
                name, fetch(runner, name).runtime_seconds)
            for name in names
        ]
        rows.append({"design": label, "gmean_speedup": gmean(speedups)})
    table = render_table(
        ["design", "gmean speedup vs MKL"],
        [[r["design"], r["gmean_speedup"]] for r in rows],
        precision=1,
        title=f"{figure}: gmean speedup over MKL",
    )
    chart_data = bar_data(
        [r["design"] for r in rows],
        [r["gmean_speedup"] for r in rows],
        title=f"{figure}: gmean speedup over MKL",
        label_field="design", value_field="gmean_speedup",
        value_format="{:.1f}x",
    )
    return {"rows": rows, "table": table, "chart_data": chart_data,
            "chart": render_chart(chart_data)}


def breakdown_figure(names: Sequence[str], figure: str,
                     runner: Optional[ExperimentRunner] = None,
                     designs=BREAKDOWN_DESIGNS) -> Dict:
    """Stacked traffic breakdown (A/B/C/partial) per matrix x design."""
    runner = _resolve(runner)
    rows = []
    for name in names:
        for label, fetch in designs:
            breakdown = _breakdown(
                name, fetch(runner, name).traffic_bytes, runner)
            rows.append({
                "matrix": name, "design": label, **breakdown,
                "total": sum(breakdown.values()),
            })
    table = render_table(
        ["matrix", "design", "A", "B", "C", "partial", "total"],
        [[r["matrix"], r["design"], r["A"], r["B"], r["C"],
          r["partial_read"] + r["partial_write"], r["total"]]
         for r in rows],
        title=f"{figure}: normalized off-chip traffic (lower is better)",
    )
    chart_data = stacked_bar_data(
        [f"{r['matrix']}/{r['design']}" for r in rows],
        [{"A": r["A"], "B": r["B"], "C": r["C"],
          "partial": r["partial_read"] + r["partial_write"]}
         for r in rows],
        ["A", "B", "C", "partial"],
        title=f"{figure}: traffic breakdown (x compulsory)",
        label_field="matrix_design", category_field="stream",
        value_field="normalized_bytes",
    )
    return {"rows": rows, "table": table, "chart_data": chart_data,
            "chart": render_chart(chart_data)}


def bandwidth_figure(names: Sequence[str], figure: str,
                     runner: Optional[ExperimentRunner] = None) -> Dict:
    """G/GP memory-bandwidth utilization per matrix."""
    runner = _resolve(runner)
    rows = []
    for name in names:
        rows.append({
            "matrix": name,
            "G": runner.gamma(name, "none").bandwidth_utilization,
            "GP": runner.gamma(name, "full").bandwidth_utilization,
        })
    rows.append({
        "matrix": "mean",
        "G": amean([r["G"] for r in rows]),
        "GP": amean([r["GP"] for r in rows]),
    })
    table = render_table(
        ["matrix", "G", "GP"],
        [[r["matrix"], r["G"], r["GP"]] for r in rows],
        title=f"{figure}: memory bandwidth utilization",
    )
    chart_data = multi_bar_data(
        [r["matrix"] for r in rows],
        {"G": [r["G"] for r in rows], "GP": [r["GP"] for r in rows]},
        title=f"{figure}: bandwidth utilization (1.0 = saturated)",
        label_field="matrix", series_field="design",
        value_field="bandwidth_utilization",
    )
    return {"rows": rows, "table": table, "chart_data": chart_data,
            "chart": render_chart(chart_data)}


def cache_util_figure(names: Sequence[str], figure: str,
                      runner: Optional[ExperimentRunner] = None) -> Dict:
    """FiberCache utilization split by fiber type, G and GP."""
    runner = _resolve(runner)
    rows = []
    for name in names:
        util_g = runner.gamma(name, "none").cache_utilization
        util_gp = runner.gamma(name, "full").cache_utilization
        rows.append({
            "matrix": name,
            "G_B": util_g["B"], "G_partial": util_g["partial"],
            "GP_B": util_gp["B"], "GP_partial": util_gp["partial"],
        })
    table = render_table(
        ["matrix", "G:B", "G:partial", "GP:B", "GP:partial"],
        [[r["matrix"], r["G_B"], r["G_partial"], r["GP_B"],
          r["GP_partial"]] for r in rows],
        title=f"{figure}: FiberCache utilization by fiber type",
    )
    chart_data = stacked_bar_data(
        [f"{r['matrix']}/{design}" for r in rows
         for design in ("G", "GP")],
        [{"B": r[f"{design}_B"], "partial": r[f"{design}_partial"]}
         for r in rows for design in ("G", "GP")],
        ["B", "partial"],
        title=f"{figure}: FiberCache utilization by fiber type",
        label_field="matrix_design", category_field="fiber_type",
        value_field="utilization", max_value=1.0,
    )
    return {"rows": rows, "table": table, "chart_data": chart_data,
            "chart": render_chart(chart_data)}


def preprocessing_figure(names: Sequence[str], figure: str,
                         runner: Optional[ExperimentRunner] = None,
                         variants=PREPROCESS_ABLATION) -> Dict:
    """Preprocessing ablation: traffic breakdown per variant."""
    runner = _resolve(runner)
    rows = []
    for name in names:
        for label, variant in variants:
            breakdown = _breakdown(
                name, runner.gamma(name, variant).traffic_bytes, runner)
            rows.append({
                "matrix": name, "variant": label, **breakdown,
                "total": sum(breakdown.values()),
            })
    table = render_table(
        ["matrix", "variant", "A", "B", "C", "partial", "total"],
        [[r["matrix"], r["variant"], r["A"], r["B"], r["C"],
          r["partial_read"] + r["partial_write"], r["total"]]
         for r in rows],
        title=f"{figure}: preprocessing ablations, normalized traffic",
    )
    chart_data = stacked_bar_data(
        [f"{r['matrix']}/{r['variant']}" for r in rows],
        [{"A": r["A"], "B": r["B"], "C": r["C"],
          "partial": r["partial_read"] + r["partial_write"]}
         for r in rows],
        ["A", "B", "C", "partial"],
        title=f"{figure}: traffic breakdown (x compulsory)",
        label_field="matrix_variant", category_field="stream",
        value_field="normalized_bytes",
    )
    return {"rows": rows, "table": table, "chart_data": chart_data,
            "chart": render_chart(chart_data)}


def scheduling_figure(name: str, figure: str,
                      runner: Optional[ExperimentRunner] = None) -> Dict:
    """Multi-PE vs single-PE-per-row scheduling on one matrix."""
    runner = _resolve(runner)
    multi = runner.gamma(name, "none", multi_pe=True)
    single = runner.gamma(name, "none", multi_pe=False)
    rows = []
    for label, result in (("multi-PE", multi), ("single-PE", single)):
        breakdown = _breakdown(name, result.traffic_bytes, runner)
        rows.append({
            "scheduler": label, **breakdown,
            "total": sum(breakdown.values()),
            "cycles": result.cycles,
        })
    speedup = single.cycles / multi.cycles
    table = render_table(
        ["scheduler", "A", "B", "C", "partial", "total", "cycles"],
        [[r["scheduler"], r["A"], r["B"], r["C"],
          r["partial_read"] + r["partial_write"], r["total"],
          int(r["cycles"])] for r in rows],
        title=(f"{figure}: scheduling ablation on {name} "
               f"(multi-PE is {speedup:.2f}x faster)"),
    )
    chart_data = stacked_bar_data(
        [r["scheduler"] for r in rows],
        [{"A": r["A"], "B": r["B"], "C": r["C"],
          "partial": r["partial_read"] + r["partial_write"]}
         for r in rows],
        ["A", "B", "C", "partial"],
        title=f"{figure}: scheduling ablation on {name} "
              "(x compulsory)",
        label_field="scheduler", category_field="stream",
        value_field="normalized_bytes",
    )
    return {"rows": rows, "table": table, "speedup": speedup,
            "chart_data": chart_data, "chart": render_chart(chart_data)}


def roofline_figure(names: Sequence[str], figure: str,
                    runner: Optional[ExperimentRunner] = None) -> Dict:
    """Roofline placement of every matrix, G and GP variants."""
    runner = _resolve(runner)
    points = []
    for name in names:
        for variant in ("none", "full"):
            result = runner.gamma(name, variant)
            points.append(roofline_point(f"{name}:{variant}", result))
    series = roofline_series(points)
    on_roof = sum(1 for p in points if p.efficiency > 0.8)
    config = scaled_gamma_config()
    table = render_table(
        ["matrix", "intensity", "GFLOP/s", "roof", "efficiency"],
        [[s["name"], s["intensity"], s["gflops"], s["roof"],
          s["efficiency"]] for s in series],
        precision=3,
        title=(f"{figure}: roofline (ridge at "
               f"{ridge_intensity(config):.2f} FLOP/byte; "
               f"{on_roof}/{len(points)} points within 80% of the "
               "roof)"),
    )
    intensities = sorted(p.intensity for p in points)
    roof_curve = [(x, roof_at(x, config)) for x in intensities]
    chart_data = scatter_data(
        [(p.intensity, max(p.gflops, 1e-3)) for p in points],
        names=[p.name for p in points],
        curve=roof_curve,
        log_x=True, log_y=True,
        title=f"{figure}: roofline — * matrices, - roof",
        x_field="intensity", y_field="gflops",
        point_series="matrix", curve_series="roof",
    )
    return {"rows": series, "table": table, "points": points,
            "chart_data": chart_data, "chart": render_chart(chart_data)}


def _sweep_figure(names: Sequence[str], figure: str,
                  configs: Dict[str, GammaConfig],
                  runner: Optional[ExperimentRunner] = None,
                  config_field: str = "config") -> Dict:
    runner = _resolve(runner)
    rows = []
    for label, config in configs.items():
        speedups, traffic, bandwidth = [], [], []
        for name in names:
            result = runner.gamma(name, "full", config=config)
            speedups.append(
                runner.speedup_over_mkl(name, result.runtime_seconds))
            traffic.append(result.normalized_traffic)
            bandwidth.append(result.bandwidth_utilization)
        rows.append({
            config_field: label,
            "gmean_speedup": gmean(speedups),
            "mean_traffic": amean(traffic),
            "mean_bandwidth": amean(bandwidth),
        })
    table = render_table(
        [config_field, "gmean speedup", "mean traffic", "mean bw util"],
        [[r[config_field], r["gmean_speedup"], r["mean_traffic"],
          r["mean_bandwidth"]] for r in rows],
        title=figure,
    )
    chart_data = bar_data(
        [r[config_field] for r in rows],
        [r["gmean_speedup"] for r in rows],
        title=f"{figure} — gmean speedup vs MKL",
        label_field=config_field, value_field="gmean_speedup",
        value_format="{:.1f}x",
    )
    return {"rows": rows, "table": table, "chart_data": chart_data,
            "chart": render_chart(chart_data)}


def pe_sweep_figure(names: Sequence[str], figure: str,
                    runner: Optional[ExperimentRunner] = None) -> Dict:
    configs = {
        str(pes): scaled_gamma_config(num_pes=pes)
        for pes in (8, 16, 32, 64, 128)
    }
    return _sweep_figure(names, f"{figure}: PE-count sweep", configs,
                         runner, config_field="pes")


def cache_sweep_figure(names: Sequence[str], figure: str,
                       runner: Optional[ExperimentRunner] = None) -> Dict:
    # Paper sizes 0.75 / 1.5 / 3 / 6 / 12 MB, divided by the model scale.
    configs = {}
    for paper_mb in (0.75, 1.5, 3.0, 6.0, 12.0):
        scaled = int(paper_mb * 1024 * 1024 / MODEL_SCALE)
        configs[f"{paper_mb}MB"] = scaled_gamma_config(
            fibercache_bytes=scaled)
    return _sweep_figure(names, f"{figure}: FiberCache-size sweep",
                         configs, runner, config_field="cache_size")


def spmv_figure(names: Sequence[str], figure: str,
                runner: Optional[ExperimentRunner] = None) -> Dict:
    """GUST-style SpMV on the Gamma core: spMspV vs dense-vector SpMV.

    Extension beyond the paper: the ``gamma-spmv`` model collapses the
    B operand to a vector, so the comparison here is operand shape
    (sparse vs dense vector), not speedup over MKL — SpMV is a
    different operation from the SpGEMM the other figures measure.
    """
    runner = _resolve(runner)
    rows = []
    for name in names:
        for operand in ("sparse-vector", "dense-vector"):
            record = runner.spmv(name, operand=operand)
            rows.append({
                "matrix": name,
                "operand": operand,
                "cycles": record.cycles,
                "total_traffic_bytes": record.total_traffic,
                "gflops": record.gflops,
            })
    table = render_table(
        ["matrix", "operand", "cycles", "traffic bytes", "GFLOP/s"],
        [[r["matrix"], r["operand"], int(r["cycles"]),
          int(r["total_traffic_bytes"]), r["gflops"]] for r in rows],
        title=f"{figure}: Gamma SpMV by vector operand shape",
    )
    labels = [r["matrix"] for r in rows if r["operand"]
              == "sparse-vector"]
    chart_data = multi_bar_data(
        labels,
        {
            operand: [r["cycles"] for r in rows
                      if r["operand"] == operand]
            for operand in ("sparse-vector", "dense-vector")
        },
        title=f"{figure}: Gamma SpMV cycles by operand shape",
        label_field="matrix", series_field="operand",
        value_field="cycles",
    )
    return {"rows": rows, "table": table, "chart_data": chart_data,
            "chart": render_chart(chart_data)}


def energy_figure(names: Sequence[str], figure: str,
                  runner: Optional[ExperimentRunner] = None) -> Dict:
    """Energy comparison across designs (parametric model)."""
    from repro.analysis.energy import estimate_energy

    runner = _resolve(runner)
    designs = {
        "OuterSPACE": lambda n: runner.baseline("outerspace", n),
        "SpArch": lambda n: runner.baseline("sparch", n),
        "Gamma": lambda n: runner.gamma(n, "none"),
        "Gamma+pre": lambda n: runner.gamma(n, "full"),
    }
    rows = []
    for label, fetch in designs.items():
        energies = []
        dram_shares = []
        for name in names:
            result = fetch(name)
            breakdown = estimate_energy(result)
            energies.append(breakdown.total_uj)
            dram_shares.append(breakdown.fractions()["dram"])
        rows.append({
            "design": label,
            "gmean_energy_uj": gmean(energies),
            "mean_dram_share": amean(dram_shares),
        })
    baseline = rows[0]["gmean_energy_uj"]
    for row in rows:
        row["relative"] = row["gmean_energy_uj"] / baseline
    table = render_table(
        ["design", "gmean energy (uJ)", "vs OuterSPACE", "DRAM share"],
        [[r["design"], r["gmean_energy_uj"], r["relative"],
          r["mean_dram_share"]] for r in rows],
        title=f"{figure}: energy across designs (parametric 45 nm-class "
              "model)",
    )
    chart_data = bar_data(
        [r["design"] for r in rows],
        [r["gmean_energy_uj"] for r in rows],
        title=f"{figure}: gmean energy per spMspM (uJ, lower is better)",
        label_field="design", value_field="gmean_energy_uj",
    )
    return {"rows": rows, "table": table, "chart_data": chart_data,
            "chart": render_chart(chart_data)}


def suite_figure(specs, title: str,
                 runner: Optional[ExperimentRunner] = None) -> Dict:
    """Matrix-suite characteristics table (paper Tables 3/4)."""
    rows = []
    for spec in specs:
        matrix = suite.load(spec.name)
        stats = MatrixStats.of(matrix)
        rows.append({
            "matrix": spec.name,
            "paper_rows": spec.paper_rows,
            "paper_nnz_per_row": round(spec.paper_npr, 2),
            "rows": stats.rows,
            "nnz_per_row": round(stats.nnz_per_row_mean, 2),
            "nnz": stats.nnz,
        })
    table = render_table(
        ["matrix", "paper rows", "paper nnz/row", "rows", "nnz/row",
         "nnz"],
        [[r["matrix"], r["paper_rows"], r["paper_nnz_per_row"],
          r["rows"], r["nnz_per_row"], r["nnz"]] for r in rows],
        title=title,
    )
    chart_data = bar_data(
        [r["matrix"] for r in rows],
        [r["nnz"] for r in rows],
        title=f"{title} — nonzeros per matrix",
        label_field="matrix", value_field="nnz",
        value_format="{:.0f}",
    )
    return {"rows": rows, "table": table, "chart_data": chart_data,
            "chart": render_chart(chart_data)}


def area_figure(figure: str = "Table 2") -> Dict:
    """Area breakdown from the analytic model vs published numbers."""
    breakdown = gamma_area()
    published = {
        "PEs": 4.8, "Scheduler": 0.11, "FiberCache": 22.6,
        "Crossbars": 3.1, "Total": 30.6,
    }
    model = breakdown.as_dict()
    rows = [
        {"component": component, "model_mm2": model[component],
         "paper_mm2": published[component]}
        for component in published
    ]
    fractions = pe_component_fractions()
    pe_rows = [
        {"component": "Merger", "mm2": merger_area(64),
         "fraction": fractions["Merger"]},
        {"component": "FP Mul", "mm2": 0.082,
         "fraction": fractions["FP Mul"]},
        {"component": "FP Add", "mm2": 0.015,
         "fraction": fractions["FP Add"]},
        {"component": "Others", "mm2": 0.008,
         "fraction": fractions["Others"]},
        {"component": "PE total", "mm2": pe_area(), "fraction": 1.0},
    ]
    table = (
        render_table(
            ["component", "model mm^2", "paper mm^2"],
            [[r["component"], r["model_mm2"], r["paper_mm2"]]
             for r in rows],
            title=f"{figure}: Gamma area at 45 nm")
        + "\n\n"
        + render_table(
            ["PE component", "mm^2", "fraction"],
            [[r["component"], r["mm2"], r["fraction"]]
             for r in pe_rows],
            precision=3)
        + f"\n\nSpArch merger / FP multiplier area ratio: "
          f"{sparch_merger_area_ratio():.0f}x (paper: ~38x)"
    )
    chart_data = multi_bar_data(
        [r["component"] for r in rows],
        {
            "model": [r["model_mm2"] for r in rows],
            "paper": [r["paper_mm2"] for r in rows],
        },
        title=f"{figure}: Gamma area at 45 nm (mm^2)",
        label_field="component", series_field="source",
        value_field="area_mm2",
    )
    return {"rows": rows, "pe_rows": pe_rows, "table": table,
            "chart_data": chart_data, "chart": render_chart(chart_data)}


def config_figure(figure: str = "Table 1") -> Dict:
    """The evaluated configuration (and its scaled twin)."""
    paper = GammaConfig()
    scaled = scaled_gamma_config()
    rows = [
        {"parameter": "PEs", "paper": paper.num_pes,
         "scaled": scaled.num_pes},
        {"parameter": "PE radix", "paper": paper.radix,
         "scaled": scaled.radix},
        {"parameter": "FiberCache (KB)",
         "paper": paper.fibercache_bytes // 1024,
         "scaled": scaled.fibercache_bytes // 1024},
        {"parameter": "FiberCache ways", "paper": paper.fibercache_ways,
         "scaled": scaled.fibercache_ways},
        {"parameter": "Banks", "paper": paper.fibercache_banks,
         "scaled": scaled.fibercache_banks},
        {"parameter": "Frequency (GHz)",
         "paper": paper.frequency_hz / 1e9,
         "scaled": scaled.frequency_hz / 1e9},
        {"parameter": "Memory BW (GB/s)",
         "paper": paper.memory_bandwidth_bytes_per_s / 1e9,
         "scaled": scaled.memory_bandwidth_bytes_per_s / 1e9},
    ]
    table = render_table(
        ["parameter", "paper", "scaled model"],
        [[r["parameter"], r["paper"], r["scaled"]] for r in rows],
        title=f"{figure}: configuration (model scale 1/{MODEL_SCALE})",
    )
    return {"rows": rows, "table": table}


def dataflows_figure(names: Sequence[str], figure: str) -> Dict:
    """Per-dataflow work counts on a sparse vs denser input (Sec. 2.2)."""
    from repro.baselines.dataflows import compare_dataflows

    rows = []
    for name in names:
        a, b = suite.operands(name)
        for dataflow, counts in compare_dataflows(a, b).items():
            rows.append({
                "matrix": name,
                "dataflow": dataflow,
                "effectual": counts.effectual_multiplies,
                "ineffectual": counts.ineffectual_comparisons,
                "merge": counts.merge_elements,
                "intermediate": counts.intermediate_elements,
            })
    table = render_table(
        ["matrix", "dataflow", "effectual", "ineffectual", "merge",
         "peak intermediate"],
        [[r["matrix"], r["dataflow"], r["effectual"], r["ineffectual"],
          r["merge"], r["intermediate"]] for r in rows],
        precision=0,
        title=f"{figure}: work counts of the three spMspM dataflows",
    )
    chart_data = multi_bar_data(
        [f"{r['matrix']}/{r['dataflow']}" for r in rows],
        {
            "effectual": [r["effectual"] for r in rows],
            "ineffectual": [r["ineffectual"] for r in rows],
        },
        title=f"{figure}: effectual vs ineffectual work",
        label_field="matrix_dataflow", series_field="work",
        value_field="count",
    )
    return {"rows": rows, "table": table, "chart_data": chart_data,
            "chart": render_chart(chart_data)}


def matraptor_figure(names: Sequence[str], figure: str,
                     runner: Optional[ExperimentRunner] = None) -> Dict:
    """MatRaptor vs Gamma: Gustavson without B reuse (Sec. 7)."""
    from repro.baselines.matraptor import run_matraptor_model

    runner = _resolve(runner)
    rows = []
    for name in names:
        a, b = suite.operands(name)
        c_nnz = runner.c_nnz(name)
        matraptor = run_matraptor_model(
            a, b, scaled_gamma_config(), c_nnz)
        outerspace = runner.baseline("outerspace", name)
        gamma = runner.gamma(name, "none")
        rows.append({
            "matrix": name,
            "matraptor_vs_os": (outerspace.runtime_seconds
                                / matraptor.runtime_seconds),
            "gamma_vs_os": (outerspace.runtime_seconds
                            / gamma.runtime_seconds),
            "matraptor_traffic": (matraptor.total_traffic
                                  / runner.compulsory_total(name)),
            "gamma_traffic": gamma.normalized_traffic,
        })
    keys = ("matraptor_vs_os", "gamma_vs_os", "matraptor_traffic",
            "gamma_traffic")
    rows.append({
        "matrix": "gmean",
        **{key: gmean([r[key] for r in rows]) for key in keys},
    })
    table = render_table(
        ["matrix", "MatRaptor vs OS", "Gamma vs OS",
         "MatRaptor traffic", "Gamma traffic"],
        [[r["matrix"], r["matraptor_vs_os"], r["gamma_vs_os"],
          r["matraptor_traffic"], r["gamma_traffic"]] for r in rows],
        title=f"{figure}: MatRaptor, a Gustavson design without B reuse",
    )
    chart_data = multi_bar_data(
        [r["matrix"] for r in rows],
        {
            "MatRaptor": [r["matraptor_vs_os"] for r in rows],
            "Gamma": [r["gamma_vs_os"] for r in rows],
        },
        title=f"{figure}: speedup over OuterSPACE",
        label_field="matrix", series_field="design",
        value_field="speedup_vs_outerspace",
    )
    return {"rows": rows, "table": table, "chart_data": chart_data,
            "chart": render_chart(chart_data)}
