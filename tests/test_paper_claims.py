"""The paper's claims, checked against every artifact in the catalog.

Each paper figure/table id in
:data:`repro.figures.generators.PAPER_ARTIFACTS` has exactly one check
below; the parametrized test regenerates the artifact through the
shared memoizing runner (artifacts that reuse the same sweeps pay once)
and runs its check. An artifact without a check fails.

The bounds encode the paper's qualitative claims at the 1/64 model
scale. They are never loosened to fit a result: a failing bound is a
finding about the model.

Cold, the module runs the full common + extended evaluation (minutes);
it is marked ``slow`` so the fast CI job deselects it, and CI runs it
in its own job from an empty cache.
"""

from typing import Callable, Dict

import pytest

from repro.figures.generators import artifact_ids, get_artifact

pytestmark = pytest.mark.slow

CHECKS: Dict[str, Callable[[Dict], None]] = {}


def check(artifact_id: str):
    """Register the claim check for one paper artifact id."""

    def register(fn):
        CHECKS[artifact_id] = fn
        return fn

    return register


def by_matrix(rows, key="matrix"):
    """Index figure rows by matrix name."""
    return {row[key]: row for row in rows if key in row}


@pytest.mark.parametrize("artifact_id", artifact_ids())
def test_paper_claim(artifact_id):
    assert artifact_id in CHECKS, f"no claim check for {artifact_id}"
    CHECKS[artifact_id](get_artifact(artifact_id).run())


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------
@check("fig3")
def _fig3(result):
    """Off-chip traffic of IP/OS/S/G/GP on gupta2 and web-Google.

    Paper: Gamma (especially with preprocessing) incurs the least
    traffic on both a relatively dense matrix (gupta2) and a highly
    sparse one (web-Google); inner product degrades on the sparse
    matrix, the outer-product designs on the denser one.
    """
    rows = {(r["matrix"], r["design"]): r["total"] for r in result["rows"]}

    for matrix in ("gupta2", "web-Google"):
        # Gamma with preprocessing beats both outer-product designs.
        assert rows[(matrix, "GP")] < rows[(matrix, "OuterSPACE")]
        assert rows[(matrix, "GP")] < rows[(matrix, "SpArch")]
        # Even without preprocessing, the Gustavson dataflow wins.
        assert rows[(matrix, "G")] < rows[(matrix, "OuterSPACE")]

    # IP suffers on the highly sparse matrix far more than GP does.
    assert rows[("web-Google", "IP")] > 2 * rows[("web-Google", "GP")]
    # Outer-product partial outputs blow up on the denser matrix.
    assert rows[("gupta2", "OuterSPACE")] > 4 * rows[("gupta2", "GP")]


@check("fig10")
def _fig10(result):
    """Gmean speedup over MKL on the common set.

    Paper: Gamma-with-preprocessing is 38x over MKL, 2.1x over SpArch,
    and 7.7x over OuterSPACE; preprocessing adds ~16%.
    """
    speedups = {r["design"]: r["gmean_speedup"] for r in result["rows"]}

    # Every accelerator beats the CPU baseline comfortably.
    assert speedups["OuterSPACE"] > 2
    assert speedups["SpArch"] > speedups["OuterSPACE"]
    # Gamma beats both prior accelerators.
    assert speedups["G"] > speedups["SpArch"]
    assert speedups["GP"] >= speedups["G"]
    # Order-of-magnitude checks against the paper's bars.
    assert 10 < speedups["GP"] < 120  # paper: 38x
    assert speedups["GP"] / speedups["OuterSPACE"] > 3  # paper: 7.7x


@check("fig11")
def _fig11(result):
    """Per-matrix speedup of Gamma (with preprocessing) over MKL,
    common set. Paper: up to 184x, gmean 38x."""
    rows = by_matrix(result["rows"])
    per_matrix = [r["GP"] for name, r in rows.items() if name != "gmean"]
    assert all(s > 1 for s in per_matrix)  # never slower than MKL
    assert max(per_matrix) > 25            # paper: up to 184x
    assert 10 < rows["gmean"]["GP"] < 120


@check("fig12")
def _fig12(result):
    """Normalized off-chip traffic on the common set.

    Paper gmeans: OuterSPACE ~4x compulsory, SpArch ~1.59x, Gamma
    1.26x, Gamma+preprocessing 1.07x.
    """
    rows = by_matrix(result["rows"])
    g = rows["gmean"]

    assert g["GP"] <= g["G"] * 1.02         # preprocessing helps on average
    assert g["G"] < g["SpArch"]             # Gustavson beats outer product
    assert g["SpArch"] < g["OuterSPACE"]
    assert g["GP"] < 1.6                    # paper: 1.07
    assert 2.5 < g["OuterSPACE"] < 6.5      # paper: ~4

    # Per matrix, Gamma never exceeds OuterSPACE.
    for name, r in rows.items():
        if name == "gmean":
            continue
        assert r["GP"] <= r["OuterSPACE"] * 1.05, name


@check("fig13")
def _fig13(result):
    """Memory bandwidth utilization on the common set.

    Paper: Gamma almost always saturates the 128 GB/s interface.
    """
    rows = by_matrix(result["rows"])
    mean = rows["mean"]
    assert mean["G"] > 0.7
    assert mean["GP"] > 0.7
    saturated = sum(
        1 for name, r in rows.items()
        if name != "mean" and r["GP"] > 0.9
    )
    assert saturated >= len(rows) // 2  # most matrices saturate


@check("fig14")
def _fig14(result):
    """FiberCache utilization by fiber type, common set.

    Paper: B fibers dominate capacity; partial-output fibers take
    visible space on a few inputs (wiki-Vote, email-Enron, webbase-1M).
    """
    rows = by_matrix(result["rows"])
    # B rows dominate on every matrix.
    for name, r in rows.items():
        assert r["G_B"] >= r["G_partial"], name
    # Some matrices show a nonzero partial share.
    assert any(r["G_partial"] > 0.01 for r in rows.values())


@check("fig15")
def _fig15(result):
    """Per-matrix speedup over MKL, extended set.

    Paper: gmean 17x, up to 50x.
    """
    rows = by_matrix(result["rows"])
    per_matrix = [r["GP"] for n, r in rows.items() if n != "gmean"]
    assert all(s > 1 for s in per_matrix)
    assert 5 < rows["gmean"]["GP"] < 80  # paper: 17x


@check("fig16")
def _fig16(result):
    """Normalized traffic on the extended set.

    Paper: OuterSPACE ~14x Gamma's traffic and SpArch ~3x; outer product
    collapses on denser matrices (up to 54x over compulsory).
    """
    rows = by_matrix(result["rows"])
    g = rows["gmean"]

    assert g["GP"] <= g["G"] * 1.02
    assert g["OuterSPACE"] / g["GP"] > 4     # paper: ~14x
    assert g["SpArch"] / g["GP"] > 1.5       # paper: ~3x
    # The gap is much larger than on the common set: outer product
    # explodes with density.
    worst_os = max(r["OuterSPACE"] for n, r in rows.items()
                   if n != "gmean")
    assert worst_os > 10                     # paper: up to 54x


@check("fig17")
def _fig17(result):
    """Bandwidth utilization on the extended set.

    Paper: denser matrices become compute-bound, so several inputs stop
    saturating memory bandwidth (unlike the common set).
    """
    rows = by_matrix(result["rows"])
    not_saturated = sum(
        1 for n, r in rows.items() if n != "mean" and r["GP"] < 0.85
    )
    assert not_saturated >= 3  # several compute-bound matrices
    assert 0.2 < rows["mean"]["GP"] <= 1.0


@check("fig18")
def _fig18(result):
    """FiberCache utilization, extended set.

    Paper: the partial-result share varies widely across matrices (e.g.,
    Maragal_7 spends ~35% of capacity on partial fibers,
    NotreDame_actors none), which justifies one shared storage
    structure.
    """
    rows = by_matrix(result["rows"])
    partial_shares = [r["GP_partial"] for r in rows.values()]
    assert max(partial_shares) > 0.05   # some matrices need partial space
    assert min(partial_shares) < 0.02   # others need none


@check("fig19")
def _fig19(result):
    """Preprocessing ablations on Maragal_7 and sme3Db.

    Paper: affinity reordering gives a large (6x-class) traffic cut on
    sme3Db; tiling *all* rows backfires badly (13x extra on sme3Db);
    selective coordinate-space tiling keeps reordering's gains and
    helps Maragal_7 further.
    """
    rows = {(r["matrix"], r["variant"]): r["total"]
            for r in result["rows"]}

    for matrix in ("Maragal_7", "sme3Db"):
        # Reordering helps.
        assert rows[(matrix, "+R")] < rows[(matrix, "G")]
        # Selective tiling never loses to tiling everything.
        assert rows[(matrix, "+R+ST")] <= rows[(matrix, "+R+T")] * 1.02

    # The tile-everything pathology on sme3Db (paper: 13x extra traffic).
    assert rows[("sme3Db", "+R+T")] > 1.5 * rows[("sme3Db", "+R")]
    # Selective tiling does not hurt sme3Db (its rows stay untiled).
    assert rows[("sme3Db", "+R+ST")] <= rows[("sme3Db", "+R")] * 1.02
    # Tiling provides additional benefit on Maragal_7's dense rows.
    assert rows[("Maragal_7", "+R+ST")] < rows[("Maragal_7", "+R")]


@check("fig20")
def _fig20(result):
    """Multi-PE vs single-PE-per-row scheduling on email-Enron.

    Paper: the multi-PE dataflow schedule consumes partial fibers
    sooner, reducing traffic by ~18% and improving performance by ~17%.
    """
    rows = {r["scheduler"]: r for r in result["rows"]}

    multi, single = rows["multi-PE"], rows["single-PE"]
    # Multi-PE scheduling is no slower and no more traffic-hungry.
    assert multi["cycles"] <= single["cycles"] * 1.02
    assert multi["total"] <= single["total"] * 1.02
    assert result["speedup"] >= 0.98


@check("fig21")
def _fig21(result):
    """Roofline analysis.

    Paper: almost all matrices sit at or very close to the roofline —
    the system is driven to saturation; a few (gupta2, Ge87H76,
    Ge99H100) fall below because they alternate memory- and
    compute-bound phases.
    """
    from repro.analysis.roofline import ridge_intensity
    from repro.experiments import scaled_gamma_config

    points = result["points"]
    efficiencies = [p.efficiency for p in points]
    on_roof = sum(1 for e in efficiencies if e > 0.8)
    # Almost all points hug the roof.
    assert on_roof / len(points) > 0.6
    # Both memory-bound and compute-bound regions are populated.
    ridge = ridge_intensity(scaled_gamma_config())
    assert any(p.intensity < ridge for p in points)
    assert any(p.intensity > ridge for p in points)


@check("fig22")
def _fig22(result):
    """PE-count sweep on the common set.

    Paper: the common set is memory-bound at 32 PEs — performance stops
    scaling beyond that, and traffic is insensitive to PE count.
    """
    rows = {r["pes"]: r for r in result["rows"]}

    # More PEs never hurt much, and scaling saturates by 32.
    assert rows["32"]["gmean_speedup"] >= rows["8"]["gmean_speedup"]
    gain_past_32 = (rows["128"]["gmean_speedup"]
                    / rows["32"]["gmean_speedup"])
    assert gain_past_32 < 1.35  # memory-bound: little headroom
    # Traffic is a property of the cache, not the PE count.
    traffics = [r["mean_traffic"] for r in rows.values()]
    assert max(traffics) / min(traffics) < 1.4


@check("fig23")
def _fig23(result):
    """PE-count sweep on the extended set.

    Paper: denser extended-set matrices have higher arithmetic
    intensity, so Gamma keeps improving past 32 PEs (gmean +65% at 128
    PEs).
    """
    rows = {r["pes"]: r for r in result["rows"]}

    assert rows["32"]["gmean_speedup"] > rows["8"]["gmean_speedup"]
    gain_past_32 = (rows["128"]["gmean_speedup"]
                    / rows["32"]["gmean_speedup"])
    assert gain_past_32 > 1.15  # paper: +65%


@check("fig24")
def _fig24(result):
    """FiberCache-size sweep on the common set.

    Paper: performance improves smoothly from 1.5 MB up, but collapses
    at 0.75 MB, where almost no capacity is left to capture reuse.
    """
    rows = {r["cache_size"]: r for r in result["rows"]}

    # Monotone improvement with capacity.
    assert (rows["12.0MB"]["gmean_speedup"]
            >= rows["3.0MB"]["gmean_speedup"] * 0.98)
    assert (rows["3.0MB"]["gmean_speedup"]
            > rows["0.75MB"]["gmean_speedup"])
    # The small-cache cliff: traffic blows up at 0.75 MB.
    assert (rows["0.75MB"]["mean_traffic"]
            > 1.25 * rows["3.0MB"]["mean_traffic"])


@check("fig25")
def _fig25(result):
    """FiberCache-size sweep on the extended set.

    Paper: the denser extended set leans harder on capacity — small
    caches degrade sharply (traffic up to ~8x compulsory at 0.75 MB).
    """
    rows = {r["cache_size"]: r for r in result["rows"]}

    assert (rows["12.0MB"]["gmean_speedup"]
            >= rows["0.75MB"]["gmean_speedup"])
    # Capacity starvation hits the extended set harder than the common.
    assert (rows["0.75MB"]["mean_traffic"]
            > 1.5 * rows["12.0MB"]["mean_traffic"])


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
@check("table1")
def _table1(result):
    """The evaluated system configuration."""
    rows = {r["parameter"]: (r["paper"], r["scaled"])
            for r in result["rows"]}
    assert rows["PEs"] == (32, 32)
    assert rows["PE radix"] == (64, 64)
    assert rows["FiberCache (KB)"][0] == 3 * 1024      # paper: 3 MB
    assert rows["Memory BW (GB/s)"][0] == 128.0
    assert rows["FiberCache ways"] == (16, 16)


@check("table2")
def _table2(result):
    """Area breakdown (45 nm synthesis results)."""
    rows = {r["component"]: (r["model_mm2"], r["paper_mm2"])
            for r in result["rows"]}
    for component, (model, paper) in rows.items():
        assert model == pytest.approx(paper, rel=0.02), component
    # The merger is ~30% of a PE and ~55% goes to the FP multiplier.
    pe_rows = {r["component"]: r["fraction"] for r in result["pe_rows"]}
    assert abs(pe_rows["Merger"] - 0.30) < 0.03
    assert abs(pe_rows["FP Mul"] - 0.55) < 0.03


@check("table3")
def _table3(result):
    """Common-set matrix characteristics (scaled stand-ins)."""
    assert len(result["rows"]) == 19
    for r in result["rows"]:
        # Scaled row counts stay within the documented ~1/64 regime.
        assert r["rows"] <= r["paper_rows"]
        # Realized nnz/row tracks the published characteristic.
        paper_npr = r["paper_nnz_per_row"]
        assert 0.5 * paper_npr < r["nnz_per_row"] < 1.6 * paper_npr, (
            r["matrix"])


@check("table4")
def _table4(result):
    """Extended-set matrix characteristics (scaled stand-ins)."""
    from repro.matrices.suite import spec_by_name

    assert len(result["rows"]) == 18
    for r in result["rows"]:
        spec = spec_by_name(r["matrix"])
        assert r["rows"] <= r["paper_rows"]
        # Realized nnz/row tracks the (possibly npr-scaled) spec.
        assert 0.5 * spec.npr < r["nnz_per_row"] < 1.6 * spec.npr, (
            r["matrix"])
    # The extended set is denser than the common set overall.
    assert max(r["nnz_per_row"] for r in result["rows"]) > 100


# ----------------------------------------------------------------------
# Extensions beyond the paper's figures
# ----------------------------------------------------------------------
@check("ext_dataflows")
def _ext_dataflows(result):
    """Quantifying the Sec. 2.2 dataflow comparison (Fig. 2).

    Runs the three dataflows functionally on sparse suite matrices and
    checks the algorithmic claims behind the paper's motivation.
    """
    rows = {(r["matrix"], r["dataflow"]): r for r in result["rows"]}
    matrices = {m for m, _ in rows}

    for matrix in matrices:
        inner = rows[(matrix, "inner_product")]
        outer = rows[(matrix, "outer_product")]
        gustavson = rows[(matrix, "gustavson")]
        # Useful work is dataflow-independent.
        assert (inner["effectual"] == outer["effectual"]
                == gustavson["effectual"])
        # Inner product pays heavily for ineffectual intersections on
        # these sparse matrices.
        assert inner["ineffectual"] > 2 * inner["effectual"], matrix
        # Outer product's buffered partial matrices dwarf Gustavson's
        # single-row accumulator.
        assert (outer["intermediate"]
                > 10 * gustavson["intermediate"]), matrix
        # Gustavson does no intersection work at all.
        assert gustavson["ineffectual"] == 0


@check("ext_energy")
def _ext_energy(result):
    """Per-design energy on the common set.

    The paper's traffic argument carried to energy with a parametric
    per-operation model: the design with less data movement wins.
    """
    rows = {r["design"]: r for r in result["rows"]}
    # Gamma designs use less energy than the outer-product designs.
    assert (rows["Gamma+pre"]["gmean_energy_uj"]
            <= rows["Gamma"]["gmean_energy_uj"] * 1.02)
    assert (rows["Gamma"]["gmean_energy_uj"]
            < rows["SpArch"]["gmean_energy_uj"])
    assert (rows["SpArch"]["gmean_energy_uj"]
            < rows["OuterSPACE"]["gmean_energy_uj"])
    # Energy is data-movement dominated on these sparse inputs.
    assert rows["Gamma"]["mean_dram_share"] > 0.4


@check("ext_matraptor")
def _ext_matraptor(result):
    """MatRaptor comparison (paper Sec. 7).

    MatRaptor uses Gustavson's dataflow but streams B fibers from DRAM
    without reuse; the paper credits Gamma's much larger win over
    OuterSPACE (6.6x vs MatRaptor's published 1.8x) to the FiberCache
    capturing that reuse.
    """
    g = by_matrix(result["rows"])["gmean"]
    # Both Gustavson designs beat OuterSPACE...
    assert g["matraptor_vs_os"] > 1.0
    # ...but Gamma's B reuse widens the advantage substantially (paper:
    # 1.8x vs 6.6x; at the 1/64 model scale reuse factors are smaller,
    # so the gap narrows but must stay clearly visible).
    assert g["gamma_vs_os"] > 1.4 * g["matraptor_vs_os"]
    assert g["gamma_traffic"] < g["matraptor_traffic"]
