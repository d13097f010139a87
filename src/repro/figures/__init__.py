"""The versioned figure pipeline: the paper's evaluation as artifacts.

The paper's claims live in its figures; this package renders our
reproduction of them as *diffable, snapshot-tested artifacts* instead
of throwaway terminal tables. Each figure in the catalog
(:mod:`repro.figures.generators`) pulls rows from cached
:class:`~repro.engine.record.RunRecord` evaluations through a
parameterized builder in :mod:`repro.experiments.figures` and emits a
deterministic Vega-Lite spec (``<id>.vl.json``, a plain JSON dict — no
plotting dependency) plus the tidy ``<id>.csv`` it references, under a
schema-versioned, checksummed ``figures_manifest.json``
(:mod:`repro.figures.manifest`).

``python -m repro figures`` drives :mod:`repro.figures.pipeline`;
``--check`` regenerates against the committed goldens in
``tests/golden/figures/`` and fails naming the drifted figure — the
guard that makes every perf/model change reviewable as an artifact
diff. ``python -m repro report`` embeds a sweep-derived figure set
(:mod:`repro.figures.from_summary`) built purely from the
deterministic roll-up, preserving serial/parallel byte-identity.
"""

from repro.figures.generators import (
    FIGURE_GENERATORS,
    PAPER_ARTIFACTS,
    FigureGenerator,
    PaperArtifact,
    artifact_ids,
    figure_ids,
    get_artifact,
    get_generator,
)
from repro.figures.manifest import (
    FIGURES_MANIFEST_VERSION,
    MANIFEST_FILENAME,
    build_manifest,
    file_sha256,
    inputs_fingerprint,
    load_manifest,
    validate_manifest,
    write_manifest,
)
from repro.figures.pipeline import (
    GOLDEN_FIGURES_DIR,
    check_figures,
    csv_bytes,
    generate_figures,
    spec_bytes,
)
from repro.figures.from_summary import (
    REPORT_FIGURES_SUBDIR,
    report_figure_sections,
    summary_charts,
    write_report_figures,
)
from repro.figures.scopes import (
    GOLDEN_SCOPE,
    QUICK_MATRICES,
    SCOPES,
    FigureScope,
    get_scope,
)

__all__ = [
    "FIGURES_MANIFEST_VERSION",
    "FIGURE_GENERATORS",
    "GOLDEN_FIGURES_DIR",
    "GOLDEN_SCOPE",
    "MANIFEST_FILENAME",
    "PAPER_ARTIFACTS",
    "QUICK_MATRICES",
    "REPORT_FIGURES_SUBDIR",
    "SCOPES",
    "FigureGenerator",
    "FigureScope",
    "PaperArtifact",
    "artifact_ids",
    "build_manifest",
    "check_figures",
    "csv_bytes",
    "figure_ids",
    "file_sha256",
    "generate_figures",
    "get_artifact",
    "get_generator",
    "get_scope",
    "inputs_fingerprint",
    "load_manifest",
    "report_figure_sections",
    "spec_bytes",
    "summary_charts",
    "validate_manifest",
    "write_manifest",
]
