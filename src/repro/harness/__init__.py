"""Experiment harness: the full sweep + every table/figure renderer.

Regenerate the paper's whole evaluation::

    from repro import harness

    study = harness.run_study()
    print(harness.table3(study).render())
    print(harness.render_fig4(study))
"""

from repro.harness.ascii_plot import AsciiPlot, correlation_ascii, roofline_ascii
from repro.harness.experiments import (
    CHECKPOINT_EVERY,
    STENCIL_NAMES,
    ExperimentConfig,
    FailedPoint,
    StudyResults,
    cached_study,
    clear_study_cache,
    config_from_dict,
    iter_results,
    resolve_study,
    run_study,
)
from repro.harness.figures import (
    RooflinePanel,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    render_correlation,
    render_fig4,
    render_fig7,
)
from repro.harness.reporting import (
    FIELD_TYPES,
    coerce_row,
    result_row,
    summary,
    to_csv,
    write_csv,
)
from repro.harness.serialization import (
    CACHE_DIR_ENV,
    SCHEMA_VERSION,
    clear_study_checkpoint,
    compare_rows,
    default_cache_dir,
    dump_study,
    load_csv_rows,
    load_rows,
    load_study_cache,
    load_study_checkpoint,
    save_study_cache,
    save_study_checkpoint,
    study_cache_key,
    study_cache_path,
    study_to_dict,
)
from repro.harness.tables import (
    PortabilityTable,
    render_table2,
    render_table4,
    table2,
    table3,
    table4,
    table5,
)

__all__ = [
    "AsciiPlot",
    "CACHE_DIR_ENV",
    "CHECKPOINT_EVERY",
    "ExperimentConfig",
    "FIELD_TYPES",
    "FailedPoint",
    "PortabilityTable",
    "RooflinePanel",
    "SCHEMA_VERSION",
    "STENCIL_NAMES",
    "StudyResults",
    "cached_study",
    "clear_study_cache",
    "clear_study_checkpoint",
    "coerce_row",
    "config_from_dict",
    "load_csv_rows",
    "load_study_checkpoint",
    "save_study_checkpoint",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "iter_results",
    "render_correlation",
    "render_fig4",
    "render_fig7",
    "compare_rows",
    "correlation_ascii",
    "default_cache_dir",
    "dump_study",
    "load_rows",
    "load_study_cache",
    "save_study_cache",
    "study_cache_key",
    "study_cache_path",
    "render_table2",
    "render_table4",
    "resolve_study",
    "result_row",
    "roofline_ascii",
    "run_study",
    "study_to_dict",
    "summary",
    "table2",
    "table3",
    "table4",
    "table5",
    "to_csv",
    "write_csv",
]
