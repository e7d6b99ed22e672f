"""Evaluation harness regenerating every table and figure of the paper."""

from repro.eval.experiments import (
    TABLE1_PS,
    TABLE2_NS,
    TABLE2_PS,
    AblationResult,
    Table1Row,
    Table2Cell,
    ablation_equal_c,
    ablation_full_gauss,
    ablation_instantiation,
    ablation_sync_comm,
    ablation_topology,
    figure1,
    table1,
    table2,
)
from repro.eval.figures import ascii_plot, format_figure1, series_csv
from repro.eval.harness import (
    ExperimentResult,
    fits_paper_memory,
    run_gauss,
    run_matmul,
    run_shpaths,
)
from repro.eval.tables import format_ablation, format_table1, format_table2
from repro.eval.trace_report import CostBreakdown, breakdown, format_breakdowns

__all__ = [
    "table1",
    "table2",
    "figure1",
    "Table1Row",
    "Table2Cell",
    "AblationResult",
    "ablation_equal_c",
    "ablation_full_gauss",
    "ablation_instantiation",
    "ablation_topology",
    "ablation_sync_comm",
    "breakdown",
    "CostBreakdown",
    "format_breakdowns",
    "TABLE1_PS",
    "TABLE2_PS",
    "TABLE2_NS",
    "run_shpaths",
    "run_gauss",
    "run_matmul",
    "fits_paper_memory",
    "ExperimentResult",
    "format_table1",
    "format_table2",
    "format_ablation",
    "format_figure1",
    "ascii_plot",
    "series_csv",
]
