"""Evaluation harness: regenerates every table/figure and prose claim."""

from .claims import Claim, claims_by_name, headline_claims
from .experiments import (
    Figure4Block,
    Figure5Row,
    Figure6Row,
    Table1Row,
    Table2Row,
    figure4,
    figure5,
    figure6,
    table1,
    table2,
    variation_study,
)
from .regression import GOLDEN_CHECKS, run_regressions
from .summary import reproduction_summary
from .report import (
    format_table,
    render_all,
    render_claims,
    render_figure4,
    render_figure5,
    render_figure6,
    render_table1,
    render_table2,
    render_variation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
