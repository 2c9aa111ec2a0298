"""Experiment harness: one driver per paper table/figure.

Each module exposes ``run(...) -> ExperimentResult`` returning the rows /
series the paper reports, plus shared rendering.  The paper-figure scripts
(``benchmarks/``) wrap these drivers; ``python -m repro.harness.runall``
regenerates every artifact and the EXPERIMENTS.md comparison tables.
"""

from repro.harness.common import ExperimentResult, render_table
from repro.harness import (
    fig1,
    table1,
    exp1,
    exp2,
    exp3,
    exp4,
    exp5,
    exp6,
    exp7,
    exp8,
    exp9,
    exp10,
)

ALL_EXPERIMENTS = {
    "fig1": fig1,
    "table1": table1,
    "exp1": exp1,
    "exp2": exp2,
    "exp3": exp3,
    "exp4": exp4,
    "exp5": exp5,
    "exp6": exp6,
    "exp7": exp7,
    "exp8": exp8,
    "exp9": exp9,
    "exp10": exp10,
}

from repro.harness import claims

__all__ = ["ExperimentResult", "render_table", "ALL_EXPERIMENTS", "claims"]
