"""Experiment harness: one driver per paper table/figure.

Every artifact of the paper's evaluation maps to a function here (see
the experiment index in DESIGN.md):

==========  =====================================================
Paper        Regenerator
==========  =====================================================
Thm 1/2      :func:`repro.experiments.tables.theorem12_table`
Thm 3        :func:`repro.experiments.tables.theorem3_table`
Figure 6     :func:`repro.experiments.figures.figure6`
Figure 7     :func:`repro.experiments.figures.figure7`
Figure 8     :func:`repro.experiments.figures.figure8`
Figure 9     :func:`repro.experiments.figures.figure9`
Figure 10    :func:`repro.experiments.figures.figure10`
Table 1      :func:`repro.experiments.tables.table1`
Lemma 4      :func:`repro.experiments.tables.lemma4_table`
Lemma 5/6    :func:`repro.experiments.tables.lemma56_table`
==========  =====================================================

All drivers take a ``runs`` parameter (the paper uses 100) and a seed;
they return structured result objects with a ``render()`` ASCII view
and CSV export via :mod:`repro.experiments.report`.
"""

from repro.experiments.config import QualityConfig
from repro.experiments.runner import quality_experiment
from repro.experiments.figures import figure6, figure7, figure8, figure9, figure10
from repro.experiments.resilience import (
    RESILIENCE_SHAPE,
    ResilienceConfig,
    resilience_experiment,
)
from repro.experiments.tables import (
    lemma4_table,
    lemma56_table,
    table1,
    theorem12_table,
    theorem3_table,
)

__all__ = [
    "QualityConfig",
    "quality_experiment",
    "RESILIENCE_SHAPE",
    "ResilienceConfig",
    "resilience_experiment",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "table1",
    "theorem12_table",
    "theorem3_table",
    "lemma4_table",
    "lemma56_table",
]
