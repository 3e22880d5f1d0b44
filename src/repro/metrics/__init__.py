"""Measurement: multi-run aggregation, balance statistics, Table-1 data.

* :mod:`repro.metrics.collector` — aggregate per-tick load series over
  many runs into mean / min-envelope / max-envelope (figures 7-10);
* :mod:`repro.metrics.stats` — scalar balance measures: imbalance
  factor, expected-load ratio, empirical variation density;
* :mod:`repro.metrics.borrow_stats` — aggregate the engine's borrow
  counters over runs (Table 1);
* :mod:`repro.metrics.band` — the Theorem-4 statistic
  ``max l / (min l + C)`` and its band occupancy, re-entry and
  fault-recovery summaries.

Import from the submodules: the package itself loads nothing, so the
engines, which read :mod:`repro.metrics.band` on every snapshot, do not
pull in the rest of the measurement code.
"""
