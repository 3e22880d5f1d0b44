"""Benchmark configuration.

Each benchmark regenerates one paper artifact (table or figure) and
writes the rendered output plus CSV series to ``results/``.  Timing is
taken with a single round (these are multi-second experiment drivers,
not microbenchmarks).

Scale: the paper uses 100 runs per experiment.  To keep the full bench
suite in the minutes range the default here is 10 runs (set
``REPRO_RUNS=100`` for the paper-exact scale — results scale smoothly,
only the envelopes tighten).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

import pytest

os.environ.setdefault("REPRO_RUNS", "10")

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: committed engine microbenchmark baseline (regenerate with
#: ``repro bench``; see docs/PERFORMANCE.md)
BENCH_ENGINE_JSON = RESULTS_DIR / "BENCH_engine.json"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save(results_dir: Path, name: str, text: str) -> None:
    """Persist a rendered artifact under results/."""
    (results_dir / f"{name}.txt").write_text(text + "\n")


def save_json(results_dir: Path, name: str, payload: Any) -> None:
    """Persist a machine-readable artifact under results/."""
    (results_dir / f"{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
