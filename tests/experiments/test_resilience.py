"""Tests for the crash-burst resilience experiment and its artifact."""

import hashlib
import json

import pytest

from repro.experiments.resilience import (
    RESILIENCE_SHAPE,
    ResilienceConfig,
    render_resilience,
    resilience_experiment,
)
from repro.simulation.serialize import check_document, load_document, write_document

#: sha256 of ``json.dumps(doc, sort_keys=True)`` of the fixture document
#: below without its ``backend`` key (the executing backend is run
#: metadata; every value is backend-independent).  A change here means
#: a number in the document moved.
GOLDEN_SHA256 = "827ddd77f14a215efc2d1978bc989a63e9169e01ea17c9e0040f917a8df15e1e"



def strict_loads(text):
    """``json.loads`` that refuses the non-JSON constants NaN/Infinity."""

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def small_config(**kw):
    defaults = dict(n=16, horizon=60.0, seed=0)
    defaults.update(kw)
    return ResilienceConfig(**defaults)


class TestValidator:
    def make_doc(self):
        report = {
            "band": 1.9, "pre_fault_ratio": 1.1, "spike_ratio": 3.0,
            "spike_max_mean": 4.0, "reentry_time": 1.0,
            "reentry_snapshots": 2, "final_ratio": 0.4,
        }
        run = {
            "report": dict(report),
            "counters": {
                "total_ops": 10, "dropped_ops": 1, "packets_migrated": 20,
                "retries": 2, "give_ups": 0, "fault_stats": None,
            },
            "series": {
                "times": [0.0, 1.0], "extreme_ratio": [1.0, 1.1],
                "max_mean": [1.0, 1.0],
            },
        }
        return {
            "schema": "repro/resilience", "version": 1, "band": 1.9,
            "config": {}, "plan": {},
            "faulted": run,
            "baseline": json.loads(json.dumps(run)),
        }

    def test_accepts_wellformed(self):
        assert check_document(self.make_doc(), RESILIENCE_SHAPE) == []

    def test_rejects_wrong_schema_tag(self):
        doc = self.make_doc()
        doc["schema"] = "something/else"
        assert any("repro/resilience" in p for p in check_document(doc, RESILIENCE_SHAPE))

    def test_rejects_missing_report_field(self):
        doc = self.make_doc()
        del doc["faulted"]["report"]["spike_ratio"]
        assert any("spike_ratio" in p for p in check_document(doc, RESILIENCE_SHAPE))

    def test_rejects_misaligned_series(self):
        doc = self.make_doc()
        doc["baseline"]["series"]["times"].append(2.0)
        assert any("unequal series" in p for p in check_document(doc, RESILIENCE_SHAPE))

    def test_rejects_non_int_counter(self):
        doc = self.make_doc()
        doc["faulted"]["counters"]["total_ops"] = 10.5
        assert any("total_ops" in p for p in check_document(doc, RESILIENCE_SHAPE))

    def test_accepts_null_undefined_ratios(self):
        doc = self.make_doc()
        for key in ("pre_fault_ratio", "spike_ratio", "spike_max_mean"):
            doc["faulted"]["report"][key] = None
        assert check_document(doc, RESILIENCE_SHAPE) == []

    def test_rejects_nan(self):
        doc = self.make_doc()
        doc["faulted"]["report"]["spike_ratio"] = float("nan")
        assert any("spike_ratio" in p for p in check_document(doc, RESILIENCE_SHAPE))


class TestUndefinedStatistics:
    """A horizon that ends before the burst starts is a valid run."""

    @pytest.fixture(scope="class")
    def doc(self):
        return resilience_experiment(small_config(horizon=20.0), backend="native")

    def test_burst_window_statistics_are_null(self, doc):
        report = doc["faulted"]["report"]
        assert report["spike_ratio"] is None
        assert report["spike_max_mean"] is None
        assert report["pre_fault_ratio"] is not None

    def test_written_document_is_strict_json(self, doc, tmp_path):
        path = write_document(tmp_path / "resilience.json", doc, RESILIENCE_SHAPE)
        assert check_document(strict_loads(path.read_text()), RESILIENCE_SHAPE) == []

    def test_render_prints_a_dash(self, doc):
        (row,) = [
            line.split() for line in render_resilience(doc).splitlines()
            if line.startswith("faulted")
        ]
        assert row[2:4] == ["-", "-"]   # spike rho, spike max/mean


@pytest.mark.tier2
class TestResilienceEndToEnd:
    @pytest.fixture(scope="class")
    def doc(self):
        return resilience_experiment(small_config())

    def test_document_schema_valid(self, doc):
        assert check_document(doc, RESILIENCE_SHAPE) == []

    def test_spike_leaves_band_and_recovers(self, doc):
        faulted = doc["faulted"]["report"]
        assert faulted["spike_ratio"] > doc["band"]
        assert faulted["reentry_time"] is not None
        assert faulted["final_ratio"] <= doc["band"]

    def test_baseline_stays_in_band(self, doc):
        baseline = doc["baseline"]["report"]
        assert baseline["spike_ratio"] <= doc["band"]
        assert doc["baseline"]["counters"]["fault_stats"] is None

    def test_fault_counters_recorded(self, doc):
        fs = doc["faulted"]["counters"]["fault_stats"]
        assert fs["crashes"] == len(doc["plan"]["crashes"]) > 0

    def test_deterministic(self, doc):
        again = resilience_experiment(small_config())
        assert again == doc

    def test_json_roundtrip(self, doc, tmp_path):
        path = write_document(tmp_path / "resilience.json", doc, RESILIENCE_SHAPE)
        assert load_document(path, RESILIENCE_SHAPE) == doc

    def test_golden_digest(self, doc):
        values = {k: v for k, v in doc.items() if k != "backend"}
        text = json.dumps(values, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256

    def test_render(self, doc):
        out = render_resilience(doc)
        assert "Theorem-4 band" in out
        assert "faulted" in out and "baseline" in out
