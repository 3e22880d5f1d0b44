"""Tests for the dynamics degradation sweep and its artifact."""

import hashlib
import json

import pytest

from repro.experiments.dynamics import (
    DYNAMICS_SHAPE,
    TOPOLOGIES,
    DynamicsConfig,
    build_topology,
    dynamics_experiment,
    render_dynamics,
)
from repro.simulation.serialize import check_document, load_document, write_document

#: sha256 of ``json.dumps(doc, sort_keys=True)`` of the smoke document
#: without its ``backend`` key; a change means a number moved.
GOLDEN_SHA256 = "55afcb38b12e4f486e5071ee6e17b34a3817ef65c8abec29f2637b27af5ac94e"



def reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


class TestConfig:
    def test_rejects_unknown_topology(self):
        with pytest.raises(ValueError, match="unknown topology"):
            DynamicsConfig(topologies=("complete", "bogus"))

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError, match="non-empty"):
            DynamicsConfig(churn_rates=())

    def test_grid_is_cross_product_in_document_order(self):
        cfg = DynamicsConfig(
            topologies=("ring", "complete"),
            churn_rates=(0.0, 0.1),
            skews=(0.5,),
        )
        assert cfg.cells() == [
            ("ring", 0.0, 0.5), ("ring", 0.1, 0.5),
            ("complete", 0.0, 0.5), ("complete", 0.1, 0.5),
        ]

    def test_smoke_covers_three_topologies(self):
        cfg = DynamicsConfig.smoke()
        assert len(cfg.topologies) >= 3


class TestBuildTopology:
    def test_every_registered_family_builds(self):
        for name in TOPOLOGIES:
            g = build_topology(name, 16, seed=0)
            assert g.n == 16
            assert g.is_connected()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown topology"):
            build_topology("bogus", 16)

    def test_power_of_two_required_where_it_matters(self):
        with pytest.raises(ValueError):
            build_topology("hypercube", 12)


class TestValidator:
    def make_doc(self):
        cell = {
            "topology": "ring",
            "churn": {"rate": 0.1, "events": 3, "rewires": 1,
                      "leaves": 1, "joins": 1},
            "skew": 0.0, "skew_ratio": 1.0, "seed": 0,
            "band_occupancy": 0.9, "worst_ratio": 2.0, "final_ratio": 1.0,
            "recovery": {"events": 3, "recovered": 3,
                         "mean_time": 0.4, "max_time": 1.0},
            "counters": {"total_ops": 10, "dropped_ops": 0,
                         "packets_migrated": 5, "retries": 0, "give_ups": 0},
        }
        return {
            "schema": "repro/dynamics", "version": 1, "band": 1.9,
            "config": {"topologies": ["ring"], "churn_rates": [0.1],
                       "skews": [0.0]},
            "cells": [json.loads(json.dumps(cell))],
        }

    def test_accepts_wellformed(self):
        assert check_document(self.make_doc(), DYNAMICS_SHAPE) == []

    def test_rejects_wrong_schema_tag(self):
        doc = self.make_doc()
        doc["schema"] = "something/else"
        assert any("repro/dynamics" in p for p in check_document(doc, DYNAMICS_SHAPE))

    def test_rejects_grid_size_mismatch(self):
        doc = self.make_doc()
        doc["config"]["churn_rates"] = [0.1, 0.3]
        assert any("expected 2 cells" in p for p in check_document(doc, DYNAMICS_SHAPE))

    def test_rejects_missing_cell_field(self):
        doc = self.make_doc()
        del doc["cells"][0]["band_occupancy"]
        assert any("band_occupancy" in p for p in check_document(doc, DYNAMICS_SHAPE))

    def test_rejects_non_int_counter(self):
        doc = self.make_doc()
        doc["cells"][0]["counters"]["retries"] = 1.5
        assert any("retries" in p for p in check_document(doc, DYNAMICS_SHAPE))

    def test_rejects_missing_recovery_time(self):
        doc = self.make_doc()
        del doc["cells"][0]["recovery"]["mean_time"]
        assert any("mean_time" in p for p in check_document(doc, DYNAMICS_SHAPE))

    def test_accepts_null_occupancy(self):
        doc = self.make_doc()
        doc["cells"][0]["band_occupancy"] = None
        assert check_document(doc, DYNAMICS_SHAPE) == []

    def test_rejects_nan_occupancy(self):
        doc = self.make_doc()
        doc["cells"][0]["band_occupancy"] = float("nan")
        assert any("band_occupancy" in p for p in check_document(doc, DYNAMICS_SHAPE))


class TestWarmupPastHorizon:
    """A warmup at or past the horizon leaves occupancy undefined."""

    @pytest.fixture(scope="class")
    def doc(self):
        cfg = DynamicsConfig(
            n=16, horizon=4.0, topologies=("complete",), churn_rates=(0.0,),
            skews=(0.0,),
        )
        return dynamics_experiment(cfg, backend="native")

    def test_occupancy_is_null(self, doc):
        assert doc["cells"][0]["band_occupancy"] is None

    def test_written_document_is_strict_json(self, doc, tmp_path):
        path = write_document(tmp_path / "dynamics.json", doc, DYNAMICS_SHAPE)
        text = path.read_text()
        parsed = json.loads(text, parse_constant=reject_constant)
        assert check_document(parsed, DYNAMICS_SHAPE) == []

    def test_render_prints_a_dash(self, doc):
        row = render_dynamics(doc).splitlines()[-1].split()
        assert row[:4] == ["complete", "0", "0", "-"]


@pytest.mark.tier2
class TestDynamicsEndToEnd:
    @pytest.fixture(scope="class")
    def doc(self):
        return dynamics_experiment(DynamicsConfig.smoke(), backend="native")

    def test_document_schema_valid(self, doc):
        assert check_document(doc, DYNAMICS_SHAPE) == []

    def test_covers_at_least_three_topologies(self, doc):
        assert len({c["topology"] for c in doc["cells"]}) >= 3

    def test_zero_churn_cells_have_no_events(self, doc):
        for cell in doc["cells"]:
            if cell["churn"]["rate"] == 0.0:
                assert cell["churn"]["events"] == 0
            if cell["skew"] == 0.0:
                assert cell["skew_ratio"] == 1.0
            else:
                assert cell["skew_ratio"] > 1.0

    def test_deterministic(self, doc):
        again = dynamics_experiment(DynamicsConfig.smoke(), backend="native")
        assert again == doc

    def test_seed_changes_document(self, doc):
        other = dynamics_experiment(
            DynamicsConfig.smoke(seed=1), backend="native"
        )
        assert other["cells"] != doc["cells"]

    def test_json_roundtrip(self, doc, tmp_path):
        path = write_document(tmp_path / "dynamics.json", doc, DYNAMICS_SHAPE)
        assert load_document(path, DYNAMICS_SHAPE)["cells"] == doc["cells"]

    def test_golden_digest(self, doc):
        values = {k: v for k, v in doc.items() if k != "backend"}
        text = json.dumps(values, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256

    def test_render(self, doc):
        out = render_dynamics(doc)
        assert "Theorem-4 band" in out
        assert "occupancy" in out
        for name in ("complete", "ring", "hypercube"):
            assert name in out
