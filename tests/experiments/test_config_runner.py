"""Tests for experiment configuration and the quality runner."""

import numpy as np
import pytest

from repro.experiments.config import QualityConfig, default_runs
from repro.experiments.figures import figure7
from repro.experiments.runner import quality_experiment
from repro.experiments.scaling import scaling_experiment
from repro.experiments.sensitivity import sensitivity_sweep
from repro.experiments.tables import lemma56_table, table1


class TestDefaultRuns:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS", "100")
        assert default_runs() == 100

    def test_capped_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUNS", raising=False)
        assert default_runs(100) <= 25

    def test_minimum_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS", "0")
        assert default_runs() == 1


class TestQualityConfig:
    def test_paper_defaults(self):
        cfg = QualityConfig()
        assert cfg.n == 64
        assert cfg.steps == 500
        assert cfg.g_range == (0.1, 0.9)
        assert cfg.c_range == (0.1, 0.7)
        assert cfg.len_range == (150, 400)
        assert cfg.snapshot_ticks == (50, 200, 400)

    def test_params_derived(self):
        cfg = QualityConfig(f=1.8, delta=4, C=8)
        p = cfg.params
        assert p.f == 1.8 and p.delta == 4 and p.C == 8

    def test_with_(self):
        cfg = QualityConfig().with_(C=16)
        assert cfg.C == 16

    @pytest.mark.parametrize("runs", [0, -2])
    def test_runs_below_one_rejected(self, runs):
        with pytest.raises(ValueError, match="runs must be >= 1"):
            QualityConfig(runs=runs)

    @pytest.mark.parametrize("build", [table1, figure7, sensitivity_sweep])
    def test_zero_runs_is_not_the_default(self, build, monkeypatch):
        # an explicit 0 must reach QualityConfig, not stand for "not given"
        monkeypatch.setenv("REPRO_RUNS", "1")
        with pytest.raises(ValueError, match="runs must be >= 1"):
            build(runs=0)

    @pytest.mark.parametrize("runs", [0, -2])
    @pytest.mark.parametrize(
        "build",
        [
            lemma56_table,
            lambda runs: scaling_experiment(ns=(8,), runs=runs, steps=10),
            # every grid point outside the provable domain: no
            # QualityConfig is ever built
            lambda runs: sensitivity_sweep(fs=(3.0,), deltas=(1,), runs=runs),
        ],
        ids=["lemma56_table", "scaling_experiment", "sensitivity_sweep"],
    )
    def test_drivers_without_a_config_reject_runs_below_one(self, build, runs):
        with pytest.raises(ValueError, match="runs must be >= 1"):
            build(runs=runs)


class TestQualityExperiment:
    @pytest.fixture(scope="class")
    def small_result(self):
        cfg = QualityConfig(
            n=16, steps=120, runs=4, seed=1, snapshot_ticks=(50, 100)
        )
        return quality_experiment(cfg)

    def test_envelope_shape(self, small_result):
        env = small_result.envelope
        assert env.mean.shape == (121,)
        assert env.runs == 4
        assert (env.min <= env.max).all()

    def test_snapshots_present(self, small_result):
        assert set(small_result.snapshots) == {50, 100}
        snap = small_result.snapshots[50]
        assert snap["mean"].shape == (16,)
        assert (snap["min"] <= snap["max"]).all()

    def test_counters_per_run(self, small_result):
        assert len(small_result.counters) == 4

    def test_ops_positive(self, small_result):
        assert small_result.mean_ops > 0

    def test_reproducible(self):
        cfg = QualityConfig(n=8, steps=50, runs=2, seed=3, snapshot_ticks=(25,))
        a = quality_experiment(cfg)
        b = quality_experiment(cfg)
        assert np.array_equal(a.envelope.mean, b.envelope.mean)
        assert a.mean_ops == b.mean_ops

    def test_balanced_quality_per_run(self):
        """Within a single run the end-state max/mean stays near 1 —
        the headline claim.  (The envelope across runs is wider because
        each run draws its own random workload volume.)"""
        from repro import LBParams, run_simulation
        from repro.workload import Section7Workload

        res = run_simulation(
            16,
            LBParams(f=1.1, delta=2, C=4),
            Section7Workload(16, 120, layout_rng=5),
            steps=120,
            seed=5,
        )
        final = res.loads[-1]
        assert final.max() <= 1.4 * final.mean() + 3
