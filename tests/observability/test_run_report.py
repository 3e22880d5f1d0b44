"""Tests for run reports."""

import numpy as np
import pytest

from repro import LBParams
from repro.observability import (
    MonitorSuite,
    Tracer,
    build_report,
    sparkline,
    to_html,
)

PARAMS = LBParams(f=1.3, delta=2, C=4)


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_series_renders_flat(self):
        out = sparkline([3.0] * 10)
        assert len(out) == 10 and len(set(out)) == 1

    def test_resamples_to_width(self):
        out = sparkline(list(range(1000)), width=40)
        assert len(out) == 40

    def test_monotone_series_ends_at_peak(self):
        out = sparkline([0, 1, 2, 3, 4, 5, 6, 7, 8])
        assert out[-1] == "█" and out[0] != "█"


def observed_run(n=8, steps=80, seed=4):
    from repro.simulation.driver import run_simulation
    from repro.workload import Section7Workload

    tracer = Tracer()
    suite = MonitorSuite.standard(PARAMS, tracer=tracer)
    res = run_simulation(
        n, PARAMS, Section7Workload(n, steps, layout_rng=seed), steps,
        seed=seed, tracer=tracer, monitors=suite,
    )
    return res, tracer, suite


class TestBuildReport:
    @pytest.fixture(scope="class")
    def report(self):
        res, tracer, suite = observed_run()
        md = build_report(
            title="unit-test run",
            meta={"n": 8, "steps": 80, "seed": 4},
            monitors=suite,
            events=tracer.events,
            tracer=tracer,
            times=np.arange(len(res.loads), dtype=float),
            loads=res.loads,
        )
        return md

    def test_sections_present(self, report):
        for heading in (
            "# Run report: unit-test run",
            "## Monitor verdicts",
            "## Balancing-operation spans",
            "## Load timeline",
            "## Event stream",
        ):
            assert heading in report

    def test_clean_run_verdict_and_eviction_line(self, report):
        assert "**Verdict: all monitors OK.**" in report
        assert "No breaches" in report
        assert "0 evicted (complete trace)" in report

    def test_monitor_table_lists_standard_suite(self, report):
        for name in (
            "theorem4_band", "fixpoint", "variation", "conservation",
            "op_budget",
        ):
            assert f"`{name}`" in report

    def test_spans_and_waterfall(self, report):
        assert "worst span" in report.lower()
        assert "| completed |" in report

    def test_crash_bounds_annotation(self):
        res, tracer, suite = observed_run(steps=40)
        md = build_report(
            title="t", meta={}, monitors=suite,
            events=tracer.events, tracer=tracer,
            times=np.arange(len(res.loads), dtype=float), loads=res.loads,
            crash_bounds=(30.0, 45.0),
        )
        assert "crash regime: t ∈ [30, 45]" in md

    def test_eviction_counter_surfaces(self):
        tracer = Tracer(capacity=8)
        for k in range(20):
            tracer.emit("tick", t=k)
        suite = MonitorSuite.standard(PARAMS)
        suite.observe(0.0, np.array([1, 1, 1, 1], dtype=np.int64))
        md = build_report(
            title="t", meta={}, monitors=suite,
            events=tracer.events, tracer=tracer,
            times=[0.0, 1.0], loads=np.ones((2, 4)),
        )
        assert "**12 evicted** from the ring buffer (capacity 8)" in md


class TestToHtml:
    def test_self_contained_page(self):
        html = to_html("# Title\n\nbody & <stuff>", title="my <report>")
        assert html.startswith("<!DOCTYPE html>")
        assert "<title>my &lt;report&gt;</title>" in html
        assert "<h1>Title</h1>" in html
        assert "body &amp; &lt;stuff&gt;" in html
        assert "<style>" in html            # inline CSS, no external assets
        assert "http" not in html

    def test_fences_are_absorbed_into_pre(self):
        html = to_html("## S\n\n```\nascii art\n```")
        assert "```" not in html
        assert "ascii art" in html
