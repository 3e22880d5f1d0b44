"""Run reports: one traced run as a self-contained document.

:func:`build_report` renders one traced run — monitor verdicts
(:mod:`repro.observability.monitors`), the balancing-operation span
story (:mod:`repro.observability.spans`) with an ASCII waterfall of the
worst span, load-timeline sparklines, the per-type event counts
(including the tracer's eviction counter) and, when a profiler ran, the
hot-section table — into one markdown document (``repro report``, see
``docs/OBSERVABILITY.md``).  Each section has exactly one renderer:
``repro spans`` prints :func:`spans_section` and ``repro profile``
prints :func:`profiler_section`.  :func:`to_html` wraps a document into
a dependency-free HTML page (inline CSS, monospace body) suitable for
CI artifacts.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "sparkline",
    "build_report",
    "spans_section",
    "profiler_section",
    "to_html",
]

_SPARK_LEVELS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Unicode block sparkline, resampled to at most ``width`` chars."""
    xs = [float(v) for v in values]
    if not xs:
        return ""
    if len(xs) > width:
        # mean-pool into width buckets so spikes survive visually
        edges = np.linspace(0, len(xs), width + 1).astype(int)
        xs = [
            float(np.mean(xs[a:b])) if b > a else xs[min(a, len(xs) - 1)]
            for a, b in zip(edges[:-1], edges[1:])
        ]
    lo, hi = min(xs), max(xs)
    span = hi - lo
    if span <= 0:
        return _SPARK_LEVELS[1] * len(xs)
    out = []
    for v in xs:
        k = int((v - lo) / span * (len(_SPARK_LEVELS) - 1))
        out.append(_SPARK_LEVELS[max(1, k)])
    return "".join(out)


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    def fmt(v: object) -> str:
        if isinstance(v, float):
            return f"{v:.4g}"
        return str(v)

    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(fmt(v) for v in row) + " |")
    return "\n".join(lines)


def _monitor_section(monitors, crash_bounds) -> list[str]:
    verdict_rows = []
    for v in monitors.verdicts():
        bound = v.get("bound")
        extra = {
            k: val
            for k, val in v.items()
            if k not in ("monitor", "ok", "breaches", "samples", "bound")
        }
        detail = ", ".join(
            f"{k}={val:.4g}" if isinstance(val, float) else f"{k}={val}"
            for k, val in extra.items()
        )
        verdict_rows.append(
            [
                f"`{v['monitor']}`",
                "✅ ok" if v["ok"] else "❌ BREACH",
                v["breaches"],
                v["samples"],
                f"{bound:.4g}" if isinstance(bound, float) else "-",
                detail or "-",
            ]
        )
    lines = [
        "## Monitor verdicts",
        "",
        _md_table(
            ["monitor", "verdict", "breaches", "samples", "bound", "detail"],
            verdict_rows,
        ),
    ]
    if crash_bounds is not None:
        lo, hi = crash_bounds
        lines += [
            "",
            f"Fault plan crash regime: t ∈ [{lo:g}, {hi:g}] — breaches "
            "inside this window tell the injected story; breaches outside "
            "it are genuine anomalies.",
        ]
    if monitors.breaches:
        lines += ["", "Breach log:", ""]
        for b in monitors.breaches:
            procs = f" procs={list(b.procs)}" if b.procs else ""
            lines.append(
                f"- **{b.monitor}** [{b.severity}] at t={b.t:g}: "
                f"value {b.value:.4g} vs bound {b.bound:.4g}{procs}"
            )
        for r in monitors.recoveries:
            lines.append(
                f"- *{r.monitor}* recovered at t={r.t:g}: {r.value:.4g} back "
                f"inside {r.bound:.4g} after {r.ticks_out} snapshots out"
            )
    else:
        lines += ["", "No breaches: every monitored bound held for the whole run."]
    return lines


def spans_section(spans) -> list[str]:
    """The span outcome table, the five worst spans and the worst
    span's waterfall (ranked by :func:`~repro.observability.spans.rank_spans`)."""
    from collections import Counter

    from repro.observability.spans import rank_spans, render_waterfall

    lines = ["## Balancing-operation spans", ""]
    if not spans:
        lines.append("(no spans recorded)")
        return lines
    statuses = Counter(s.status or "open" for s in spans)
    lines.append(
        _md_table(
            ["outcome", "spans"],
            [[k, v] for k, v in sorted(statuses.items())],
        )
    )
    ranked = rank_spans(spans)
    lines += [
        "",
        _md_table(
            ["span", "op", "proc", "start", "duration", "status", "steps",
             "migrated"],
            [
                [
                    s.span, s.op, s.proc, f"{s.start:g}",
                    f"{s.duration:g}" if s.duration is not None else "-",
                    s.status or "open", len(s.points), s.migrated,
                ]
                for s in ranked[:5]
            ],
        ),
        "",
        "Worst span (longest, then most event-ful):",
        "",
        "```",
        render_waterfall(ranked[0]),
        "```",
    ]
    return lines


def _timeline_section(times, loads) -> list[str]:
    loads = np.asarray(loads, dtype=float)
    series = [
        ("mean load", loads.mean(axis=1)),
        ("max load", loads.max(axis=1)),
        ("min load", loads.min(axis=1)),
        ("spread (max−min)", loads.max(axis=1) - loads.min(axis=1)),
    ]
    t0, t1 = float(times[0]), float(times[-1])
    lines = [
        "## Load timeline",
        "",
        f"{loads.shape[0]} snapshots over t ∈ [{t0:g}, {t1:g}], "
        f"n = {loads.shape[1]} processors.",
        "",
        "```",
    ]
    label_w = max(len(name) for name, _ in series)
    for name, ys in series:
        lines.append(
            f"{name:<{label_w}}  {sparkline(ys)}  "
            f"[{float(ys.min()):g} … {float(ys.max()):g}]"
        )
    lines.append("```")
    return lines


def _events_section(events, tracer) -> list[str]:
    from collections import Counter

    counts = Counter(ev.get("type", "?") for ev in events)
    lines = [
        "## Event stream",
        "",
        _md_table(
            ["event", "count"],
            [[f"`{k}`", v] for k, v in sorted(counts.items())],
        ),
        "",
        f"{sum(counts.values())} events recorded"
        + (
            f"; **{tracer.dropped} evicted** from the ring buffer "
            f"(capacity {tracer.capacity}) — earliest events are missing"
            if getattr(tracer, "dropped", 0)
            else "; 0 evicted (complete trace)"
        )
        + ".",
    ]
    return lines


def profiler_section(profiler) -> list[str]:
    """The hot-section table (empty when nothing was timed)."""
    rows = profiler.summary()
    if not rows:
        return []
    return [
        "## Profiler hot sections",
        "",
        _md_table(
            ["section", "calls", "total ms", "% of total", "mean µs",
             "min µs", "max µs"],
            [
                [f"`{name}`", calls, f"{total:.2f}", f"{share:.1f}",
                 f"{mean:.1f}", f"{lo:.1f}", f"{hi:.1f}"]
                for name, calls, total, share, mean, lo, hi in rows
            ],
        ),
    ]


def build_report(
    *,
    title: str,
    meta: Mapping[str, object],
    monitors,
    events: Sequence[Mapping],
    tracer,
    times: Sequence[float],
    loads,
    profiler=None,
    crash_bounds: tuple[float, float] | None = None,
) -> str:
    """Render one traced run as a self-contained markdown document.

    Parameters mirror what a monitored, traced run leaves behind:
    the :class:`~repro.observability.monitors.MonitorSuite`, the events
    (the spans section derives its spans from them with
    :func:`~repro.observability.spans.spans_from_trace`), the tracer
    (for its eviction counter), the snapshot timeline, and optionally a
    profiler and the fault plan's crash bounds
    (:meth:`~repro.faults.injector.FaultInjector.crash_bounds`).
    """
    from repro.observability.spans import spans_from_trace

    ok = monitors.ok()
    lines = [
        f"# Run report: {title}",
        "",
        ("**Verdict: all monitors OK.**" if ok
         else f"**Verdict: {len(monitors.breaches)} monitor breach(es)"
              " — see the breach log below.**"),
        "",
        _md_table(["key", "value"], [[k, v] for k, v in meta.items()]),
        "",
    ]
    lines += _monitor_section(monitors, crash_bounds)
    lines.append("")
    lines += spans_section(spans_from_trace(events))
    lines.append("")
    lines += _timeline_section(times, loads)
    lines.append("")
    lines += _events_section(events, tracer)
    prof = profiler_section(profiler) if profiler is not None else []
    if prof:
        lines.append("")
        lines += prof
    lines.append("")
    return "\n".join(lines)


def to_html(markdown: str, *, title: str = "repro run report") -> str:
    """Wrap a markdown report into one dependency-free HTML page.

    Headings become ``<h1>``/``<h2>``; everything else stays monospace
    preformatted text (the report's tables and waterfalls are ASCII by
    construction), so the file renders identically everywhere with no
    external assets — exactly what a CI artifact wants.
    """

    def esc(s: str) -> str:
        return (
            s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        )

    chunks: list[str] = []
    pre: list[str] = []

    def flush() -> None:
        if pre:
            chunks.append("<pre>" + esc("\n".join(pre)) + "</pre>")
            pre.clear()

    for line in markdown.splitlines():
        if line.startswith("# "):
            flush()
            chunks.append(f"<h1>{esc(line[2:])}</h1>")
        elif line.startswith("## "):
            flush()
            chunks.append(f"<h2>{esc(line[3:])}</h2>")
        elif line.strip() == "```":
            continue  # the whole body is preformatted anyway
        else:
            pre.append(line)
    flush()
    body = "\n".join(chunks)
    return (
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n"
        f"<title>{esc(title)}</title>\n"
        "<style>\n"
        "body{font-family:monospace;max-width:72rem;margin:2rem auto;"
        "padding:0 1rem;background:#fdfdfd;color:#222}\n"
        "h1,h2{font-family:sans-serif;border-bottom:1px solid #ccc}\n"
        "pre{white-space:pre-wrap;line-height:1.35}\n"
        "</style></head><body>\n"
        f"{body}\n</body></html>\n"
    )
