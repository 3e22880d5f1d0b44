"""Dynamics experiment: Theorem-4 degradation under churn/heterogeneity.

The paper's Theorem 4 promises that on a *static* network of
*identical* processors the normalised extreme load ratio

    ``rho(t) = max_i l_i(t) / (min_j l_j(t) + C)``

stays inside the band ``f^2 * delta/(delta+1-f)`` in steady state.
This experiment measures how gracefully the guarantee degrades as the
two assumptions are relaxed along three axes:

* **churn rate** — edge rewires plus node leave/join cycles, sampled
  by :meth:`repro.dynnet.churn.ChurnPlan.sample` at ``rate`` events
  per time unit;
* **topology** — the base interconnection network restricting partner
  selection to live neighbourhoods (complete graph = the analysed
  model, then progressively sparser networks);
* **heterogeneity skew** — log-normal per-processor speed spread (see
  :meth:`repro.dynnet.hetero.HeterogeneousProfile.skewed`), with the
  Theorem-4 statistic computed over *capacity-normalised* loads.

Per cell the study records the band occupancy (fraction of post-warmup
snapshots inside the band; ``null`` when the warmup reaches the
horizon), the worst normalised ratio, and per-churn-event recovery
times, all from :mod:`repro.metrics.band`.  Everything is deterministic
in the config seed (cell ``k`` derives its plan/profile/engine seeds
from ``cfg.seed * 100003 + k``); ``repro churn`` is the CLI wrapper and
``results/dynamics.json`` the canonical artifact (its contract is
:data:`DYNAMICS_SHAPE`, checked by
:func:`repro.simulation.serialize.check_document` and the ``churn``
leg of the ``smoke`` CI job).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.core.async_engine import STUDY_COUNTERS
from repro.metrics.band import band_occupancy, extreme_ratio, first_in_band
from repro.params import LBParams
from repro.simulation.serialize import NUMBER, Nullable, Shape, check_document
from repro.theory.bounds import theorem4_bound

__all__ = [
    "DYNAMICS_SHAPE",
    "DynamicsConfig",
    "TOPOLOGIES",
    "build_topology",
    "dynamics_experiment",
    "render_dynamics",
]

#: bump when the document layout changes incompatibly
DYNAMICS_SCHEMA_VERSION = 1


def _complete(n, seed):
    from repro.network import CompleteGraph

    return CompleteGraph(n)


def _ring(n, seed):
    from repro.network import Ring

    return Ring(n)


def _torus(n, seed):
    from repro.network import Torus2D

    return Torus2D(n)


def _hypercube(n, seed):
    from repro.network import Hypercube

    dim = n.bit_length() - 1
    if 1 << dim != n:
        raise ValueError(f"hypercube needs n a power of two, got {n}")
    return Hypercube(dim)


def _debruijn(n, seed):
    from repro.network import DeBruijn

    m = n.bit_length() - 1
    if 1 << m != n:
        raise ValueError(f"debruijn needs n a power of two, got {n}")
    return DeBruijn(m)


def _random_regular(n, seed):
    from repro.network import RandomRegular

    return RandomRegular(n, 4, seed=seed)


#: name -> builder(n, seed); every builder yields a connected network
#: on exactly n nodes (or raises when n does not fit the family)
TOPOLOGIES = {
    "complete": _complete,
    "ring": _ring,
    "torus": _torus,
    "hypercube": _hypercube,
    "debruijn": _debruijn,
    "random_regular": _random_regular,
}


def build_topology(name: str, n: int, *, seed: int = 0):
    """Build the named base topology on ``n`` nodes (see TOPOLOGIES)."""
    try:
        builder = TOPOLOGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown topology {name!r} "
            f"(known: {', '.join(sorted(TOPOLOGIES))})"
        ) from None
    return builder(n, seed)


@dataclass(frozen=True, slots=True)
class DynamicsConfig:
    """Knobs of the degradation sweep (times in model time units).

    The grid is the cross product ``topologies x churn_rates x skews``;
    each cell runs the asynchronous engine once on a freshly sampled
    churn plan and speed profile.  ``n`` must fit every requested
    topology family (powers of two cover complete/ring/hypercube/
    debruijn/random_regular; add ``torus`` only with a perfect-square
    ``n``).
    """

    n: int = 32
    horizon: float = 60.0
    topologies: tuple[str, ...] = ("complete", "ring", "hypercube")
    churn_rates: tuple[float, ...] = (0.0, 0.1, 0.3)
    skews: tuple[float, ...] = (0.0, 0.5)
    leave_frac: float = 0.125
    warmup: float = 10.0
    latency: float = 0.1
    snapshot_dt: float = 0.5
    f: float = 1.3
    delta: int = 2
    C: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        for name in self.topologies:
            if name not in TOPOLOGIES:
                raise ValueError(
                    f"unknown topology {name!r} "
                    f"(known: {', '.join(sorted(TOPOLOGIES))})"
                )
        if not self.topologies or not self.churn_rates or not self.skews:
            raise ValueError("topologies, churn_rates and skews must be non-empty")

    def params(self) -> LBParams:
        return LBParams(f=self.f, delta=self.delta, C=self.C)

    def cells(self) -> list[tuple[str, float, float]]:
        """The sweep grid in document order."""
        return [
            (topo, rate, skew)
            for topo in self.topologies
            for rate in self.churn_rates
            for skew in self.skews
        ]

    @classmethod
    def smoke(cls, *, seed: int = 0) -> "DynamicsConfig":
        """The small deterministic grid the CI smoke job's churn leg runs."""
        return cls(
            n=16,
            horizon=30.0,
            topologies=("complete", "ring", "hypercube"),
            churn_rates=(0.0, 0.2),
            skews=(0.0, 0.5),
            warmup=5.0,
            seed=seed,
        )


def _steady_rates(n: int):
    from repro.core.async_engine import ConstantRates

    # generation slightly outpacing consumption keeps the network busy
    # enough that the extreme ratio is signal, not empty-network noise
    return ConstantRates(np.full(n, 0.55), np.full(n, 0.45))


def _cell_task(args: tuple) -> dict:
    """One sweep cell (module-level so it pickles for process backends)."""
    cfg, topo_name, rate, skew, cell_seed = args
    from repro.core.async_engine import AsyncEngine
    from repro.dynnet import ChurnPlan, DynamicNetwork, HeterogeneousProfile

    topology = build_topology(topo_name, cfg.n, seed=cell_seed)
    plan = (
        ChurnPlan.sample(
            topology,
            rate=rate,
            horizon=cfg.horizon,
            seed=cell_seed,
            leave_frac=cfg.leave_frac,
        )
        if rate > 0
        else ChurnPlan()
    )
    profile = (
        HeterogeneousProfile.skewed(cfg.n, skew, seed=cell_seed)
        if skew > 0
        else HeterogeneousProfile.homogeneous(cfg.n)
    )
    net = DynamicNetwork(topology, plan=plan, profile=profile)
    engine = AsyncEngine(
        cfg.params(),
        _steady_rates(cfg.n),
        latency=cfg.latency,
        snapshot_dt=cfg.snapshot_dt,
        seed=cell_seed,
        dynnet=net,
    )
    res = engine.run(cfg.horizon)

    band = theorem4_bound(None, cfg.delta, cfg.f)
    rho = extreme_ratio(res.loads, cfg.C, profile.capacities)
    # per churn event: the delay until rho is next inside the band
    # (None: the run ends still out of band)
    recoveries = []
    for ev in net.schedule.events:
        k = first_in_band(res.times, rho, band, ev.time)
        recoveries.append(None if k is None else float(res.times[k] - ev.time))
    recovered = [r for r in recoveries if r is not None]
    return {
        "topology": topo_name,
        "churn": {
            "rate": float(rate),
            "events": len(net.schedule.events),
            "rewires": net.rewires_applied,
            "leaves": net.leaves_applied,
            "joins": net.joins_applied,
        },
        "skew": float(skew),
        "skew_ratio": profile.skew_ratio,
        "seed": int(cell_seed),
        "band_occupancy": band_occupancy(res.times, rho, band, since=cfg.warmup),
        "worst_ratio": float(rho.max()),
        "final_ratio": float(rho[-1]),
        "recovery": {
            "events": len(recoveries),
            "recovered": len(recovered),
            "mean_time": (
                float(np.mean(recovered)) if recovered else None
            ),
            "max_time": (
                float(np.max(recovered)) if recovered else None
            ),
        },
        "counters": res.counters(),
    }


def dynamics_experiment(
    cfg: DynamicsConfig | None = None,
    *,
    backend: str | None = None,
    jobs: int | None = None,
) -> dict:
    """Run the full degradation sweep; return the document.

    Cells are independent tasks executed through the selected batch
    backend (``backend=``/``jobs=``, defaulting to ``REPRO_BACKEND``/
    ``REPRO_JOBS`` — see ``docs/BACKENDS.md``); each is deterministic
    in its derived seed, so the document is bit-identical on every
    backend and every ``jobs`` setting.
    """
    from repro.simulation.parallel import get_client

    cfg = cfg or DynamicsConfig()
    grid = cfg.cells()
    tasks = [
        (cfg, topo, rate, skew, cfg.seed * 100003 + idx)
        for idx, (topo, rate, skew) in enumerate(grid)
    ]
    with get_client(backend, jobs=jobs) as client:
        cells = list(client.map_ordered(_cell_task, tasks, chunksize=1))
        used = client.used_backend
    doc = {
        "schema": "repro/dynamics",
        "version": DYNAMICS_SCHEMA_VERSION,
        "backend": used,
        "config": asdict(cfg),
        "band": theorem4_bound(None, cfg.delta, cfg.f),
        "cells": cells,
    }
    problems = check_document(doc, DYNAMICS_SHAPE)
    if problems:  # pragma: no cover - internal consistency guard
        raise RuntimeError(f"dynamics document malformed: {problems}")
    return doc


def render_dynamics(doc: dict) -> str:
    """ASCII degradation table of a dynamics document."""
    from repro.experiments.report import render_table

    cfg = doc["config"]
    rows = []
    for cell in doc["cells"]:
        rec = cell["recovery"]
        mean_rec = (
            f"{rec['mean_time']:.2f}" if rec["mean_time"] is not None else "-"
        )
        occ = cell["band_occupancy"]
        rows.append(
            [
                cell["topology"],
                f"{cell['churn']['rate']:g}",
                f"{cell['skew']:g}",
                "-" if occ is None else f"{occ:.2f}",
                f"{cell['worst_ratio']:.3f}",
                f"{rec['recovered']}/{rec['events']}",
                mean_rec,
            ]
        )
    table = render_table(
        [
            "topology", "churn", "skew", "occupancy", "worst rho",
            "recovered", "mean rec",
        ],
        rows,
    )
    head = (
        f"dynamics degradation sweep: n={cfg['n']}, horizon "
        f"{cfg['horizon']:g}, seed {cfg['seed']}, backend "
        f"{doc.get('backend', 'native')}\n"
        f"Theorem-4 band f^2*delta/(delta+1-f) = {doc['band']:.3f} "
        f"(occupancy = post-warmup fraction of snapshots inside it, "
        f"capacity-normalised)\n"
    )
    return f"{head}\n{table}"


def _grid_size(doc: dict) -> list[str]:
    """One cell per point of the config's sweep grid."""
    cfg, cells = doc.get("config"), doc.get("cells")
    if not isinstance(cfg, dict) or not isinstance(cells, list):
        return []
    expect = 1
    for axis in ("topologies", "churn_rates", "skews"):
        expect *= len(cfg.get(axis, ()))
    if expect and len(cells) != expect:
        return [
            f"doc.cells: expected {expect} cells for the config grid, "
            f"got {len(cells)}"
        ]
    return []


#: the ``repro/dynamics`` document contract
DYNAMICS_SHAPE = Shape(
    "repro/dynamics",
    {
        "band": NUMBER,
        "config": dict,
        "cells": [
            {
                "topology": str,
                "churn": {
                    "rate": NUMBER,
                    **dict.fromkeys(("events", "rewires", "leaves", "joins"), int),
                },
                "skew": NUMBER,
                "seed": int,
                "band_occupancy": Nullable(NUMBER),
                "worst_ratio": NUMBER,
                "final_ratio": NUMBER,
                "recovery": {
                    "events": int,
                    "recovered": int,
                    "mean_time": Nullable(NUMBER),
                    "max_time": Nullable(NUMBER),
                },
                "counters": dict.fromkeys(STUDY_COUNTERS, int),
            }
        ],
    },
    check=_grid_size,
)
