"""Self-test of the benchmark at toy size.

Run from the root of a checkout (about a minute)::

    python3 perfbench/selftest.py

For every workload it checks that a run prints every metric of
``BENCHMARK.json`` by name with its unit, that the default, held-out and
an unrecorded seed all pass the output check, that a perturbed output
(one load changed) is counted as failed operations, and that two traced
runs report identical per-layer call counts.  It also checks that every
per-layer metric has a recorded prediction in ``expected.json``, and
that the benchmark refuses to run in a directory holding only
``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import fnmatch
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

UNRECORDED_SEED = 5


def bench(workload: str, seed: int, *, trace: int = 0, perturb: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--toy"]
    if perturb:
        cmd.append("--perturb")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=180)
    assert proc.returncode == 0, f"{cmd} exited {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, spec: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"metric names/units differ: {set(got) ^ set(want)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def assert_ok(result: dict) -> None:
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1


def assert_failed(result: dict) -> None:
    assert not result["correct"], result
    assert result["failed"] == result["attempted"] >= 1, result


def check_predictions(bench_spec: dict) -> None:
    groups = run._load_expected()["layer_predictions"]
    for m in bench_spec["per_layer"]:
        hits = [g for g in groups if any(fnmatch.fnmatchcase(m["name"], p) for p in g["match"])]
        assert len(hits) == 1, f"{m['name']} matches {len(hits)} prediction groups"


def check_refuses_without_source(bench_spec_path: Path) -> None:
    bare = run.BUILD / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench_spec_path, bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", run.WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=bare, timeout=180,
    )
    assert proc.returncode != 0, "ran without the program's source"
    assert '"correct"' not in proc.stdout, "printed a result without the program's source"
    shutil.rmtree(bare)


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    bench_spec = json.loads(spec_path.read_text())
    check_predictions(bench_spec)
    for w in run.WORKLOADS:
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED, UNRECORDED_SEED):
            r = bench(w, seed)
            assert_ok(r)
            assert_metrics(r, bench_spec["end_to_end"])
            assert_failed(bench(w, seed, perturb=True))
        t1, t2 = bench(w, 0, trace=1), bench(w, 0, trace=1)
        for r in (t1, t2):
            assert_ok(r)
            assert_metrics(r, bench_spec["per_layer"])
        calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
                 for r in (t1, t2)]
        assert calls[0] == calls[1], "per-layer call counts differ between traced runs"
        print(f"{w}: ok")
    check_refuses_without_source(spec_path)
    print("bare checkout: refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
