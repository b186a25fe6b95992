"""Self-test of the benchmark, at the smallest sizes, in a few seconds.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is printed with a unit and a
well-formed name, that the traced run separates the layers (no F_p inserts
on uncovered_rank, no Smith forms on shadow_p3, per-trial self times within
the trial's wall time), that a perturbed reference row or invariant is
rejected, and that the benchmark refuses to run without the sources.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMALL_N = {"hitting": 8, "uncovered_rank": 8, "shadow_p3": 8, "torsion_scan": 6}


def check(cond: bool, what: str) -> None:
    if not cond:
        print(f"selftest FAIL: {what}")
        sys.exit(1)


def check_metrics(metrics: dict, names: list[str], where: str) -> None:
    check(set(metrics) == set(names),
          f"{where}: printed {sorted(metrics)}, BENCHMARK.json names {sorted(names)}")
    for name, m in metrics.items():
        check(NAME.fullmatch(name) is not None, f"{where}: bad metric name {name!r}")
        check(isinstance(m.get("unit"), str) and m["unit"] != "",
              f"{where}: {name} has no unit")
        check(isinstance(m.get("value"), (int, float)), f"{where}: {name} has no value")


def small_runs(spec: dict) -> None:
    import bench
    import micro

    bench.SETUP_REPEATS = 1
    micro.PREFIX_N, micro.PREFIX_FACES, micro.SNF_N = 8, 40, 8
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    check({w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS)
          and sorted(bench.WORKLOADS) == sorted(run.WORKLOAD_NAMES),
          "BENCHMARK.json workloads, bench.WORKLOADS and run.WORKLOAD_NAMES differ")
    for name, w in bench.WORKLOADS.items():
        small = replace(w, n=SMALL_N[name])
        # seed 1: fresh trial seeds, so the invariants are checked
        plain, _ = bench.measure(small, 1, 0.2, trace=False)
        traced, info = bench.measure(small, 1, 0.2, trace=True)
        for mode, res in (("untraced", plain), ("traced", traced)):
            check(res["correct"] and res["attempted"] >= 1,
                  f"{name} {mode}: {res['failed']} of {res['attempted']} trials failed")
        check_metrics(plain["metrics"], end_to_end, f"{name} untraced")
        check_metrics(traced["metrics"], per_layer, f"{name} traced")
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        check(layer["experiments.trial.count"] >= 1, f"{name}: no traced trial")
        check(info["self_time_violations"] == 0,
              f"{name}: summed self times exceed a trial's wall time")
        if name == "uncovered_rank":
            check(layer["exact_linalg.echelon.inserts"] == 0,
                  "uncovered_rank made F_p inserts")
        if name == "shadow_p3":
            check(layer["exact_linalg.snf.calls"] == 0, "shadow_p3 ran Smith forms")
        print(f"selftest ok: {name} at n={small.n}")


def perturbed_references() -> None:
    import bench
    import checks
    from homoforge.experiments import run_campaign

    with tempfile.TemporaryDirectory(dir=bench.OUT_DIR) as tmp:
        for name in ("hitting", "torsion_scan"):
            w = bench.WORKLOADS[name]
            ref = checks.load_reference(w)
            cfg = w.config(w.seed_base, 1, str(Path(tmp) / name))
            run_campaign(cfg)
            check(checks.check_batch(w, cfg, ref) == 0, f"{name}: reference mismatch")
            if ref.trace is None:
                fields = ref.rows[w.seed_base].split(",")
                fields[2] = str(int(fields[2]) + 1)  # h_delta
                ref.rows[w.seed_base] = ",".join(fields)
            else:
                lines = ref.trace[w.seed_base]
                lines[-1] = lines[-1] + "1"
            check(checks.check_batch(w, cfg, ref) == 1,
                  f"{name}: perturbed reference row accepted")
    w = bench.WORKLOADS["hitting"]
    row = {"n": "25", "seed": "1", "h_delta": "500", "h_f2": "499", "h_z": "500",
           "equal_flag": "1", "torsion_at_h_delta": ""}
    check(not checks.INVARIANTS[w.kind](w, row, None), "h_delta > h_f2 accepted")
    row["h_f2"] = "500"
    check(checks.INVARIANTS[w.kind](w, row, None), "valid hitting row rejected")
    print("selftest ok: perturbed reference rows and invariants are rejected")


def bare_checkout(spec_path: Path) -> None:
    """Only BENCHMARK.json and perfbench/: the run must fail and print nothing."""
    import bench

    with tempfile.TemporaryDirectory(dir=bench.OUT_DIR) as tmp:
        shutil.copy(spec_path, tmp)
        shutil.copytree(Path(__file__).parent, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        res = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "hitting", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60,
        )
    check(res.returncode != 0 and res.stdout == "",
          f"bare checkout: exit {res.returncode}, stdout {res.stdout!r}")
    print("selftest ok: a checkout without sources exits nonzero, printing nothing")


def main() -> int:
    check(run.use_source_tree(), "no homoforge sources")
    spec_path = run.ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    small_runs(spec)
    perturbed_references()
    bare_checkout(spec_path)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
