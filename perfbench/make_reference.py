"""Record the frozen reference rows that run.py compares its output with.

    python3 perfbench/make_reference.py [workload ...]

Runs each workload's campaign over its first `reference_trials` seeds from
its --seed 0 trial seed base and stores the CSV artifacts under
perfbench/reference/. Rerun only when an output change is intended; the
rows pin the answers of the code they were recorded from.
"""

from __future__ import annotations

import sys

import run


def main(names) -> int:
    if not run.use_source_tree():
        print(f"perfbench: no homoforge sources under {run.SRC}", file=sys.stderr)
        return 2
    import bench
    from checks import REFERENCE_DIR
    from homoforge.experiments import run_campaign

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or bench.WORKLOADS:
        w = bench.WORKLOADS[name]
        out = REFERENCE_DIR / w.name
        run_campaign(w.config(w.seed_base, w.reference_trials, str(out)))
        out.with_suffix(".json").unlink()
        print(f"{w.name}: {w.reference_trials} rows from seed {w.seed_base}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
