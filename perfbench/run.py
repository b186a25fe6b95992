"""Campaign benchmark for homoforge: one command, four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload hitting --seed 0 --seconds 35 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the machine and the run. See
perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import os

# The workloads run jobs=1 in one process; one BLAS thread keeps the total
# at or below nproc and keeps BLAS from competing with the campaign thread.
# Set before numpy is imported, here and in every interpreter the run starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("hitting", "uncovered_rank", "shadow_p3", "torsion_scan")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0,
                    help="0 runs the acceptance-suite trial seeds (checked "
                         "against frozen rows); others run fresh trial seeds")
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def use_source_tree() -> bool:
    """Put src/ on sys.path; False when the checkout has no homoforge sources."""
    if not (SRC / "homoforge" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not use_source_tree():
        print(f"perfbench: no homoforge sources under {SRC}", file=sys.stderr)
        return 2
    import bench

    result, info = bench.measure(
        bench.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
