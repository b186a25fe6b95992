"""Workload table, timed campaign batches, set-up time and machine facts.

Every trial goes through homoforge.experiments.run_campaign with jobs=1 and
an out= prefix in a temporary directory, so the streamed CSV and JSON
writing is timed along with the trials. Requires src/ on sys.path (see
run.use_source_tree).
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import micro
import tracing
from homoforge.experiments import CampaignConfig, run_campaign

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# Trial seeds of run --seed s start at seed_base + SEED_STRIDE * s, so s = 0
# is the acceptance-suite block and distinct s never share a trial seed.
SEED_STRIDE = 100_000
SETUP_REPEATS = 9
# Share of a traced run's seconds given to the micro-benchmarks.
MICRO_SHARE = 0.4
# Median seconds of SpeedProbe() on the baseline machine when it was quiet.
PROBE_REF_S = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    n: int
    seed_base: int  # trial seed base of --seed 0
    batch: int  # trials per run_campaign call, about 1-2 s of work
    reference_trials: int  # frozen rows recorded from seed_base on
    options: dict = field(default_factory=dict)  # other CampaignConfig fields

    def config(self, seed_base: int, trials: int, out: str | None) -> CampaignConfig:
        return CampaignConfig(
            kind=self.kind, n=self.n, trials=trials, seed_base=seed_base,
            jobs=1, out=out, **self.options,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hitting", "hitting_time", 25, 1025, 3, 60),
        Workload("uncovered_rank", "uncovered_rank", 30, 7000, 1, 25,
                 {"p_scale": 2.0}),
        Workload("shadow_p3", "shadow_growth", 30, 3000, 4, 80, {"primes": (3,)}),
        Workload("torsion_scan", "torsion_scan", 12, 4000, 3, 50,
                 {"d": 2, "stride": 5}),
    )
}


@dataclass
class Batch:
    wall_s: float
    trials: int
    failed: int


def run_batch(w: Workload, seed_base: int, workdir: Path, refs, tracer=None) -> Batch:
    """One timed run_campaign call of w.batch trials, then its output check."""
    out = workdir / f"{w.name}_{seed_base}{'_traced' if tracer else ''}"
    cfg = w.config(seed_base, w.batch, str(out))
    raised = False
    t0 = time.perf_counter()
    try:
        if tracer is None:
            run_campaign(cfg)
        else:
            with tracer.installed(), tracer.span("experiments.campaign"):
                run_campaign(cfg)
    except Exception as exc:  # a failed trial is counted, and the run goes on
        print(f"perfbench: campaign at seed {seed_base} raised {exc!r}",
              file=sys.stderr)
        raised = True
    wall = time.perf_counter() - t0
    failed = w.batch if raised else checks.check_batch(w, cfg, refs)
    return Batch(wall, w.batch, failed)


def trial_seed_base(w: Workload, seed: int) -> int:
    return w.seed_base + SEED_STRIDE * seed


_PROBE_CODE = """
import sys, time
import numpy as np
rng = np.random.default_rng(0)
big = rng.integers(-3, 4, size=(400, 900)).astype(np.int64)
small = rng.integers(-3, 4, size=(60, 100)).astype(np.int64)
while sys.stdin.readline():
    t0 = time.perf_counter()
    for a, steps, reps in ((big, 30, 1), (small, 50, 35)):
        for _ in range(reps):
            b = a.copy()
            for k in range(steps):
                b[k + 1:] -= np.outer(b[k + 1:, k], b[k]) % 5
    print(time.perf_counter() - t0, flush=True)
"""


class SpeedProbe:
    """A fixed numpy kernel that does not touch homoforge: int64 row updates
    like those that dominate Smith form, on one large matrix (array-bound,
    like uncovered_rank) and many small ones (bound by per-call overhead,
    like torsion_scan), each taking about half the time. On a shared machine the speed of a
    core drifts by tens of percent over minutes as neighbours load it; the
    probe, timed before every batch, measures that drift so the end-to-end
    times can be rescaled to the baseline machine's quiet speed.

    The kernel runs in its own idle-waiting child process, one call at a
    time, so its memory stays out of the workload's peak_rss_mb."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _PROBE_CODE], cwd=ROOT, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.times: list[float] = []

    def __call__(self) -> None:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        self.times.append(float(self._proc.stdout.readline()))

    def median(self) -> float:
        return statistics.median(self.times)

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=60)
        self._proc.stdout.close()


def setup_seconds(w: Workload, probe: SpeedProbe) -> float:
    """Median wall time for a fresh interpreter to import homoforge and
    build and validate the workload's campaign config, after one untimed
    start that fills the bytecode cache. The probe runs before each start."""
    kwargs = {"kind": w.kind, "n": w.n, "trials": 1, "seed_base": w.seed_base,
              **w.options}
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import homoforge; "
        "from homoforge.experiments import CampaignConfig; "
        f"CampaignConfig(**{kwargs!r}).validate()"
    )
    times = []
    for i in range(SETUP_REPEATS + 1):
        probe()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, if it is one."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _commit(),
    }


def measure(w: Workload, seed: int, seconds: float, trace: bool):
    """Run workload w for about `seconds`; returns (result, run info)."""
    refs = checks.load_reference(w)
    base = trial_seed_base(w, seed)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run_", dir=OUT_DIR))
    try:
        if trace:
            metrics, batches, extra = _traced(w, base, seconds, workdir, refs)
        else:
            with SpeedProbe() as probe:
                setup = setup_seconds(w, probe)
                batches = _timed(w, base, seconds, workdir, refs, probe)
            metrics, extra = _end_to_end(batches, setup, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(b.trials for b in batches)
    failed = sum(b.failed for b in batches)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    info = {
        "machine": machine_facts(),
        "workload": w.name,
        "campaign": w.config(base, w.batch, None).to_json_dict(),
        "seed": seed,
        "reference_checked": base in refs.rows,
        "batches": len(batches),
        **extra,
    }
    return result, info


def _warm_up(w, base, workdir) -> None:
    """One untimed trial on the seed just below the measured block: the first
    campaign in a process pays numpy's lazy initialisation."""
    run_campaign(w.config(base - 1, 1, str(workdir / "warm_up")))


def _timed(w, base, seconds, workdir, refs, probe: SpeedProbe) -> list[Batch]:
    _warm_up(w, base, workdir)
    batches: list[Batch] = []
    deadline = time.perf_counter() + seconds
    next_seed = base
    while not batches or time.perf_counter() < deadline:
        probe()
        batches.append(run_batch(w, next_seed, workdir, refs))
        next_seed += w.batch
    return batches


def _end_to_end(batches: list[Batch], setup: float, probe: SpeedProbe):
    """End-to-end metrics, with the times rescaled by the speed probe to
    the baseline machine's quiet speed, and the raw figures for the record."""
    attempted = sum(b.trials for b in batches)
    ok = attempted - sum(b.failed for b in batches)
    rate = attempted / sum(b.wall_s for b in batches)
    slowdown = probe.median() / PROBE_REF_S
    metrics = {
        "trials_per_s": {"value": rate * slowdown, "unit": "1/s"},
        "setup_s": {"value": setup / slowdown, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "ok_frac": {"value": ok / attempted, "unit": "fraction"},
    }
    raw = {"raw_trials_per_s": rate, "raw_setup_s": setup,
           "probe_s": probe.median(), "probe_ref_s": PROBE_REF_S}
    return metrics, raw


def _traced(w, base, seconds, workdir, refs):
    """Micro-benchmarks, then alternating untraced and traced batches on the
    same seeds; the traced ones give the layer metrics."""
    start = time.perf_counter()
    metrics = micro.run(MICRO_SHARE * seconds)
    _warm_up(w, base, workdir)
    deadline = start + seconds
    tracer = tracing.Tracer()
    plain: list[Batch] = []
    traced: list[Batch] = []
    next_seed = base
    while not traced or time.perf_counter() < deadline:
        first_traced = len(traced) % 2 == 1
        for with_tracer in (first_traced, not first_traced):
            if with_tracer:
                traced.append(run_batch(w, next_seed, workdir, refs, tracer))
            else:
                plain.append(run_batch(w, next_seed, workdir, refs))
        next_seed += w.batch
    metrics.update(tracing.layer_metrics(tracer.spans))
    plain_s = sum(b.wall_s for b in plain)
    metrics["trace.overhead_frac"] = {
        "value": (sum(b.wall_s for b in traced) - plain_s) / plain_s,
        "unit": "fraction",
    }
    spans_path = OUT_DIR / f"spans_{w.name}_seed{base}.json"
    tracer.dump(spans_path)
    extra = {"spans_file": str(spans_path.relative_to(ROOT)),
             "self_time_violations": len(tracing.self_time_violations(tracer.spans))}
    return metrics, plain + traced, extra
