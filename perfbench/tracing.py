"""Spans recorded from outside homoforge, around the calls into each layer.

`from .x import f` binds f in the importing module, so a wrapper is
installed on the name the caller looks up (homoforge.homology.
smith_normal_form, homoforge.experiments.homology_Z, ...) or on the class
attribute (EchelonBasis.insert, ProcessStream.__next__). Wrappers exist only
inside Tracer.installed(); untraced runs call the original functions.

A span is [id, parent id, trial id, name, start, end, value]. All spans of
one trial share the trial id, which is the id of its experiments.trial
span. Spans stay in memory and are written out once, when the run ends.
Self time is a span's duration minus the durations of its direct children,
which do not overlap in a single-threaded run.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

import homoforge.experiments as experiments
import homoforge.homology as homology
from homoforge.complexes import ProcessStream
from homoforge.exact_linalg import EchelonBasis

TRIAL = "experiments.trial"
CAMPAIGN = "experiments.campaign"

# (owner, attribute looked up by the caller, span name, value of the call)
TARGETS = (
    (experiments, "_run_one", TRIAL, None),
    (experiments, "sample_fixed_size", "complexes.sample", None),
    (experiments, "sample_binomial", "complexes.sample", None),
    (ProcessStream, "__next__", "complexes.stream", lambda args, out: 1),
    (experiments, "boundary_vector_dense", "exact_linalg.boundary", None),
    (homology, "boundary_matrix", "exact_linalg.boundary", None),
    (homology, "boundary_columns_dense", "exact_linalg.boundary", None),
    (EchelonBasis, "insert", "exact_linalg.echelon.insert",
     lambda args, out: bool(out)),
    (EchelonBasis, "reduce_columns", "exact_linalg.echelon.reduce",
     lambda args, out: out.shape[1]),
    (homology, "smith_normal_form", "exact_linalg.snf",
     lambda args, out: (args[0].rows, args[0].cols, args[0].nnz)),
    (experiments, "homology_Z", "homology.homology_Z",
     lambda args, out: out.trivial),
    (homology, "shadow", "homology.shadow", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._trial: int | None = None

    def _open(self, name: str) -> list:
        sid = len(self.spans)
        if name == TRIAL:
            self._trial = sid
        rec = [sid, self._stack[-1] if self._stack else None, self._trial, name,
               0.0, 0.0, None]
        self.spans.append(rec)
        self._stack.append(sid)
        return rec

    def _close(self, rec: list) -> None:
        self._stack.pop()
        if rec[3] == TRIAL:
            self._trial = None

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        rec[4] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[5] = time.perf_counter()
            self._close(rec)

    def wrap(self, fn, name: str, value):
        def traced(*args, **kwargs):
            rec = self._open(name)
            rec[4] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                self._close(rec)
            if value is not None:
                rec[6] = value(args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in TARGETS]
        try:
            for (owner, attr, name, value), (_, _, fn) in zip(TARGETS, saved):
                setattr(owner, attr, self.wrap(fn, name, value))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "trial", "name", "start", "end",
                                  "value"], "spans": self.spans}, fh)
            fh.write("\n")


def self_times(spans) -> list[float]:
    own = [s[5] - s[4] for s in spans]
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[5] - s[4]
    return own


def self_time_violations(spans, slack: float = 1e-9) -> list[int]:
    """Trial ids whose spans' summed self time exceeds the trial's wall time."""
    own = self_times(spans)
    inner: dict[int, float] = {}
    for s, t in zip(spans, own):
        if s[2] is not None and s[0] != s[2]:
            inner[s[2]] = inner.get(s[2], 0.0) + t
    return [
        s[0] for s in spans
        if s[3] == TRIAL and inner.get(s[0], 0.0) > s[5] - s[4] + slack
    ]


def layer_metrics(spans) -> dict:
    """Per-layer metrics, normalised per traced trial where they are sums."""
    own = self_times(spans)
    by_name: dict[str, list[tuple]] = {}
    for s, t in zip(spans, own):
        by_name.setdefault(s[3], []).append((s[5] - s[4], t, s[6]))
    trials = max(len(by_name.get(TRIAL, ())), 1)

    def get(name):
        return by_name.get(name, [])

    def per_trial(x):
        return x / trials

    def total(name, i=0):
        return sum(r[i] for r in get(name))

    def frac(hits, count):
        return hits / count if count else 0.0

    def p50(name):
        durs = [r[0] for r in get(name)]
        return statistics.median(durs) if durs else 0.0

    def top(name):
        return max((r[0] for r in get(name)), default=0.0)

    stream = get("complexes.stream")
    inserts = get("exact_linalg.echelon.insert")
    snf = get("exact_linalg.snf")
    hz = get("homology.homology_Z")
    m = {
        "complexes.stream.faces": (per_trial(sum(r[2] == 1 for r in stream)),
                                   "faces/trial"),
        "complexes.stream.s": (per_trial(total("complexes.stream")), "s/trial"),
        "complexes.sample.s": (per_trial(total("complexes.sample")), "s/trial"),
        "exact_linalg.boundary.calls": (per_trial(len(get("exact_linalg.boundary"))),
                                        "calls/trial"),
        "exact_linalg.boundary.s": (per_trial(total("exact_linalg.boundary")),
                                    "s/trial"),
        "exact_linalg.echelon.inserts": (per_trial(len(inserts)), "calls/trial"),
        "exact_linalg.echelon.insert_s": (
            per_trial(total("exact_linalg.echelon.insert")), "s/trial"),
        "exact_linalg.echelon.independent_frac": (
            frac(sum(bool(r[2]) for r in inserts), len(inserts)), "fraction"),
        "exact_linalg.echelon.reduced_cols": (
            per_trial(sum(r[2] or 0 for r in get("exact_linalg.echelon.reduce"))),
            "cols/trial"),
        "exact_linalg.echelon.reduce_s": (
            per_trial(total("exact_linalg.echelon.reduce")), "s/trial"),
        "exact_linalg.snf.calls": (per_trial(len(snf)), "calls/trial"),
        "exact_linalg.snf.s": (per_trial(total("exact_linalg.snf")), "s/trial"),
        "exact_linalg.snf.p50_s": (p50("exact_linalg.snf"), "s"),
        "exact_linalg.snf.max_s": (top("exact_linalg.snf"), "s"),
        "exact_linalg.snf.cells": (per_trial(sum(r[2][0] * r[2][1] for r in snf)),
                                   "cells/trial"),
        "exact_linalg.snf.nnz": (per_trial(sum(r[2][2] for r in snf)), "nnz/trial"),
        "homology.homology_Z.calls": (per_trial(len(hz)), "calls/trial"),
        "homology.homology_Z.self_s": (per_trial(total("homology.homology_Z", 1)),
                                       "s/trial"),
        "homology.homology_Z.trivial_frac": (
            frac(sum(bool(r[2]) for r in hz), len(hz)), "fraction"),
        "homology.shadow.calls": (per_trial(len(get("homology.shadow"))),
                                  "calls/trial"),
        "homology.shadow.self_s": (per_trial(total("homology.shadow", 1)),
                                   "s/trial"),
        "experiments.trial.count": (len(get(TRIAL)), "count"),
        "experiments.trial.p50_s": (p50(TRIAL), "s"),
        "experiments.trial.max_s": (top(TRIAL), "s"),
        "experiments.trial.self_s": (per_trial(total(TRIAL, 1)), "s/trial"),
        "experiments.campaign.self_s": (per_trial(total(CAMPAIGN, 1)), "s/trial"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
