"""Per-layer spans and counters, recorded from outside the engine.

`Tracer.installed()` wraps public functions of every `sqh` layer.  The engine
imports names into each module (`from .actions import sylow`), so a wrapper
must replace the name in every module that holds it; methods are patched on
their class.  Spans are kept in memory as [name, start, end, parent, scenario]
and turned into metrics after the pass, so tracing adds no I/O to the timed
region.  Work counts are taken from arguments and results the engine already
built, so they repeat exactly between runs.  After the pass the spans are
written out as JSON lines.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import Counter
from math import comb
from time import perf_counter

MODULES = ("sqh", "sqh.scenarios", "sqh.bounds", "sqh.actions", "sqh.models", "sqh.complexes", "sqh.homology")
LAYERS = ("scenarios", "models", "complexes", "actions", "homology", "bounds")
MAX_DEGREE = 5  # S^5 is the largest sphere any workload builds


def _fubini(n: int) -> int:
    """Ordered set partitions of an n-set: chains of faces ending at an (n-1)-simplex."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


def _matrix_key(m) -> int:
    """Content hash of a sparse matrix, independent of entry order."""
    return hash((m.rows, m.cols, tuple(hash(frozenset(m.column(j).items())) for j in range(m.cols))))


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.scenario = None
        self._stack: list = []
        self._distinct: dict = {"quotient": set(), "rank": set()}

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, perf_counter(), None, parent, self.scenario]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def fingerprint(self, kind: str, make_key) -> None:
        """Record a distinct input of the current scenario; its cost is a span of its own."""
        span = self._open("trace.fingerprint")
        try:
            self._distinct[kind].add((self.scenario, make_key()))
        finally:
            self._close(span)

    def wrap(self, name: str, fn, before=None, after=None, skipped=()):
        """fn inside a span; `skipped` exceptions are counted as `<name>_skipped`."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, *args, **kwargs)
            span = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except skipped:
                tracer.counts[name + "_skipped"] += 1
                raise
            finally:
                tracer._close(span)
            if after is not None:
                after(tracer, out, *args, **kwargs)
            return out

        return wrapper

    # -- installation ----------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap the engine's layer boundaries for the duration of the block."""
        from sqh.actions import VertexAction
        from sqh.errors import SnfTooLarge
        from sqh.homology import SparseIntMatrix

        modules = [sys.modules[m] for m in MODULES]
        patches = []

        def patch(owner, attr, name, before=None, after=None, skipped=()):
            orig = getattr(owner, attr)
            new = self.wrap(name, orig, before, after, skipped)
            holders = [owner] if isinstance(owner, type) else [m for m in modules if vars(m).get(attr) is orig]
            for holder in holders:
                patches.append((holder, attr, orig))
                setattr(holder, attr, new)

        hom = sys.modules["sqh.homology"]
        act = sys.modules["sqh.actions"]
        try:
            patch(sys.modules["sqh.scenarios"], "run_scenario", "scenarios.run_scenario", before=_enter_scenario)
            for attr in ("character_join_model", "signed_permutation_action"):
                patch(sys.modules["sqh.models"], attr, "models.build", after=_count_group)
            patch(act, "close_generators", "models.build", after=_count_group)
            patch(sys.modules["sqh.complexes"], "barycentric_subdivision", "complexes.subdivide", after=_count_subdivision)
            patch(sys.modules["sqh.complexes"], "chain_complex", "complexes.chain_complex", after=_count_cells)
            patch(SparseIntMatrix, "compose_is_zero", "homology.verify")
            patch(hom, "rank_mod_p", "homology.rank_mod_p", before=_count_rank_mod_p)
            patch(hom, "rank_over_q", "homology.rank_over_q", before=_count_rank_over_q)
            # the SNF cap is enforced inside smith_normal_form: a skip is a raise
            patch(hom, "smith_normal_form", "homology.snf", skipped=SnfTooLarge)
            patch(hom, "betti", "homology.betti")
            patch(hom, "relative_betti", "homology.relative_betti")
            patch(act, "make_admissible_and_quotient", "actions.quotient", before=_count_quotient)
            patch(VertexAction, "simplex_orbit_data", "actions.orbit_data")
            patch(act, "induced_action_on_subdivision", "actions.transport")
            patch(act, "quotient_complex", "actions.quotient_complex")
            patch(act, "sylow", "actions.group_alg")
            patch(act, "best_abelian_normal_subgroup", "actions.group_alg", after=_count_fallback)
            patch(act, "fixed_subcomplex", "actions.fixed_subcomplex", after=_count_fixed)
            bounds = sys.modules["sqh.bounds"]
            for attr in ("cyclic_chain_check", "transfer_check", "smith_floyd_check", "evaluate_all"):
                patch(bounds, attr, "bounds." + attr.removesuffix("_check"))
            yield self
        finally:
            for holder, attr, orig in reversed(patches):
                setattr(holder, attr, orig)

    def write(self, path) -> None:
        """Spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, scenario in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "scenario": scenario}) + "\n")

    # -- metrics ---------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics: (value, unit) by name."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        total, own, calls = Counter(), Counter(), Counter()
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            own[name] += end - start - child_time[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:  # outermost span of this name: count its time once
                total[name] += end - start
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}_s"] = (total[name], "s")
            out[f"{name}_self_s"] = (own[name], "s")
            out[f"{name}_calls"] = (calls[name], "count")
        for layer in LAYERS:
            out[f"layer.{layer}_self_s"] = (
                sum(v for k, v in own.items() if k.startswith(layer + ".")),
                "s",
            )
        c = self.counts
        quotients, ranks = calls["actions.quotient"], c["homology.rank_calls"]
        out.update({
            "trace.fingerprint_s": (total["trace.fingerprint"], "s"),
            "actions.quotient_reuse_ratio": (len(self._distinct["quotient"]) / quotients if quotients else 1.0, "ratio"),
            "homology.rank_reuse_ratio": (len(self._distinct["rank"]) / ranks if ranks else 1.0, "ratio"),
            "actions.center_fallbacks": (c["actions.center_fallbacks"], "count"),
            "actions.fixed_nonempty": (c["actions.fixed_nonempty"], "count"),
            "complexes.subdivided_simplices": (c["complexes.subdivided_simplices"], "count"),
            "complexes.cells": (c["complexes.cells"], "count"),
            "complexes.cells_per_degree": (
                c["complexes.cells"] / c["complexes.degrees"] if c["complexes.degrees"] else 0.0,
                "count",
            ),
            "homology.rank_nnz": (c["homology.rank_nnz"], "count"),
            "homology.q_rank_certified": (c["homology.q_rank_certified"], "count"),
            "homology.q_rank_monte_carlo": (c["homology.q_rank_monte_carlo"], "count"),
            "homology.snf_skipped": (c["homology.snf_skipped"], "count"),
            "models.group_order": (c["models.group_order"], "count"),
        })
        for k in range(MAX_DEGREE + 1):
            out[f"complexes.cells_d{k}"] = (c[f"complexes.cells_d{k}"], "count")
        return out


SPAN_NAMES = (
    "scenarios.run_scenario",
    "models.build",
    "complexes.subdivide",
    "complexes.chain_complex",
    "homology.verify",
    "homology.rank_mod_p",
    "homology.rank_over_q",
    "homology.snf",
    "homology.betti",
    "homology.relative_betti",
    "actions.quotient",
    "actions.orbit_data",
    "actions.transport",
    "actions.quotient_complex",
    "actions.group_alg",
    "actions.fixed_subcomplex",
    "bounds.cyclic_chain",
    "bounds.transfer",
    "bounds.smith_floyd",
    "bounds.evaluate_all",
)


# -- hooks: each runs outside the span it annotates ----------------------

def _enter_scenario(tracer, scenario, *args, **kwargs):
    tracer.scenario = scenario.name


def _count_group(tracer, out, *args, **kwargs):
    if not tracer.inside("models.build"):
        tracer.counts["models.group_order"] += getattr(out, "action", out).order


def _count_subdivision(tracer, sd, source, *args, **kwargs):
    tracer.counts["complexes.subdivided_simplices"] += sum(
        f * _fubini(k + 1) for k, f in enumerate(source.f_vector())
    )


def _count_cells(tracer, cc, *args, **kwargs):
    tracer.counts["complexes.cells"] += sum(cc.ranks)
    tracer.counts["complexes.degrees"] += len(cc.ranks)
    for k, r in enumerate(cc.ranks):
        tracer.counts[f"complexes.cells_d{k}"] += r


def _count_rank(tracer, m, field) -> None:
    if tracer.inside("homology.rank_mod_p") or tracer.inside("homology.rank_over_q"):
        return  # the Monte Carlo Q rank calls rank_mod_p itself
    tracer.counts["homology.rank_calls"] += 1
    tracer.fingerprint("rank", lambda: (_matrix_key(m), field))


def _count_rank_mod_p(tracer, m, p, *args, **kwargs):
    tracer.counts["homology.rank_nnz"] += m.nnz
    _count_rank(tracer, m, p)


def _count_rank_over_q(tracer, m, certified=True, *args, **kwargs):
    tracer.counts["homology.q_rank_certified" if certified else "homology.q_rank_monte_carlo"] += 1
    _count_rank(tracer, m, "Q")


def _count_quotient(tracer, action, *args, **kwargs):
    tracer.fingerprint("quotient", lambda: hash((action.complex, action.elements)))


def _count_fallback(tracer, handle, *args, **kwargs):
    tracer.counts["actions.center_fallbacks"] += bool(handle.via_fallback)


def _count_fixed(tracer, fixed, *args, **kwargs):
    tracer.counts["actions.fixed_nonempty"] += bool(fixed.facets)
