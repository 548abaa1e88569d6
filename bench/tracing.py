"""Span recording for the benchmark's traced runs.

A ``Tracer`` wraps functions at the attribute their caller looks up (for
example ``lgadmm.cli.solve`` or ``BlockSignMap.apply``) and records one
span per call: name, start, end and the enclosing span. Spans stay in
memory until the unit ends; ``summarize`` then turns them into per-name
call counts, inclusive seconds and self seconds (a span's duration minus
the time its direct children cover).

The program itself is not modified: patches are installed on the imported
modules of one process and removed again by ``restore``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

STEP_SPAN = "solver.step"
APPLY_SPAN = "operators.BlockSignMap.apply"


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self._ids: dict[str, int] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``on_result``, when given, is called with the tracer and the return
        value, to record counts derived from the result.
        """
        original = getattr(owner, attr)
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1]]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "counts": dict(self.counts)}


def summarize(trace: dict) -> dict[str, float]:
    """Per-name ``calls``, ``s`` (inclusive) and ``self_s`` from a dump.

    Also derives ``operators.apply_per_step``: forward map products made
    inside solver steps, divided by the number of steps.
    """
    names, spans = trace["names"], trace["spans"]
    inclusive = [end - start for _, start, end, _ in spans]
    child_time = [0.0] * len(spans)
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += inclusive[index]

    out: dict[str, float] = defaultdict(float)
    for index, (name_id, _, _, _) in enumerate(spans):
        name = names[name_id]
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += inclusive[index]
        out[f"{name}.self_s"] += inclusive[index] - child_time[index]

    step_id = names.index(STEP_SPAN) if STEP_SPAN in names else None
    apply_id = names.index(APPLY_SPAN) if APPLY_SPAN in names else None
    in_step = 0
    if step_id is not None and apply_id is not None:
        for name_id, _, _, parent in spans:
            if name_id != apply_id:
                continue
            while parent >= 0 and spans[parent][0] != step_id:
                parent = spans[parent][3]
            in_step += parent >= 0
    steps = out.get(f"{STEP_SPAN}.calls", 0)
    out["operators.apply_per_step"] = in_step / steps if steps else 0.0
    out.update(trace.get("counts", {}))
    return dict(out)


def merge(*summaries: dict[str, float]) -> dict[str, float]:
    """Add summaries of parts of one unit (for example parent and replica)."""
    out: dict[str, float] = defaultdict(float)
    for summary in summaries:
        for key, value in summary.items():
            out[key] += value
    steps = out.get(f"{STEP_SPAN}.calls", 0)
    if steps:
        out["operators.apply_per_step"] = sum(
            s.get("operators.apply_per_step", 0.0) * s.get(f"{STEP_SPAN}.calls", 0)
            for s in summaries) / steps
    return dict(out)


def install(tracer: Tracer, lgadmm) -> None:
    """Wrap every public call the benchmark's workloads reach.

    Each function is wrapped where its caller looks it up, so a call made
    through another module's name is not counted twice.
    """
    cli, solver = lgadmm.cli, lgadmm.solver
    calibration, operators = lgadmm.calibration, lgadmm.operators

    def trajectory_bytes(tr, result):
        if result.trajectory is not None:
            points = result.trajectory.points + result.trajectory.auxiliaries
            tr.counts["solver.trajectory.bytes"] += sum(
                x.nbytes for p in points for x in (*p.primal, p.dual))

    def dense_bytes(tr, metrics):
        if metrics.dense is not None:
            tr.counts["certificates.assemble_metrics.dense_bytes"] += sum(
                a.nbytes for a in metrics.dense.values())

    tracer.wrap(cli, "solve", "solver.solve", trajectory_bytes)
    tracer.wrap(cli, "assemble_metrics", "certificates.assemble_metrics",
                dense_bytes)
    for check in CHECKS + ("ergodic_average",):
        tracer.wrap(cli, check, f"certificates.{check}")
    tracer.wrap(cli, "evaluate_objective", "problem.evaluate_objective")
    for attr in ("atomic_write_json", "atomic_write_text"):
        tracer.wrap(cli, attr, "serialization.write")
    for attr in ("write_matrix", "atomic_write_text"):
        tracer.wrap(calibration, attr, "serialization.write")

    for attr in ("validate_config", "step", "first_phase_update",
                 "last_block_update", "multiplier_update", "auxiliary_point"):
        tracer.wrap(solver, attr, f"solver.{attr}")
    tracer.wrap(solver, "evaluate_objective", "problem.evaluate_objective")
    tracer.wrap(solver, "constraint_residual", "problem.constraint_residual")

    tracer.wrap(calibration, "project_psd", "calibration.project_psd")
    tracer.wrap(calibration, "project_box", "calibration.project_box")
    tracer.wrap(operators.BlockSignMap, "apply", "operators.BlockSignMap.apply")
    tracer.wrap(operators.BlockSignMap, "adjoint",
                "operators.BlockSignMap.adjoint")

    original_pool = cli.ProcessPoolExecutor

    def recording_pool(*args, max_workers=None, **kwargs):
        tracer.counts["cli.sweep.workers"] = max_workers
        return original_pool(*args, max_workers=max_workers, **kwargs)

    cli.ProcessPoolExecutor = recording_pool
    tracer._patches.append((cli, "ProcessPoolExecutor", original_pool))


CHECKS = (
    "update_recurrence_check",
    "fejer_check",
    "nonergodic_monotonicity_check",
    "nonergodic_rate_check",
    "cross_term_check",
    "ergodic_gap_check",
    "step_inequality_check",
)
