"""Tracing from outside the program: spans and counters around sastra's public calls.

The benchmark never edits sastra.  It replaces a public function with a
timing wrapper in the namespace where its caller looks it up (for example
``sastra.harness.sgd_run``, which ``SgdSolver.run`` calls, and
``sastra.sa_solvers.sgd_run``, which the restart stages call) and restores
the original afterwards.

Calls made a bounded number of times per trial are spans: name, start, end
and parent, kept in memory and written out when the run ends.  Calls made
once per step or per solver iteration are counters: calls and time only.
A span's self time is its duration minus the time its child spans and
counters cover, so the self times of all spans and counters under the root
span add up to the root's duration.  The stack is per process, so a traced
pass must run its trials on one thread.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from time import perf_counter


class Stat:
    """Aggregate of one span or counter name."""

    __slots__ = ("calls", "total_s", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.extra: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[list] = []  # open spans: [index, time covered by children]
        self.stats: dict[str, Stat] = {}
        self._owner = threading.get_ident()

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def span(self, name: str, fn, note=None):
        """Wrap fn so each call records a span; note(stat, args, kwargs, result) adds counts."""
        stat = self.stat(name)

        def traced(*args, **kwargs):
            if threading.get_ident() != self._owner:
                raise RuntimeError(f"span {name} entered from a second thread")
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1][0] if self.stack else -1])
            frame = [index, 0.0]
            self.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                duration = end - start
                self.spans[index][1] = start
                self.spans[index][2] = end
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[1]
                if self.stack:
                    self.stack[-1][1] += duration
            if note is not None:
                note(stat, args, kwargs, result)
            return result

        return traced

    def counter(self, name: str, fn):
        """Wrap fn so each call adds to a count and a time, without a span record."""
        stat = self.stat(name)
        stack = self.stack

        def counted(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            duration = perf_counter() - start
            stat.calls += 1
            stat.total_s += duration
            stat.self_s += duration
            if stack:
                stack[-1][1] += duration
            return result

        return counted

    def module_self_s(self) -> dict[str, float]:
        """Self time per sastra module: the first component of each name."""
        out: dict[str, float] = {}
        for name, stat in self.stats.items():
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + stat.self_s
        return out

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")


@contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples for the duration of the block."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _note_rows(stat, args, kwargs, result):
    stat.add("rows", result[0].shape[0])


def _note_steps(stat, args, kwargs, result):
    stat.add("steps", args[2] if len(args) > 2 else kwargs["n_steps"])


def _note_erm(stat, args, kwargs, result):
    stat.add("iterations", result.iterations)
    stat.add("certified", int(result.certified))
    stat.add("budget_exhausted", int(result.certificate == "budget_exhausted"))


def instrumentation(tracer: Tracer, sastra, solver_class) -> list:
    """Replacement triples that trace every layer the workloads reach.

    Each target is the name its caller resolves at call time; the same
    original may be wrapped under several names (one per calling module).
    """
    harness, sa, saa, problems = (sastra.harness, sastra.sa_solvers,
                                  sastra.saa_solvers, sastra.problems)

    def stepper_factory(make):
        def make_counted(set_):
            return tracer.counter("geometry.step", make(set_))
        return make_counted

    sgd_run = tracer.span("sa_solvers.sgd_run", sa.sgd_run, _note_steps)
    budget_run = tracer.span("sa_solvers.restarted_budget_run", sa.restarted_budget_run)
    project = tracer.counter("geometry.project", sa.project)
    return [
        (harness, "measure_curve", tracer.span("harness.measure_curve", harness.measure_curve)),
        (harness, "find_sample_complexity",
         tracer.span("harness.find_sample_complexity", harness.find_sample_complexity)),
        (harness, "run_trials", tracer.span("harness.run_trials", harness.run_trials)),
        (harness, "write_report", tracer.span("harness.write_report", harness.write_report)),
        (solver_class, "run", tracer.span("harness.solver.run", solver_class.run)),
        (harness, "sgd_run", sgd_run),
        (harness, "restarted_budget_run", budget_run),
        (sa, "sgd_run", sgd_run),
        (sa, "restarted_budget_run", budget_run),
        (sa, "restart_stage_plan",
         tracer.span("sa_solvers.restart_stage_plan", sa.restart_stage_plan)),
        (sa, "make_mirror_stepper", stepper_factory(sa.make_mirror_stepper)),
        (sa, "project", project),
        (saa, "project", project),
        (saa, "build_empirical", tracer.span("saa_solvers.build_empirical", saa.build_empirical)),
        (saa, "solve_erm", tracer.span("saa_solvers.solve_erm", saa.solve_erm, _note_erm)),
        (problems.SampleStream, "draw_block",
         tracer.span("problems.draw_block", problems.SampleStream.draw_block, _note_rows)),
        (problems.ProblemInstance, "population_gap",
         tracer.span("problems.population_gap", problems.ProblemInstance.population_gap)),
    ]
