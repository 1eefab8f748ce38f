"""Shared machinery of the benchmark: locating the program, the closed job
loop, tracing spans, failure records and metric summaries.

Tracing follows one rule: spans are recorded only around the benchmark's own
calls into a module's public function (plus the CLI proxy in
``cli_workload``), never inside the program.  Untraced runs go through the
same ``Tracer.call`` path with tracing off, which costs one attribute test.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MODULES = ("graph", "matching", "counting", "states", "feasibility", "compiler", "networks", "cli")

# Defects present in the program when the benchmark was defined.  A job
# whose check recognises one of these signatures is listed as failing and
# counts in ``failed_ratio`` and ``known_defect_hits``, but not in the
# result line's ``failed``, and keeps ``correct`` true.  Any other failure
# counts in ``failed`` and makes the run incorrect.  Remove an entry once the
# program is fixed.
KNOWN_DEFECTS = {
    "network-state-abs-tol": "network_state prunes kets at the absolute AMP_TOL "
    "even where network_amplitude is nonzero (ROADMAP item 4)",
    "unsynth-int-layers": "unsynth on a plan with an integer 'layers' exits 1 "
    "with a TypeError traceback (ROADMAP item 4)",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def load_program():
    """Import ``photongraph`` from this checkout's ``src`` and nowhere else.
    A second call imports it afresh, so set-up rounds can time the import."""
    if not (SRC / "photongraph" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'photongraph'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "photongraph" or m.startswith("photongraph.")]:
        del sys.modules[name]
    import photongraph

    if Path(photongraph.__file__).resolve().parent != (SRC / "photongraph").resolve():
        raise BenchError(f"photongraph imported from {photongraph.__file__}, not from {SRC}")
    return photongraph


def program_env() -> dict:
    """Environment for CLI subprocesses: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CheckFailed(Exception):
    """A job's answer disagreed with its reference.  ``defect`` names a
    ``KNOWN_DEFECTS`` entry when the disagreement has that defect's
    signature."""

    def __init__(self, message: str, *, defect: str | None = None):
        super().__init__(message)
        if defect is not None and defect not in KNOWN_DEFECTS:
            raise ValueError(f"unknown defect id {defect!r}")
        self.defect = defect


def check(condition: bool, message: str, *, defect: str | None = None):
    if not condition:
        raise CheckFailed(message, defect=defect)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory span recorder.  A span is (id, name, start, end, parent);
    a span opened while another is running has it as parent, so module
    spans inside a job span belong to that job."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._last_id = 0

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` (``<module>.<function>``)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        self._last_id += 1
        span_id = self._last_id
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.counts[name.split(".", 1)[0] + ".errors"] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent))

    def count(self, key: str, n=1):
        if self.enabled:
            self.counts[key] += n

    def self_times(self) -> list[tuple[int, str, float, float]]:
        """(id, name, duration, self time) per span; self time is the
        duration minus the durations of the span's children."""
        child = Counter()
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(span_id, name, end - start, end - start - child[span_id])
                for span_id, name, start, end, _ in self.spans]

    def dump(self, path: Path):
        """Write the spans out once the run has ended."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


# ---------------------------------------------------------------------------
# jobs and the closed loop
# ---------------------------------------------------------------------------

class Job:
    """One request of a workload.  ``run(tr)`` performs it through the tracer
    and raises ``CheckFailed`` when an answer is wrong."""

    __slots__ = ("name", "run")

    def __init__(self, name: str, run):
        self.name = name
        self.run = run


class Workload:
    """What a workload's ``build`` returns.  ``deck(i)`` lists the jobs of
    deck ``i``; ``extras(decks)`` adds report-only end-to-end figures;
    ``probe(tr, results, decks)`` adds per-layer figures after a traced run
    of ``decks`` decks; any work it traces itself is one deck's worth;
    ``close()`` removes what set-up wrote."""

    def __init__(self, deck, extras=None, probe=None, close=None):
        self.deck = deck
        self.extras = extras or (lambda decks: {})
        self.probe = probe or (lambda tr, results, decks: {})
        self.close = close or (lambda: None)


class JobResult:
    """``latency`` is the job's wall time (an untraced run rescales it to
    the reference speed); ``step`` is its index in the run's ``Gauge``,
    0 in a traced run, which has none."""

    __slots__ = ("name", "latency", "error", "defect", "step")

    def __init__(self, name, latency, error=None, defect=None):
        self.name = name
        self.latency = latency
        self.error = error
        self.defect = defect
        self.step = 0


def run_job(job: Job, tr: Tracer) -> JobResult:
    start = time.perf_counter()
    error = defect = None
    try:
        tr.call("bench.job", job.run, tr)
    except CheckFailed as exc:
        error, defect = f"wrong answer: {exc}", exc.defect
    except Exception as exc:  # a job that raises is a failed job, not a crash
        error = f"raised {type(exc).__name__}: {exc}"
    return JobResult(job.name, time.perf_counter() - start, error, defect)


def closed_loop(decks, seconds: float, tr: Tracer, gauge: "Gauge") -> list[list[JobResult]]:
    """One client: send the next job only after the previous one returned.
    Whole decks are run until ``seconds`` have passed, so every run sees the
    same job mix; ``decks(i)`` gives deck ``i``.  ``gauge`` runs its
    calibration between jobs.  Returns results per deck."""
    out: list[list[JobResult]] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        deck = []
        for job in decks(len(out)):
            result, result.step = gauge.around(run_job, job, tr)
            deck.append(result)
        out.append(deck)
    return out


def paired_loop(decks, seconds: float, tr: Tracer) -> tuple[list[JobResult], list[JobResult], int]:
    """Like ``closed_loop``, but every job runs twice in a row, once
    untraced and once through ``tr``, alternating which goes first.  A slow
    spell of the machine then hits both sides alike, so the gap between the
    two sums is the tracing overhead.  Returns both sides' results and the
    number of decks run."""
    off = Tracer(False)
    untraced: list[JobResult] = []
    traced: list[JobResult] = []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        for k, job in enumerate(decks(i)):
            for t in ((off, tr) if (i + k) % 2 == 0 else (tr, off)):
                (traced if t is tr else untraced).append(run_job(job, t))
        i += 1
    return untraced, traced, i


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

CALIBRATION_ITERATIONS = 6000


def calibration_loop() -> float:
    """Seconds a fixed pure-Python loop takes now.  It shares no code with
    the program."""
    start = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(CALIBRATION_ITERATIONS):
        k = i % 97
        d[k] = d.get(k, 0) + (i ^ k)
        frozenset((i, k))
    return time.perf_counter() - start


# Loop time at the reference speed to which timings are scaled; on a shared
# 2-core host the loop takes 1.8 to 2.0 ms when no other tenant slows it.
REFERENCE_LOOP_S = 0.002


def interpreter_start() -> float:
    """Seconds a bare ``python -c pass`` process takes now, started the way
    the ``cli`` workload starts the program's CLI."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=program_env(), capture_output=True, check=True,
                   timeout=60)
    return time.perf_counter() - start


# Time of a bare interpreter start at the reference speed of the ``cli``
# workload; on a shared 2-core host with Python 3.11 it takes 60 to 80 ms,
# most of it the site packages' own imports.
REFERENCE_START_S = 0.06


class Gauge:
    """Tracks the machine's speed with a probe run right before and after
    each timed step.  On a shared machine other tenants slow a process by up
    to 1.7x, for seconds at a time and by different amounts from one minute
    to the next, and the probe slows with it.  A step's time times
    ``reference_s`` over the mean of the two probe times is the time it
    takes at the reference speed.  The program's own speed does not enter
    the probe time.

    The default probe is ``calibration_loop``, which tracks in-process work.
    CLI calls spend their time starting a process and importing modules,
    which other tenants slow by less than the loop; the ``cli`` workload
    probes with ``interpreter_start``, which slows as they do."""

    def __init__(self, probe=calibration_loop, reference_s: float = REFERENCE_LOOP_S):
        self.probe = probe
        self.reference_s = reference_s
        self.times = [probe()]

    def around(self, fn, *args):
        """Run ``fn(*args)``; return its result and the step's index, which
        ``scaled`` takes."""
        result = fn(*args)
        self.times.append(self.probe())
        return result, len(self.times) - 1

    def scaled(self, seconds: float, step: int) -> float:
        return seconds * self.reference_s * 2 / (self.times[step - 1] + self.times[step])


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def percentile(values, q: int) -> float:
    """q-th percentile by ``statistics.quantiles`` (exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def timed_setup(build, rounds: int, gauge: Gauge):
    """Run ``build()`` ``rounds`` times; return the last result and each
    round's (seconds, ``Gauge`` step)."""
    rounds_timed = []
    result = None

    def timed():
        start = time.perf_counter()
        out = build()
        return out, time.perf_counter() - start

    for _ in range(rounds):
        (result, seconds), step = gauge.around(timed)
        rounds_timed.append((seconds, step))
    return result, rounds_timed


def failure_lines(results: list[JobResult]) -> list[dict]:
    grouped: dict[tuple, int] = {}
    for r in results:
        if r.error is not None:
            key = (r.name, r.error, r.defect)
            grouped[key] = grouped.get(key, 0) + 1
    return [
        {"job": name, "count": count, "error": error, "known_defect": defect}
        for (name, error, defect), count in sorted(grouped.items(), key=lambda kv: (kv[0][0], kv[0][1]))
    ]


def finite(x: float) -> float:
    if not math.isfinite(x):
        raise BenchError(f"non-finite metric value {x}")
    return x
