"""End-to-end verification benchmark over the public ``repro`` facade.

Every case is one ``repro.build_model(...)`` -> ``repro.verify(...)``
call at the program's defaults; one process runs one case at a time (a
closed loop with one caller, no threads).  Run from the repository root::

    python3 e2ebench/run.py --workload back-image --seed 1 --seconds 20 \\
        --trace 0

``--trace 0`` prints the end-to-end metrics.  Times to verdict are in
probe lengths (unit ``ref``): each case's time over the time of a fixed
computation taken during and around it (see :mod:`hostspeed`), the
median over the run's passes; ``suite_ref`` sums them over one pass's
cases.  The meta line
gives the median pass in seconds (``suite_s``) and the median probe
(``probe_s``), so ``suite_ref * probe_s`` is about ``suite_s``.
``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the
traced ones (see :mod:`layers`).  Every verdict is checked against
:mod:`reference` outside the timed region.  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it records the kernel, apply path, source revision, seed and
``nproc`` beside the metrics.  Traced runs also write their first traced
pass's spans to ``.e2ebench_out/``.

The program is loaded from ``src/`` of the checkout holding this
directory; without it the benchmark exits with status 2.  The
benchmark's own tests run with ``python3 -m pytest e2ebench/tests``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hostspeed import SpeedProbe  # noqa: E402
from layers import GuardError, SpanRecorder, installed, layer_self_ns, \
    span_counts  # noqa: E402
from reference import check  # noqa: E402
from workloads import TIME_LIMIT_S, WORKLOADS, Case, generate, \
    warmup_case  # noqa: E402

#: Set-up is measured this many times per ``--trace 0`` run (the median
#: is reported): once in this process and the rest in fresh interpreters,
#: one after each pass, so that they spread over the run.
SETUP_SAMPLES = 7

#: Span names whose self time each ``*_s`` layer metric reports.
LAYER_SPANS = {
    "models.build_s": ("models.build",),
    "fsm.back_image_s": ("fsm.back_image",),
    "fsm.image_s": ("fsm.image",),
    "fsm.partition_s": ("fsm.partition",),
    "fsm.counterexample_s": ("fsm.counterexample",),
    "iclist.simplify_s": ("iclist.simplify",),
    "iclist.evaluate_s": ("iclist.evaluate",),
    "iclist.termination_s": ("iclist.termination",),
    "bdd.gc_s": ("bdd.gc",),
    "core.unattributed_s": ("case", "core.verify"),
}

#: Traced-run guard: layers each workload exists to exercise.  Zero
#: calls means a call site moved out from under its wrapper.
REQUIRED_NONZERO = {
    "back-image": ("fsm.back_image_calls", "bdd.gc_runs"),
    "conj-policy": ("iclist.pairs_built", "bdd.restrict_calls"),
    "fwd-relprod": ("fsm.image_calls", "bdd.and_exists_calls"),
    "short-mixed": ("fsm.counterexample_calls", "models.build_nodes"),
}

#: Traced-run guard: layers a workload must not touch.
REQUIRED_ZERO = {
    "back-image": ("fsm.image_calls", "fsm.counterexample_calls"),
    "conj-policy": ("fsm.image_calls", "fsm.counterexample_calls"),
    "fwd-relprod": ("fsm.back_image_calls", "fsm.counterexample_calls"),
    "short-mixed": (),
}


def metric_units(section: str) -> List[Tuple[str, str]]:
    """``(name, unit)`` of each metric BENCHMARK.json lists in ``section``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return [(entry["name"], entry["unit"]) for entry in spec[section]]


def load_program():
    """Import ``repro`` from this checkout's ``src/``; exit 2 if absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.stderr.write(f"e2ebench: no program sources under {src}\n")
        raise SystemExit(2)
    sys.path.insert(0, src)
    import repro
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.stderr.write(f"e2ebench: imported repro from {repro.__file__},"
                         f" not from {src}\n")
        raise SystemExit(2)
    return repro


@dataclass
class PassResult:
    """Measurements of one pass over a workload's cases."""

    seconds: float = 0.0
    cpu_seconds: float = 0.0
    #: ``(case key, wall seconds, CPU seconds, start ns, end ns)`` of
    #: each case that returned.
    samples: List[Tuple[str, float, float, int, int]] = field(
        default_factory=list)
    failures: List[str] = field(default_factory=list)
    peak_nodes: int = 0
    kernels: Set[str] = field(default_factory=set)
    applies: Set[str] = field(default_factory=set)
    verdicts: List[str] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    spans: Optional[list] = None
    layers: Optional[Dict[str, float]] = None


def _record_counts(counters: Counter, result) -> None:
    """Accumulate one case's layer counts from the returned result."""
    for key, value in result.bdd_stats.items():
        if key not in ("nodes_current", "nodes_peak"):
            counters[key] += value
    counters["iterations"] += result.iterations
    evaluation = result.extra.get("evaluation_stats")
    if evaluation is not None:
        counters["merges"] += evaluation.merges
        counters["pairs_built"] += evaluation.pairs_built
    pair_cache = result.extra.get("pair_cache_stats")
    if pair_cache is not None:
        counters["product_hits"] += pair_cache["product_hits"]
        counters["product_misses"] += pair_cache["product_misses"]
    tautology = result.extra.get("tautology_stats")
    if tautology is not None:
        counters["tautology_calls"] += tautology.calls
        counters["shannon_expansions"] += tautology.shannon_expansions


def run_case(repro, case: Case, outcome: PassResult,
             recorder: Optional[SpanRecorder] = None) -> None:
    """Run and check one case, adding its measurements to ``outcome``.

    Only ``build_model`` through the returned result is timed; the
    check after it is not.
    """
    options = repro.Options(max_nodes=case.max_nodes,
                            time_limit=TIME_LIMIT_S)
    params = dict(case.params)
    try:
        cpu_start = time.process_time()
        if recorder is None:
            start = time.perf_counter_ns()
            problem = repro.build_model(case.model, bug=case.bug, **params)
            result = repro.verify(problem, case.method, options,
                                  assisted=case.assisted)
            end = time.perf_counter_ns()
        else:
            recorder.case = case.key
            with recorder.span("case") as index:
                with recorder.span("models.build"):
                    problem = repro.build_model(case.model, bug=case.bug,
                                                **params)
                with recorder.span("core.verify"):
                    result = repro.verify(problem, case.method, options,
                                          assisted=case.assisted)
            start, end = recorder.spans[index][1:3]
        cpu = time.process_time() - cpu_start
    except Exception:
        outcome.failures.append(f"{case.key}: raised\n"
                                f"{traceback.format_exc()}")
        return
    seconds = (end - start) / 1e9
    outcome.seconds += seconds
    outcome.cpu_seconds += cpu
    outcome.samples.append((case.key, seconds, cpu, start, end))
    outcome.peak_nodes = max(outcome.peak_nodes, result.peak_nodes)
    outcome.kernels.add(str(result.extra.get("kernel")))
    outcome.applies.add(str(result.extra.get("apply")))
    outcome.verdicts.append(f"{case.key}: {result.outcome} {result.iterations}"
                            f" {result.max_iterate_nodes}")
    reason = check(case.key, problem, result)
    if reason is not None:
        outcome.failures.append(f"{case.key}: {reason}")
    if recorder is not None:
        # Nodes the build made: the manager's total before verify began.
        outcome.counters["build_nodes"] += (
            problem.machine.manager.stats()["nodes_created"]
            - result.bdd_stats["nodes_created"])
        _record_counts(outcome.counters, result)


def run_pass(repro, cases: List[Case], traced: bool,
             probe: Optional[SpeedProbe] = None) -> PassResult:
    """One pass over ``cases``; traced passes also keep their spans.

    An untraced pass runs under ``probe``, and the time of the probes
    taken inside a case is taken out of that case's times.
    """
    outcome = PassResult()
    if not traced:
        with probe.running():
            for case in cases:
                run_case(repro, case, outcome)
        for index, (key, seconds, cpu, start, end) in \
                enumerate(outcome.samples):
            probe_wall, probe_cpu = probe.inside(start, end)
            outcome.seconds -= probe_wall / 1e9
            outcome.cpu_seconds -= probe_cpu / 1e9
            outcome.samples[index] = (key, seconds - probe_wall / 1e9,
                                      cpu - probe_cpu / 1e9, start, end)
        return outcome
    recorder = SpanRecorder()
    with installed(recorder):
        for case in cases:
            run_case(repro, case, outcome, recorder)
    outcome.spans = recorder.spans
    return outcome


def _ratio(counters: Counter, hits: str, misses: str) -> float:
    total = counters[hits] + counters[misses]
    return counters[hits] / total if total else 0.0


def layer_metrics(outcome: PassResult) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (all but the overhead)."""
    self_ns = layer_self_ns(outcome.spans)
    calls = span_counts(outcome.spans)
    c = outcome.counters
    metrics: Dict[str, float] = {
        name: sum(self_ns[span] for span in spans) / 1e9
        for name, spans in LAYER_SPANS.items()}
    metrics.update({
        "models.build_nodes": c["build_nodes"],
        "fsm.back_image_calls": calls["fsm.back_image"],
        "fsm.image_calls": calls["fsm.image"],
        "fsm.counterexample_calls": calls["fsm.counterexample"],
        "iclist.merges": c["merges"],
        "iclist.pairs_built": c["pairs_built"],
        "iclist.pair_cache_hit_ratio": _ratio(c, "product_hits",
                                              "product_misses"),
        "iclist.tautology_calls": c["tautology_calls"],
        "iclist.shannon_expansions": c["shannon_expansions"],
        "bdd.ite_calls": c["ite_hits"] + c["ite_misses"],
        "bdd.ite_hit_ratio": _ratio(c, "ite_hits", "ite_misses"),
        "bdd.quantify_hit_ratio": _ratio(c, "quantify_hits",
                                         "quantify_misses"),
        "bdd.and_exists_calls": (c["and_exists_hits"]
                                 + c["and_exists_misses"]),
        "bdd.and_exists_hit_ratio": _ratio(c, "and_exists_hits",
                                           "and_exists_misses"),
        "bdd.restrict_calls": (c["restrict_hits"]
                               + c["restrict_misses"]),
        "bdd.restrict_hit_ratio": _ratio(c, "restrict_hits",
                                         "restrict_misses"),
        "bdd.nodes_created": c["nodes_created"],
        "bdd.cache_evictions": (c["cache_evictions"]
                                + c["opcache_evictions"]),
        "bdd.gc_runs": c["gc_runs"],
        "bdd.gc_freed": c["gc_freed"],
        "core.iterations": c["iterations"],
    })
    return metrics


def guard(workload: str, outcome: PassResult,
          metrics: Dict[str, float]) -> None:
    """Raise :class:`GuardError` if a traced pass breaks the design."""
    unknown = set(span_counts(outcome.spans)) - {
        span for spans in LAYER_SPANS.values() for span in spans}
    if unknown:
        raise GuardError(f"spans of no layer: {sorted(unknown)}")
    self_total = sum(layer_self_ns(outcome.spans).values())
    case_total = sum(end - start for name, start, end, _p, _c
                     in outcome.spans if name == "case")
    if self_total != case_total:
        raise GuardError(f"layer self times sum to {self_total} ns, "
                         f"the traced cases to {case_total} ns")
    for name in REQUIRED_NONZERO[workload]:
        if not metrics[name]:
            raise GuardError(f"{name} is 0 on {workload}")
    for name in REQUIRED_ZERO[workload]:
        if metrics[name]:
            raise GuardError(f"{name} is {metrics[name]} on {workload}, "
                             f"expected 0")


def case_ref_times(cases: List[Case], passes: List[PassResult],
                   probe: SpeedProbe) -> Tuple[List[float], List[float]]:
    """Each case's median wall and CPU time in probe lengths, in pass order.

    A case listed twice in a pass appears twice; a case that never
    returned is left out.  See :mod:`hostspeed` for why time is
    measured in probe lengths.
    """
    wall: Dict[str, List[float]] = {}
    cpu: Dict[str, List[float]] = {}
    for outcome in passes:
        for key, seconds, cpu_seconds, start, end in outcome.samples:
            probe_wall, probe_cpu = probe.speed(start, end)
            wall.setdefault(key, []).append(seconds * 1e9 / probe_wall)
            cpu.setdefault(key, []).append(cpu_seconds * 1e9 / probe_cpu)
    keys = [case.key for case in cases if case.key in wall]
    return ([statistics.median(wall[key]) for key in keys],
            [statistics.median(cpu[key]) for key in keys])


def set_up(workload: str, seed: int):
    """Import the program, generate the cases and warm up.

    Returns ``(repro, cases, seconds)``; this is what ``setup_s`` times.
    """
    start = time.perf_counter()
    repro = load_program()
    cases = generate(workload, seed)
    warmup = warmup_case()
    repro.verify(repro.build_model(warmup.model, **dict(warmup.params)),
                 warmup.method)
    return repro, cases, time.perf_counter() - start


def setup_sample(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(child.stdout.split()[-1])


def source_revision() -> str:
    """The git revision, or a digest of ``src/`` outside a git checkout."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            if git.returncode == 0:
                return git.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for directory, subdirs, files in os.walk(src):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-sha1:" + digest.hexdigest()


def write_spans(workload: str, seed: int, spans: list) -> str:
    """Write one traced pass's spans as JSON lines; returns the path."""
    out = os.path.join(ROOT, ".e2ebench_out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w") as handle:
        for index, (name, start, end, parent, case) in enumerate(spans):
            handle.write(json.dumps(
                {"id": index, "name": name, "start_ns": start,
                 "end_ns": end, "parent": parent, "case": case}) + "\n")
    return path


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the benchmark; returns the result object the CLI prints."""
    repro, cases, setup = set_up(workload, seed)
    setups = [setup]
    wanted = 1 if trace else SETUP_SAMPLES
    probe = SpeedProbe()
    untraced: List[PassResult] = []
    traced: List[PassResult] = []
    start = time.perf_counter()
    while True:
        use_trace = trace and len(traced) < len(untraced)
        outcome = run_pass(repro, cases, use_trace,
                           None if use_trace else probe)
        if use_trace:
            outcome.layers = layer_metrics(outcome)
            guard(workload, outcome, outcome.layers)
            if traced:
                outcome.spans = None
            traced.append(outcome)
        else:
            untraced.append(outcome)
        if len(setups) < wanted:
            # Set-up samples do not count towards the measured seconds.
            began = time.perf_counter()
            setups.append(setup_sample(workload, seed))
            start += time.perf_counter() - began
        if time.perf_counter() - start >= seconds and \
                (not trace or traced):
            break
    while len(setups) < wanted:
        setups.append(setup_sample(workload, seed))
    everything = untraced + traced
    attempted = len(cases) * len(everything)
    failures = [failure for p in everything for failure in p.failures]
    for failure in failures:
        sys.stderr.write(f"FAILED {failure}\n")
    wall, cpu = case_ref_times(cases, untraced, probe)
    if trace:
        layers = [p.layers for p in traced]
        # median_low keeps the exact counts whole numbers.
        values = {name: statistics.median_low(layer[name]
                                              for layer in layers)
                  for name in layers[0]}
        values["bench.trace_overhead_frac"] = (
            statistics.median(p.seconds for p in traced)
            / statistics.median(p.seconds for p in untraced) - 1.0)
        section = "per_layer"
        spans_path = write_spans(workload, seed, traced[0].spans)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "suite_ref": sum(wall),
            "suite_cpu_ref": sum(cpu),
            "verdict_ref_p50": statistics.median(wall),
            "verdict_ref_p90": statistics.quantiles(wall, n=10,
                                                    method="inclusive")[-1],
            "peak_nodes_max": max(p.peak_nodes for p in everything),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        section = "end_to_end"
        spans_path = None
    meta = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "passes": len(untraced), "traced_passes": len(traced),
        "cases_per_pass": len(cases), "verdict_samples": len(wall),
        "case_samples": sum(len(p.samples) for p in untraced),
        "suite_s": statistics.median(p.seconds for p in untraced),
        "probe_s": statistics.median(probe.wall) / 1e9,
        "probes": len(probe.wall),
        "failed_frac": len(failures) / attempted,
        "setup_samples_s": setups,
        "kernel": sorted(set().union(*(p.kernels for p in everything))),
        "apply": sorted(set().union(*(p.applies for p in everything))),
        "rev": source_revision(), "nproc": os.cpu_count(),
        "python": sys.version.split()[0], "spans": spans_path,
    }
    if trace:
        meta["traced_suite_s"] = statistics.median(p.seconds
                                                   for p in traced)
    return {"meta": meta,
            "result": {"correct": not failures, "attempted": attempted,
                       "failed": len(failures),
                       "metrics": {name: {"value": values[name],
                                          "unit": unit}
                                   for name, unit in metric_units(section)
                                   }}}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(set_up(args.workload, args.seed)[2])
        return 0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        report = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except GuardError as error:
        sys.stderr.write(f"e2ebench: traced run guard: {error}\n")
        return 3
    print(json.dumps({"meta": report["meta"]}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
