"""Content-addressed run ledger and the shared regression diff engine.

Two halves, one discipline:

* **The ledger** persists each verification run — model, method, the
  engine-relevant config (:meth:`Options.summary`), the full result
  dict (metrics snapshot and span rollup included when enabled) — as
  one artifact directory named by the sha256 of its canonical JSON.
  Same run content, same id: re-recording an identical run is a no-op,
  and an id cited in a PR or a CI log always denotes exactly one
  document.  Like :mod:`repro.obs.benchjson`, the document carries a
  ``schema_version`` that :func:`load_run` validates.

* **The diff engine** is the one tolerance-checking core shared by
  ``repro compare RUN_A RUN_B`` (two ledger entries, phase-by-phase)
  and ``benchmarks/regress.py`` (two benchjson reports, cell-by-cell).
  :class:`Tolerance` and :data:`DEFAULT_TOLERANCES` moved here from
  ``regress.py``, which now re-exports them; both consumers produce
  their verdicts through :func:`diff_metrics`, so a metric passing the
  perf gate and passing ``repro compare`` is the same judgement.

Tolerance semantics (unchanged from the original gate): improvements
always pass; a baseline metric missing from the current side **fails**
(dropped coverage must not read as green); a metric new on the current
side passes silently (there is nothing to compare it to).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from . import benchjson

__all__ = ["LEDGER_SCHEMA_VERSION", "Tolerance", "DEFAULT_TOLERANCES",
           "diff_metrics", "diff_reports", "run_document", "run_id_of",
           "record_run", "load_run", "list_runs", "run_metrics",
           "run_tolerances", "diff_runs", "render_run_diff",
           "record_request", "lookup_request", "load_request",
           "record_service", "load_service"]

#: Bump on any incompatible change to the run-document shape.
LEDGER_SCHEMA_VERSION = 1

#: Filename of the canonical document inside each artifact directory.
RUN_FILENAME = "run.json"

#: Subdirectory holding the request-hash index (see
#: :func:`record_request`).  Run ids are 12 hex chars, so the name can
#: never collide with a run directory.
REQUEST_INDEX_DIR = "requests"

#: Sidecar filename for service-side telemetry about one archived run
#: (see :func:`record_service`).  Kept *outside* ``run.json`` on
#: purpose: request ids and wall-clock phase timings vary between
#: identical runs, and the run document must stay content-addressed.
SERVICE_FILENAME = "service.json"


# ----------------------------------------------------------------------
# Tolerances and the metric-level diff
# ----------------------------------------------------------------------

class Tolerance:
    """How far a current metric may drift from its baseline.

    ``ratio`` bounds the multiplicative growth, ``abs_slack`` adds a
    flat allowance on top: ``limit = max(base * ratio, base + abs_slack)``.
    ``exact=True`` means any difference (in either direction) fails.
    Metrics only regress upward here — a *drop* in peak_nodes or
    seconds is an improvement and always passes.
    """

    def __init__(self, ratio: float = 1.0, abs_slack: float = 0.0,
                 exact: bool = False) -> None:
        self.ratio = ratio
        self.abs_slack = abs_slack
        self.exact = exact

    def check(self, base: float, current: float) -> Optional[str]:
        """None when within tolerance, else a violation description."""
        if self.exact:
            if current != base:
                return f"expected exactly {base}, got {current}"
            return None
        limit = max(base * self.ratio, base + self.abs_slack)
        if current > limit:
            return (f"{current} exceeds limit {limit:.4g} "
                    f"(baseline {base}, ratio {self.ratio}, "
                    f"slack {self.abs_slack})")
        return None


#: metric name -> Tolerance; metrics not listed are informational only.
DEFAULT_TOLERANCES: Dict[str, Tolerance] = {
    "outcome": Tolerance(exact=True),
    "iterations": Tolerance(exact=True),
    "peak_nodes": Tolerance(ratio=1.10),
    "max_iterate_nodes": Tolerance(ratio=1.10),
    "seconds": Tolerance(ratio=5.0, abs_slack=1.0),
}


def diff_metrics(base: Dict[str, Any], current: Dict[str, Any],
                 tolerances: Optional[Dict[str, Tolerance]] = None,
                 ) -> List[Dict[str, Any]]:
    """Check one metrics dict against another, metric by metric.

    Returns one cell per tolerance-listed metric present on either
    side: ``{"metric", "base", "current", "delta", "status", "detail"}``
    with status ``ok`` / ``regression`` / ``new`` (present only on the
    current side; passes).  A metric present in ``base`` but absent
    from ``current`` is a regression — dropped coverage fails.
    """
    if tolerances is None:
        tolerances = DEFAULT_TOLERANCES
    cells: List[Dict[str, Any]] = []
    for metric, tolerance in tolerances.items():
        in_base = metric in base
        in_current = metric in current
        if not in_base and not in_current:
            continue
        base_value = base.get(metric)
        cur_value = current.get(metric)
        delta = None
        if isinstance(base_value, (int, float)) \
                and isinstance(cur_value, (int, float)) \
                and not isinstance(base_value, bool) \
                and not isinstance(cur_value, bool):
            delta = round(cur_value - base_value, 6)
        cell = {"metric": metric, "base": base_value,
                "current": cur_value, "delta": delta,
                "status": "ok", "detail": ""}
        if not in_current:
            cell["status"] = "regression"
            cell["detail"] = (f"metric {metric!r} missing from "
                              "current run")
        elif not in_base:
            cell["status"] = "new"
            cell["detail"] = f"metric {metric!r} new (no baseline)"
        else:
            problem = tolerance.check(base_value, cur_value)
            if problem is not None:
                cell["status"] = "regression"
                cell["detail"] = f"{metric}: {problem}"
        cells.append(cell)
    return cells


def diff_reports(baseline: Dict[str, Any], current: Dict[str, Any],
                 tolerances: Optional[Dict[str, Tolerance]] = None,
                 cell_tolerances: Optional[
                     Dict[Tuple[str, str, str],
                          Dict[str, Tolerance]]] = None
                 ) -> Dict[str, Any]:
    """Diff two benchjson reports cell by cell (the perf gate's core).

    Returns a structured verdict: per-(model, method, config) cells,
    each with its metric checks from :func:`diff_metrics`, plus the
    flat ``violations`` / ``notes`` string lists the human gate prints
    and a ``passed`` boolean.

    ``cell_tolerances`` maps entry keys (model, method, config) to
    per-metric overrides merged over the shared ``tolerances`` for that
    cell only — the hook ``repro.obs.perf`` uses to gate wall time
    against each cell's own history confidence interval instead of the
    blunt global bound.
    """
    if tolerances is None:
        tolerances = DEFAULT_TOLERANCES
    name = current.get("benchmark", "?")
    base_index = benchjson.entry_index(baseline)
    current_index = benchjson.entry_index(current)
    cells: List[Dict[str, Any]] = []
    violations: List[str] = []
    notes: List[str] = []
    for key in sorted(base_index):
        label = f"{name}:{'/'.join(key)}"
        if key not in current_index:
            violations.append(f"{label}: cell missing from current run")
            cells.append({"key": list(key), "label": label,
                          "status": "missing", "checks": []})
            continue
        cell_tols = tolerances
        if cell_tolerances and key in cell_tolerances:
            cell_tols = dict(tolerances)
            cell_tols.update(cell_tolerances[key])
        checks = diff_metrics(base_index[key], current_index[key],
                              cell_tols)
        regressed = False
        for check in checks:
            if check["status"] == "regression":
                regressed = True
                violations.append(f"{label}: {check['detail']}")
        cells.append({"key": list(key), "label": label,
                      "status": "regression" if regressed else "ok",
                      "checks": checks})
    for key in sorted(current_index):
        if key not in base_index:
            label = f"{name}:{'/'.join(key)}"
            notes.append(f"{label}: new cell (no baseline; passes)")
            cells.append({"key": list(key), "label": label,
                          "status": "new", "checks": []})
    return {"benchmark": name, "cells": cells,
            "violations": violations, "notes": notes,
            "passed": not violations}


# ----------------------------------------------------------------------
# The run ledger
# ----------------------------------------------------------------------

def run_document(result: Any,
                 config: Optional[Dict[str, Any]] = None
                 ) -> Dict[str, Any]:
    """The canonical ledger document for one verification result.

    ``config`` is the engine-relevant knob dict
    (:meth:`repro.core.Options.summary`); the result dict carries the
    metrics snapshot and span rollup whenever the run collected them.
    No timestamps on purpose — the document is content-addressed, and
    identical runs should collide.
    """
    return {
        "schema_version": LEDGER_SCHEMA_VERSION,
        "kind": "run",
        "model": result.model,
        "method": result.method,
        "config": dict(config or {}),
        "result": result.to_dict(include_profiles=False,
                                 include_counterexample=False),
    }


def _canonical(doc: Dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      default=str)


def run_id_of(doc: Dict[str, Any]) -> str:
    """Content address of one run document (12 hex chars of sha256)."""
    return hashlib.sha256(_canonical(doc).encode("utf-8")).hexdigest()[:12]


def record_run(ledger_dir: Union[str, Path], result: Any,
               config: Optional[Dict[str, Any]] = None,
               spans: Any = None) -> str:
    """Persist one run as ``<ledger_dir>/<run_id>/run.json``.

    When an enabled span profiler is given, its Chrome trace is saved
    alongside as ``trace.json`` (the rollup is already inside the
    document via the result).  Returns the run id.  Re-recording an
    identical run overwrites its own directory — a no-op by content.
    """
    doc = run_document(result, config)
    run_id = run_id_of(doc)
    run_dir = Path(ledger_dir) / run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic(run_dir / RUN_FILENAME,
                  json.dumps(doc, indent=2, sort_keys=True, default=str)
                  + "\n")
    if spans is not None and getattr(spans, "enabled", False):
        _write_atomic(run_dir / "trace.json",
                      json.dumps(spans.to_chrome_trace()) + "\n")
    return run_id


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` so readers never see a torn document.

    The text goes to a temp file in the same directory, which
    :func:`os.replace` then renames over ``path`` in one step.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_doc(path: Path) -> Dict[str, Any]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a run document")
    version = doc.get("schema_version")
    if version != LEDGER_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {version!r} != "
            f"{LEDGER_SCHEMA_VERSION} (re-record the run)")
    for field in ("model", "method", "result"):
        if field not in doc:
            raise ValueError(f"{path}: missing {field!r}")
    return doc


def list_runs(ledger_dir: Union[str, Path],
              skipped: Optional[List[str]] = None
              ) -> List[Tuple[str, Dict[str, Any]]]:
    """All readable (run_id, document) pairs in the ledger, id-sorted.

    A document that cannot be read (truncated, not JSON, or of another
    schema) is left out rather than failing the whole listing; its run
    id is appended to ``skipped`` when a list is given.
    """
    root = Path(ledger_dir)
    if not root.is_dir():
        return []
    runs: List[Tuple[str, Dict[str, Any]]] = []
    for entry in sorted(root.iterdir()):
        doc_path = entry / RUN_FILENAME
        if entry.is_dir() and doc_path.is_file():
            try:
                doc = _load_doc(doc_path)
            except (OSError, ValueError):
                if skipped is not None:
                    skipped.append(entry.name)
                continue
            runs.append((entry.name, doc))
    return runs


def load_run(ledger_dir: Union[str, Path], run_id: str
             ) -> Tuple[str, Dict[str, Any]]:
    """Load one run by id or unique id prefix."""
    root = Path(ledger_dir)
    exact = root / run_id / RUN_FILENAME
    if exact.is_file():
        return run_id, _load_doc(exact)
    matches = [entry for entry in (sorted(root.iterdir())
                                   if root.is_dir() else [])
               if entry.is_dir() and entry.name.startswith(run_id)
               and (entry / RUN_FILENAME).is_file()]
    if not matches:
        raise FileNotFoundError(
            f"no run {run_id!r} in ledger {root}")
    if len(matches) > 1:
        names = ", ".join(entry.name for entry in matches)
        raise ValueError(f"run id prefix {run_id!r} is ambiguous: {names}")
    entry = matches[0]
    return entry.name, _load_doc(entry / RUN_FILENAME)


# ----------------------------------------------------------------------
# The request-hash index (verification-as-a-service cache keying)
# ----------------------------------------------------------------------
#
# Run ids content-address the *document* (config + result), which is
# only known after a run finishes — a client holding a request cannot
# derive the run id up front.  The request index closes that gap: the
# job server keys every completed run by its canonical request hash
# (:func:`repro.core.options.request_hash`), so an identical future
# request resolves to the archived run without executing anything.

def _request_path(ledger_dir: Union[str, Path], request_hash: str) -> Path:
    if not request_hash or any(ch in request_hash for ch in "/\\."):
        raise ValueError(f"malformed request hash {request_hash!r}")
    return Path(ledger_dir) / REQUEST_INDEX_DIR / f"{request_hash}.json"


def record_request(ledger_dir: Union[str, Path], request_hash: str,
                   run_id: str,
                   request: Optional[Dict[str, Any]] = None,
                   request_id: Optional[str] = None) -> Path:
    """Index one archived run under its canonical request hash.

    Writes ``<ledger_dir>/requests/<request_hash>.json`` pointing at
    ``run_id`` (which must already be recorded via
    :func:`record_run`), optionally keeping the original request
    document and the service ``request_id`` that first produced the
    run for auditability.  Re-recording the same hash overwrites
    — the engines are deterministic, so any run reached from the same
    request is interchangeable.  Returns the index path.
    """
    path = _request_path(ledger_dir, request_hash)
    path.parent.mkdir(parents=True, exist_ok=True)
    entry = {
        "schema_version": LEDGER_SCHEMA_VERSION,
        "kind": "request",
        "request_hash": request_hash,
        "run_id": run_id,
    }
    if request is not None:
        entry["request"] = request
    if request_id is not None:
        entry["request_id"] = request_id
    _write_atomic(path, json.dumps(entry, indent=2, sort_keys=True,
                                   default=str) + "\n")
    return path


def record_service(ledger_dir: Union[str, Path], run_id: str,
                   document: Dict[str, Any]) -> Path:
    """Attach service telemetry to one archived run as a sidecar.

    Writes ``<ledger_dir>/<run_id>/service.json`` with the job server's
    per-run context — ``request_id``, ``job_id``, ``request_hash``, and
    the phase rollup (queue wait, build, run, archive).  The sidecar is
    deliberately *not* part of the content-addressed ``run.json``
    (identical runs must collide regardless of when or for whom they
    executed); like ``trace.json`` it rides alongside.  The run must
    already be recorded.  Returns the sidecar path.
    """
    run_dir = Path(ledger_dir) / run_id
    if not (run_dir / RUN_FILENAME).is_file():
        raise FileNotFoundError(
            f"no run {run_id!r} in ledger {ledger_dir} "
            f"(record_run first)")
    doc = {"schema_version": LEDGER_SCHEMA_VERSION,
           "kind": "service",
           "run_id": run_id}
    doc.update(document)
    path = run_dir / SERVICE_FILENAME
    _write_atomic(path, json.dumps(doc, indent=2, sort_keys=True,
                                   default=str) + "\n")
    return path


def load_service(ledger_dir: Union[str, Path], run_id: str
                 ) -> Optional[Dict[str, Any]]:
    """The service sidecar for one run, or None when never recorded."""
    path = Path(ledger_dir) / run_id / SERVICE_FILENAME
    if not path.is_file():
        return None
    doc = json.loads(path.read_text(encoding="utf-8"))
    version = doc.get("schema_version")
    if version != LEDGER_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {version!r} != "
            f"{LEDGER_SCHEMA_VERSION} (re-record the run)")
    return doc


def load_request(ledger_dir: Union[str, Path], request_hash: str
                 ) -> Optional[Dict[str, Any]]:
    """The raw index entry for one request hash, or None."""
    path = _request_path(ledger_dir, request_hash)
    if not path.is_file():
        return None
    entry = json.loads(path.read_text(encoding="utf-8"))
    version = entry.get("schema_version")
    if version != LEDGER_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {version!r} != "
            f"{LEDGER_SCHEMA_VERSION} (re-record the request)")
    return entry


def lookup_request(ledger_dir: Union[str, Path], request_hash: str
                   ) -> Optional[str]:
    """Resolve a request hash to its archived run id (the cache probe).

    None when the hash was never recorded *or* the indexed run
    directory has since been deleted — a dangling pointer must read as
    a cache miss, not serve a missing document.
    """
    entry = load_request(ledger_dir, request_hash)
    if entry is None:
        return None
    run_id = entry.get("run_id")
    if not run_id:
        return None
    if not (Path(ledger_dir) / run_id / RUN_FILENAME).is_file():
        return None
    return run_id


# ----------------------------------------------------------------------
# Phase-by-phase run comparison (``repro compare``)
# ----------------------------------------------------------------------

def run_metrics(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The comparable metric dict of one ledger document.

    The benchjson core five (outcome / iterations / seconds /
    peak_nodes / max_iterate_nodes), plus the termination-tier tallies
    when the run was metered, plus one ``span_<name>_self_seconds``
    phase metric per span-rollup row when the run was span-profiled.
    """
    result = doc.get("result", {})
    metrics: Dict[str, Any] = {
        "outcome": result.get("outcome"),
        "iterations": result.get("iterations"),
        "seconds": round(float(result.get("elapsed_seconds") or 0.0), 4),
        "peak_nodes": result.get("peak_nodes"),
        "max_iterate_nodes": result.get("max_iterate_nodes"),
    }
    counters = (result.get("metrics") or {}).get("counters") or {}
    for key in sorted(counters):
        if key.startswith("termination_tier_"):
            metrics[key] = counters[key]
    rollup = result.get("span_rollup") or {}
    for name in sorted(rollup):
        agg = rollup[name]
        metrics[f"span_{name}_self_seconds"] = round(
            float(agg.get("self_seconds") or 0.0), 4)
    return metrics


def run_tolerances(*metric_dicts: Dict[str, Any]
                   ) -> Dict[str, Tolerance]:
    """Tolerances covering every metric either run carries.

    Tier tallies are deterministic, so exact; span phase times are wall
    clock, so they get the same generous bound as ``seconds``.
    """
    tolerances = dict(DEFAULT_TOLERANCES)
    extras = sorted({key for metrics in metric_dicts for key in metrics
                     if key not in tolerances})
    for key in extras:
        if key.startswith("termination_tier_"):
            tolerances[key] = Tolerance(exact=True)
        elif key.endswith("_seconds"):
            tolerances[key] = Tolerance(ratio=5.0, abs_slack=1.0)
    return tolerances


def diff_runs(doc_a: Dict[str, Any], doc_b: Dict[str, Any]
              ) -> Dict[str, Any]:
    """Phase-by-phase diff of two ledger documents (A = baseline)."""
    metrics_a = run_metrics(doc_a)
    metrics_b = run_metrics(doc_b)
    checks = diff_metrics(metrics_a, metrics_b,
                          run_tolerances(metrics_a, metrics_b))
    regressions = [f"{check['metric']}: {check['detail']}"
                   if check["current"] is None else check["detail"]
                   for check in checks if check["status"] == "regression"]
    key_match = all(doc_a.get(field) == doc_b.get(field)
                    for field in ("model", "method", "config"))
    return {"checks": checks, "regressions": regressions,
            "passed": not regressions, "key_match": key_match}


def _fmt_value(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_run_diff(id_a: str, doc_a: Dict[str, Any],
                    id_b: str, doc_b: Dict[str, Any],
                    diff: Dict[str, Any]) -> str:
    """Markdown report of one :func:`diff_runs` verdict."""
    lines = [f"# repro compare {id_a} → {id_b}", ""]
    for run_id, doc in ((id_a, doc_a), (id_b, doc_b)):
        result = doc.get("result", {})
        lines.append(
            f"- `{run_id}` — {doc.get('model')}/{doc.get('method')}, "
            f"outcome *{result.get('outcome')}*, "
            f"{result.get('iterations')} iterations, "
            f"{_fmt_value(result.get('elapsed_seconds'))}s")
    if not diff["key_match"]:
        lines.append("- **note:** the runs differ in model, method, or "
                     "config — this is not a like-for-like comparison")
    count = len(diff["regressions"])
    lines.append(f"- verdict: "
                 + ("**PASS** (zero regressions)" if diff["passed"]
                    else f"**FAIL** ({count} regression(s))"))
    lines.append("")
    lines.append("| metric | A | B | Δ | verdict |")
    lines.append("|---|---:|---:|---:|---|")
    for check in diff["checks"]:
        verdict = check["status"]
        if verdict == "regression":
            verdict = f"**REGRESSION** — {check['detail']}"
        lines.append(
            f"| {check['metric']} | {_fmt_value(check['base'])} "
            f"| {_fmt_value(check['current'])} "
            f"| {_fmt_value(check['delta'])} | {verdict} |")
    return "\n".join(lines)
