"""Tests for the content-addressed run ledger (repro.obs.ledger).

Pins the artifact discipline (same content, same id; schema-version
validation; unique-prefix lookup), the phase-by-phase run diff that
``repro compare`` prints, and the equivalence between the gate's
``compare_reports`` and the shared :func:`diff_reports` core.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

from repro.core import Options, verify
from repro.models import build_model
from repro.obs import SpanProfiler, benchjson, ledger

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))


def _result(**options):
    problem = build_model("movavg", depth=2, width=4)
    return verify(problem, "xici", Options(**options))


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One ledger with two runs of the same config recorded."""
    root = tmp_path_factory.mktemp("ledger")
    ids = []
    for _ in range(2):
        spans = SpanProfiler()
        result = _result(spans=spans)
        ids.append(ledger.record_run(root, result,
                                     config={"method": "xici"},
                                     spans=spans))
    return root, ids


class TestContentAddressing:
    def test_same_document_same_id(self, tmp_path):
        result = _result()
        id_a = ledger.record_run(tmp_path, result, config={"k": 1})
        id_b = ledger.record_run(tmp_path, result, config={"k": 1})
        assert id_a == id_b
        assert len(ledger.list_runs(tmp_path)) == 1

    def test_different_config_different_id(self, tmp_path):
        result = _result()
        id_a = ledger.record_run(tmp_path, result, config={"k": 1})
        id_b = ledger.record_run(tmp_path, result, config={"k": 2})
        assert id_a != id_b

    def test_run_id_is_stable_across_key_order(self):
        doc_a = {"schema_version": 1, "model": "m", "b": 2, "a": 1}
        doc_b = {"a": 1, "b": 2, "model": "m", "schema_version": 1}
        assert ledger.run_id_of(doc_a) == ledger.run_id_of(doc_b)
        assert len(ledger.run_id_of(doc_a)) == 12

    def test_document_shape(self):
        result = _result()
        doc = ledger.run_document(result, config={"k": 1})
        assert doc["schema_version"] == ledger.LEDGER_SCHEMA_VERSION
        assert doc["kind"] == "run"
        assert doc["model"] == result.model
        assert doc["method"] == result.method
        assert doc["config"] == {"k": 1}
        assert doc["result"]["outcome"] == "verified"
        json.dumps(doc, default=str)


class TestLoadAndList:
    def test_round_trip(self, recorded):
        root, ids = recorded
        run_id, doc = ledger.load_run(root, ids[0])
        assert run_id == ids[0]
        assert doc["model"] == "movavg-2x4"
        assert doc["result"]["span_rollup"]

    def test_trace_artifact_saved_alongside(self, recorded):
        root, ids = recorded
        trace = json.loads((root / ids[0] / "trace.json").read_text())
        assert any(e.get("name") == "run"
                   for e in trace["traceEvents"])

    def test_prefix_lookup(self, recorded):
        root, ids = recorded
        run_id, _ = ledger.load_run(root, ids[0][:6])
        assert run_id == ids[0]

    def test_unknown_id_raises(self, recorded):
        root, _ = recorded
        with pytest.raises(FileNotFoundError):
            ledger.load_run(root, "000000000000")

    def test_wrong_schema_version_rejected(self, tmp_path):
        run_dir = tmp_path / "deadbeef0000"
        run_dir.mkdir()
        (run_dir / ledger.RUN_FILENAME).write_text(json.dumps(
            {"schema_version": 99, "model": "m", "method": "x",
             "result": {}}))
        with pytest.raises(ValueError, match="schema_version"):
            ledger.load_run(tmp_path, "deadbeef0000")

    @staticmethod
    def _plant(root, run_id, text):
        run_dir = root / run_id
        run_dir.mkdir()
        (run_dir / ledger.RUN_FILENAME).write_text(text)

    def test_list_skips_truncated_document(self, tmp_path):
        good = ledger.record_run(tmp_path, _result(), config={"k": 1})
        text = (tmp_path / good / ledger.RUN_FILENAME).read_text()
        self._plant(tmp_path, "000000000000", text[:len(text) // 2])
        skipped = []
        runs = ledger.list_runs(tmp_path, skipped)
        assert [rid for rid, _ in runs] == [good]
        assert skipped == ["000000000000"]
        # An explicit id still reports the damage.
        with pytest.raises(ValueError):
            ledger.load_run(tmp_path, "000000000000")

    def test_list_skips_wrong_schema_version(self, tmp_path):
        good = ledger.record_run(tmp_path, _result(), config={"k": 1})
        self._plant(tmp_path, "deadbeef0000", json.dumps(
            {"schema_version": 99, "model": "m", "method": "x",
             "result": {}}))
        skipped = []
        assert [rid for rid, _ in ledger.list_runs(tmp_path, skipped)] \
            == [good]
        assert skipped == ["deadbeef0000"]

    def test_record_leaves_no_temp_file(self, tmp_path):
        run_id = ledger.record_run(tmp_path, _result(), config={"k": 1})
        assert sorted(p.name for p in (tmp_path / run_id).iterdir()) == \
            [ledger.RUN_FILENAME]


class TestDiffRuns:
    def _docs(self, recorded):
        root, ids = recorded
        _, doc_a = ledger.load_run(root, ids[0])
        _, doc_b = ledger.load_run(root, ids[1])
        return doc_a, doc_b

    def test_same_config_runs_compare_clean(self, recorded):
        doc_a, doc_b = self._docs(recorded)
        diff = ledger.diff_runs(doc_a, doc_b)
        assert diff["passed"]
        assert diff["regressions"] == []
        assert diff["key_match"]

    def test_phase_metrics_are_compared(self, recorded):
        doc_a, doc_b = self._docs(recorded)
        diff = ledger.diff_runs(doc_a, doc_b)
        compared = {check["metric"] for check in diff["checks"]}
        assert "iterations" in compared
        assert "span_run_self_seconds" in compared
        assert any(metric.startswith("termination_tier_")
                   for metric in compared) \
            or "span_termination_test_self_seconds" in compared

    def test_iteration_change_is_a_regression(self, recorded):
        doc_a, doc_b = self._docs(recorded)
        doc_b = copy.deepcopy(doc_b)
        doc_b["result"]["iterations"] += 1
        diff = ledger.diff_runs(doc_a, doc_b)
        assert not diff["passed"]
        assert any("iterations" in r for r in diff["regressions"])

    def test_config_mismatch_flagged_not_failed(self, recorded):
        doc_a, doc_b = self._docs(recorded)
        doc_b = copy.deepcopy(doc_b)
        doc_b["config"] = {"method": "other"}
        diff = ledger.diff_runs(doc_a, doc_b)
        assert not diff["key_match"]
        assert diff["passed"]  # key mismatch is a note, not a verdict

    def test_render_markdown(self, recorded):
        root, ids = recorded
        doc_a, doc_b = self._docs(recorded)
        diff = ledger.diff_runs(doc_a, doc_b)
        text = ledger.render_run_diff(ids[0], doc_a, ids[1], doc_b, diff)
        assert f"# repro compare {ids[0]} → {ids[1]}" in text
        assert "**PASS** (zero regressions)" in text
        assert "| metric | A | B |" in text
        doc_b = copy.deepcopy(doc_b)
        doc_b["result"]["outcome"] = "exhausted"
        diff = ledger.diff_runs(doc_a, doc_b)
        text = ledger.render_run_diff(ids[0], doc_a, ids[1], doc_b, diff)
        assert "**FAIL**" in text
        assert "**REGRESSION**" in text


class TestRegressEquivalence:
    """benchmarks/regress.py must judge through the same diff core."""

    def _reports(self):
        base = benchjson.new_report("synthetic")
        benchjson.add_entry(base, "fifo", "xici", "default",
                            {"outcome": "verified", "iterations": 5,
                             "seconds": 0.5, "peak_nodes": 1000,
                             "max_iterate_nodes": 100})
        current = copy.deepcopy(base)
        current["entries"][0]["metrics"]["peak_nodes"] = 5000
        benchjson.add_entry(current, "movavg", "xici", "default",
                            {"outcome": "verified", "iterations": 2,
                             "seconds": 0.1, "peak_nodes": 10,
                             "max_iterate_nodes": 5})
        return base, current

    def test_compare_reports_is_a_view_of_diff_reports(self):
        import regress
        base, current = self._reports()
        diff = ledger.diff_reports(base, current)
        violations, notes = regress.compare_reports(base, current)
        assert violations == diff["violations"]
        assert notes == diff["notes"]
        assert not diff["passed"]
        assert regress.Tolerance is ledger.Tolerance
        assert regress.DEFAULT_TOLERANCES is ledger.DEFAULT_TOLERANCES

    def test_structured_verdict_has_per_cell_checks(self):
        base, current = self._reports()
        diff = ledger.diff_reports(base, current)
        by_label = {cell["label"]: cell for cell in diff["cells"]}
        bad = by_label["synthetic:fifo/xici/default"]
        assert bad["status"] == "regression"
        failing = [c for c in bad["checks"]
                   if c["status"] == "regression"]
        assert failing[0]["metric"] == "peak_nodes"
        assert failing[0]["base"] == 1000
        assert failing[0]["current"] == 5000
        new = by_label["synthetic:movavg/xici/default"]
        assert new["status"] == "new"
        json.dumps(diff)


class TestCliLedgerAndCompare:
    def _verify_into(self, tmp_path, capsys):
        from repro.cli import main
        code = main(["verify", "--model", "fifo", "--depth", "3",
                     "--width", "4", "--method", "xici",
                     "--ledger", str(tmp_path)])
        assert code == 0
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines()
                 if line.startswith("ledger: ")]
        return lines[0].split()[-1]

    def test_verify_compare_round_trip(self, tmp_path, capsys):
        from repro.cli import main
        id_a = self._verify_into(tmp_path, capsys)
        id_b = self._verify_into(tmp_path, capsys)
        code = main(["compare", id_a, id_b, "--dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "zero regressions" in out

    def test_compare_json_verdict(self, tmp_path, capsys):
        from repro.cli import main
        id_a = self._verify_into(tmp_path, capsys)
        code = main(["compare", id_a, id_a, "--dir", str(tmp_path),
                     "--json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["passed"]
        assert data["run_a"] == id_a

    def test_ledger_list_and_show(self, tmp_path, capsys):
        from repro.cli import main
        run_id = self._verify_into(tmp_path, capsys)
        code = main(["ledger", "--dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert run_id in out and "fifo" in out
        code = main(["ledger", "show", run_id, "--dir", str(tmp_path)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["method"] == "XICI"

    def test_ledger_list_survives_torn_document(self, tmp_path, capsys):
        from repro.cli import main
        run_id = self._verify_into(tmp_path, capsys)
        torn = tmp_path / "0123456789ab"
        torn.mkdir()
        (torn / ledger.RUN_FILENAME).write_text('{"schema_version": 1, "mo')
        code = main(["ledger", "--dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert run_id in captured.out
        assert "0123456789ab" not in captured.out
        assert "skipped 1 unreadable run(s)" in captured.err


class TestRequestIndex:
    """The request-hash index (the job server's cache backing)."""

    HASH = "a" * 64

    def _archive_one(self, tmp_path):
        result = _result()
        return ledger.record_run(tmp_path, result,
                                 config={"method": "xici"})

    def test_record_and_lookup_round_trip(self, tmp_path):
        run_id = self._archive_one(tmp_path)
        ledger.record_request(tmp_path, self.HASH, run_id,
                              request={"model": "movavg"})
        assert ledger.lookup_request(tmp_path, self.HASH) == run_id
        doc = ledger.load_request(tmp_path, self.HASH)
        assert doc["run_id"] == run_id
        assert doc["request"] == {"model": "movavg"}

    def test_missing_hash_is_none(self, tmp_path):
        assert ledger.lookup_request(tmp_path, self.HASH) is None

    def test_dangling_run_reads_as_miss(self, tmp_path):
        ledger.record_request(tmp_path, self.HASH, "deadbeef0000")
        assert ledger.lookup_request(tmp_path, self.HASH) is None

    def test_path_traversal_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ledger.record_request(tmp_path, "../../evil", "run")
        with pytest.raises(ValueError):
            ledger.lookup_request(tmp_path, "a/b")

    def test_requests_dir_does_not_pollute_run_listing(self, tmp_path):
        run_id = self._archive_one(tmp_path)
        ledger.record_request(tmp_path, self.HASH, run_id)
        assert [rid for rid, _ in ledger.list_runs(tmp_path)] == [run_id]
