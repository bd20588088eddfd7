import csv
import hashlib
import math

from pcreduce.core import AdditivePCMatrix, MultiplicativePCMatrix, upper_pairs
from pcreduce.indicators import point_at
from pcreduce.repro import (
    REFERENCE_RUNS,
    entry_names,
    format_report,
    label_order,
    run_all,
    run_row,
    start_matrix,
    write_summary_csv,
)

# sha256 of the summary.csv that run_all writes.  The descent's floats come
# from this platform's libm (log, exp, pow), so the hash pins it too.  A
# change meant to alter outputs updates the hash and says why in CHANGES.md.
SUMMARY_SHA256 = "7c5b197850233415e247e5079cd58b7a864707de5026bc6a4e8acd6cf1a6195b"

# sha256 of the 16 trace files that run_all writes, concatenated in name
# order (5,410,647 bytes); pinned like SUMMARY_SHA256.
TRACES_SHA256 = "98aaf60d0c80d8360b6aee71cbc1962afc41c201e8212955f0fd3f5cb4a10518"


class TestReferenceTable:
    def test_sixteen_rows_in_table_order(self):
        assert len(REFERENCE_RUNS) == 16
        labels = [r.label for r in REFERENCE_RUNS]
        assert labels == sorted(labels)
        assert len(set(labels)) == 16

    def test_entry_counts_match_order(self):
        for row in REFERENCE_RUNS:
            assert len(row.ref_entries) == (3 if row.n == 3 else 6)

    def test_start_matrices(self):
        m3 = start_matrix(REFERENCE_RUNS[0])
        assert m3.n == 3
        assert m3.upper[0] == math.exp(-2.0)
        b3 = start_matrix(REFERENCE_RUNS[3])
        assert b3.upper == (-2.0, 3.0, 1.0)
        m4 = start_matrix(REFERENCE_RUNS[7])
        assert m4.n == 4

    def test_every_start_evaluates_at_its_p(self):
        # so every run has iterate 0, and with it a best iterate
        for row in REFERENCE_RUNS:
            point_at(start_matrix(row), row.p)

    def test_label_order_permutes_storage(self):
        assert sorted(label_order(4)) == [0, 1, 2, 3, 4, 5]
        assert label_order(4) == (0, 1, 3, 2, 4, 5)
        assert label_order(3) == (0, 1, 2)
        for n in (5, 6):  # column order: by j, then by i
            pairs = upper_pairs(n)
            assert sorted(label_order(n)) == list(range(len(pairs)))
            assert [pairs[k] for k in label_order(n)] == sorted(pairs, key=lambda ij: ij[::-1])

    def test_entry_names_follow_table_order(self):
        assert entry_names(4, "multiplicative") == (
            "a_1_2", "a_1_3", "a_2_3", "a_1_4", "a_2_4", "a_3_4")
        assert entry_names(3, "additive") == ("b_1_2", "b_1_3", "b_2_3")
        assert entry_names(5, "additive")[6:] == ("b_1_5", "b_2_5", "b_3_5", "b_4_5")
        assert entry_names(6, "multiplicative")[10:] == (
            "a_1_6", "a_2_6", "a_3_6", "a_4_6", "a_5_6")


class TestRunRow:
    def test_cheapest_row_reproduces(self):
        oc = run_row(REFERENCE_RUNS[0])  # ~230 iterations
        assert oc.result.stop_reason == "converged"
        assert max(oc.entry_devs) < 0.01
        assert oc.iter_dev <= 35  # within 15% of 230

    def test_outcome_entries_are_label_ordered(self):
        oc = run_row(REFERENCE_RUNS[0])
        assert oc.best_entries == tuple(
            oc.result.best_matrix.upper[k] for k in label_order(3))


class TestIdentity:
    def test_summary_csv_is_pinned(self, tmp_path):
        run_all(outdir=tmp_path)
        digest = hashlib.sha256((tmp_path / "summary.csv").read_bytes()).hexdigest()
        assert digest == SUMMARY_SHA256
        traces = hashlib.sha256()
        for path in sorted(tmp_path.glob("*.trace")):
            traces.update(path.read_bytes())
        assert traces.hexdigest() == TRACES_SHA256

    def test_one_validated_matrix_per_iteration(self, monkeypatch):
        built = []
        for cls in (MultiplicativePCMatrix, AdditivePCMatrix):
            def counted(self, original=cls.__post_init__):
                built.append(type(self))
                original(self)
            monkeypatch.setattr(cls, "__post_init__", counted)
        oc = run_row(REFERENCE_RUNS[0])
        k = oc.result.trace.records[-1].iteration
        assert k > 100
        # the start matrix and the best iterate; the iterates are raw tuples
        assert len(built) <= 2


class TestReporting:
    def test_report_contains_rows_and_devs(self):
        oc = run_row(REFERENCE_RUNS[0])
        text = format_report([oc])
        assert "01_mult3_h0.1_l0.001" in text
        assert "best_iter" in text
        assert "dev" in text

    def test_summary_csv_shape(self, tmp_path):
        oc = run_row(REFERENCE_RUNS[0])
        path = tmp_path / "summary.csv"
        write_summary_csv(path, [oc])
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0][0] == "label"
        assert len(rows) == 2
        row = dict(zip(rows[0], rows[1]))
        assert row["stop_reason"] == "converged"
        assert float(row["max_entry_dev"]) < 0.01
        assert len(row["best_entries"].split(";")) == 3
