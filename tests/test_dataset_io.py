"""Dataset layer: loading annotation files (JSONL and CSV) with precise
row-level error reporting, per-item posterior scoring against closed forms,
ranking and filtering of reports, and lossless export/import round trips.
"""

import csv
import io
import json
import math

import pytest

from ambiq.dataset_io import (
    _report_to_json_obj,
    export_reports,
    import_reports,
    load_records,
    rank_and_filter,
    score_items,
)
from ambiq.exceptions import (
    DataFileError,
    DomainError,
    EmptyFile,
    MalformedRow,
    MissingField,
    TooFewSamples,
    UnknownLabel,
)
from ambiq.frequentist import CountVector
from ambiq.measures import CategorySchema, MeasureKind

YES_NO = CategorySchema(labels=("yes", "no"))


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    return str(path)


class TestLoadJsonl:
    def test_aggregates_counts_per_item(self, tmp_path):
        path = write_jsonl(
            tmp_path / "ann.jsonl",
            [
                {"item_id": "b", "annotator_id": "a1", "response": "yes"},
                {"item_id": "a", "annotator_id": "a1", "response": "no"},
                {"item_id": "b", "annotator_id": "a2", "response": "cs"},
                {"item_id": "b", "annotator_id": "a3", "response": "yes"},
            ],
        )
        result = load_records(path, schema=YES_NO)
        assert result.n_rows == 4
        assert list(result.items) == ["a", "b"]  # sorted by item id
        assert result.items["b"] == CountVector(proper=(2, 0), cs=1)
        assert result.items["a"] == CountVector(proper=(0, 1), cs=0)

    def test_duplicate_pairs_counted_but_kept(self, tmp_path):
        path = write_jsonl(
            tmp_path / "ann.jsonl",
            [
                {"item_id": "a", "annotator_id": "a1", "response": "yes"},
                {"item_id": "a", "annotator_id": "a1", "response": "yes"},
            ],
        )
        result = load_records(path, schema=YES_NO)
        assert result.n_duplicate_pairs == 1
        assert result.items["a"].proper == (2, 0)

    def test_missing_annotator_id_allowed(self, tmp_path):
        path = write_jsonl(
            tmp_path / "ann.jsonl",
            [{"item_id": "a", "response": "yes"}, {"item_id": "a", "response": "yes"}],
        )
        result = load_records(path, schema=YES_NO)
        assert result.n_duplicate_pairs == 0
        assert result.items["a"].proper == (2, 0)

    def test_unknown_label_reports_line_and_label(self, tmp_path):
        path = write_jsonl(
            tmp_path / "ann.jsonl",
            [
                {"item_id": "a", "response": "yes"},
                {"item_id": "a", "response": "weird"},
            ],
        )
        with pytest.raises(UnknownLabel) as excinfo:
            load_records(path, schema=YES_NO)
        assert excinfo.value.row == 2
        assert excinfo.value.label == "weird"

    def test_skip_unknown_counts_rows(self, tmp_path):
        path = write_jsonl(
            tmp_path / "ann.jsonl",
            [
                {"item_id": "a", "response": "yes"},
                {"item_id": "a", "response": "weird"},
                {"item_id": "a", "response": "huh"},
            ],
        )
        result = load_records(path, schema=YES_NO, skip_unknown=True)
        assert result.n_unknown_skipped == 2
        assert result.items["a"].proper == (1, 0)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text('{"item_id": "a", "response": "yes"}\nnot json\n')
        with pytest.raises(MalformedRow) as excinfo:
            load_records(str(path), schema=YES_NO)
        assert excinfo.value.row == 2

    def test_missing_key_is_malformed(self, tmp_path):
        path = write_jsonl(tmp_path / "ann.jsonl", [{"item_id": "a"}])
        with pytest.raises(MalformedRow):
            load_records(path, schema=YES_NO)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text("")
        with pytest.raises(EmptyFile):
            load_records(str(path), schema=YES_NO)

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(DataFileError):
            load_records(str(tmp_path / "nope.jsonl"), schema=YES_NO)

    def test_bad_format_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            load_records(str(tmp_path / "x"), format="xml", schema=YES_NO)


    def test_byte_order_mark_ignored(self, tmp_path):
        rows = [
            {"item_id": "a", "annotator_id": "a1", "response": "yes"},
            {"item_id": "a", "annotator_id": "a2", "response": "cs"},
        ]
        plain = load_records(write_jsonl(tmp_path / "plain.jsonl", rows), schema=YES_NO)
        path = tmp_path / "bom.jsonl"
        path.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "plain.jsonl").read_bytes())
        assert load_records(str(path), schema=YES_NO) == plain


class TestLoadCsv:
    def test_byte_order_mark_ignored(self, tmp_path):
        # What spreadsheet "CSV UTF-8" exports write: a BOM before the header.
        path = tmp_path / "ann.csv"
        path.write_bytes(b"\xef\xbb\xbfitem_id,annotator_id,response\na,r1,yes\nb,r1,cs\n")
        result = load_records(str(path), format="csv", schema=YES_NO)
        assert result.n_rows == 2
        assert result.items["a"] == CountVector(proper=(1, 0), cs=0)
        assert result.items["b"] == CountVector(proper=(0, 0), cs=1)

    def test_basic(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text(
            "item_id,annotator_id,response\n"
            "a,r1,yes\n"
            "a,r2,no\n"
            "b,r1,cs\n"
        )
        result = load_records(str(path), format="csv", schema=YES_NO)
        assert result.n_rows == 3
        assert result.items["a"] == CountVector(proper=(1, 1), cs=0)
        assert result.items["b"] == CountVector(proper=(0, 0), cs=1)

    def test_header_line_is_line_one(self, tmp_path):
        # Row numbers refer to physical file lines; the first data row with
        # a problem is line 3 here.
        path = tmp_path / "ann.csv"
        path.write_text("item_id,response\na,yes\na,weird\n")
        with pytest.raises(UnknownLabel) as excinfo:
            load_records(str(path), format="csv", schema=YES_NO)
        assert excinfo.value.row == 3

    def test_field_count_mismatch(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("item_id,annotator_id,response\na,r1\n")
        with pytest.raises(MalformedRow) as excinfo:
            load_records(str(path), format="csv", schema=YES_NO)
        assert excinfo.value.row == 2

    def test_header_must_name_required_columns(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("id,resp\na,yes\n")
        with pytest.raises(MalformedRow) as excinfo:
            load_records(str(path), format="csv", schema=YES_NO)
        assert excinfo.value.row == 1


# One file's annotations as (item_id, annotator_id or None, response);
# None stands for a blank line. a1 rates q1 twice, q2 has a row without an
# annotator, and "lizard" is outside the schema.
ANIMALS = CategorySchema(labels=("cat", "dog", "bird"))
ANNOTATIONS = [
    ("q2", "a1", "cat"),
    ("q1", "a1", "dog"),
    None,
    ("q1", "a2", "cs"),
    ("q1", "a1", "dog"),
    ("q2", None, "cat"),
    ("q3", "a3", "lizard"),
    ("q3", "a3", "bird"),
    ("q2", "a2", "cs"),
    ("q3", "a1", "cs"),
]
LIZARD_LINE = 7


class TestCsvAndJsonlAgree:
    @pytest.fixture()
    def paths(self, tmp_path):
        """The annotations as JSONL, and as CSV with padded fields (CSV
        fields are stripped, JSON strings are not)."""
        jsonl, csv_path = tmp_path / "ann.jsonl", tmp_path / "ann.csv"
        lines, csv_lines = [], ["item_id,annotator_id,response"]
        for row in ANNOTATIONS:
            if row is None:
                lines.append("")
                csv_lines.append("")
                continue
            item_id, annotator, response = row
            obj = {"item_id": item_id, "response": response}
            if annotator is not None:
                obj["annotator_id"] = annotator
            lines.append(json.dumps(obj))
            csv_lines.append(f" {item_id} ,{annotator or ' '},  {response}\t")
        jsonl.write_text("\n".join(lines) + "\n")
        csv_path.write_text("\n".join(csv_lines) + "\n")
        return str(jsonl), str(csv_path)

    def test_equal_results(self, paths):
        jsonl, csv_path = paths
        from_jsonl = load_records(jsonl, "jsonl", ANIMALS, skip_unknown=True)
        from_csv = load_records(csv_path, "csv", ANIMALS, skip_unknown=True)
        assert from_jsonl == from_csv
        assert from_csv.items == {
            "q1": CountVector(proper=(0, 2, 0), cs=1),
            "q2": CountVector(proper=(2, 0, 0), cs=1),
            "q3": CountVector(proper=(0, 0, 1), cs=1),
        }
        assert (from_csv.n_rows, from_csv.n_duplicate_pairs, from_csv.n_unknown_skipped) == (
            9,
            1,
            1,
        )

    def test_unknown_label_names_its_line(self, paths):
        # The CSV header is line 1, so every CSV row sits one line lower.
        jsonl, csv_path = paths
        for path, fmt, line in ((jsonl, "jsonl", LIZARD_LINE), (csv_path, "csv", LIZARD_LINE + 1)):
            with pytest.raises(UnknownLabel) as excinfo:
                load_records(path, fmt, ANIMALS)
            assert (excinfo.value.row, excinfo.value.label) == (line, "lizard")


class TestScoreItems:
    def test_closed_form_columns(self):
        items = {"a": CountVector(proper=(1, 1), cs=0)}
        reports = score_items(items, measures=(MeasureKind.NEW,), seed=0)
        (report,) = reports
        # Posterior Dir(2, 2 | 1): mean = 1 - (6 + 6)/(5 * 5) = 0.52.
        assert report.measures["new"].posterior_mean == pytest.approx(0.52, abs=1e-12)
        assert report.measures["new"].plugin == pytest.approx(0.5, abs=1e-12)
        assert report.n_total == 2
        assert not report.prior_only

    def test_plugin_with_cs_mass(self):
        items = {"a": CountVector(proper=(2, 0), cs=1)}
        (report,) = score_items(items, measures=(MeasureKind.NEW,), seed=0)
        assert report.measures["new"].plugin == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_prior_only_items_flagged(self):
        items = {"empty": CountVector(proper=(0, 0), cs=0)}
        (report,) = score_items(items, measures=(MeasureKind.NEW,), seed=0)
        assert report.prior_only
        assert report.measures["new"].plugin is None
        # Prior Dir(1, 1 | 1): mean 5/9.
        assert report.measures["new"].posterior_mean == pytest.approx(5.0 / 9.0, abs=1e-12)

    def test_interval_brackets_mean(self):
        items = {"a": CountVector(proper=(3, 1), cs=1)}
        (report,) = score_items(items, seed=1)
        for name in ("new", "modified", "old"):
            assert report.measures[name].credible_lo <= report.measures[name].posterior_mean
            assert report.measures[name].posterior_mean <= report.measures[name].credible_hi
            assert report.measures[name].posterior_sd > 0.0

    def test_old_measure_mean_is_mc(self):
        items = {"a": CountVector(proper=(3, 1), cs=1)}
        a = score_items(items, measures=(MeasureKind.OLD,), seed=3)
        b = score_items(items, measures=(MeasureKind.OLD,), seed=3)
        assert a[0].measures["old"].posterior_mean == b[0].measures["old"].posterior_mean
        c = score_items(items, measures=(MeasureKind.OLD,), seed=4)
        assert a[0].measures["old"].posterior_mean != c[0].measures["old"].posterior_mean

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            score_items({"a": CountVector(proper=(1, 0), cs=0)}, mc_samples=100)

    def test_reports_sorted_by_item_id(self):
        items = {
            "z": CountVector(proper=(1, 0), cs=0),
            "a": CountVector(proper=(0, 1), cs=0),
        }
        reports = score_items(items, measures=(MeasureKind.NEW,), seed=0)
        assert [r.item_id for r in reports] == ["a", "z"]

    def test_equal_counts_get_equal_reports(self):
        items = {
            "a": CountVector(proper=(3, 1), cs=1),
            "b": CountVector(proper=(0, 2), cs=0),
            "c": CountVector(proper=(3, 1), cs=1),
        }
        a, b, c = score_items(items, seed=5)
        assert _measure_blocks(a) == _measure_blocks(c)
        assert _measure_blocks(a) != _measure_blocks(b)

    def test_report_independent_of_other_items(self):
        counts = CountVector(proper=(3, 1), cs=1)
        (alone,) = score_items({"m": counts}, seed=5)
        crowd = score_items(
            {
                "a": CountVector(proper=(1, 1), cs=0),
                "m": counts,
                "z": CountVector(proper=(0, 4), cs=2),
            },
            seed=5,
        )
        (renamed,) = score_items({"other-name": counts}, seed=5)
        assert _measure_blocks(crowd[1]) == _measure_blocks(alone)
        assert _measure_blocks(renamed) == _measure_blocks(alone)

    def test_zero_counts_and_prior_only_items(self):
        items = {
            "empty": CountVector(proper=(0, 0, 0), cs=0),
            "one-sided": CountVector(proper=(0, 5, 0), cs=0),
            "cs-only": CountVector(proper=(0, 0, 0), cs=3),
        }
        reports = {r.item_id: r for r in score_items(items, seed=1)}
        assert reports["empty"].prior_only
        assert set(_column(reports["empty"], "plugin").values()) == {None}
        for name in ("new", "modified", "old"):
            assert reports["one-sided"].measures[name].plugin == pytest.approx(0.0, abs=1e-12)
            assert reports["cs-only"].measures[name].plugin == pytest.approx(1.0, abs=1e-12)
        for report in reports.values():
            for name in ("new", "modified", "old"):
                summary = report.measures[name]
                assert 0.0 <= summary.credible_lo <= summary.credible_hi <= 1.0
                assert summary.posterior_sd > 0.0

    def test_reruns_export_identical_bytes(self, tmp_path):
        items = {
            f"item{i}": CountVector(proper=(i % 3, 2), cs=i % 2) for i in range(8)
        }
        paths = [str(tmp_path / f"run{k}.json") for k in range(2)]
        for path in paths:
            export_reports(score_items(items, seed=11), path, format="json")
        with open(paths[0], "rb") as f1, open(paths[1], "rb") as f2:
            assert f1.read() == f2.read()


def _measure_blocks(report):
    """Everything a report says about its counts, without the item id."""
    return (report.counts, report.measures)


def _column(report, column):
    """One per-measure column of a report, keyed by measure name."""
    return {name: getattr(summary, column) for name, summary in report.measures.items()}


@pytest.fixture(scope="module")
def scored_reports():
    items = {
        "a": CountVector(proper=(1, 1), cs=0),   # plugin 0.5, mean 0.52
        "b": CountVector(proper=(1, 1), cs=1),   # more cs -> higher mean
        "c": CountVector(proper=(4, 0), cs=0),   # most settled item
    }
    return score_items(items, measures=(MeasureKind.NEW, MeasureKind.MODIFIED), seed=2)


class TestRankAndFilter:
    def test_descending_by_posterior_mean(self, scored_reports):
        ranked = rank_and_filter(scored_reports, key="posterior_mean", measure=MeasureKind.NEW)
        means = [r.measures["new"].posterior_mean for r in ranked]
        assert means == sorted(means, reverse=True)
        assert ranked[0].item_id == "b"
        assert ranked[-1].item_id == "c"

    def test_ascending(self, scored_reports):
        ranked = rank_and_filter(
            scored_reports, key="posterior_mean", measure=MeasureKind.NEW, descending=False
        )
        assert ranked[0].item_id == "c"

    def test_threshold_keeps_at_least(self, scored_reports):
        ranked = rank_and_filter(
            scored_reports, key="posterior_mean", measure=MeasureKind.NEW, threshold=0.5
        )
        assert all(r.measures["new"].posterior_mean >= 0.5 for r in ranked)
        assert len(ranked) < len(scored_reports)

    def test_plugin_key(self, scored_reports):
        ranked = rank_and_filter(scored_reports, key="plugin", measure=MeasureKind.NEW)
        values = [r.measures["new"].plugin for r in ranked]
        assert values == sorted(values, reverse=True)

    def test_missing_measure_rejected(self, scored_reports):
        with pytest.raises(MissingField):
            rank_and_filter(scored_reports, key="posterior_mean", measure=MeasureKind.OLD)

    def test_plugin_key_rejects_prior_only_items(self):
        reports = score_items(
            {"empty": CountVector(proper=(0, 0), cs=0)}, measures=(MeasureKind.NEW,), seed=0
        )
        with pytest.raises(MissingField):
            rank_and_filter(reports, key="plugin", measure=MeasureKind.NEW)

    def test_unknown_key_rejected(self, scored_reports):
        with pytest.raises(DomainError):
            rank_and_filter(scored_reports, key="sd")

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("descending", [True, False])
    def test_threshold_must_be_finite(self, scored_reports, threshold, descending):
        with pytest.raises(DomainError):
            rank_and_filter(scored_reports, threshold=threshold, descending=descending)

    def test_tie_broken_by_item_id(self):
        items = {
            "y": CountVector(proper=(1, 1), cs=0),
            "x": CountVector(proper=(1, 1), cs=0),
        }
        reports = score_items(items, measures=(MeasureKind.NEW,), seed=0)
        ranked = rank_and_filter(reports, measure=MeasureKind.NEW)
        assert [r.item_id for r in ranked] == ["x", "y"]


def _with_prior_only(reports):
    """reports plus a prior-only item, scored like them, that sorts last."""
    (empty,) = score_items(
        {"z-empty": CountVector(proper=(0, 0), cs=0)},
        measures=(MeasureKind.NEW, MeasureKind.MODIFIED),
        seed=2,
    )
    return [*reports, empty]


def _reexport_matches(path, reports, fmt):
    """Whether exporting reports again writes the bytes at path."""
    again = path + ".again"
    export_reports(reports, again, format=fmt)
    with open(path, "rb") as f1, open(again, "rb") as f2:
        return f1.read() == f2.read()


class TestExportImport:
    def test_json_round_trip(self, scored_reports, tmp_path):
        reports = _with_prior_only(scored_reports)
        path = str(tmp_path / "reports.json")
        export_reports(reports, path, format="json")
        back = import_reports(path, format="json")
        assert len(back) == len(reports)
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle)[-1]["measures"]["new"]["plugin"] is None
        assert _reexport_matches(path, back, "json")
        for orig, loaded in zip(reports, back):
            assert loaded.item_id == orig.item_id
            assert loaded.counts == orig.counts
            assert loaded.prior_only == orig.prior_only
            # Floats survive exactly: repr round-trips shortest form.
            for column in (
                "posterior_mean", "posterior_sd", "credible_lo", "credible_hi", "plugin"
            ):
                assert _column(loaded, column) == _column(orig, column)

    def test_csv_round_trip(self, scored_reports, tmp_path):
        reports = _with_prior_only(scored_reports)
        path = str(tmp_path / "reports.csv")
        export_reports(reports, path, format="csv")
        back = import_reports(path, format="csv")
        assert len(back) == len(reports)
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows[-1]["new_plugin"] == ""
        assert _reexport_matches(path, back, "csv")
        for orig, loaded in zip(reports, back):
            assert loaded.item_id == orig.item_id
            assert loaded.counts == orig.counts
            assert _column(loaded, "posterior_mean") == _column(orig, "posterior_mean")
            assert _column(loaded, "plugin") == _column(orig, "plugin")

    def test_prior_only_round_trip(self, tmp_path):
        reports = score_items(
            {"empty": CountVector(proper=(0, 0), cs=0)}, measures=(MeasureKind.NEW,), seed=0
        )
        for fmt, name in (("json", "r.json"), ("csv", "r.csv")):
            path = str(tmp_path / name)
            export_reports(reports, path, format=fmt)
            (back,) = import_reports(path, format=fmt)
            assert back.prior_only
            assert back.measures["new"].plugin is None

    def test_csv_header_is_pinned(self, scored_reports, tmp_path):
        path = str(tmp_path / "reports.csv")
        export_reports(scored_reports, path, format="csv")
        with open(path, encoding="utf-8", newline="") as handle:
            header = next(csv.reader(handle))
        assert header == [
            "item_id", "n_total", "prior_only", "credible_mass",
            "count_1", "count_2", "count_cs",
            "new_plugin", "new_posterior_mean", "new_posterior_sd",
            "new_credible_lo", "new_credible_hi",
            "modified_plugin", "modified_posterior_mean", "modified_posterior_sd",
            "modified_credible_lo", "modified_credible_hi",
        ]

    def test_json_keys_are_pinned(self, scored_reports, tmp_path):
        path = str(tmp_path / "reports.json")
        export_reports(scored_reports, path, format="json")
        with open(path, encoding="utf-8") as handle:
            objs = json.load(handle)
        for obj in objs:
            assert list(obj) == [
                "item_id", "n_total", "prior_only", "counts", "credible_mass", "measures"
            ]
            assert list(obj["measures"]) == ["new", "modified"]
            for values in obj["measures"].values():
                assert list(values) == [
                    "plugin", "posterior_mean", "posterior_sd", "credible_lo", "credible_hi"
                ]

    def test_json_is_stable_bytes(self, scored_reports, tmp_path):
        p1 = str(tmp_path / "a.json")
        p2 = str(tmp_path / "b.json")
        export_reports(scored_reports, p1, format="json")
        export_reports(scored_reports, p2, format="json")
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()
        # The bytes json.dump streams to a file, plus a final newline.
        streamed = io.StringIO()
        json.dump([_report_to_json_obj(r) for r in scored_reports], streamed, indent=2)
        with open(p1, "rb") as f1:
            assert f1.read() == (streamed.getvalue() + "\n").encode("utf-8")

    def test_csv_refuses_a_mixed_set_before_opening_the_file(self, scored_reports, tmp_path):
        # One header cannot describe rows of two shapes: a three-label item
        # scored on one measure among two-label items scored on two.
        (other,) = score_items(
            {"d": CountVector(proper=(2, 1, 0), cs=0)}, measures=(MeasureKind.NEW,), seed=2
        )
        path = tmp_path / "mixed.csv"
        with pytest.raises(DomainError):
            export_reports([*scored_reports, other], str(path), format="csv")
        assert not path.exists()
        # Same counts, measures in another order: the columns would not line up.
        (swapped,) = score_items(
            {"d": CountVector(proper=(2, 1), cs=0)},
            measures=(MeasureKind.MODIFIED, MeasureKind.NEW),
            seed=2,
        )
        with pytest.raises(DomainError):
            export_reports([*scored_reports, swapped], str(path), format="csv")
        assert not path.exists()

    def test_json_keeps_a_mixed_set_whole(self, scored_reports, tmp_path):
        (other,) = score_items(
            {"d": CountVector(proper=(2, 1, 0), cs=0)}, measures=(MeasureKind.NEW,), seed=2
        )
        reports = [*scored_reports, other]
        path = str(tmp_path / "mixed.json")
        export_reports(reports, path, format="json")
        back = import_reports(path, format="json")
        assert [_measure_blocks(r) for r in back] == [_measure_blocks(r) for r in reports]

    def test_export_to_unwritable_path(self, scored_reports, tmp_path):
        with pytest.raises(DataFileError):
            export_reports(scored_reports, str(tmp_path / "no" / "dir" / "r.json"))

    def test_import_missing_file(self, tmp_path):
        with pytest.raises(DataFileError):
            import_reports(str(tmp_path / "missing.json"))


class TestImportMalformed:
    """A report file that lacks a field or is cut short raises MalformedRow
    naming the JSON array position or the CSV line."""

    @staticmethod
    def _exported(reports, tmp_path, fmt):
        path = tmp_path / f"reports.{fmt}"
        export_reports(reports, str(path), format=fmt)
        return path

    @staticmethod
    def _csv_rows(path):
        with open(path, encoding="utf-8", newline="") as handle:
            return list(csv.reader(handle))

    @staticmethod
    def _write_csv_rows(path, rows):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerows(rows)

    def test_json_element_without_measures(self, scored_reports, tmp_path):
        path = self._exported(scored_reports, tmp_path, "json")
        objs = json.loads(path.read_text())
        del objs[1]["measures"]
        path.write_text(json.dumps(objs))
        with pytest.raises(MalformedRow) as excinfo:
            import_reports(str(path), format="json")
        assert excinfo.value.row == 2
        assert "measures" in excinfo.value.reason

    def test_json_object_instead_of_array(self, scored_reports, tmp_path):
        path = self._exported(scored_reports, tmp_path, "json")
        objs = json.loads(path.read_text())
        path.write_text(json.dumps(objs[0]))
        with pytest.raises(MalformedRow):
            import_reports(str(path), format="json")

    def test_json_cut_short(self, scored_reports, tmp_path):
        path = self._exported(scored_reports, tmp_path, "json")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:5]) + "\n")
        with pytest.raises(MalformedRow) as excinfo:
            import_reports(str(path), format="json")
        assert excinfo.value.row == 6

    def test_csv_without_count_cs(self, scored_reports, tmp_path):
        path = self._exported(scored_reports, tmp_path, "csv")
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        drop = rows[0].index("count_cs")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerows([r[:drop] + r[drop + 1:] for r in rows])
        with pytest.raises(MalformedRow) as excinfo:
            import_reports(str(path), format="csv")
        # The header is refused before any row is read.
        assert excinfo.value.row == 1
        assert "count_cs" in excinfo.value.reason

    def test_csv_with_swapped_count_names(self, tmp_path):
        # Read in header order, count_1 = 2 would go to the second label.
        reports = score_items(
            {"a": CountVector(proper=(2, 1), cs=0)}, measures=(MeasureKind.NEW,), seed=0
        )
        path = self._exported(reports, tmp_path, "csv")
        rows = self._csv_rows(path)
        i, j = rows[0].index("count_1"), rows[0].index("count_2")
        rows[0][i], rows[0][j] = rows[0][j], rows[0][i]
        self._write_csv_rows(path, rows)
        with pytest.raises(MalformedRow) as excinfo:
            import_reports(str(path), format="csv")
        assert excinfo.value.row == 1

    @pytest.mark.parametrize("mangle", ["swap_fields", "swap_plugins", "extra", "no_measure"])
    def test_csv_header_must_be_the_export_layout(self, scored_reports, tmp_path, mangle):
        path = self._exported(scored_reports, tmp_path, "csv")
        rows = self._csv_rows(path)
        header = rows[0]
        if mangle == "swap_fields":
            i, j = header.index("new_posterior_mean"), header.index("new_posterior_sd")
            header[i], header[j] = header[j], header[i]
        elif mangle == "swap_plugins":
            i, j = header.index("new_plugin"), header.index("modified_plugin")
            header[i], header[j] = header[j], header[i]
        elif mangle == "extra":
            rows = [row + ["note"] for row in rows]
        else:
            rows = [row[:-1] for row in rows]
        self._write_csv_rows(path, rows)
        with pytest.raises(MalformedRow) as excinfo:
            import_reports(str(path), format="csv")
        assert excinfo.value.row == 1

    @pytest.mark.parametrize(
        "fmt, field, value",
        [
            ("json", "n_total", 99),
            ("json", "n_total", 3.0),
            ("json", "n_total", True),
            ("csv", "n_total", "99"),
            ("json", "prior_only", True),
            ("json", "prior_only", "false"),
            ("json", "prior_only", None),
            ("csv", "prior_only", "true"),
            ("csv", "prior_only", "False"),
            ("csv", "prior_only", ""),
        ],
    )
    def test_totals_must_agree_with_counts(self, tmp_path, fmt, field, value):
        reports = score_items(
            {"a": CountVector(proper=(2, 1), cs=0)}, measures=(MeasureKind.NEW,), seed=0
        )
        path = self._exported(reports, tmp_path, fmt)
        if fmt == "json":
            objs = json.loads(path.read_text())
            objs[0][field] = value
            path.write_text(json.dumps(objs))
        else:
            rows = self._csv_rows(path)
            rows[1][rows[0].index(field)] = value
            self._write_csv_rows(path, rows)
        with pytest.raises(MalformedRow) as excinfo:
            import_reports(str(path), format=fmt)
        assert excinfo.value.row == (1 if fmt == "json" else 2)
        assert field in excinfo.value.reason

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_prior_only_item_must_say_so(self, tmp_path, fmt):
        reports = score_items(
            {"z": CountVector(proper=(0, 0), cs=0)}, measures=(MeasureKind.NEW,), seed=0
        )
        path = self._exported(reports, tmp_path, fmt)
        path.write_text(path.read_text().replace("true", "false"))
        with pytest.raises(MalformedRow) as excinfo:
            import_reports(str(path), format=fmt)
        assert "prior_only" in excinfo.value.reason

    def test_csv_row_shorter_than_header(self, scored_reports, tmp_path):
        path = self._exported(scored_reports, tmp_path, "csv")
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRow) as excinfo:
            import_reports(str(path), format="csv")
        assert excinfo.value.row == 3

    @pytest.mark.parametrize(
        "field, value",
        [
            ("item_id", 7),
            ("count_cs", -1),
            ("count_cs", 1.0),
            ("credible_mass", 1.0),
            ("credible_mass", math.inf),
            ("posterior_mean", math.nan),
            ("posterior_sd", -math.inf),
            ("credible_lo", None),
        ],
    )
    def test_json_field_of_wrong_value(self, scored_reports, tmp_path, field, value):
        path = self._exported(scored_reports, tmp_path, "json")
        objs = json.loads(path.read_text())
        if field == "count_cs":
            objs[1]["counts"]["cs"] = value
        elif field in ("item_id", "credible_mass"):
            objs[1][field] = value
        else:
            objs[1]["measures"]["modified"][field] = value
        path.write_text(json.dumps(objs))
        with pytest.raises(MalformedRow) as excinfo:
            import_reports(str(path), format="json")
        assert excinfo.value.row == 2

    @pytest.mark.parametrize(
        "column, text",
        [
            ("count_1", "true"),
            ("credible_mass", "0"),
            ("credible_mass", "nan"),
            ("new_posterior_mean", "inf"),
            ("new_credible_hi", ""),
            ("modified_plugin", "-nan"),
        ],
    )
    def test_csv_field_of_wrong_value(self, scored_reports, tmp_path, column, text):
        path = self._exported(scored_reports, tmp_path, "csv")
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        rows[2][rows[0].index(column)] = text
        with open(path, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerows(rows)
        with pytest.raises(MalformedRow) as excinfo:
            import_reports(str(path), format="csv")
        assert excinfo.value.row == 3
