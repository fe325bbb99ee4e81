"""Annotation file loading, per-item scoring, ranking, and report export.

Input files carry one annotation per row (JSONL objects or CSV rows with
an item_id / annotator_id / response header); responses are mapped to
category counts through an explicit schema, never guessed from the data.
Scoring turns each item's counts into an ItemReport holding one
MeasureSummary per measure, whose field names are the per-measure columns
of a report file. Export writes reports whose numeric fields round-trip
exactly, so a pipeline can be re-run and diffed byte for byte; import
reads them back.

Row numbers in errors refer to file lines (the CSV header is line 1), or
to 1-based positions in a JSON report array.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from typing import Mapping, Sequence

from .exceptions import (
    DataFileError,
    DomainError,
    EmptyFile,
    MalformedRow,
    MissingField,
    UnknownLabel,
)
from .frequentist import CountVector
from .measures import CategorySchema, MeasureKind
from .posterior_sampling import MeasureSummary, posterior_summaries

__all__ = [
    "LoadResult",
    "ItemReport",
    "load_records",
    "score_items",
    "rank_and_filter",
    "export_reports",
    "import_reports",
]

_FORMATS = ("jsonl", "csv")
_RANK_KEYS = ("plugin", "posterior_mean")
# The per-measure columns of a report file, in file order.
_MEASURE_COLUMNS = tuple(f.name for f in fields(MeasureSummary))


@dataclass(frozen=True)
class LoadResult:
    """Aggregated counts plus bookkeeping from one input file.

    items maps item_id to counts, ordered by item_id. n_duplicate_pairs
    counts rows repeating an already-seen (item, annotator) pair; such
    rows are kept, since re-rating may be legitimate, but the counter
    lets callers surface it. n_unknown_skipped is nonzero only when
    loading with skip_unknown.
    """

    items: Mapping[str, CountVector]
    schema: CategorySchema
    n_rows: int
    n_duplicate_pairs: int
    n_unknown_skipped: int


@dataclass(frozen=True)
class ItemReport:
    """Per-item scoring summary: one MeasureSummary per requested measure,
    keyed by measure name.

    An item with no annotations is prior_only: its plug-in values are None
    (there is no frequency vector to plug in) and its posterior columns
    come from the prior alone.
    """

    item_id: str
    counts: CountVector
    credible_mass: float
    measures: Mapping[str, MeasureSummary]

    @property
    def n_total(self) -> int:
        return self.counts.total

    @property
    def prior_only(self) -> bool:
        return self.counts.total == 0


# Both parsers yield one (line_no, item_id, response, annotator_id) tuple
# per annotation row, annotator_id None when the row names none.


def _iter_jsonl(text: str):
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRow(line_no, f"invalid JSON ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise MalformedRow(line_no, "expected a JSON object")
        if "item_id" not in obj or "response" not in obj:
            raise MalformedRow(line_no, "missing item_id or response")
        item_id, response = obj["item_id"], obj["response"]
        if not isinstance(item_id, (str, int)) or isinstance(item_id, bool):
            raise MalformedRow(line_no, "item_id must be a string or integer")
        if not isinstance(response, str) or not response:
            raise MalformedRow(line_no, "response must be a non-empty string")
        annotator = obj.get("annotator_id")
        if annotator is not None and not isinstance(annotator, (str, int)):
            raise MalformedRow(line_no, "annotator_id must be a string or integer")
        yield line_no, str(item_id), response, None if annotator is None else str(annotator)


def _iter_csv(text: str):
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyFile("no rows in CSV input") from None
    header = [h.strip() for h in header]
    if "item_id" not in header or "response" not in header:
        raise MalformedRow(1, "CSV header must name item_id and response columns")
    idx_item = header.index("item_id")
    idx_response = header.index("response")
    idx_annotator = header.index("annotator_id") if "annotator_id" in header else None
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise MalformedRow(line_no, f"expected {len(header)} fields, got {len(row)}")
        item_id = row[idx_item].strip()
        response = row[idx_response].strip()
        if not item_id:
            raise MalformedRow(line_no, "empty item_id")
        if not response:
            raise MalformedRow(line_no, "empty response")
        annotator = None
        if idx_annotator is not None:
            annotator = row[idx_annotator].strip() or None
        yield line_no, item_id, response, annotator


def _read_text(path: str) -> str:
    """The file's text as UTF-8, without the byte-order mark that spreadsheet
    "CSV UTF-8" exports put first.

    Raises:
        DataFileError: unreadable path.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read()
    except OSError as exc:
        raise DataFileError(f"cannot read {path}: {exc}") from exc


def load_records(
    path: str,
    format: str = "jsonl",
    schema: CategorySchema = CategorySchema(labels=("yes", "no")),
    skip_unknown: bool = False,
) -> LoadResult:
    """Read annotations and aggregate per-item counts.

    Raises:
        DataFileError: unreadable path.
        EmptyFile: no data rows.
        MalformedRow: structural problems, with the offending line number.
        UnknownLabel: a response outside the schema, unless skip_unknown
            downgrades those rows to a counter.
    """
    if format not in _FORMATS:
        raise DomainError(f"format must be one of {_FORMATS}, got {format!r}")
    text = _read_text(path)
    rows = _iter_jsonl(text) if format == "jsonl" else _iter_csv(text)
    # The can't-solve label tallies last, after the C proper labels.
    label_index = {label: i for i, label in enumerate(schema.labels)}
    label_index[schema.cs_label] = schema.n_proper
    tallies: dict[str, list[int]] = {}
    seen_pairs: set[tuple[str, str]] = set()
    n_rows = 0
    n_duplicates = 0
    n_skipped = 0
    for line_no, item_id, response, annotator in rows:
        n_rows += 1
        index = label_index.get(response)
        if index is None:
            if skip_unknown:
                n_skipped += 1
                continue
            raise UnknownLabel(line_no, response)
        if annotator is not None:
            pair = (item_id, annotator)
            if pair in seen_pairs:
                n_duplicates += 1
            seen_pairs.add(pair)
        tally = tallies.get(item_id)
        if tally is None:
            tally = tallies[item_id] = [0] * (schema.n_proper + 1)
        tally[index] += 1
    if n_rows == 0:
        raise EmptyFile("no data rows in input")

    items = {
        item_id: CountVector(proper=tuple(tally[:-1]), cs=tally[-1])
        for item_id, tally in sorted(tallies.items())
    }
    return LoadResult(
        items=items,
        schema=schema,
        n_rows=n_rows,
        n_duplicate_pairs=n_duplicates,
        n_unknown_skipped=n_skipped,
    )


def score_items(
    items: Mapping[str, CountVector],
    prior_beta: float = 1.0,
    measures: Sequence[MeasureKind] = (
        MeasureKind.NEW,
        MeasureKind.MODIFIED,
        MeasureKind.OLD,
    ),
    credible_mass: float = 0.95,
    mc_samples: int = 20_000,
    seed: int = 0,
) -> list[ItemReport]:
    """Score every item: plug-in point estimates plus posterior summaries.

    Each item gets the posterior_summaries entry of its count vector,
    computed once per distinct vector: means and sds are exact
    for the quadratic measures and Monte Carlo for total variation, and
    equal-tailed intervals come from one MC sample per count vector,
    shared across measures. That sample is drawn from the stream
    (seed, (C, *proper, cs)), keyed on the counts, so items with equal
    counts get equal reports, and a report depends only on the item's
    counts and the scoring settings, never on the other items or the
    scoring order.

    Raises:
        TooFewSamples: mc_samples below 1000.
        DomainError: credible_mass outside (0, 1), a nonpositive prior, or
            no measures.
    """
    summaries = posterior_summaries(
        items.values(), prior_beta, measures, mc_samples, credible_mass, seed
    )
    return [
        ItemReport(item_id, counts, credible_mass, summaries[counts])
        for item_id, counts in sorted(items.items())
    ]


def rank_and_filter(
    reports: Sequence[ItemReport],
    key: str = "posterior_mean",
    measure: MeasureKind = MeasureKind.NEW,
    threshold: float | None = None,
    descending: bool = True,
) -> list[ItemReport]:
    """Order reports by a score and optionally keep one side of a cutoff.

    The sort is deterministic: by score in the requested direction, with
    ties broken by item_id ascending. A threshold keeps scores >= it when
    descending (the "most ambiguous" reading) and <= it when ascending.

    Raises:
        DomainError: an unknown key, or a threshold that is not finite.
        MissingField: a report lacks the requested key/measure value, or
            has a None plug-in (an item scored with no annotations).
    """
    if key not in _RANK_KEYS:
        raise DomainError(f"key must be one of {_RANK_KEYS}, got {key!r}")
    if threshold is not None and not math.isfinite(threshold):
        raise DomainError(f"threshold must be a finite number, got {threshold!r}")
    name = measure.value

    def value_of(report: ItemReport) -> float:
        summary = report.measures.get(name)
        value = None if summary is None else getattr(summary, key)
        if value is None:
            raise MissingField(
                f"report {report.item_id!r} has no {key} value for measure {name!r}"
            )
        return value

    scored = [(value_of(r), r) for r in reports]
    if descending:
        ordered = sorted(scored, key=lambda pair: (-pair[0], pair[1].item_id))
        if threshold is not None:
            ordered = [pair for pair in ordered if pair[0] >= threshold]
    else:
        ordered = sorted(scored, key=lambda pair: (pair[0], pair[1].item_id))
        if threshold is not None:
            ordered = [pair for pair in ordered if pair[0] <= threshold]
    return [r for _, r in ordered]


def _format_float(value: float | None) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _report_to_json_obj(report: ItemReport) -> dict:
    return {
        "item_id": report.item_id,
        "n_total": report.n_total,
        "prior_only": report.prior_only,
        "counts": {"proper": list(report.counts.proper), "cs": report.counts.cs},
        "credible_mass": report.credible_mass,
        "measures": {
            name: {column: getattr(summary, column) for column in _MEASURE_COLUMNS}
            for name, summary in report.measures.items()
        },
    }


def _csv_header(n_proper: int, names: Sequence[str]) -> list[str]:
    """The header of a CSV report file whose reports have n_proper proper
    counts and the measures `names`, in order."""
    header = ["item_id", "n_total", "prior_only", "credible_mass"]
    header += [f"count_{i + 1}" for i in range(n_proper)]
    header.append("count_cs")
    for name in names:
        header += [f"{name}_{column}" for column in _MEASURE_COLUMNS]
    return header


def export_reports(reports: Sequence[ItemReport], path: str, format: str = "json") -> None:
    """Write reports sorted by item_id, with exact float round-tripping.

    JSON output is an array of one object per item, whose "measures" object
    maps each measure to its MeasureSummary fields; CSV uses a flat header
    (counts as count_1..count_C/count_cs, then a <measure>_<field> column
    per measure and MeasureSummary field). Floats are serialized in shortest round-trip form, and
    the None plug-in of a zero-annotation item becomes null (JSON) or an
    empty field (CSV).

    JSON takes reports of mixed shapes (numbers of proper counts or
    measure lists), since each object carries its own and reads back
    whole. CSV has one header for all rows, so a mixed set raises
    DomainError before the file is opened.
    """
    if format not in ("json", "csv"):
        raise DomainError(f"format must be json or csv, got {format!r}")
    if not reports:
        raise DomainError("nothing to export")
    ordered = sorted(reports, key=lambda r: r.item_id)
    try:
        if format == "json":
            payload = [_report_to_json_obj(r) for r in ordered]
            # One write: json.dump would make thousands of small ones.
            text = json.dumps(payload, indent=2) + "\n"
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            # One header serves every row, so every report needs one shape.
            shapes = {(r.counts.n_proper, tuple(r.measures)) for r in ordered}
            if len(shapes) > 1:
                raise DomainError(
                    "CSV export needs reports of one shape (proper counts, measures); "
                    f"got {sorted(shapes)}"
                )
            header = _csv_header(*shapes.pop())
            with open(path, "w", encoding="utf-8", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(header)
                for report in ordered:
                    row = [
                        report.item_id,
                        str(report.n_total),
                        str(report.prior_only).lower(),
                        _format_float(report.credible_mass),
                    ]
                    row += [str(v) for v in report.counts.proper]
                    row.append(str(report.counts.cs))
                    for summary in report.measures.values():
                        row += [_format_float(getattr(summary, c)) for c in _MEASURE_COLUMNS]
                    writer.writerow(row)
    except OSError as exc:
        raise DataFileError(f"cannot write {path}: {exc}") from exc


def _parse_float(text: str) -> float | None:
    return None if text == "" else float(text)


def _is_finite_real(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _imported_report(
    item_id, counts: CountVector, n_total, prior_only, credible_mass,
    measures: Mapping[str, MeasureSummary],
) -> ItemReport:
    """An ItemReport from one imported row, once its fields hold the values
    import_reports takes; raises TypeError or ValueError otherwise. The
    counts were checked by CountVector; n_total and prior_only must be the
    integer and the bool that export writes for them."""
    if not isinstance(item_id, str):
        raise TypeError(f"item_id must be a string, got {item_id!r}")
    total = counts.total
    if type(n_total) is not int or n_total != total:
        raise ValueError(f"n_total {n_total!r} disagrees with counts totalling {total}")
    if prior_only is not (total == 0):
        raise ValueError(f"prior_only {prior_only!r} disagrees with counts totalling {total}")
    if not (_is_finite_real(credible_mass) and 0.0 < credible_mass < 1.0):
        raise ValueError(f"credible_mass must be a number in (0, 1), got {credible_mass!r}")
    for name, summary in measures.items():
        for column in _MEASURE_COLUMNS:
            value = getattr(summary, column)
            if not (_is_finite_real(value) or value is None and column == "plugin"):
                raise ValueError(f"{name} {column} must be a finite number, got {value!r}")
    return ItemReport(item_id, counts, credible_mass, measures)


def _malformed(row: int, exc: Exception) -> MalformedRow:
    reason = f"missing field {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)
    return MalformedRow(row, reason)


# What reading a report that lacks a field or holds a wrong value raises.
_ROW_ERRORS = (LookupError, TypeError, AttributeError, ValueError)


def import_reports(path: str, format: str = "json") -> list[ItemReport]:
    """Read back a file written by export_reports.

    Raises:
        DataFileError: unreadable path.
        EmptyFile: a CSV file without a header.
        MalformedRow: a report lacking a field or holding a wrong value, at
            its CSV line or its 1-based position in the JSON array; a file
            that is not a JSON array, at the line of the fault; or a CSV
            header other than the one export writes for the shape it names
            (number of count_ columns, measures with a _plugin column), at
            line 1. Both formats take the same values: a string item_id,
            integer counts of at least 0 (not true or false), the n_total
            and prior_only of those counts, a finite credible_mass in
            (0, 1), and a finite number in every measure field, where only
            a plug-in may be empty (null). NaN and infinities are refused.
    """
    if format not in ("json", "csv"):
        raise DomainError(f"format must be json or csv, got {format!r}")
    text = _read_text(path)
    reports = []
    if format == "json":
        try:
            objs = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedRow(exc.lineno, f"invalid JSON ({exc.msg})") from exc
        if not isinstance(objs, list):
            raise MalformedRow(1, "expected a JSON array of reports")
        for row, obj in enumerate(objs, start=1):
            try:
                counts = obj["counts"]
                reports.append(
                    _imported_report(
                        obj["item_id"],
                        CountVector(proper=tuple(counts["proper"]), cs=counts["cs"]),
                        obj["n_total"],
                        obj["prior_only"],
                        obj["credible_mass"],
                        {
                            name: MeasureSummary(**values)
                            for name, values in obj["measures"].items()
                        },
                    )
                )
            except _ROW_ERRORS as exc:
                raise _malformed(row, exc) from exc
        return reports

    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyFile("no rows in report CSV") from None
    # The shape the header claims, held to the layout export writes for it.
    n_proper = sum(h.startswith("count_") for h in header) - 1
    measure_names = [h[: -len("_plugin")] for h in header if h.endswith("_plugin")]
    layout = _csv_header(n_proper, measure_names)
    if header != layout:
        raise MalformedRow(1, f"expected the report header {','.join(layout)}")
    count_cols = [h for h in header if h.startswith("count_") and h != "count_cs"]
    index = {name: i for i, name in enumerate(header)}
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise MalformedRow(line_no, f"expected {len(header)} fields, got {len(row)}")
        get = lambda col: row[index[col]]
        flag = get("prior_only")
        try:
            reports.append(
                _imported_report(
                    get("item_id"),
                    CountVector(
                        proper=tuple(int(get(c)) for c in count_cols), cs=int(get("count_cs"))
                    ),
                    int(get("n_total")),
                    {"true": True, "false": False}.get(flag, flag),
                    float(get("credible_mass")),
                    {
                        name: MeasureSummary(
                            **{c: _parse_float(get(f"{name}_{c}")) for c in _MEASURE_COLUMNS}
                        )
                        for name in measure_names
                    },
                )
            )
        except _ROW_ERRORS as exc:
            raise _malformed(line_no, exc) from exc
    return reports
