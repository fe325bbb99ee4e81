"""Command-line interface: output shapes and values for each subcommand, seed
resolution (flag, environment, default), byte-identical reruns, the
score-then-rank pipeline over temporary files, and exit codes for
validation (2) versus file-access (3) failures.
"""

import csv
import io
import json

import numpy as np
import pytest

import ambiq.frequentist
from ambiq.cli import main
from ambiq.numerics import make_generator


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestMeasureCommand:
    def test_probability_input_cs_last(self, capsys):
        code, payload, _ = run_json(capsys, "measure", "--q", "0.25,0.25,0.5")
        assert code == 0
        assert payload["measures"]["new"] == pytest.approx(0.75)
        assert payload["measures"]["modified"] == pytest.approx(1.0)
        assert payload["input"]["cs"] == 0.5

    def test_explicit_cs_flag(self, capsys):
        code, payload, _ = run_json(capsys, "measure", "--q", "0.25,0.25", "--cs", "0.5")
        assert code == 0
        assert payload["measures"]["new"] == pytest.approx(0.75)

    def test_counts_input(self, capsys):
        code, payload, _ = run_json(
            capsys, "measure", "--counts", "2,1", "--cs-count", "1"
        )
        assert code == 0
        assert payload["input"]["proper"] == [0.5, 0.25]
        assert payload["measures"]["new"] == pytest.approx(7.0 / 12.0)

    def test_measure_subset(self, capsys):
        code, payload, _ = run_json(
            capsys, "measure", "--q", "0.5,0.5,0.0", "--measures", "new"
        )
        assert code == 0
        assert list(payload["measures"]) == ["new"]

    def test_table_output(self, capsys):
        code, out, _ = run(capsys, "measure", "--q", "0.5,0.5,0.0")
        assert code == 0
        assert "new" in out and "0.500000" in out

    def test_rejects_both_input_forms(self, capsys):
        code, _, err = run(capsys, "measure", "--q", "0.5,0.5", "--counts", "1,1")
        assert code == 2
        assert err

    def test_rejects_bad_simplex(self, capsys):
        code, _, err = run(capsys, "measure", "--q", "0.5,0.6", "--cs", "0.2")
        assert code == 2
        assert "sum" in err


class TestPosteriorCommand:
    def test_closed_form_mean(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "posterior", "--counts", "10,1", "--cs-count", "1",
            "--mc-samples", "2000",
        )
        assert code == 0
        assert payload["method"] == "closed_form+mc"
        # Posterior Dir(11, 2 | 2): mean = 1 - 138/210 = 12/35.
        assert payload["closed_form"]["mean"] == pytest.approx(12.0 / 35.0, abs=1e-12)
        assert payload["mc"]["mean"] == pytest.approx(12.0 / 35.0, abs=0.02)
        interval = payload["mc"]["credible_interval"]
        assert interval["lo"] <= payload["mc"]["mean"] <= interval["hi"]

    def test_old_measure_is_mc_only(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "posterior", "--counts", "3,1", "--cs-count", "0",
            "--measure", "old", "--mc-samples", "2000",
        )
        assert code == 0
        assert payload["method"] == "mc_only"
        assert payload["closed_form"] is None

    def test_analytic_density_file_for_binary(self, capsys, tmp_path):
        density = tmp_path / "density.csv"
        code, payload, _ = run_json(
            capsys,
            "posterior", "--counts", "2,1", "--cs-count", "1",
            "--mc-samples", "2000", "--grid-points", "32",
            "--density", str(density),
        )
        assert code == 0
        assert payload["metadata"]["density_method"] == "analytic"
        with open(density, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["a", "density"]
        assert len(rows) == 33
        assert all(float(r[1]) >= 0.0 for r in rows[1:])

    def test_histogram_density_file_for_old_measure(self, capsys, tmp_path):
        density = tmp_path / "density.csv"
        code, payload, _ = run_json(
            capsys,
            "posterior", "--counts", "2,1", "--cs-count", "1",
            "--measure", "old", "--mc-samples", "2000",
            "--density", str(density),
        )
        assert code == 0
        assert payload["metadata"]["density_method"] == "mc_histogram"
        with open(density, newline="") as handle:
            header = next(csv.reader(handle))
        assert header == ["bin_lo", "bin_hi", "median_density", "iqr_lo", "iqr_hi"]


class TestBiasCurveCommand:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run(
            capsys,
            "bias-curve", "--q", "0.45,0.35", "--cs", "0.20",
            "--n-values", "1,2,5", "--mc-repeats", "10", "--seed", "3",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "estimator", "bias", "stderr"]
        plugin_rows = [r for r in rows[1:] if r[1] == "plugin"]
        assert [r[0] for r in plugin_rows] == ["1", "2", "5"]
        assert all(float(r[2]) < 0.0 for r in plugin_rows)
        assert all(float(r[3]) == 0.0 for r in plugin_rows)

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "bias.csv"
        code, out, _ = run(
            capsys,
            "bias-curve", "--q", "0.6,0.3", "--cs", "0.1",
            "--n-values", "1,2", "--estimators", "plugin",
            "--mc-repeats", "5", "--output", str(out_path),
        )
        assert code == 0
        assert out_path.exists()
        assert str(out_path) in out

    def test_zero_repeats_is_exit_2(self, capsys):
        code, out, err = run(
            capsys,
            "bias-curve", "--q", "0.45,0.35,0.20", "--n-values", "1,20",
            "--mc-repeats", "0", "--json",
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"


    def test_decreasing_n_values_is_exit_2_before_any_draw(self, capsys, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew a posterior sample before validating --n-values")

        monkeypatch.setattr(ambiq.frequentist, "sample_transformed", no_draws)
        code, out, err = run(
            capsys, "bias-curve", "--q", "0.45,0.35,0.20", "--n-values", "100,5", "--json"
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"


class TestPriorExploreCommand:
    def test_per_beta_entries(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "prior-explore", "--n-categories", "3",
            "--betas", "0.5,1", "--mc-samples", "2000",
        )
        assert code == 0
        assert [entry["beta"] for entry in payload["priors"]] == [0.5, 1.0]
        for entry in payload["priors"]:
            assert 0.0 <= entry["mean"] <= 1.0
            assert 0.0 <= entry["mode"] <= 1.0
            assert entry["sd"] > 0.0

    def test_symmetric_uniform_prior_mean(self, capsys):
        # beta = 1, C = 2: prior mean of the plain measure is 5/9.
        code, payload, _ = run_json(
            capsys,
            "prior-explore", "--n-categories", "2",
            "--betas", "1", "--mc-samples", "2000",
        )
        assert code == 0
        assert payload["priors"][0]["mean"] == pytest.approx(5.0 / 9.0, abs=1e-12)


    def test_table_and_density_draw_different_streams(self, capsys, tmp_path, monkeypatch):
        # The table's sample and every density repeat must come from their
        # own streams: record the seed and spawn key of every generator.
        streams = []
        sfc64 = np.random.SFC64

        def recording_sfc64(seed_sequence):
            streams.append((seed_sequence.entropy, seed_sequence.spawn_key))
            return sfc64(seed_sequence)

        monkeypatch.setattr(np.random, "SFC64", recording_sfc64)
        code, _, _ = run(
            capsys,
            "prior-explore", "--n-categories", "3", "--betas", "0.5,1",
            "--mc-samples", "1000", "--density", str(tmp_path / "band.csv"),
        )
        assert code == 0
        assert len(streams) == 2 + 2 * 100
        assert len(set(streams)) == len(streams)

    def test_too_few_samples_is_exit_2_before_any_draw(self, capsys, tmp_path, monkeypatch):
        streams = []
        sfc64 = np.random.SFC64

        def recording_sfc64(seed_sequence):
            streams.append(seed_sequence.spawn_key)
            return sfc64(seed_sequence)

        monkeypatch.setattr(np.random, "SFC64", recording_sfc64)
        band = tmp_path / "band.csv"
        code, out, err = run(
            capsys,
            "prior-explore", "--n-categories", "3", "--mc-samples", "10",
            "--density", str(band), "--json",
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "TooFewSamples"
        assert streams == []
        assert not band.exists()


class TestScoreRankPipeline:
    @pytest.fixture()
    def annotations(self, tmp_path):
        rows = [
            {"item_id": "q1", "annotator_id": "a1", "response": "yes"},
            {"item_id": "q1", "annotator_id": "a2", "response": "no"},
            {"item_id": "q1", "annotator_id": "a3", "response": "cs"},
            {"item_id": "q2", "annotator_id": "a1", "response": "yes"},
            {"item_id": "q2", "annotator_id": "a2", "response": "yes"},
            {"item_id": "q3", "annotator_id": "a1", "response": "no"},
            {"item_id": "q3", "annotator_id": "a2", "response": "yes"},
        ]
        path = tmp_path / "annotations.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
        return str(path)

    def test_score_then_rank(self, capsys, annotations, tmp_path):
        report = tmp_path / "report.json"
        code, payload, _ = run_json(
            capsys,
            "score", "--input", annotations, "--labels", "yes,no",
            "--output", str(report), "--seed", "5",
        )
        assert code == 0
        assert payload["n_rows"] == 7
        assert payload["n_items"] == 3

        code, ranked, _ = run_json(
            capsys, "rank", "--input", str(report), "--measure", "new"
        )
        assert code == 0
        ids = [entry["item_id"] for entry in ranked["items"]]
        assert ids[0] == "q1"  # the only item with an abstention
        scores = [entry["score"] for entry in ranked["items"]]
        assert scores == sorted(scores, reverse=True)

    def test_rank_threshold_filters(self, capsys, annotations, tmp_path):
        report = tmp_path / "report.json"
        run_json(
            capsys,
            "score", "--input", annotations, "--labels", "yes,no",
            "--output", str(report), "--seed", "5",
        )
        code, ranked, _ = run_json(
            capsys,
            "rank", "--input", str(report), "--measure", "new",
            "--threshold", "0.5",
        )
        assert code == 0
        assert all(entry["score"] >= 0.5 for entry in ranked["items"])
        assert len(ranked["items"]) == 2

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_rank_refuses_a_threshold_that_is_not_finite(self, capsys, annotations, tmp_path, threshold):
        report = tmp_path / "report.json"
        run_json(
            capsys,
            "score", "--input", annotations, "--labels", "yes,no",
            "--output", str(report), "--seed", "5",
        )
        code, out, err = run(capsys, "rank", "--input", str(report), "--threshold", threshold)
        assert code == 2
        assert out == ""
        assert "threshold" in err

    def test_rank_refuses_csv_export_of_a_mixed_set(self, capsys, annotations, tmp_path):
        yes_no = tmp_path / "yes_no.json"
        run_json(
            capsys,
            "score", "--input", annotations, "--labels", "yes,no",
            "--output", str(yes_no), "--seed", "5",
        )
        votes = tmp_path / "abc.jsonl"
        votes.write_text('{"item_id": "r1", "response": "a"}\n{"item_id": "r1", "response": "c"}\n')
        abc = tmp_path / "abc.json"
        run_json(
            capsys,
            "score", "--input", str(votes), "--labels", "a,b,c", "--measures", "new",
            "--output", str(abc), "--seed", "5",
        )
        mixed = tmp_path / "mixed.json"
        mixed.write_text(json.dumps(json.loads(yes_no.read_text()) + json.loads(abc.read_text())))
        ranked = tmp_path / "ranked.csv"
        code, _, err = run(
            capsys, "rank", "--input", str(mixed), "--output", str(ranked), "--output-format", "csv"
        )
        assert code == 2
        assert "one shape" in err
        assert not ranked.exists()

    def test_skip_unknown_counter_surfaces(self, capsys, tmp_path):
        path = tmp_path / "annotations.jsonl"
        path.write_text(
            '{"item_id": "a", "response": "yes"}\n'
            '{"item_id": "a", "response": "weird"}\n'
        )
        report = tmp_path / "report.json"
        code, payload, _ = run_json(
            capsys,
            "score", "--input", str(path), "--labels", "yes,no",
            "--skip-unknown", "--output", str(report),
        )
        assert code == 0
        assert payload["n_unknown_skipped"] == 1

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_rank_reads_report_with_byte_order_mark(self, capsys, annotations, tmp_path, fmt):
        report = tmp_path / f"report.{fmt}"
        run_json(
            capsys,
            "score", "--input", annotations, "--labels", "yes,no",
            "--output", str(report), "--output-format", fmt,
        )
        argv = ("rank", "--input", str(report), "--input-format", fmt, "--json")
        code, plain, _ = run(capsys, *argv)
        assert code == 0
        report.write_bytes(b"\xef\xbb\xbf" + report.read_bytes())
        assert run(capsys, *argv) == (0, plain, "")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_malformed_report_is_exit_2(self, capsys, annotations, tmp_path, fmt):
        report = tmp_path / f"report.{fmt}"
        run_json(
            capsys,
            "score", "--input", annotations, "--labels", "yes,no",
            "--output", str(report), "--output-format", fmt,
        )
        if fmt == "json":
            objs = json.loads(report.read_text())
            del objs[1]["measures"]
            report.write_text(json.dumps(objs))
        else:
            # The third line loses its last field.
            lines = report.read_text().splitlines()
            lines[2] = lines[2].rsplit(",", 1)[0]
            report.write_text("\n".join(lines) + "\n")
        code, out, err = run(
            capsys, "rank", "--input", str(report), "--input-format", fmt, "--json"
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "MalformedRow"

    def _rank_rejects(self, capsys, report, fmt, row):
        """rank on a mangled report exits 2 with MalformedRow at `row`,
        printing nothing and opening no output file."""
        ranked = report.parent / f"ranked.{fmt}"
        code, out, err = run(
            capsys, "rank", "--input", str(report), "--input-format", fmt,
            "--output", str(ranked), "--json",
        )
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "MalformedRow"
        assert error["message"].startswith(f"row {row}:")
        assert not ranked.exists()

    def _json_report(self, capsys, annotations, tmp_path):
        report = tmp_path / "report.json"
        run_json(
            capsys, "score", "--input", annotations, "--labels", "yes,no",
            "--output", str(report),
        )
        return report, json.loads(report.read_text())

    def test_rank_rejects_string_posterior_mean(self, capsys, annotations, tmp_path):
        report, objs = self._json_report(capsys, annotations, tmp_path)
        objs[1]["measures"]["new"]["posterior_mean"] = "0.5"
        report.write_text(json.dumps(objs))
        self._rank_rejects(capsys, report, "json", 2)

    def test_rank_rejects_integer_item_id(self, capsys, annotations, tmp_path):
        report, objs = self._json_report(capsys, annotations, tmp_path)
        objs[2]["item_id"] = 3
        report.write_text(json.dumps(objs))
        self._rank_rejects(capsys, report, "json", 3)

    @pytest.mark.parametrize("field", ["count", "plugin"])
    def test_rank_rejects_boolean_count_or_plugin(self, capsys, annotations, tmp_path, field):
        report, objs = self._json_report(capsys, annotations, tmp_path)
        if field == "count":
            objs[0]["counts"]["cs"] = True
        else:
            objs[0]["measures"]["new"]["plugin"] = True
        report.write_text(json.dumps(objs))
        self._rank_rejects(capsys, report, "json", 1)

    def test_rank_rejects_csv_nan(self, capsys, annotations, tmp_path):
        report = tmp_path / "report.csv"
        run_json(
            capsys, "score", "--input", annotations, "--labels", "yes,no",
            "--output", str(report), "--output-format", "csv",
        )
        with open(report, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        rows[2][rows[0].index("new_posterior_mean")] = "nan"
        with open(report, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerows(rows)
        self._rank_rejects(capsys, report, "csv", 3)


class TestSeedResolution:
    def test_flag_beats_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("AMBIQ_SEED", "99")
        _, payload, _ = run_json(
            capsys, "measure", "--q", "0.5,0.5,0.0", "--seed", "7"
        )
        assert payload["metadata"]["seed"] == 7

    def test_environment_used_without_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("AMBIQ_SEED", "99")
        _, payload, _ = run_json(capsys, "measure", "--q", "0.5,0.5,0.0")
        assert payload["metadata"]["seed"] == 99

    def test_default_zero(self, capsys, monkeypatch):
        monkeypatch.delenv("AMBIQ_SEED", raising=False)
        _, payload, _ = run_json(capsys, "measure", "--q", "0.5,0.5,0.0")
        assert payload["metadata"]["seed"] == 0


class TestMetadata:
    @pytest.mark.parametrize(
        "argv",
        [
            ("measure", "--q", "0.5,0.3,0.2"),
            ("posterior", "--counts", "3,1", "--cs-count", "1", "--mc-samples", "2000"),
        ],
    )
    def test_rng_names_the_generator_in_use(self, capsys, argv):
        _, payload, _ = run_json(capsys, *argv)
        built = type(make_generator(0).bit_generator).__name__.lower()
        assert payload["metadata"]["rng"] == built == "sfc64"


class TestDeterminism:
    def test_posterior_rerun_byte_identical(self, capsys):
        argv = (
            "posterior", "--counts", "3,1", "--cs-count", "1",
            "--mc-samples", "2000", "--seed", "11", "--json",
        )
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_seed_changes_mc_output(self, capsys):
        base = (
            "posterior", "--counts", "3,1", "--cs-count", "1",
            "--mc-samples", "2000", "--json",
        )
        _, out1, _ = run(capsys, *base, "--seed", "1")
        _, out2, _ = run(capsys, *base, "--seed", "2")
        assert out1 != out2


class TestErrorReporting:
    def test_missing_input_file_is_exit_3(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "score", "--input", str(tmp_path / "missing.jsonl"),
            "--labels", "yes,no", "--output", str(tmp_path / "out.json"),
        )
        assert code == 3
        assert "missing.jsonl" in err

    def test_json_errors_are_single_json_line(self, capsys):
        code, out, err = run(
            capsys, "measure", "--q", "0.5,0.6", "--cs", "0.2", "--json"
        )
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "DomainError"

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("ambiq ")
