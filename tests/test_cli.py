"""Command-line interface: output shapes and values for each subcommand, seed
resolution (flag, environment, default), byte-identical reruns, the
score-then-rank pipeline over temporary files, and exit codes for
validation (2) versus file-access (3) failures.
"""

import csv
import io
import json
import warnings

import numpy as np
import pytest

import ambiq.cli
import ambiq.frequentist
from ambiq.cli import main
from ambiq.measures import CountVector, MeasureKind
from ambiq.numerics import DirichletParams, make_generator
from ambiq.posterior_analytics import posterior_update
from ambiq.posterior_sampling import histogram_mode, sample_transformed


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

    def test_q_with_one_entry_needs_cs(self, capsys):
        code, out, err = run(capsys, "measure", "--q", "0.5")
        assert (code, out) == (2, "")
        assert err == (
            "error: --q without --cs needs at least two entries (the last is the"
            " can't-solve mass)\n"
        )

    def test_rejects_bad_simplex(self, capsys):
        code, _, err = run(capsys, "measure", "--q", "0.5,0.6", "--cs", "0.2")
        assert code == 2
        assert "sum" in err

    def test_counts_give_the_correctly_rounded_plugin(self, capsys):
        # The float kernel at the frequencies (0.8, 0.2) reads
        # 0.31999999999999984, 0.6399999999999997 and 0.3999999999999999.
        code, payload, _ = run_json(capsys, "measure", "--counts", "4,1")
        assert code == 0
        assert payload["measures"] == {"new": 0.32, "modified": 0.64, "old": 0.4}
        code, payload, _ = run_json(capsys, "measure", "--counts", "3,0,0,0,0")
        assert payload["measures"]["old"] == 0.0

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--counts", "3,1", "--cs", "0.5"), "--cs goes with --q; with --counts give --cs-count"),
            (("--counts", "3,1", "--cs", "0"), "--cs goes with --q; with --counts give --cs-count"),
            (
                ("--q", "0.5,0.5", "--cs", "0", "--cs-count", "4"),
                "--cs-count goes with --counts; with --q give the can't-solve mass",
            ),
            (
                ("--q", "0.5,0.5,0", "--cs-count", "0"),
                "--cs-count goes with --counts; with --q give the can't-solve mass",
            ),
        ],
    )
    def test_refuses_a_can_t_solve_option_of_the_other_input(self, capsys, argv, message):
        code, out, err = run(capsys, "measure", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


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

    def test_table_names_the_density_method(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "posterior", "--counts", "2,1", "--cs-count", "1", "--mc-samples", "2000",
            "--grid-points", "16", "--density", str(tmp_path / "density.csv"), "--seed", "4",
        )
        assert (code, err) == (0, "")
        assert out == (
            "measure      new\n"
            "method       closed_form+mc\n"
            "closed_mean  0.571429\n"
            "closed_sd    0.123718\n"
            "mc_mean      0.575818\n"
            "mc_sd        0.124222\n"
            "mc_mode      0.560547\n"
            "ci_0.95      [0.290925, 0.808512]\n"
            "seed         4\n"
            "beta         1\n"
            "density      analytic\n"
        )

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


# `posterior` stdout at four configurations, recorded before its Monte Carlo
# block was read off one sorted sample: (arguments, table, JSON payload).
# The three whose posteriors have a shape of 1/2, 3/2 or 2-4 were recorded
# again when those gamma columns moved to exact identities.
PINNED_POSTERIOR = [
    (
        "--counts 4,2,7 --cs-count 1 --measure old --credible-mass 0.9 --seed 3",
        (
            "measure  old\n"
            "method   mc_only\n"
            "mc_mean  0.717733\n"
            "mc_sd    0.121123\n"
            "mc_mode  0.724609\n"
            "ci_0.9   [0.506140, 0.909318]\n"
            "seed     3\n"
            "beta     1\n"
        ),
        {
            "measure": "old",
            "method": "mc_only",
            "closed_form": None,
            "mc": {
                "mean": 0.7177330682787282,
                "sd": 0.12112327828101078,
                "mode": 0.724609375,
                "quantiles": {
                    "0.025": 0.4572495488631865,
                    "0.25": 0.6404323578299463,
                    "0.5": 0.7218084022869076,
                    "0.75": 0.8037227505221975,
                    "0.975": 0.9352701207315353,
                },
                "credible_interval": {
                    "lo": 0.5061397656658898,
                    "hi": 0.9093180640749181,
                    "mass": 0.9,
                },
            },
            "metadata": {
                "version": "0.1.0",
                "rng": "sfc64",
                "seed": 3,
                "beta": 1.0,
                "measure": "old",
                "mc_samples": 100000,
                "density_method": None,
            },
        },
    ),
    (
        "--counts 4,2,7,1 --cs-count 1 --measure modified --beta 0.5 --seed 1",
        (
            "measure      modified\n"
            "method       closed_form+mc\n"
            "closed_mean  0.852101\n"
            "closed_sd    0.085533\n"
            "mc_mean      0.851898\n"
            "mc_sd        0.085794\n"
            "mc_mode      0.896484\n"
            "ci_0.95      [0.641178, 0.975339]\n"
            "seed         1\n"
            "beta         0.5\n"
        ),
        {
            "measure": "modified",
            "method": "closed_form+mc",
            "closed_form": {"mean": 0.8521008403361344, "sd": 0.08553321529505073},
            "mc": {
                "mean": 0.8518981149349859,
                "sd": 0.08579413460596941,
                "mode": 0.896484375,
                "quantiles": {
                    "0.025": 0.6411784237719872,
                    "0.25": 0.8060322284261874,
                    "0.5": 0.8669616876295505,
                    "0.75": 0.9137214538689047,
                    "0.975": 0.9753385796273721,
                },
                "credible_interval": {
                    "lo": 0.6411784237719873,
                    "hi": 0.9753385796273721,
                    "mass": 0.95,
                },
            },
            "metadata": {
                "version": "0.1.0",
                "rng": "sfc64",
                "seed": 1,
                "beta": 0.5,
                "measure": "modified",
                "mc_samples": 100000,
                "density_method": None,
            },
        },
    ),
    (
        "--counts 3000,2000 --cs-count 500 --measure new --beta 0.5 --credible-mass 0.9 --seed 2",
        (
            "measure      new\n"
            "method       closed_form+mc\n"
            "closed_mean  0.527227\n"
            "closed_sd    0.003228\n"
            "mc_mean      0.527222\n"
            "mc_sd        0.003237\n"
            "mc_mode      0.525391\n"
            "ci_0.9       [0.521831, 0.532473]\n"
            "seed         2\n"
            "beta         0.5\n"
        ),
        {
            "measure": "new",
            "method": "closed_form+mc",
            "closed_form": {"mean": 0.5272271351388556, "sd": 0.003227502126666598},
            "mc": {
                "mean": 0.5272221404689913,
                "sd": 0.003236634064698387,
                "mode": 0.525390625,
                "quantiles": {
                    "0.025": 0.5207425475153281,
                    "0.25": 0.5250707449668197,
                    "0.5": 0.5272589392445522,
                    "0.75": 0.529424528501492,
                    "0.975": 0.5334170420592801,
                },
                "credible_interval": {
                    "lo": 0.5218306424901399,
                    "hi": 0.5324726790515893,
                    "mass": 0.9,
                },
            },
            "metadata": {
                "version": "0.1.0",
                "rng": "sfc64",
                "seed": 2,
                "beta": 0.5,
                "measure": "new",
                "mc_samples": 100000,
                "density_method": None,
            },
        },
    ),
    (
        "--counts 0,0,0 --cs-count 0 --measure new --beta 0.5 --seed 0",
        (
            "measure      new\n"
            "method       closed_form+mc\n"
            "closed_mean  0.550000\n"
            "closed_sd    0.203832\n"
            "mc_mean      0.550835\n"
            "mc_sd        0.204397\n"
            "mc_mode      0.517578\n"
            "ci_0.95      [0.110061, 0.922817]\n"
            "seed         0\n"
            "beta         0.5\n"
        ),
        {
            "measure": "new",
            "method": "closed_form+mc",
            "closed_form": {"mean": 0.55, "sd": 0.20383233072213802},
            "mc": {
                "mean": 0.5508353292179636,
                "sd": 0.20439654690282852,
                "mode": 0.517578125,
                "quantiles": {
                    "0.025": 0.11006129345874106,
                    "0.25": 0.42728026874619973,
                    "0.5": 0.5653815137247524,
                    "0.75": 0.6872922852673342,
                    "0.975": 0.9228170877609582,
                },
                "credible_interval": {
                    "lo": 0.11006129345874109,
                    "hi": 0.9228170877609582,
                    "mass": 0.95,
                },
            },
            "metadata": {
                "version": "0.1.0",
                "rng": "sfc64",
                "seed": 0,
                "beta": 0.5,
                "measure": "new",
                "mc_samples": 100000,
                "density_method": None,
            },
        },
    ),
]


class TestPosteriorMcBlock:
    """The `mc` block of `posterior`: the moments and histogram mode of the
    sample as drawn, and its quantiles by np.quantile's rule."""

    @pytest.mark.parametrize("argv, table, payload", PINNED_POSTERIOR)
    def test_stdout_is_pinned(self, capsys, argv, table, payload):
        assert run(capsys, "posterior", *argv.split()) == (0, table, "")
        expected = json.dumps(payload, indent=2) + "\n"
        assert run(capsys, "posterior", *argv.split(), "--json") == (0, expected, "")

    @pytest.mark.parametrize(
        "measure, mass", [("new", 0.95), ("modified", 0.5), ("old", 0.9)]
    )
    def test_block_is_numpy_on_the_root_stream(self, capsys, measure, mass):
        code, payload, _ = run_json(
            capsys,
            "posterior", "--counts", "4,2,7", "--cs-count", "1", "--measure", measure,
            "--credible-mass", str(mass), "--mc-samples", "50000", "--seed", "12",
        )
        assert code == 0
        posterior = posterior_update(
            DirichletParams.symmetric(3, 1.0), CountVector(proper=(4, 2, 7), cs=1)
        )
        values = sample_transformed(posterior, (MeasureKind(measure),), 50_000, 12)[0]
        mc = payload["mc"]
        assert mc["mean"] == float(np.mean(values))
        assert mc["sd"] == float(np.std(values))
        assert mc["mode"] == histogram_mode(values)
        levels = (0.025, 0.25, 0.5, 0.75, 0.975)
        assert mc["quantiles"] == {str(p): float(np.quantile(values, p)) for p in levels}
        tail = 0.5 * (1.0 - mass)  # as `posterior` computes it
        lo, hi = np.quantile(values, [tail, 1.0 - tail])
        assert mc["credible_interval"] == {"lo": float(lo), "hi": float(hi), "mass": mass}
        inside = np.mean((values >= lo) & (values <= hi))
        assert inside == pytest.approx(mass, abs=0.01)
        if payload["closed_form"] is not None:
            # Sanity against the exact moments at this sample size.
            assert mc["mean"] == pytest.approx(payload["closed_form"]["mean"], abs=0.01)
            assert mc["sd"] == pytest.approx(payload["closed_form"]["sd"], abs=0.01)

    @pytest.mark.parametrize(
        "argv, error, message",
        [
            (
                "--counts 3,1 --cs-count 1 --measure old --density {density} --mc-samples 999",
                "TooFewSamples",
                "mc_samples must be at least 1000",
            ),
            (
                "--counts 3,1 --cs-count 1 --measure old --density {density} --credible-mass 1",
                "DomainError",
                "credible mass 1.0 outside (0, 1)",
            ),
            (
                "--counts 3,1 --cs-count 1 --measure old --density {density} --credible-mass 0",
                "DomainError",
                "credible mass 0.0 outside (0, 1)",
            ),
            (
                "--counts 3,1 --cs-count 1 --measure old --density {density} --credible-mass nan",
                "DomainError",
                "credible mass nan outside (0, 1)",
            ),
            # --grid-points is checked whatever the density: the analytic
            # curve, the Monte Carlo band at C = 3, or no density file.
            (
                "--counts 3,1 --cs-count 1 --density {density} --grid-points 2",
                "DomainError",
                "--grid-points must be at least 3",
            ),
            (
                "--counts 3,1,2 --cs-count 1 --density {density} --grid-points 2",
                "DomainError",
                "--grid-points must be at least 3",
            ),
            ("--counts 3,1 --grid-points 2", "DomainError", "--grid-points must be at least 3"),
        ],
    )
    def test_refuses_bad_settings_before_drawing(
        self, capsys, monkeypatch, tmp_path, argv, error, message
    ):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew a sample")

        monkeypatch.setattr(ambiq.cli, "sample_transformed", no_draws)
        density = tmp_path / "density.csv"
        code, out, err = run(
            capsys, "posterior", *argv.format(density=density).split(), "--json"
        )
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": error, "message": message}
        assert not density.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            "posterior --counts 0,0 --beta 0.001 --mc-samples 2000",
            "prior-explore --n-categories 2 --betas 0.001,1 --mc-samples 2000 --density {out}",
        ],
    )
    def test_refuses_a_prior_whose_draws_underflow(self, capsys, tmp_path, usable_cpus, argv):
        # Dir(0.001, 0.001 | 0.001) draws vectors whose gammas all underflow
        # to 0; they are refused, not scored as 1 after a 0/0 warning, on
        # two threads as on one. Both draw from the stream (0, ()).
        usable_cpus(2)
        out = tmp_path / "band.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run(capsys, *argv.format(out=out).split(), "--json")
        assert (code, stdout, caught) == (2, "", [])
        assert not out.exists()
        assert json.loads(err) == {
            "error": "DomainError",
            "message": "211 of 2000 Dirichlet draws underflowed to all-zero gamma variates at"
            " concentrations (0.001, 0.001, 0.001)",
        }


class TestListOptions:
    """Every comma-separated option goes through one parser: an empty list
    exits 2 and names its option, in table and JSON mode alike."""

    @pytest.mark.parametrize(
        "argv, option",
        [
            (("measure", "--counts", "1,1", "--measures", ","), "--measures"),
            (
                ("bias-curve", "--q", "0.5,0.3,0.2", "--n-values", "1,2", "--estimators", " , "),
                "--estimators",
            ),
            (("score", "--input", "votes.jsonl", "--labels", ",", "--output", "r.json"), "--labels"),
            (
                (
                    "score", "--input", "votes.jsonl", "--labels", "yes,no",
                    "--measures", ",,", "--output", "r.json",
                ),
                "--measures",
            ),
        ],
    )
    def test_an_empty_list_names_its_option(self, capsys, monkeypatch, tmp_path, argv, option):
        monkeypatch.chdir(tmp_path)
        message = f"{option} must contain at least one value"
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")
        code, out, err = run(capsys, *argv, "--json")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "DomainError", "message": message}

    def test_an_unknown_measure_is_not_called_a_number(self, capsys):
        code, out, err = run(capsys, "measure", "--q", "0.5,0.5,0", "--measures", "new,bogus")
        assert (code, out) == (2, "")
        assert err.startswith("error: --measures ")
        assert "'bogus'" in err
        assert "number" not in err

    def test_entries_are_stripped(self, capsys):
        code, payload, _ = run_json(
            capsys, "measure", "--q", "0.5,0.5,0", "--measures", " old , new "
        )
        assert code == 0
        assert list(payload["measures"]) == ["old", "new"]


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

    def test_output_file_json_summary(self, capsys, tmp_path):
        out_path = tmp_path / "bias.csv"
        code, payload, _ = run_json(
            capsys,
            "bias-curve", "--q", "0.6,0.3", "--cs", "0.1", "--n-values", "1,2",
            "--estimators", "plugin", "--output", str(out_path), "--seed", "2",
        )
        assert code == 0
        assert payload == {
            "output": str(out_path),
            "rows": 2,
            "metadata": {
                "version": "0.1.0",
                "rng": "sfc64",
                "seed": 2,
                "beta": 1.0,
                "measure": "new",
                "mc_repeats": 200,
            },
        }
        assert len(out_path.read_text().splitlines()) == 3

    def test_zero_repeats_is_exit_2(self, capsys):
        code, out, err = run(
            capsys,
            "bias-curve", "--q", "0.45,0.35,0.20", "--n-values", "1,20",
            "--mc-repeats", "0", "--json",
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"


    @pytest.mark.parametrize("beta", ["-1", "0", "nan", "inf"])
    def test_prior_must_be_positive_and_finite(self, capsys, beta):
        code, out, err = run(
            capsys,
            "bias-curve", "--q", "0.5,0.3,0.2", "--n-values", "1,2",
            "--estimators", "plugin", "--beta", beta, "--json",
        )
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "DomainError"
        assert "prior concentration" in error["message"]

    @pytest.mark.parametrize("name", ["plugin", "bayes_mean"])
    def test_repeated_estimator_is_exit_2_before_any_draw(self, capsys, name, sfc64_streams):
        code, out, err = run(
            capsys,
            "bias-curve", "--q", "0.5,0.3,0.2", "--n-values", "1,2",
            "--estimators", f"{name},{name}", "--json",
        )
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "DomainError",
            "message": f"estimator '{name}' is listed more than once",
        }
        assert sfc64_streams == []

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


# `prior-explore` stdout, table and JSON, for each measure: the quadratic
# measures' mean and sd are closed forms, total variation's are the moments
# of the table's sample.
PINNED_PRIOR_EXPLORE = [
    (
        "--n-categories 3 --betas 0.5,1 --measure new --mc-samples 5000 --seed 3",
        (
            "beta      mean      sd        mode\n"
            "0.5       0.550000  0.203832  0.556641\n"
            "1         0.625000  0.139194  0.638672\n"
        ),
        {
            "measure": "new",
            "n_categories": 3,
            "priors": [
                {"beta": 0.5, "mean": 0.55, "sd": 0.20383233072213802, "mode": 0.556640625},
                {"beta": 1.0, "mean": 0.625, "sd": 0.1391941090707506, "mode": 0.638671875},
            ],
            "metadata": {"version": "0.1.0", "rng": "sfc64", "seed": 3, "measure": "new"},
        },
    ),
    (
        "--n-categories 2 --betas 0.5,2 --measure modified --mc-samples 5000 --seed 1",
        (
            "beta      mean      sd        mode\n"
            "0.5       0.666667  0.298142  0.998047\n"
            "2         0.866667  0.151785  0.998047\n"
        ),
        {
            "measure": "modified",
            "n_categories": 2,
            "priors": [
                {
                    "beta": 0.5,
                    "mean": 0.6666666666666667,
                    "sd": 0.2981423969999719,
                    "mode": 0.998046875,
                },
                {
                    "beta": 2.0,
                    "mean": 0.8666666666666667,
                    "sd": 0.1517845471477067,
                    "mode": 0.998046875,
                },
            ],
            "metadata": {"version": "0.1.0", "rng": "sfc64", "seed": 1, "measure": "modified"},
        },
    ),
    (
        "--n-categories 4 --betas 0.5,1 --measure old --mc-samples 5000 --seed 3",
        (
            "beta      mean      sd        mode\n"
            "0.5       0.562776  0.186707  0.673828\n"
            "1         0.663250  0.144061  0.740234\n"
        ),
        {
            "measure": "old",
            "n_categories": 4,
            "priors": [
                {
                    "beta": 0.5,
                    "mean": 0.5627762377747643,
                    "sd": 0.18670736989792494,
                    "mode": 0.673828125,
                },
                {
                    "beta": 1.0,
                    "mean": 0.6632501372181996,
                    "sd": 0.14406108302586468,
                    "mode": 0.740234375,
                },
            ],
            "metadata": {"version": "0.1.0", "rng": "sfc64", "seed": 3, "measure": "old"},
        },
    ),
]


class TestPriorExploreCommand:
    @pytest.mark.parametrize("argv, table, payload", PINNED_PRIOR_EXPLORE)
    def test_stdout_is_pinned(self, capsys, argv, table, payload):
        assert run(capsys, "prior-explore", *argv.split()) == (0, table, "")
        expected = json.dumps(payload, indent=2) + "\n"
        assert run(capsys, "prior-explore", *argv.split(), "--json") == (0, expected, "")

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


    def test_table_and_density_draw_different_streams(self, capsys, tmp_path, sfc64_streams):
        # The table's sample and every density repeat must come from their
        # own streams: record the seed and spawn key of every generator.
        code, _, _ = run(
            capsys,
            "prior-explore", "--n-categories", "3", "--betas", "0.5,1",
            "--mc-samples", "1000", "--density", str(tmp_path / "band.csv"),
        )
        assert code == 0
        assert len(sfc64_streams) == 2 + 2 * 100
        assert len(set(sfc64_streams)) == len(sfc64_streams)

    def test_too_few_samples_is_exit_2_before_any_draw(self, capsys, tmp_path, sfc64_streams):
        band = tmp_path / "band.csv"
        code, out, err = run(
            capsys,
            "prior-explore", "--n-categories", "3", "--mc-samples", "10",
            "--density", str(band), "--json",
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "TooFewSamples"
        assert sfc64_streams == []
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

    def test_score_and_rank_tables(self, capsys, annotations, tmp_path):
        report = tmp_path / "report.json"
        code, out, err = run(
            capsys,
            "score", "--input", annotations, "--labels", "yes,no",
            "--output", str(report), "--seed", "5",
        )
        assert (code, err) == (0, "")
        assert out == (
            "items            3\n"
            "rows             7\n"
            "duplicates       0\n"
            "unknown_skipped  0\n"
            f"output           {report}\n"
        )
        rank = ("rank", "--input", str(report), "--measure", "new")
        assert run(capsys, *rank) == (0, "q1  0.600000\nq3  0.520000\nq2  0.440000\n", "")
        assert run(capsys, *rank, "--threshold", "2") == (0, "(no items)\n", "")

    def test_rank_ascending_threshold_keeps_scores_at_or_below(self, capsys, annotations, tmp_path):
        report = tmp_path / "report.json"
        run_json(
            capsys,
            "score", "--input", annotations, "--labels", "yes,no",
            "--output", str(report), "--seed", "5",
        )
        argv = ("rank", "--input", str(report), "--measure", "new", "--ascending")
        code, ranked, _ = run_json(capsys, *argv, "--threshold", "0.52")
        assert code == 0
        assert ranked["descending"] is False
        assert ranked["items"] == [
            {"item_id": "q2", "score": 0.43999999999999995},
            {"item_id": "q3", "score": 0.52},
        ]

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

    def test_rank_refuses_a_csv_report_with_swapped_count_names(
        self, capsys, annotations, tmp_path
    ):
        report = tmp_path / "report.csv"
        run_json(
            capsys,
            "score", "--input", annotations, "--labels", "yes,no",
            "--output", str(report), "--output-format", "csv",
        )
        text = report.read_text()
        assert ",count_1,count_2," in text.splitlines()[0]
        report.write_text(text.replace(",count_1,count_2,", ",count_2,count_1,", 1))
        self._rank_rejects(capsys, report, "csv", 1)

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


def test_measure_counts_print_the_plugins_that_score_reports(capsys, tmp_path):
    # Each item's plug-ins, as number tokens, from `measure --counts --json`
    # and from both report formats of `score`: mirrored items, unanimous,
    # uniform and can't-solve-only votes among them.
    labels = ("a", "b", "c", "d", "e")
    items = {
        "u1": (3, 0, 0, 0, 0, 0), "u2": (0, 0, 0, 0, 3, 0), "even": (2, 2, 2, 2, 2, 0),
        "p": (4, 1, 0, 0, 0, 0), "p-mirror": (0, 0, 0, 1, 4, 0), "mixed": (30, 2, 9, 0, 4, 6),
        "mixed-perm": (0, 9, 4, 30, 2, 6), "cs-only": (0, 0, 0, 0, 0, 2),
    }
    rows = [
        json.dumps({"item_id": item, "annotator_id": f"x{i}", "response": label})
        for item, counts in items.items()
        for label, count in zip((*labels, "cs"), counts)
        for i in range(count)
    ]
    votes = tmp_path / "votes.jsonl"
    votes.write_text("\n".join(rows) + "\n", encoding="utf-8")
    reports = {}
    for fmt in ("json", "csv"):
        path = tmp_path / f"reports.{fmt}"
        code, _, _ = run(
            capsys, "score", "--input", str(votes), "--labels", ",".join(labels),
            "--mc-samples", "1000", "--output", str(path), "--output-format", fmt,
        )
        assert code == 0
        reports[fmt] = path.read_text(encoding="utf-8")
    from_json = {
        entry["item_id"]: {name: block["plugin"] for name, block in entry["measures"].items()}
        for entry in json.loads(reports["json"], parse_float=str)
    }
    from_csv = {
        row["item_id"]: {name: row[f"{name}_plugin"] for name in ("new", "modified", "old")}
        for row in csv.DictReader(io.StringIO(reports["csv"]))
    }
    for item, counts in items.items():
        code, out, _ = run(
            capsys, "measure", "--counts", ",".join(map(str, counts[:-1])),
            "--cs-count", str(counts[-1]), "--json",
        )
        assert code == 0
        printed = json.loads(out, parse_float=str)["measures"]
        assert printed == from_json[item] == from_csv[item]
    assert from_json["u1"]["old"] == from_json["u2"]["old"] == "0.0"
    assert from_json["even"]["modified"] == "1.0"
    assert from_json["p"] == from_json["p-mirror"]
    assert from_json["mixed"] == from_json["mixed-perm"]


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


    def test_non_integer_environment_seed_is_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("AMBIQ_SEED", "abc")
        code, out, err = run(capsys, "measure", "--q", "0.5,0.5,0.0", "--json")
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "DomainError",
            "message": "AMBIQ_SEED must be an integer, got 'abc'",
        }


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


def _refusal_rows():
    """(argv, error, message) for every pair of an input rule and a
    subcommand that takes the setting; {out} is the output path and
    {votes} a one-row annotation file with the label "yes"."""
    rows = []
    for beta in ("-1", "0", "nan", "inf"):
        message = f"prior concentration must be positive and finite, got {float(beta)!r}"
        for argv in (
            f"posterior --counts 3,1 --cs-count 1 --density {{out}} --beta {beta}",
            f"prior-explore --n-categories 3 --betas 1,{beta} --density {{out}}",
            f"score --input {{votes}} --labels yes,no --output {{out}} --beta {beta}",
            f"bias-curve --q 0.5,0.3,0.2 --n-values 1,2 --output {{out}} --beta {beta}",
            f"bias-curve --q 0.5,0.3,0.2 --n-values 1,2 --estimators plugin --output {{out}}"
            f" --beta {beta}",
        ):
            rows.append((argv, "DomainError", message))
    sampling = (
        "posterior --counts 3,1 --cs-count 1 --density {out}",
        "score --input {votes} --labels yes,no --output {out}",
        "prior-explore --n-categories 3 --density {out}",
    )
    for argv in sampling:
        rows.append((argv + " --mc-samples 999", "TooFewSamples", "mc_samples must be at least 1000"))
    for argv in sampling[:2]:  # prior-explore reports no interval
        rows.append((argv + " --credible-mass 1", "DomainError", "credible mass 1.0 outside (0, 1)"))
    for measure in ("modified", "old"):
        message = f"{measure} ambiguity needs C >= 2"
        for argv in (
            f"posterior --counts 5 --cs-count 1 --density {{out}} --measure {measure}",
            f"prior-explore --n-categories 1 --density {{out}} --measure {measure}",
            f"score --input {{votes}} --labels yes --output {{out}} --measures {measure}",
            f"bias-curve --q 0.7,0.3 --n-values 1,2 --output {{out}} --measure {measure}",
            f"measure --q 0.7,0.3 --measures {measure}",
        ):
            rows.append((argv, "SingleCategoryUnsupported", message))
    return rows


@pytest.mark.parametrize("argv, error, message", _refusal_rows())
def test_each_rule_refuses_with_one_message_before_any_draw_or_file(
    capsys, tmp_path, sfc64_streams, argv, error, message
):
    # Each input rule has one owner, so every subcommand that takes the
    # setting refuses it with the same error, before it builds a generator
    # or opens an output file.
    votes = tmp_path / "votes.jsonl"
    votes.write_text('{"item_id": "q1", "annotator_id": "a1", "response": "yes"}\n')
    out = tmp_path / "out"
    code, stdout, stderr = run(capsys, *argv.format(out=out, votes=votes).split(), "--json")
    assert (code, stdout) == (2, "")
    assert json.loads(stderr) == {"error": error, "message": message}
    assert not out.exists()
    assert sfc64_streams == []


class TestErrorReporting:
    def test_missing_input_file_is_exit_3(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "score", "--input", str(tmp_path / "missing.jsonl"),
            "--labels", "yes,no", "--output", str(tmp_path / "out.json"),
        )
        assert code == 3
        assert "missing.jsonl" in err

    def test_unwritable_output_is_exit_3(self, capsys, tmp_path):
        target = tmp_path / "missing_dir" / "bias.csv"
        code, out, err = run(
            capsys,
            "bias-curve", "--q", "0.6,0.3", "--cs", "0.1", "--n-values", "1,2",
            "--estimators", "plugin", "--output", str(target), "--json",
        )
        assert (code, out) == (3, "")
        error = json.loads(err)
        assert error["error"] == "DataFileError"
        assert error["message"].startswith(f"cannot write {target}: ")
        assert not target.parent.exists()

    def test_json_errors_are_single_json_line(self, capsys):
        code, out, err = run(
            capsys, "measure", "--q", "0.5,0.6", "--cs", "0.2", "--json"
        )
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "DomainError"

    @pytest.mark.parametrize("beta", ["1e160", "1e308"])
    @pytest.mark.parametrize("command", ["posterior", "bias-curve", "prior-explore", "score"])
    def test_huge_concentration_is_exit_2_before_any_draw_or_file(
        self, capsys, tmp_path, sfc64_streams, command, beta
    ):
        # A total concentration whose square overflows is refused with a
        # DomainError naming it, not a traceback or a consistency error.
        votes = tmp_path / "votes.jsonl"
        votes.write_text('{"item_id": "q1", "annotator_id": "a1", "response": "yes"}\n')
        output = tmp_path / "out"
        argv = {
            "posterior": ["--counts", "3,1", "--cs-count", "1", "--density", str(output)],
            "bias-curve": ["--q", "0.45,0.35,0.20", "--n-values", "1,2", "--output", str(output)],
            "prior-explore": ["--n-categories", "3", "--betas", f"1,{beta}", "--density", str(output)],
            "score": ["--input", str(votes), "--labels", "yes,no", "--output", str(output)],
        }[command]
        if command != "prior-explore":
            argv += ["--beta", beta]
        code, out, err = run(capsys, command, *argv, "--json")
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "DomainError"
        assert f"({float(beta)!r}, " in error["message"]
        assert "add up to more than 1e+154" in error["message"]
        assert sfc64_streams == []
        assert not output.exists()

    def test_modified_measure_at_one_category_has_one_refusal(self, capsys):
        refusals = [
            run(capsys, *argv.split(), "--json")
            for argv in (
                "posterior --counts 5 --cs-count 1 --measure modified",
                "prior-explore --n-categories 1 --measure modified",
            )
        ]
        error = {"error": "SingleCategoryUnsupported", "message": "modified ambiguity needs C >= 2"}
        assert [(code, out, json.loads(err)) for code, out, err in refusals] == [(2, "", error)] * 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("ambiq ")
