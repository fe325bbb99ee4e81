"""The four workloads: seeded inputs, the ops that run them, and their checks.

An op runs in a child process forked from the warmed-up benchmark, so it
starts from the state a fresh `ambiq` process has after import and gains
nothing from earlier ops. `Op.run` executes in that child and returns a
small JSON payload; `Op.check` runs in the parent and compares the op's
output with references computed before timing started.

A round is one op per input. Runs repeat whole rounds, so the share of
failed ops is the same in every run.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import reference as ref
from warmup import WarmUp, call_cli

SCORE_MEASURES = ("new", "modified", "old")
SCORE_MC_SAMPLES = 20_000  # the CLI default for score
POSTERIOR_MC_SAMPLES = 100_000  # the CLI default for posterior
REF_DRAWS = 20_000
BINARY_REF_DRAWS = 200_000

BIAS_Q = (0.45, 0.35, 0.20)
BIAS_N_VALUES = (1, 2, 5, 20, 100)
BIAS_REPEATS = 200  # the CLI default
BIAS_MODE_SAMPLES = 20_000  # the library default for the mode column
BIAS_MODE_REF_REPEATS = 100


@dataclass
class Op:
    """One operation of a round.

    key names the op's input; ops with the same key run the same command
    with the same seed, so their output files must be byte-identical.
    expect_fault marks the configurations of a known program fault, which
    count as failed ops without making the run incorrect.
    """

    key: str
    work: int
    run: Callable[[], dict]
    check: Callable[[dict], list[str]]
    output: str
    expect_fault: bool = False


class Workload:
    name = ""
    # Whether a run has the 40 or more ops of like cost that a tail
    # percentile needs.
    has_tail = False

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.ops: list[Op] = []
        self.warm_up = WarmUp(cli=[])
        self.facts: dict = {}

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def prepare(self) -> None:
        """Write the inputs and compute every reference. Not timed."""
        raise NotImplementedError

    def cli_seed(self) -> int:
        return int(self.rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# score-repeat and score-distinct
# ---------------------------------------------------------------------------


class _ScoreWorkload(Workload):
    has_tail = True
    n_files = 6

    def _items(self, file_index: int) -> dict[str, tuple[int, ...]]:
        raise NotImplementedError

    def _write(self, path: str, items: dict[str, tuple[int, ...]]) -> int:
        raise NotImplementedError

    def _argv(self, path: str, output: str, seed: int) -> list[str]:
        raise NotImplementedError

    def _rows(self, items: dict[str, tuple[int, ...]], labels: tuple[str, ...]) -> list[tuple[str, str, str]]:
        """(item_id, annotator_id, response) rows in shuffled order."""
        rows = []
        for item_id, counts in items.items():
            responses = [label for label, c in zip(labels, counts) for _ in range(c)]
            annotators = self.rng.permutation(max(len(responses), 400))[: len(responses)]
            order = self.rng.permutation(len(responses))
            rows += [(item_id, f"w{annotators[k]:03d}", responses[k]) for k in order]
        return [rows[k] for k in self.rng.permutation(len(rows))]

    def _reference(self, counts: tuple[int, ...], cache: dict) -> dict:
        if counts not in cache:
            rng = np.random.default_rng([self.seed, 101, *counts])
            draws = ref.dirichlet_measures(counts, SCORE_MEASURES, REF_DRAWS, rng)
            cache[counts] = {
                m: (
                    ref.plugin_value(counts, m),
                    None if m == "old" else ref.posterior_mean(counts, m),
                    ref.McReference(draws[m]).compact(checks.CI_LEVELS, SCORE_MC_SAMPLES),
                )
                for m in SCORE_MEASURES
            }
        return cache[counts]

    def prepare(self) -> None:
        cache: dict = {}
        repeated = total_items = total_rows = 0
        for f in range(self.n_files):
            items = self._items(f)
            path = self.path(f"input-{f}.{self.suffix}")
            total_rows += self._write(path, items)
            seen = set()
            for counts in items.values():
                repeated += counts in seen
                seen.add(counts)
            total_items += len(items)
            expected = {item: (counts, self._reference(counts, cache)) for item, counts in items.items()}
            output = self.path(f"report-{f}.json")
            argv = self._argv(path, output, self.cli_seed())
            self.ops.append(
                Op(
                    key=f"file{f}",
                    work=len(items),
                    run=_cli_runner(argv, self.path(f"stdout-{f}.txt")),
                    check=_score_checker(output, expected),
                    output=output,
                )
            )
        self.facts = {
            "items_per_file": total_items / self.n_files,
            "rows_per_item": total_rows / total_items,
            "repeated_count_vector_share": repeated / total_items,
        }
        warm_items = {f"warm{i}": c for i, c in enumerate(self._warm_counts())}
        warm_path = self.path(f"warm.{self.suffix}")
        self._write(warm_path, warm_items)
        self.warm_up = WarmUp(cli=[self._argv(warm_path, self.path("warm-report.json"), 0)])


def _cli_runner(argv: list[str], stdout_path: str):
    def run() -> dict:
        return {"rc": call_cli(argv, stdout_path)}

    return run


def _score_checker(output: str, expected: dict):
    def check(payload: dict) -> list[str]:
        if payload.get("rc") != 0:
            return [f"exit code {payload.get('rc')}"]
        with open(output, encoding="utf-8") as handle:
            reports = json.load(handle)
        return checks.check_score_report(reports, expected)

    return check


class ScoreRepeat(_ScoreWorkload):
    """JSONL, yes/no plus cs, 3-7 annotators: most count vectors repeat.

    As in a typical crowdsourcing job, each file has a planned number of
    annotators per item (3-7), which four in five items get; the rest get
    any number from 3 to 7. Items are easy yes, easy no or ambiguous. So
    few count vectors occur, and most items repeat an earlier one.
    """

    name = "score-repeat"
    suffix = "jsonl"
    items_per_file = 30
    labels = ("yes", "no", "cs")
    kinds = ((0.88, 0.08, 0.04), (0.08, 0.88, 0.04), (0.45, 0.40, 0.15))
    kind_weights = (0.55, 0.30, 0.15)
    planned_share = 0.8

    def _items(self, file_index: int) -> dict[str, tuple[int, ...]]:
        items = {}
        planned = int(self.rng.integers(3, 8))
        for i in range(self.items_per_file):
            q = self.kinds[self.rng.choice(len(self.kinds), p=self.kind_weights)]
            n = planned if self.rng.random() < self.planned_share else int(self.rng.integers(3, 8))
            items[f"r{file_index}-{i:04d}"] = tuple(int(c) for c in self.rng.multinomial(n, q))
        return items

    def _warm_counts(self):
        return [(2, 1, 0), (0, 3, 1), (1, 1, 1)]

    def _write(self, path, items) -> int:
        rows = self._rows(items, self.labels)
        with open(path, "w", encoding="utf-8") as handle:
            for item_id, annotator, response in rows:
                handle.write(json.dumps({"item_id": item_id, "annotator_id": annotator, "response": response}) + "\n")
        return len(rows)

    def _argv(self, path, output, seed):
        return ["score", "--input", path, "--format", "jsonl", "--labels", "yes,no",
                "--output", output, "--seed", str(seed)]


class ScoreDistinct(_ScoreWorkload):
    """CSV, four labels plus cs, 20-300 annotators: no count vector repeats."""

    name = "score-distinct"
    suffix = "csv"
    items_per_file = 18
    labels = ("cat", "dog", "bird", "fish", "cs")

    def _items(self, file_index: int) -> dict[str, tuple[int, ...]]:
        items: dict[str, tuple[int, ...]] = {}
        seen = set()
        while len(items) < self.items_per_file:
            n = int(self.rng.integers(20, 301))
            q = self.rng.dirichlet([1.0, 1.0, 1.0, 1.0, 0.5])
            counts = tuple(int(c) for c in self.rng.multinomial(n, q))
            if counts not in seen:
                seen.add(counts)
                items[f"d{file_index}-{len(items):04d}"] = counts
        return items

    def _warm_counts(self):
        return [(5, 3, 1, 0, 1), (2, 2, 2, 2, 0), (0, 9, 1, 1, 3)]

    def _write(self, path, items) -> int:
        rows = self._rows(items, self.labels)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["item_id", "annotator_id", "response"])
            writer.writerows(rows)
        return len(rows)

    def _argv(self, path, output, seed):
        return ["score", "--input", path, "--format", "csv", "--labels", "cat,dog,bird,fish",
                "--output", output, "--seed", str(seed)]


# ---------------------------------------------------------------------------
# binary-exact
# ---------------------------------------------------------------------------

# Count vectors (n_plus, n_minus, n_cs) of the configurations that pass
# today, for each measure: totals 5, 75 and 550. Their counts are fixed, so
# op times do not move with the seed; the seed draws the CDF levels and the
# CLI's --seed. Random count vectors made the slowest op, and with it
# op_tail_ref, spread by a fifth from seed to seed.
BINARY_COUNTS = ((3, 1, 1), (40, 25, 10), (300, 200, 50))

# Configurations of the known fault: at these counts adaptive Simpson
# accepts a zero integrand between its first nodes, so the CDF and the
# density read ~0 near the posterior bulk. Their levels and --seed are
# fixed too, so they fail identically in every run.
BINARY_FAULT_COUNTS = ((3000, 2000, 500), (6000, 4000, 1000))
BINARY_FIXED_SEED = 20251004


class BinaryExact(Workload):
    """Exact binary posterior reports for both quadratic measures."""

    name = "binary-exact"

    def prepare(self) -> None:
        configs = []
        for measure in ("new", "modified"):
            for counts in BINARY_COUNTS:
                configs.append((counts, measure, self.rng, self.cli_seed(), False))
            for counts in BINARY_FAULT_COUNTS:
                fixed = np.random.default_rng([BINARY_FIXED_SEED, len(configs)])
                configs.append((counts, measure, fixed, BINARY_FIXED_SEED, True))
        for index, (counts, measure, rng, cli_seed, fault) in enumerate(configs):
            values = ref.dirichlet_measures(counts, (measure,), BINARY_REF_DRAWS, rng)[measure]
            mc = ref.McReference(values)
            levels = [mc.quantile(p) for p in checks.BINARY_LEVELS]
            compact = mc.compact(checks.SUMMARY_LEVELS, POSTERIOR_MC_SAMPLES)
            density = self.path(f"density-{index}.csv")
            argv = ["posterior", "--counts", f"{counts[0]},{counts[1]}", "--cs-count", str(counts[2]),
                    "--measure", measure, "--density", density, "--json", "--seed", str(cli_seed)]
            stdout = self.path(f"posterior-{index}.json")
            self.ops.append(
                Op(
                    key=f"config{index}",
                    work=1,
                    run=_binary_runner(argv, stdout, counts, measure, levels),
                    check=_binary_checker(stdout, density, counts, measure, levels, compact),
                    output=density,
                    expect_fault=fault,
                )
            )
        self.facts = {"configs": [[list(c), m, f] for c, m, _, _, f in configs]}
        self.warm_up = WarmUp(
            cli=[["posterior", "--counts", "3,1", "--cs-count", "1", "--density", self.path("warm.csv"),
                  "--grid-points", "8", "--mc-samples", "2000", "--json"]],
            cdf=[0.3, [3, 1, 1], "new"],
        )


def _binary_runner(argv, stdout, counts, measure, levels):
    def run() -> dict:
        import ambiq

        rc = call_cli(argv, stdout)
        binary = ambiq.BinaryCounts(*counts)
        kind = ambiq.MeasureKind(measure)
        cdf = [ambiq.posterior_cdf_binary(a, binary, 1.0, kind) for a in levels]
        return {"rc": rc, "cdf": [float(v) for v in cdf]}

    return run


def _binary_checker(stdout, density_path, counts, measure, levels, compact):
    closed_mean = ref.posterior_mean(counts, measure)

    def check(payload: dict) -> list[str]:
        if payload.get("rc") != 0:
            return [f"exit code {payload.get('rc')}"]
        problems = checks.check_cdf(payload["cdf"])
        with open(stdout, encoding="utf-8") as handle:
            problems += checks.check_posterior_json(json.load(handle), measure, closed_mean, compact)
        table = np.loadtxt(density_path, delimiter=",", skiprows=1, ndmin=2)
        problems += checks.check_density(table[:, 0], table[:, 1], levels)
        return problems

    return check


# ---------------------------------------------------------------------------
# bias-curve
# ---------------------------------------------------------------------------


class BiasCurve(Workload):
    """The README bias-curve command, one op per curve."""

    name = "bias-curve"

    def prepare(self) -> None:
        truth = float(ref.measure_values(np.array([BIAS_Q[:2]]), np.array([BIAS_Q[2]]), "new")[0])
        expected = {}
        for n in BIAS_N_VALUES:
            plugin, _ = ref.exact_moments(BIAS_Q, n, lambda c: ref.plugin_value(c, "new"))
            mean, sd = ref.exact_moments(BIAS_Q, n, lambda c: ref.posterior_mean(c, "new"))
            mode, mode_se = self._mode_reference(n)
            expected[(n, "plugin")] = ("exact", plugin - truth)
            expected[(n, "bayes_mean(1)")] = ("moments", mean - truth, sd, BIAS_REPEATS)
            expected[(n, "bayes_mode(1)")] = ("mc", mode - truth, mode_se)
        output = self.path("bias.csv")
        argv = ["bias-curve", "--q", ",".join(f"{v:.2f}" for v in BIAS_Q),
                "--n-values", ",".join(map(str, BIAS_N_VALUES)), "--output", output,
                "--seed", str(self.cli_seed())]
        self.ops.append(
            Op(key="curve", work=len(expected), run=_cli_runner(argv, self.path("stdout.txt")),
               check=_bias_checker(output, expected), output=output)
        )
        self.warm_up = WarmUp(cli=[["bias-curve", "--q", "0.45,0.35,0.20", "--n-values", "1,2",
                                    "--mc-repeats", "4", "--output", self.path("warm.csv")]])

    def _mode_reference(self, n: int) -> tuple[float, float]:
        """Independent MC of the histogram-mode estimator's mean at size n."""
        rng = np.random.default_rng([self.seed, 202, n])
        modes = np.empty(BIAS_MODE_REF_REPEATS)
        for r, counts in enumerate(rng.multinomial(n, BIAS_Q, size=BIAS_MODE_REF_REPEATS)):
            values = ref.dirichlet_measures(tuple(int(c) for c in counts), ("new",), BIAS_MODE_SAMPLES, rng)
            modes[r] = ref.histogram_mode(values["new"])
        return float(modes.mean()), float(modes.std() / np.sqrt(BIAS_MODE_REF_REPEATS))


def _bias_checker(output: str, expected: dict):
    def check(payload: dict) -> list[str]:
        if payload.get("rc") != 0:
            return [f"exit code {payload.get('rc')}"]
        with open(output, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        if rows[:1] != [["n", "estimator", "bias", "stderr"]]:
            return [f"header {rows[:1]}"]
        return checks.check_bias_rows(rows[1:], expected)

    return check


WORKLOADS = {w.name: w for w in (ScoreRepeat, ScoreDistinct, BinaryExact, BiasCurve)}
