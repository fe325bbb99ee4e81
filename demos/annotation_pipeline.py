"""End-to-end dataset flow: raw annotations to a ranked ambiguity report.

Run:  python3 demos/annotation_pipeline.py

Simulates a small crowdsourced labeling job, writes it to a JSONL file,
then walks the library pipeline: load and aggregate per-item counts,
score every item with plug-in and posterior columns, rank by posterior
mean, and export a report file into a temporary directory, removed when
the demo ends. The same flow is available from the command line via
`ambiq score` and `ambiq rank`.
"""

import json
import tempfile
from pathlib import Path

from ambiq import (
    CategorySchema,
    MeasureKind,
    export_reports,
    load_records,
    make_generator,
    rank_and_filter,
    score_items,
)

# True soft labels for the simulated items; annotators sample from these.
TRUE_LABELS = {
    "clear-01": (0.95, 0.05, 0.00),
    "clear-02": (0.05, 0.90, 0.05),
    "split-01": (0.55, 0.40, 0.05),
    "split-02": (0.45, 0.45, 0.10),
    "unsolvable-01": (0.15, 0.15, 0.70),
}
RESPONSES = ("yes", "no", "cs")
N_ANNOTATORS = 12


def simulate(path: Path) -> None:
    rng = make_generator(2024)
    with open(path, "w", encoding="utf-8") as handle:
        for item_id, probs in TRUE_LABELS.items():
            for annotator in range(N_ANNOTATORS):
                response = RESPONSES[rng.choice(3, p=probs)]
                handle.write(
                    json.dumps(
                        {
                            "item_id": item_id,
                            "annotator_id": f"worker-{annotator:02d}",
                            "response": response,
                        }
                    )
                    + "\n"
                )


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="ambiq-demo-") as workdir:
        walk(Path(workdir))


def walk(workdir: Path) -> None:
    """The pipeline, writing its files into workdir."""
    annotations = workdir / "annotations.jsonl"
    simulate(annotations)
    print(f"Simulated {len(TRUE_LABELS)} items x {N_ANNOTATORS} annotators")
    print(f"  -> {annotations}")
    print()

    loaded = load_records(
        str(annotations), schema=CategorySchema(labels=("yes", "no"))
    )
    print(f"Loaded {loaded.n_rows} rows, {len(loaded.items)} items,")
    print(f"  {loaded.n_duplicate_pairs} duplicate (item, annotator) pairs.")
    print(f"  {'item':<14} {'yes':>4} {'no':>4} {'cs':>4}")
    for item_id, counts in loaded.items.items():
        print(
            f"  {item_id:<14} {counts.proper[0]:>4} {counts.proper[1]:>4}"
            f" {counts.cs:>4}"
        )
    print()

    reports = score_items(loaded.items, prior_beta=1.0, seed=7)
    print("Scored with a flat prior; new-measure columns:")
    print(f"  {'item':<14} {'plug-in':>8} {'mean':>7} {'sd':>6} {'95% CI':>16}")
    for report in reports:
        new = report.measures["new"]
        print(
            f"  {report.item_id:<14} {new.plugin:>8.3f} {new.posterior_mean:>7.3f}"
            f" {new.posterior_sd:>6.3f}"
            f"   [{new.credible_lo:.3f}, {new.credible_hi:.3f}]"
        )
    print()

    ranked = rank_and_filter(
        reports, key="posterior_mean", measure=MeasureKind.NEW, threshold=0.5
    )
    print("Items with posterior mean ambiguity >= 0.5, most ambiguous first:")
    for report in ranked:
        print(f"  {report.item_id:<14} {report.measures['new'].posterior_mean:.3f}")
    print()
    print("The split and unsolvable items surface; the plug-in column")
    print("understates each value (finite-sample bias) while the posterior")
    print("column attaches honest uncertainty.")
    print()

    report_path = workdir / "report.json"
    export_reports(reports, str(report_path), format="json")
    print(f"Full report exported to {report_path}")
    print("CLI equivalent:")
    print("  ambiq score --input annotations.jsonl --labels yes,no \\")
    print("      --output report.json --seed 7")
    print("  ambiq rank --input report.json --measure new --threshold 0.5")


if __name__ == "__main__":
    main()
