"""Repo-specific ablation: the transitivity warm-up, an implementation choice.

Not a paper table — this bench prints F1 for the place where our default
deviates from the paper's literal algorithm (docs/architecture.md,
"Implementation choices"): the first calibration runs after 5 EM
iterations instead of from iteration 0. Both run on the paper's joint
linkage schedule, the only one, next to a fit without transitivity.

Run on the two datasets where transitivity does real work: the 1-to-many
publications set and the sibling-heavy product set.
"""

from _bench_utils import emit, one_shot

from repro.core import ZeroERConfig
from repro.eval.harness import format_table, prepare_dataset, zeroer_f1

DATASETS = ("mv_ri", "prod_ag")


def test_warmup_ablation(benchmark, capfd):
    def run():
        results = []
        for name in DATASETS:
            prep = prepare_dataset(name)
            row = {"dataset": name}
            row["noT"] = zeroer_f1(prep, ZeroERConfig(transitivity=False))
            for warmup in (0, 5):
                row[f"w{warmup}"] = zeroer_f1(prep, ZeroERConfig(transitivity_warmup=warmup))
            results.append(row)
        return results

    rows = one_shot(benchmark, run)
    columns = ["dataset", "noT", "w0", "w5"]
    emit(capfd, "")
    emit(capfd, format_table(rows, columns,
                             title="Implementation ablation — transitivity warm-up (F1)"))

    for row in rows:
        # transitivity (in our default configuration) must not be worse than
        # no transitivity by more than noise, and helps on the product set
        assert row["w5"] >= row["noT"] - 0.05, row["dataset"]
    by_name = {r["dataset"]: r for r in rows}
    assert by_name["prod_ag"]["w5"] > by_name["prod_ag"]["noT"] + 0.1
