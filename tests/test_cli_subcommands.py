"""Tests for the ``fit`` / ``resolve`` CLI subcommands (and ``run`` routing)."""

import csv

import pytest

from repro import load_benchmark
from repro.__main__ import main
from repro.data.io import write_csv
from repro.data.table import Table


@pytest.fixture(scope="module")
def csv_world(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_incremental")
    ds = load_benchmark("rest_fz", scale="tiny", seed=4)
    merged, _ = ds.as_dedup()
    records = list(merged)
    base = Table(records[:-10], attributes=merged.attributes)
    batch = Table(records[-10:], attributes=merged.attributes)
    write_csv(base, tmp / "base.csv")
    write_csv(batch, tmp / "batch.csv")
    write_csv(ds.left, tmp / "left.csv")
    write_csv(ds.right, tmp / "right.csv")
    return tmp


class TestFitResolveCLI:
    def test_fit_writes_artifacts(self, csv_world):
        art = csv_world / "art"
        code = main(
            ["fit", "--left", str(csv_world / "base.csv"),
             "--block-on", "name", "--artifacts", str(art)]
        )
        assert code == 0
        from repro.incremental.artifacts import artifact_dir

        version_dir = artifact_dir(art)
        assert (art / "CURRENT").is_file()
        assert (version_dir / "manifest.json").is_file()
        assert (version_dir / "arrays.npz").is_file()
        assert (version_dir / "checksums.json").is_file()

    def test_resolve_assigns_and_updates_store(self, csv_world):
        art = csv_world / "art2"
        assert main(
            ["fit", "--left", str(csv_world / "base.csv"),
             "--block-on", "name", "--artifacts", str(art)]
        ) == 0
        out = csv_world / "assignments.csv"
        code = main(
            ["resolve", "--artifacts", str(art),
             "--records", str(csv_world / "batch.csv"), "-o", str(out)]
        )
        assert code == 0
        with out.open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 10
        assert all(row["entity_id"].startswith("e") for row in rows)
        # the artifact directory was updated in place: the streamed records
        # are now part of the store, so re-streaming them is rejected cleanly
        code = main(
            ["resolve", "--artifacts", str(art),
             "--records", str(csv_world / "batch.csv")]
        )
        assert code == 2

    def test_resolve_bad_output_path_keeps_batch_retryable(self, csv_world):
        """An unwritable -o must not persist the store (the batch can re-run)."""
        art = csv_world / "art3"
        assert main(
            ["fit", "--left", str(csv_world / "base.csv"),
             "--block-on", "name", "--artifacts", str(art)]
        ) == 0
        code = main(
            ["resolve", "--artifacts", str(art),
             "--records", str(csv_world / "batch.csv"),
             "-o", str(csv_world / "no-such-dir" / "out.csv")]
        )
        assert code == 2
        # artifacts untouched → the same batch resolves fine on retry
        assert main(
            ["resolve", "--artifacts", str(art),
             "--records", str(csv_world / "batch.csv")]
        ) == 0

    def test_resolve_bad_artifacts_dir(self, csv_world):
        code = main(
            ["resolve", "--artifacts", str(csv_world / "missing"),
             "--records", str(csv_world / "batch.csv")]
        )
        assert code == 2

    def test_fit_bad_block_attribute(self, csv_world):
        code = main(
            ["fit", "--left", str(csv_world / "base.csv"),
             "--block-on", "nope", "--artifacts", str(csv_world / "never")]
        )
        assert code == 2

    def test_explicit_run_subcommand_matches_legacy_flat_flags(self, csv_world):
        """``run`` and the historical no-subcommand spelling are equivalent."""
        args = ["--left", str(csv_world / "left.csv"),
                "--right", str(csv_world / "right.csv"), "--block-on", "name"]
        new, old = csv_world / "m_new.csv", csv_world / "m_old.csv"
        assert main(["run", *args, "-o", str(new)]) == 0
        assert main([*args, "-o", str(old)]) == 0
        assert new.read_text() == old.read_text()


class TestSpecCLI:
    def test_spec_init_stdout(self, capsys):
        import json

        assert main(["spec", "init", "--block-on", "name"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["blocking"]["type"] == "token_overlap"
        assert payload["blocking"]["attribute"] == "name"
        assert payload["version"] == 1

    def test_spec_init_flags_land_in_spec(self, csv_world):
        import json

        path = csv_world / "custom.json"
        assert main(
            ["spec", "init", "--block-on", "name", "--kappa", "0.4",
             "--threshold", "0.7", "--no-transitivity", "-o", str(path)]
        ) == 0
        payload = json.loads(path.read_text())
        assert payload["model"]["config"]["kappa"] == 0.4
        assert payload["model"]["config"]["transitivity"] is False
        assert payload["output"]["threshold"] == 0.7

    def test_run_with_spec_matches_run_with_flags(self, csv_world):
        spec_path = csv_world / "spec.json"
        assert main(["spec", "init", "--block-on", "name", "-o", str(spec_path)]) == 0
        tables = ["--left", str(csv_world / "left.csv"),
                  "--right", str(csv_world / "right.csv")]
        by_flags, by_spec = csv_world / "by_flags.csv", csv_world / "by_spec.csv"
        assert main(["run", *tables, "--block-on", "name", "-o", str(by_flags)]) == 0
        assert main(["run", *tables, "--spec", str(spec_path), "-o", str(by_spec)]) == 0
        assert by_spec.read_text() == by_flags.read_text()

    def test_fit_with_spec_embeds_provenance(self, csv_world):
        import json

        spec_path = csv_world / "fit_spec.json"
        assert main(["spec", "init", "--block-on", "name", "-o", str(spec_path)]) == 0
        art = csv_world / "art_spec"
        assert main(
            ["fit", "--left", str(csv_world / "base.csv"),
             "--spec", str(spec_path), "--artifacts", str(art)]
        ) == 0
        from repro.incremental.artifacts import artifact_dir

        manifest = json.loads((artifact_dir(art) / "manifest.json").read_text())
        assert manifest["pipeline_spec"]["blocking"]["attribute"] == "name"

    def test_spec_and_block_on_conflict(self, csv_world, capsys):
        code = main(
            ["run", "--left", str(csv_world / "left.csv"), "--block-on", "name",
             "--spec", "whatever.json", "-o", str(csv_world / "x.csv")]
        )
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_missing_block_on_and_spec(self, csv_world, capsys):
        code = main(
            ["run", "--left", str(csv_world / "left.csv"),
             "-o", str(csv_world / "x.csv")]
        )
        assert code == 2
        assert "--block-on" in capsys.readouterr().err

    def test_malformed_spec_file(self, csv_world, capsys):
        bad = csv_world / "bad.json"
        bad.write_text('{"blocking": {"type": "token_overlap", "attribute": "name", "oops": 1}}')
        code = main(
            ["run", "--left", str(csv_world / "left.csv"),
             "--spec", str(bad), "-o", str(csv_world / "x.csv")]
        )
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_missing_spec_file(self, csv_world, capsys):
        code = main(
            ["run", "--left", str(csv_world / "left.csv"),
             "--spec", str(csv_world / "absent.json"), "-o", str(csv_world / "x.csv")]
        )
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_cli_flags_override_spec_values(self, csv_world):
        """--kappa on top of --spec wins over the spec's kappa."""
        spec_path = csv_world / "spec_k.json"
        assert main(["spec", "init", "--block-on", "name", "--kappa", "0.6",
                     "-o", str(spec_path)]) == 0
        tables = ["--left", str(csv_world / "left.csv"),
                  "--right", str(csv_world / "right.csv")]
        base, overridden = csv_world / "k_base.csv", csv_world / "k_override.csv"
        assert main(["run", *tables, "--block-on", "name", "--kappa", "0.15",
                     "-o", str(base)]) == 0
        assert main(["run", *tables, "--spec", str(spec_path), "--kappa", "0.15",
                     "-o", str(overridden)]) == 0
        # κ=0.15 forced over the spec's 0.6 → identical to the flag-built run
        assert overridden.read_text() == base.read_text()

    def test_spec_with_unknown_blocking_attribute_errors(self, csv_world, capsys):
        """A spec blocking on a non-existent column must fail loudly, like --block-on."""
        import json

        bad = csv_world / "bad_attr.json"
        bad.write_text(json.dumps(
            {"blocking": {"type": "token_overlap", "attribute": "nosuchcol"}}
        ))
        code = main(
            ["run", "--left", str(csv_world / "left.csv"),
             "--spec", str(bad), "-o", str(csv_world / "x.csv")]
        )
        assert code == 2
        assert "nosuchcol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "blocking, blocker_class",
        [
            (
                {"type": "union", "blockers": [{"type": "token_overlap", "attribute": "name"}]},
                "UnionBlocker",
            ),
            (
                {"type": "sorted_neighborhood", "attribute": "name", "window": 3},
                "SortedNeighborhoodBlocker",
            ),
            ({"type": "attr_equivalence", "attribute": "city"}, "AttributeEquivalenceBlocker"),
        ],
        ids=["union", "sorted_neighborhood", "attr_equivalence"],
    )
    def test_fit_rejects_blocker_freeze_cannot_index(
        self, csv_world, capsys, blocking, blocker_class
    ):
        """fit fails cleanly, before fitting, when freeze() could not index."""
        import json

        spec_path = csv_world / f"unindexable_{blocking['type']}.json"
        spec_path.write_text(json.dumps({"blocking": blocking}))
        art = csv_world / f"art_unindexable_{blocking['type']}"
        code = main(
            ["fit", "--left", str(csv_world / "base.csv"),
             "--spec", str(spec_path), "--artifacts", str(art)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and blocker_class in err
        assert "Traceback" not in err
        assert not art.exists()

    def test_fit_accepts_spec_with_retired_keys(self, csv_world):
        """A spec written before the engine/worker knobs were retired still fits."""
        import json

        from repro.incremental.artifacts import artifact_dir

        spec = {
            "version": 1,
            "blocking": {
                "type": "token_overlap",
                "attribute": "name",
                "top_k": 60,
                "engine": "per-record",
            },
            "features": {"engine": "per-pair", "type_overrides": {}},
            "shard": {"shards": 2, "workers": 3, "load_budget_mb": None},
        }
        spec_path = csv_world / "retired_keys.json"
        spec_path.write_text(json.dumps(spec))
        art = csv_world / "art_retired_keys"
        assert main(
            ["fit", "--left", str(csv_world / "base.csv"),
             "--spec", str(spec_path), "--artifacts", str(art)]
        ) == 0
        manifest = json.loads((artifact_dir(art) / "manifest.json").read_text())
        assert manifest["extra"]["resolver"]["sharded"]["n_shards"] == 2
        embedded = manifest["pipeline_spec"]
        assert "engine" not in embedded["blocking"]
        assert "engine" not in embedded["features"]
        assert embedded["shard"] == {"shards": 2, "load_budget_mb": None}
