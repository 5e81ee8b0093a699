"""Integration tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data.datgen import RuleBasedGenerator
from repro.data.io import save_dataset


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "out.npz"])
        assert args.kind == "datgen"
        assert args.items == 5_000

    def test_cluster_requires_k(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "ds.npz"])


class TestGenerateCommand:
    def test_datgen_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "ds.npz"
        code = main(
            [
                "generate", str(out),
                "--items", "120", "--clusters", "12",
                "--attributes", "10", "--seed", "3",
            ]
        )
        assert code == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_yahoo_kind(self, tmp_path, capsys):
        out = tmp_path / "yahoo.npz"
        code = main(
            [
                "generate", str(out), "--kind", "yahoo",
                "--items", "150", "--clusters", "10",
                "--tfidf-threshold", "0.3", "--seed", "3",
            ]
        )
        assert code == 0
        assert out.exists()


class TestClusterCommand:
    @pytest.fixture
    def dataset_path(self, tmp_path):
        ds = RuleBasedGenerator(n_clusters=8, n_attributes=10, seed=4).generate(150)
        return save_dataset(ds, tmp_path / "ds.npz")

    def test_mh_kmodes_run(self, dataset_path, capsys):
        code = main(
            [
                "cluster", str(dataset_path),
                "--clusters", "8", "--bands", "8", "--rows", "2", "--seed", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MH-K-Modes 8b 2r" in out
        assert "purity" in out

    def test_kmodes_run(self, dataset_path, capsys):
        code = main(
            [
                "cluster", str(dataset_path),
                "--algorithm", "kmodes", "--clusters", "8", "--seed", "0",
            ]
        )
        assert code == 0
        assert "K-Modes" in capsys.readouterr().out

    def test_phase_timings_printed(self, dataset_path, capsys):
        code = main(
            [
                "cluster", str(dataset_path),
                "--clusters", "8", "--bands", "8", "--rows", "2", "--seed", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "phases" in out
        assert "index_build=" in out

    def test_parallel_backend_run(self, dataset_path, capsys):
        code = main(
            [
                "cluster", str(dataset_path),
                "--clusters", "8", "--bands", "8", "--rows", "2", "--seed", "0",
                "--backend", "thread", "--jobs", "2", "--shards", "2",
            ]
        )
        assert code == 0
        assert "backend=thread" in capsys.readouterr().out

    def test_save_writes_model_and_sidecar(self, dataset_path, tmp_path, capsys):
        target = tmp_path / "model"
        code = main(
            [
                "cluster", str(dataset_path),
                "--clusters", "8", "--bands", "8", "--rows", "2", "--seed", "0",
                "--save", str(target),
            ]
        )
        assert code == 0
        assert (tmp_path / "model.npz").exists()
        assert (tmp_path / "model.json").exists()

        from repro.data import load_model

        assert load_model(tmp_path / "model.npz").n_clusters == 8

    def test_spec_file_configures_run(self, dataset_path, tmp_path, capsys):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "lsh": {"bands": 8, "rows": 2, "seed": 0},
                    "train": {"max_iter": 5},
                }
            )
        )
        code = main(
            [
                "cluster", str(dataset_path),
                "--clusters", "8", "--spec", str(spec_path),
            ]
        )
        assert code == 0
        assert "MH-K-Modes 8b 2r" in capsys.readouterr().out

    def test_spec_file_round_trips_to_dict(self, dataset_path, tmp_path, capsys):
        import json

        from repro.api import EngineSpec, LSHSpec, TrainSpec

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "lsh": LSHSpec(bands=4, rows=1, seed=0).to_dict(),
                    "engine": EngineSpec().to_dict(),
                    "train": TrainSpec(max_iter=3).to_dict(),
                }
            )
        )
        code = main(
            [
                "cluster", str(dataset_path),
                "--clusters", "8", "--spec", str(spec_path),
            ]
        )
        assert code == 0
        assert "MH-K-Modes 4b 1r" in capsys.readouterr().out

    def test_flags_override_spec_file(self, dataset_path, tmp_path, capsys):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps({"lsh": {"bands": 8, "rows": 2, "seed": 0}})
        )
        code = main(
            [
                "cluster", str(dataset_path),
                "--clusters", "8", "--spec", str(spec_path),
                "--bands", "4",  # flag wins over the file's bands=8
            ]
        )
        assert code == 0
        assert "MH-K-Modes 4b 2r" in capsys.readouterr().out

    def test_spec_file_with_retired_start_method_default_loads(
        self, dataset_path, tmp_path, capsys
    ):
        import json

        # the to_dict format of earlier releases carries
        # "start_method": null; such files keep working
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "lsh": {"bands": 4, "rows": 1, "seed": 0},
                    "engine": {"backend": "thread", "start_method": None},
                    "train": {"max_iter": 3},
                }
            )
        )
        code = main(
            [
                "cluster", str(dataset_path),
                "--clusters", "8", "--spec", str(spec_path),
                "--backend", "serial",
            ]
        )
        assert code == 0
        assert "backend=serial" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "engine, field",
        [
            ({"backend": "process"}, "thread"),
            ({"backend": "thread", "start_method": "fork"}, "start_method"),
        ],
    )
    def test_spec_file_with_retired_settings_rejected(
        self, dataset_path, tmp_path, engine, field
    ):
        import json

        from repro.exceptions import ConfigurationError

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"engine": engine}))
        with pytest.raises(ConfigurationError, match=field):
            main(
                [
                    "cluster", str(dataset_path),
                    "--clusters", "8", "--spec", str(spec_path),
                ]
            )

    def test_spec_file_without_seed_keeps_cli_default(
        self, dataset_path, tmp_path, capsys
    ):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"train": {"max_iter": 3}}))
        outputs = []
        for _ in range(2):
            code = main(
                [
                    "cluster", str(dataset_path),
                    "--clusters", "8", "--spec", str(spec_path),
                ]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        # the historic seed=0 default applies (reproducible runs), so
        # two identical invocations print identical cost lines
        cost = [l for l in outputs[0].splitlines() if l.startswith("cost")]
        assert cost == [l for l in outputs[1].splitlines() if l.startswith("cost")]

    def test_bad_spec_file_rejected(self, dataset_path, tmp_path):
        import json

        from repro.exceptions import ConfigurationError

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"lsh": {"bandz": 8}}))
        with pytest.raises(ConfigurationError):
            main(
                [
                    "cluster", str(dataset_path),
                    "--clusters", "8", "--spec", str(spec_path),
                ]
            )

    def test_kmodes_warns_on_ignored_engine_flags(self, dataset_path, capsys):
        code = main(
            [
                "cluster", str(dataset_path),
                "--algorithm", "kmodes", "--clusters", "8", "--seed", "0",
                "--backend", "thread", "--jobs", "4",
            ]
        )
        assert code == 0
        assert "apply to mh-kmodes only" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["gpu", "process"])
    def test_backend_flag_validated(self, backend):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cluster", "ds.npz", "--clusters", "4", "--backend", backend]
            )


class TestTablesCommand:
    def test_prints_both_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table II" in out
        assert "0.65" in out  # Table I row (10, 0.1)


class TestCompareCommand:
    def test_unknown_experiment(self, capsys):
        assert main(["compare", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestExtendCommand:
    @pytest.fixture
    def dataset_path(self, tmp_path):
        ds = RuleBasedGenerator(
            n_clusters=8, n_attributes=10, domain_size=200, seed=6
        ).generate(240)
        return save_dataset(ds, tmp_path / "stream.npz")

    def test_streams_with_per_chunk_timings(self, dataset_path, capsys):
        code = main(
            [
                "extend", str(dataset_path),
                "--clusters", "8", "--bootstrap", "120",
                "--stream-chunk", "40", "--bands", "10", "--rows", "2",
                "--max-iter", "5", "--seed", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bootstrap : 120 items" in out
        assert out.count("chunk") >= 3  # 120 streamed / 40 per chunk
        assert "signatures=" in out and "walk=" in out and "update=" in out
        assert "streamed  : 120 items" in out
        assert "purity" in out

    def test_parallel_backend_matches_serial(self, dataset_path, capsys):
        code = main(
            [
                "extend", str(dataset_path),
                "--clusters", "8", "--bootstrap", "120",
                "--backend", "thread", "--jobs", "2",
                "--bands", "10", "--rows", "2", "--seed", "1",
            ]
        )
        assert code == 0
        serial_out = capsys.readouterr().out
        assert "backend=thread" in serial_out
        assert "streamed  : 120 items" in serial_out

    def test_bootstrap_must_leave_items_to_stream(self, dataset_path, capsys):
        code = main(
            [
                "extend", str(dataset_path),
                "--clusters", "8", "--bootstrap", "240",
            ]
        )
        assert code == 2
        assert "leave items to stream" in capsys.readouterr().err

    def test_parser_defaults(self):
        args = build_parser().parse_args(
            ["extend", "ds.npz", "--clusters", "5"]
        )
        assert args.stream_chunk == 4096
        assert args.backend is None
        assert args.refresh_interval == 200
