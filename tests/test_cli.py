"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

PAPER_EXPERIMENTS = ("fig1", "fig5", "fig6", "fig7", "table1", "table3", "accuracy")


def test_parser_knows_every_experiment():
    parser = build_parser()
    assert callable(parser.parse_args(["sweep", "--profile", "tiny"]).func)
    for name in PAPER_EXPERIMENTS:
        args = parser.parse_args(["experiments", "run", name, "--profile", "tiny"])
        assert args.names == [name]
        assert callable(args.func)


def test_cli_has_no_per_figure_commands(capsys):
    # Experiments run only through 'repro experiments run NAME'.
    for name in PAPER_EXPERIMENTS:
        with pytest.raises(SystemExit) as error:
            main([name])
        assert error.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
    # The daemon has one inference backend and nothing serves a cached
    # selector module, so neither has a flag.
    for argv in (
        ["serve", "--daemon", "--model", "m.json", "--backend", "compiled"],
        ["codegen", "--model", "m.json", "--install"],
    ):
        with pytest.raises(SystemExit) as error:
            main(argv)
        assert error.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_requires_a_command():
    with pytest.raises(SystemExit):
        main([])


def test_cli_rejects_unknown_profile():
    with pytest.raises(SystemExit):
        main(["experiments", "run", "fig1", "--profile", "gigantic"])


def test_cli_table1_runs(capsys):
    assert main(["experiments", "run", "table1"]) == 0
    output = capsys.readouterr().out
    assert "Table I" in output


def test_cli_fig6_runs(capsys):
    assert main(["experiments", "run", "fig6"]) == 0
    output = capsys.readouterr().out
    assert "crossover" in output


def test_cli_sweep_exports_artifacts(tmp_path, capsys):
    assert main(["sweep", "--profile", "tiny", "--output-dir", str(tmp_path)]) == 0
    output = capsys.readouterr().out
    assert "selector slowdown vs Oracle" in output
    assert (tmp_path / "runtime.csv").exists()
    assert (tmp_path / "seer_models.h").exists()
    assert (tmp_path / "seer_models.py").exists()


def test_cli_fig1_on_tiny_profile(capsys):
    assert main(["experiments", "run", "fig1", "--profile", "tiny"]) == 0
    assert "fastest kernel per matrix" in capsys.readouterr().out


def test_parser_accepts_engine_options():
    parser = build_parser()
    args = parser.parse_args(
        ["sweep", "--profile", "tiny", "--jobs", "4", "--cache-dir", "/tmp/c"]
    )
    assert args.jobs == 4
    assert args.cache_dir == "/tmp/c"
    defaults = parser.parse_args(["sweep"])
    assert defaults.jobs is None
    assert defaults.cache_dir is None


def test_parser_accepts_scenario_profiles():
    parser = build_parser()
    for profile in ("wide", "banded"):
        args = parser.parse_args(["sweep", "--profile", profile])
        assert args.profile == profile


def test_experiment_commands_accept_engine_options():
    parser = build_parser()
    args = parser.parse_args(
        ["experiments", "run", "fig1", "--profile", "tiny", "--jobs", "2"]
    )
    assert args.jobs == 2


def test_cli_sweep_uses_cache_between_runs(tmp_path, capsys):
    argv = ["sweep", "--profile", "tiny", "--jobs", "2", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "sweep-cache=miss" in cold
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "sweep-cache=hit" in warm


# ----------------------------------------------------------------------
# The experiment suite subcommand
# ----------------------------------------------------------------------
def test_parser_knows_experiments_subcommands():
    parser = build_parser()
    args = parser.parse_args(["experiments", "list"])
    assert callable(args.func)
    args = parser.parse_args(
        ["experiments", "run", "fig1", "table3", "--domain", "spmm",
         "--profile", "tiny", "--jobs", "2", "--out-dir", "/tmp/x"]
    )
    assert args.names == ["fig1", "table3"]
    assert args.domain == "spmm" and args.profile == "tiny"
    assert args.jobs == 2 and args.out_dir == "/tmp/x"
    args = parser.parse_args(["experiments", "run", "--all"])
    assert args.all and args.names == []


def test_cli_experiments_list(capsys):
    assert main(["experiments", "list"]) == 0
    output = capsys.readouterr().out
    for name in ("fig1", "fig7", "table3", "spmm_amortization"):
        assert name in output
    assert "[spmv]" in output  # fig7 is SpMV-only
    assert "[spmm]" in output  # the amortization study is SpMM-only


def test_cli_experiments_run_writes_artifacts(tmp_path, capsys):
    assert main(
        ["experiments", "run", "table1", "fig6", "--out-dir", str(tmp_path)]
    ) == 0
    output = capsys.readouterr().out
    assert "Table I" in output and "crossover" in output
    for name in ("table1", "fig6"):
        assert (tmp_path / "spmv" / name / "data.csv").exists()
        assert (tmp_path / "spmv" / name / "manifest.json").exists()


def test_cli_experiments_run_rejects_unsupported_domain():
    with pytest.raises(SystemExit, match="does not support"):
        main(["experiments", "run", "fig7", "--domain", "spmm"])


def test_cli_experiments_run_requires_names_or_all():
    with pytest.raises(SystemExit, match="--all"):
        main(["experiments", "run"])
    with pytest.raises(SystemExit, match="not both"):
        main(["experiments", "run", "fig1", "--all"])


def test_cli_experiments_run_suggests_close_matches():
    with pytest.raises(SystemExit, match="did you mean"):
        main(["experiments", "run", "fig11"])


# ----------------------------------------------------------------------
# The serving verbs: train --save / predict
# ----------------------------------------------------------------------
def _train_tiny(tmp_path, capsys) -> str:
    """Run ``repro train`` into a tmp registry and return the model path."""
    assert main(
        ["train", "--profile", "tiny", "--save", str(tmp_path / "models")]
    ) == 0
    output = capsys.readouterr().out
    assert "registered model:" in output
    return output.rsplit("registered model:", 1)[1].strip()


def test_cli_train_registers_a_model(tmp_path, capsys):
    model_path = _train_tiny(tmp_path, capsys)
    assert model_path.endswith("model.json")
    parts = model_path.split("/")
    assert parts[-4:-2] == ["spmv", "tiny"]


def test_cli_predict_prints_the_model_summary(tmp_path, capsys):
    model_path = _train_tiny(tmp_path, capsys)
    assert main(["predict", "--model", model_path]) == 0
    output = capsys.readouterr().out
    assert "domain: spmv" in output
    assert "known features: rows, cols, nnz, iterations" in output
    assert "selector tree:" in output


def test_cli_predict_serves_a_feature_batch(tmp_path, capsys):
    model_path = _train_tiny(tmp_path, capsys)
    batch = tmp_path / "batch.csv"
    batch.write_text(
        "name,rows,cols,nnz,iterations,max_row_density,min_row_density,"
        "mean_row_density,var_row_density\n"
        "small,512,512,4096,1,0.05,0.001,0.015,0.0001\n"
        "large,200000,200000,2400000,19,0.4,0.0,0.00006,0.0005\n"
    )
    assert main(["predict", "--model", model_path, "--batch", str(batch)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "name,selector_choice,kernel"
    assert len(lines) == 3
    assert lines[1].startswith("small,")
    assert lines[2].startswith("large,")


def test_cli_predict_rejects_missing_feature_columns(tmp_path, capsys):
    model_path = _train_tiny(tmp_path, capsys)
    batch = tmp_path / "batch.csv"
    batch.write_text("rows,cols\n1,2\n")
    with pytest.raises(SystemExit, match="missing known feature column"):
        main(["predict", "--model", model_path, "--batch", str(batch)])


def test_cli_predict_rejects_non_numeric_cells(tmp_path, capsys):
    model_path = _train_tiny(tmp_path, capsys)
    batch = tmp_path / "batch.csv"
    batch.write_text("rows,cols,nnz,iterations\n10,10,banana,1\n")
    with pytest.raises(SystemExit, match="non-numeric value"):
        main(["predict", "--model", model_path, "--batch", str(batch)])


def test_cli_predict_demands_gathered_columns_when_routed(tmp_path):
    """A known-only CSV cannot serve rows the selector routes to gathered."""
    from repro.core.training import SeerModels
    from repro.ml.decision_tree import DecisionTreeClassifier
    from repro.serving.artifacts import save_models

    known_X = [[0.0], [1.0]]
    full_X = [[0.0, 0.0], [1.0, 1.0]]
    models = SeerModels(
        known_model=DecisionTreeClassifier().fit(known_X, ["k1", "k1"]),
        gathered_model=DecisionTreeClassifier().fit(full_X, ["k1", "k1"]),
        selector_model=DecisionTreeClassifier().fit(
            known_X, ["gathered", "gathered"]
        ),
        kernel_names=["k1"],
        known_feature_names=("f0",),
        gathered_feature_names=("g0",),
        training_size=2,
    )
    model_path = save_models(models, tmp_path / "model.json")
    batch = tmp_path / "batch.csv"
    batch.write_text("f0\n0.5\n")
    with pytest.raises(SystemExit, match="routed to the gathered classifier"):
        main(["predict", "--model", str(model_path), "--batch", str(batch)])


def test_cli_predict_rejects_corrupt_artifacts(tmp_path):
    bogus = tmp_path / "model.json"
    bogus.write_text("{ definitely not a model")
    with pytest.raises(SystemExit, match="not valid JSON"):
        main(["predict", "--model", str(bogus)])


# ----------------------------------------------------------------------
# Raw-matrix serving: repro serve
# ----------------------------------------------------------------------
def _write_corpus(tmp_path):
    from repro.sparse.generators import banded_matrix, power_law_matrix
    from repro.sparse.io import save_npz, write_matrix_market

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_matrix_market(power_law_matrix(180, 180, 4.0, rng=3), corpus / "pl.mtx")
    save_npz(banded_matrix(128, 7, rng=1), corpus / "band.npz")
    return corpus


def test_cli_serve_writes_decisions(tmp_path, capsys):
    model_path = _train_tiny(tmp_path, capsys)
    corpus = _write_corpus(tmp_path)
    out_dir = tmp_path / "out"
    assert main(
        ["serve", "--model", model_path, str(corpus), "--out-dir", str(out_dir)]
    ) == 0
    output = capsys.readouterr().out
    assert "served 2 workloads" in output
    assert "wrote" in output
    decisions = (out_dir / "decisions.csv").read_text().splitlines()
    assert decisions[0].startswith("name,source,kind,rows,cols,nnz,iterations")
    assert len(decisions) == 3
    assert decisions[1].startswith("band,")
    assert decisions[2].startswith("pl,")
    assert (out_dir / "manifest.json").exists()


def test_cli_serve_parallel_output_is_bit_identical(tmp_path, capsys):
    model_path = _train_tiny(tmp_path, capsys)
    corpus = _write_corpus(tmp_path)
    serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
    cache = tmp_path / "cache"
    base = ["serve", "--model", model_path, str(corpus), "--cache-dir", str(cache)]
    assert main(base + ["--out-dir", str(serial_dir)]) == 0
    assert "cache-hits=0" in capsys.readouterr().out
    assert main(base + ["--out-dir", str(parallel_dir), "--jobs", "2"]) == 0
    assert "cache-hits=2" in capsys.readouterr().out
    for name in ("decisions.csv", "manifest.json"):
        assert (serial_dir / name).read_bytes() == (parallel_dir / name).read_bytes()


def test_cli_serve_accepts_workload_options_for_spmm(tmp_path, capsys):
    assert main(
        ["train", "--profile", "tiny", "--domain", "spmm",
         "--save", str(tmp_path / "models")]
    ) == 0
    model_path = capsys.readouterr().out.rsplit("registered model:", 1)[1].strip()
    corpus = _write_corpus(tmp_path)
    out_dir = tmp_path / "out"
    assert main(
        ["serve", "--model", model_path, str(corpus), "--out-dir", str(out_dir),
         "--workload-option", "num_vectors=16"]
    ) == 0
    header, first, *_ = (out_dir / "decisions.csv").read_text().splitlines()
    columns = header.split(",")
    assert "num_vectors" in columns
    assert first.split(",")[columns.index("num_vectors")] == "16"


def test_cli_serve_rejects_empty_corpus(tmp_path, capsys):
    model_path = _train_tiny(tmp_path, capsys)
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(SystemExit, match="no matrix files"):
        main(["serve", "--model", model_path, str(empty)])


def test_cli_serve_rejects_bad_workload_option(tmp_path, capsys):
    model_path = _train_tiny(tmp_path, capsys)
    corpus = _write_corpus(tmp_path)
    with pytest.raises(SystemExit, match="malformed"):
        main(["serve", "--model", model_path, str(corpus),
              "--workload-option", "oops"])
    with pytest.raises(SystemExit, match="workload option"):
        main(["serve", "--model", model_path, str(corpus),
              "--workload-option", "num_vectors=8"])  # spmv accepts none


def test_cli_serve_reports_malformed_matrix_files(tmp_path, capsys):
    model_path = _train_tiny(tmp_path, capsys)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "broken.mtx").write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n9 9 1.0\n"
    )
    with pytest.raises(SystemExit, match="out of range"):
        main(["serve", "--model", model_path, str(corpus)])


def test_cli_serve_rejects_corrupt_model(tmp_path):
    bogus = tmp_path / "model.json"
    bogus.write_text("{ nope")
    with pytest.raises(SystemExit, match="not valid JSON"):
        main(["serve", "--model", str(bogus), str(tmp_path)])


def test_cli_experiments_run_accepts_model_dir(tmp_path, capsys):
    assert main(
        ["experiments", "run", "accuracy", "--profile", "tiny",
         "--model-dir", str(tmp_path / "models")]
    ) == 0
    registry_files = list((tmp_path / "models").rglob("model.json"))
    assert len(registry_files) == 1


# ----------------------------------------------------------------------
# The persistent daemon and its load generator
# ----------------------------------------------------------------------
def test_parser_accepts_daemon_flags():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["serve", "--daemon", "--model", "m.json", "--host", "0.0.0.0",
         "--port", "8091", "--max-batch-size", "32", "--max-wait-ms", "2.5",
         "--log-dir", "logs"]
    )
    assert args.daemon and args.corpus is None
    assert args.port == 8091 and args.max_batch_size == 32
    assert args.max_wait_ms == 2.5 and args.log_dir == "logs"


def test_cli_daemon_requires_a_model_origin():
    with pytest.raises(SystemExit, match="daemon mode needs --model"):
        main(["serve", "--daemon"])


def test_cli_daemon_rejects_bad_config(tmp_path):
    config = tmp_path / "service.toml"
    config.write_text("[service]\nmodel = \"m.json\"\nwindow = 4\n")
    with pytest.raises(SystemExit, match=r"unknown setting\(s\) 'window'"):
        main(["serve", "--daemon", "--config", str(config)])


def test_cli_daemon_reports_an_unreadable_model(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(SystemExit, match=r"^repro: error: cannot read model artifact"):
        main(["serve", "--daemon", "--model", str(missing)])


def test_cli_daemon_rejects_a_daemon_wide_iteration_count(tmp_path):
    # Daemon requests carry their own iteration count.
    missing = tmp_path / "missing.json"
    with pytest.raises(SystemExit, match=r"^repro: error: --iterations .*'iterations' field"):
        main(["serve", "--daemon", "--model", str(missing), "--iterations", "19"])


def test_cli_daemon_rejects_a_mistyped_setting(tmp_path):
    config = tmp_path / "service.toml"
    config.write_text('[service]\nmodel = "m.json"\nmax_wait_ms = "abc"\n')
    with pytest.raises(SystemExit, match="max_wait_ms must be a number, got 'abc'"):
        main(["serve", "--daemon", "--config", str(config)])


def test_cli_one_shot_serve_requires_a_corpus(tmp_path, capsys):
    model_path = _train_tiny(tmp_path, capsys)
    with pytest.raises(SystemExit, match="needs a corpus PATH"):
        main(["serve", "--model", model_path])


def test_cli_bench_serve_json_report(tmp_path, capsys):
    model_path = _train_tiny(tmp_path, capsys)
    assert main(
        ["bench", "serve", "--model", model_path, "--requests", "24",
         "--clients", "4", "--max-batch-size", "8", "--max-wait-ms", "2",
         "--json"]
    ) == 0
    import json

    report = json.loads(capsys.readouterr().out)
    assert report["transport"] == "inproc"
    assert report["batched"]["requests"] == 24
    assert report["batched"]["errors"] == 0
    assert report["per_request"]["batch_occupancy_mean"] == 1.0
    assert report["speedup"] > 0.0


def test_cli_bench_serve_table(tmp_path, capsys):
    model_path = _train_tiny(tmp_path, capsys)
    assert main(
        ["bench", "serve", "--model", model_path, "--requests", "8",
         "--clients", "2", "--no-compare"]
    ) == 0
    output = capsys.readouterr().out
    assert "transport: inproc" in output
    assert "batched(window=8)" in output
    assert "speedup" not in output  # --no-compare skips the baseline run


def test_cli_predict_and_daemon_share_error_strings(tmp_path, capsys):
    """Satellite contract: one formatter, byte-identical messages."""
    from repro.serving.requests import IngestError, ServeRequest, feature_vector
    from repro.serving.artifacts import load_artifact

    model_path = _train_tiny(tmp_path, capsys)
    models = load_artifact(model_path).models
    batch = tmp_path / "batch.csv"
    batch.write_text("rows,cols\n1,2\n")
    with pytest.raises(SystemExit) as cli_error:
        main(["predict", "--model", model_path, "--batch", str(batch)])
    with pytest.raises(IngestError) as api_error:
        feature_vector(
            {"rows": "1", "cols": "2"},
            models.known_feature_names,
            str(batch),
            2,
            "known",
        )
    assert str(cli_error.value) == f"repro: error: {api_error.value}"
    # The daemon rejects the same defect with the same formatter, relabelled
    # to the request that carried it.
    with pytest.raises(IngestError, match="missing known feature column 'nnz'"):
        from repro.serving.requests import evaluate_requests

        evaluate_requests(
            models,
            [ServeRequest(name="w", known={"rows": 1.0, "cols": 2.0})],
            execute=False,
        )


def test_cli_lint_clean_tree(capsys):
    assert main(["lint"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_lint_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import json\nx = json.dumps({})\n", encoding="utf-8")
    assert main(["lint", str(bad)]) == 1
    output = capsys.readouterr().out
    assert "DET004" in output
    assert f"{bad}:2:" in output


def test_cli_lint_json_format_and_select(tmp_path, capsys):
    import json as json_module

    bad = tmp_path / "bad.py"
    bad.write_text(
        "import json, os\nx = json.dumps({})\ny = os.listdir('.')\n",
        encoding="utf-8",
    )
    assert main(["lint", "--format", "json", "--select", "DET004", str(bad)]) == 1
    payload = json_module.loads(capsys.readouterr().out)
    assert [f["rule"] for f in payload["findings"]] == ["DET004"]
    assert payload["rules"] == ["DET004"]


def test_cli_lint_rejects_unknown_rule_and_missing_baseline(tmp_path):
    with pytest.raises(SystemExit, match="matches no registered rule"):
        main(["lint", "--select", "NOPE"])
    # There is no baseline file to read: the flag itself is unknown.
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", "--baseline", str(tmp_path / "missing.json")])
    assert excinfo.value.code == 2


def test_cli_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    output = capsys.readouterr().out
    for rule in ("DET001", "DET004", "CONC001", "CONC003", "DOM001", "ENV001"):
        assert rule in output


# ----------------------------------------------------------------------
# Selector code generation: repro codegen
# ----------------------------------------------------------------------
def _tiny_saved_model(tmp_path):
    from repro.core.training import SeerModels
    from repro.ml.decision_tree import DecisionTreeClassifier
    from repro.serving.artifacts import save_models

    known_X = [[0.0], [1.0]]
    full_X = [[0.0, 0.0], [1.0, 1.0]]
    models = SeerModels(
        known_model=DecisionTreeClassifier().fit(known_X, ["k1", "k2"]),
        gathered_model=DecisionTreeClassifier().fit(full_X, ["k1", "k2"]),
        selector_model=DecisionTreeClassifier().fit(known_X, ["known", "known"]),
        kernel_names=["k1", "k2"],
        known_feature_names=("f0",),
        gathered_feature_names=("g0",),
        training_size=2,
    )
    return models, save_models(models, tmp_path / "model.json")


def test_cli_codegen_writes_a_python_module(tmp_path, capsys):
    _, model_path = _tiny_saved_model(tmp_path)
    output = tmp_path / "selector_out.py"
    assert main(
        ["codegen", "--model", str(model_path), "--output", str(output)]
    ) == 0
    assert "wrote py selector" in capsys.readouterr().out
    assert "def known_classifier" in output.read_text()
