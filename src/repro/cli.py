"""Command-line interface for the Seer reproduction.

``repro`` (also installed as ``seer-repro``, or ``python -m repro``) exposes
the pipeline stages, the model registry and the experiment suite:

.. code-block:: console

   repro sweep --profile small --output-dir out/   # benchmark + train
   repro sweep --profile medium --jobs 8 --cache-dir ~/.cache/seer
   repro train --profile small --save models/      # train once, register
   repro predict --model models/spmv/small/<hash>  # inspect the artifact
   repro predict --model ... --batch features.csv  # serve a feature batch
   repro serve --model ... matrices/ --jobs 4      # serve raw matrix files
   repro serve --daemon --config service.toml      # persistent daemon
   repro bench serve --model ...                   # serving load generator
   repro experiments list                          # registered experiments
   repro experiments run --all --domain spmv --profile tiny --out-dir out/
   repro experiments run fig1 table3 --domain spmm --profile tiny
   repro experiments run fig5 --profile full       # Fig. 5 a-d

``--jobs`` fans the benchmarking stage out over worker processes and
``--cache-dir`` persists per-matrix measurements and whole sweep artifacts,
so repeated invocations (and different experiments sharing one
configuration) skip the benchmarking work entirely.  ``--out-dir`` writes
each experiment's structured artifacts (``data.csv`` + ``manifest.json``)
under ``<out>/<domain>/<experiment>/``.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from repro.bench.engine import SweepEngine, engine_from_env
from repro.bench.runner import run_sweep
from repro.core.codegen import write_cpp_header, write_python_module
from repro.domains import DEFAULT_DOMAIN, domain_names
from repro.experiments.common import DEFAULT_PROFILE
from repro.experiments.registry import (
    ExperimentContext,
    experiment_names,
    experiments_for,
    get_experiment,
    run_experiment,
    write_artifact,
)
from repro.sparse.collection import PROFILE_NAMES


def _add_profile(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        default=DEFAULT_PROFILE,
        choices=list(PROFILE_NAMES),
        help="synthetic collection profile to benchmark on",
    )


def _add_domain(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--domain",
        default=DEFAULT_DOMAIN,
        choices=list(domain_names()),
        help="problem domain to sweep (default: %(default)s)",
    )


def _jobs_count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0 (0 means one per CPU)")
    return value


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_jobs_count,
        default=None,
        metavar="N",
        help="worker processes for the benchmarking stage "
        "(1 = serial, 0 = one per CPU; default: SEER_JOBS or serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="directory for persistent sweep/measurement artifacts "
        "(default: SEER_CACHE_DIR or no disk caching)",
    )


def _resolve_engine(args) -> SweepEngine:
    """Engine described by ``--jobs``/``--cache-dir``, or ``None``.

    Each explicit flag overrides its ``SEER_JOBS``/``SEER_CACHE_DIR``
    environment variable independently (so ``--jobs 1`` forces in-process
    benchmarking even with ``SEER_JOBS`` exported); with neither flags nor
    environment, ``run_sweep`` runs its default in-process, cacheless engine.
    """
    try:
        return engine_from_env(jobs=args.jobs, cache_dir=args.cache_dir)
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}") from None


def _engine_status_line(engine: SweepEngine) -> str:
    """One-line summary of what an engine did (parallelism + cache tiers)."""
    stats = engine.stats
    if engine.cache_dir is None:
        cache_state = "off"
    else:
        cache_state = "hit" if stats.sweep_cache_hits else "miss"
    return (
        f"engine: jobs={engine.jobs} measured={stats.matrices_measured} "
        f"measurement-cache-hits={stats.measurement_cache_hits} "
        f"sweep-cache={cache_state}"
    )


def _cmd_sweep(args) -> int:
    engine = _resolve_engine(args)
    sweep = run_sweep(profile=args.profile, engine=engine, domain=args.domain)
    report = sweep.test_report
    print(
        f"domain {sweep.suite.domain_name}: benchmarked {len(sweep.suite)} "
        f"workloads, {len(sweep.dataset)} samples"
    )
    print(f"known/gathered accuracy: {report.accuracy('Known'):.2f} / "
          f"{report.accuracy('Gathered'):.2f}")
    print(f"selector routing accuracy: {report.selector_choice_accuracy():.2f}")
    print(f"selector slowdown vs Oracle: {report.slowdown_vs_oracle():.2f}x")
    if engine is not None:
        print(_engine_status_line(engine))
    if args.output_dir:
        output = Path(args.output_dir)
        sweep.suite.save(output)
        write_cpp_header(sweep.models, output / "seer_models.h")
        write_python_module(sweep.models, output / "seer_models.py")
        print(f"wrote CSVs and generated models to {output}")
    return 0


# ----------------------------------------------------------------------
# The serving layer: train --save / predict
# ----------------------------------------------------------------------
def _cmd_train(args) -> int:
    """Run the training sweep and register the models as an artifact."""
    from repro.serving.registry import ModelRegistry

    engine = _resolve_engine(args)
    sweep = run_sweep(profile=args.profile, engine=engine, domain=args.domain)
    registry = ModelRegistry(args.save)
    model_path = registry.save(
        sweep.models,
        domain=args.domain,
        profile=args.profile,
        evaluation=sweep.test_report.summary(),
    )
    report = sweep.test_report
    print(
        f"domain {sweep.suite.domain_name}: trained on {len(sweep.train_set)} "
        f"samples ({len(sweep.suite)} workloads, profile {args.profile!r})"
    )
    print(f"known/gathered accuracy: {report.accuracy('Known'):.2f} / "
          f"{report.accuracy('Gathered'):.2f}")
    print(f"selector slowdown vs Oracle: {report.slowdown_vs_oracle():.2f}x")
    if engine is not None:
        print(_engine_status_line(engine))
    print(f"registered model: {model_path}")
    return 0


def _batch_rows(path: Path) -> list:
    """Rows of a feature CSV as dictionaries (header required)."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise SystemExit(f"repro: error: {path} is empty (no CSV header)")
        return list(reader)


def _cmd_predict(args) -> int:
    """Serve (or inspect) a registered model artifact."""
    from repro.serving.artifacts import ModelArtifactError, load_artifact
    from repro.serving.requests import (
        IngestError,
        evaluate_requests,
        requests_from_rows,
    )

    try:
        artifact = load_artifact(args.model)
    except ModelArtifactError as error:
        raise SystemExit(f"repro: error: {error}") from None
    models = artifact.models
    if args.batch is None:
        print(f"model artifact: {artifact.path}")
        print(f"domain: {artifact.domain_name or 'unspecified'}")
        print(f"training samples: {models.training_size}")
        print(f"kernels: {', '.join(models.kernel_names)}")
        print(f"known features: {', '.join(models.known_feature_names)}")
        print(f"gathered features: {', '.join(models.gathered_feature_names)}")
        for label, model in (
            ("known", models.known_model),
            ("gathered", models.gathered_model),
            ("selector", models.selector_model),
        ):
            print(
                f"{label} tree: {model.num_nodes_} nodes, depth {model.depth()}"
            )
        return 0

    batch_path = Path(args.batch)
    rows = _batch_rows(batch_path)
    if not rows:
        raise SystemExit(f"repro: error: {batch_path} has no data rows")
    # The whole CSV becomes one admission batch of the unified serving core:
    # validation (shared error formatter) and vectorized tree inference are
    # exactly what the daemon and `repro serve` run.
    try:
        requests = requests_from_rows(rows, models, batch_path)
        responses, _ = evaluate_requests(
            models, requests, execute=False, strict=True
        )
    except IngestError as error:
        raise SystemExit(f"repro: error: {error}") from None
    writer = csv.writer(sys.stdout, lineterminator="\n")
    has_names = "name" in set(rows[0])
    header = ["name"] if has_names else []
    writer.writerow(header + ["selector_choice", "kernel"])
    for row, response in zip(rows, responses):
        prefix = [row["name"]] if has_names else []
        writer.writerow(prefix + [response.selector_choice, response.kernel])
    return 0


# ----------------------------------------------------------------------
# Selector code generation: repro codegen
# ----------------------------------------------------------------------
def _cmd_codegen(args) -> int:
    """Emit a standalone selector from a registered model artifact."""
    from repro.core.codegen import models_to_cpp_header, models_to_python_module
    from repro.serving.artifacts import ModelArtifactError, load_artifact

    try:
        artifact = load_artifact(args.model)
    except ModelArtifactError as error:
        raise SystemExit(f"repro: error: {error}") from None
    if args.language == "cpp":
        rendered = models_to_cpp_header(artifact.models)
    else:
        rendered = models_to_python_module(artifact.models)
    if args.output is None:
        sys.stdout.write(rendered)
        return 0
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(rendered, encoding="utf-8")
    print(f"wrote {args.language} selector: {output}")
    return 0


# ----------------------------------------------------------------------
# Raw-matrix serving: repro serve
# ----------------------------------------------------------------------
def _cmd_serve_daemon(args) -> int:
    """Run the persistent serving daemon (``repro serve --daemon``)."""
    import json
    import signal
    import threading

    from repro.serving.artifacts import ModelArtifactError
    from repro.serving.requests import IngestError, parse_workload_options
    from repro.serving.service import (
        ServiceConfig,
        ServiceConfigError,
        ServingService,
    )

    if args.iterations is not None:
        raise SystemExit(
            "repro: error: --iterations sets one-shot serving only; daemon "
            "requests carry their own 'iterations' field"
        )
    try:
        if args.config is not None:
            config = ServiceConfig.from_toml(args.config)
        else:
            if args.model is None:
                raise ServiceConfigError(
                    "daemon mode needs --model PATH or --config service.toml"
                )
            config = ServiceConfig(model=args.model)
        options = parse_workload_options(args.workload_option)
        config = config.with_overrides(
            model=args.model,
            host=args.host,
            port=args.port,
            max_batch_size=args.max_batch_size,
            max_wait_ms=args.max_wait_ms,
            cache_dir=args.cache_dir,
            log_dir=args.log_dir,
            feedback_dir=args.feedback_dir,
            drift_threshold=args.drift_threshold,
            options=options or None,
        )
        service = ServingService(config)
    except (ServiceConfigError, ModelArtifactError, IngestError, OSError) as error:
        raise SystemExit(f"repro: error: {error}") from None
    host, port = service.address
    print(
        f"serving daemon listening on http://{host}:{port} "
        f"(model {service.hub.default_key}, "
        f"max_batch_size={config.max_batch_size}, "
        f"max_wait_ms={config.max_wait_ms})",
        flush=True,
    )

    def request_shutdown(signum, frame):
        # Never call shutdown() on the thread running serve_forever — it
        # blocks on the accept loop it would be stopping.
        threading.Thread(target=service.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, request_shutdown)
    signal.signal(signal.SIGINT, request_shutdown)
    service.serve_forever()
    print(json.dumps(service.summary(), indent=2, sort_keys=True))
    return 0


def _cmd_serve(args) -> int:
    """Ingest raw matrix files and serve kernel decisions from a model."""
    from repro.pipeline.sources import MatrixSourceError, discover_sources
    from repro.serving.artifacts import ModelArtifactError, load_artifact
    from repro.serving.ingest import serve_sources, write_serve_artifact
    from repro.serving.requests import IngestError, parse_workload_options
    from repro.sparse.coo import SparseFormatError

    if args.daemon:
        return _cmd_serve_daemon(args)
    if args.corpus is None:
        raise SystemExit(
            "repro: error: one-shot serve needs a corpus PATH "
            "(or pass --daemon to run the persistent service)"
        )
    if args.model is None:
        raise SystemExit("repro: error: serve needs --model PATH")
    try:
        artifact = load_artifact(args.model)
    except ModelArtifactError as error:
        raise SystemExit(f"repro: error: {error}") from None
    domain = artifact.domain_name or DEFAULT_DOMAIN
    engine = _resolve_engine(args)
    jobs = engine.jobs if engine is not None else 1
    cache_dir = engine.cache_dir if engine is not None else None
    try:
        options = parse_workload_options(args.workload_option)
        sources = discover_sources(args.corpus)
        result = serve_sources(
            sources,
            artifact.models,
            domain=domain,
            iterations=1 if args.iterations is None else args.iterations,
            jobs=jobs,
            cache_dir=cache_dir,
            options=options,
        )
    except (IngestError, MatrixSourceError, SparseFormatError, ValueError) as error:
        raise SystemExit(f"repro: error: {error}") from None
    print(result.render())
    model_info = {
        "domain": artifact.domain_name,
        "kernels": list(artifact.models.kernel_names),
        "training_size": int(artifact.models.training_size),
    }
    paths = write_serve_artifact(result, args.out_dir, model_info=model_info)
    stats = result.stats
    print(
        f"ingest: parsed={stats.matrices_ingested} "
        f"cache-hits={stats.ingest_cache_hits} jobs={jobs}"
    )
    print(f"wrote {paths['data']} and {paths['manifest']}")
    if args.measure:
        from repro.serving.feedback import (
            feedback_from_corpus,
            write_feedback_artifact,
        )

        try:
            feedback = feedback_from_corpus(
                artifact.models,
                sources,
                domain=domain,
                iterations=1 if args.iterations is None else args.iterations,
                cache_dir=cache_dir,
                options=options,
            )
        except (IngestError, ValueError) as error:
            raise SystemExit(f"repro: error: {error}") from None
        print(feedback.render())
        feedback_paths = write_feedback_artifact(
            feedback, Path(args.out_dir) / "feedback", model_info=model_info
        )
        print(
            f"wrote {feedback_paths['data']} and {feedback_paths['manifest']}"
        )
    return 0


# ----------------------------------------------------------------------
# Shadow-scored promotion: repro promote
# ----------------------------------------------------------------------
def _cmd_promote(args) -> int:
    """Retrain on measured feedback and shadow-score against the incumbent."""
    from repro.serving.artifacts import ModelArtifactError
    from repro.serving.promotion import PROMOTION_FILE_NAME, promote_from_feedback
    from repro.serving.registry import ModelRegistry

    engine = _resolve_engine(args)
    registry = ModelRegistry(args.registry)
    try:
        result = promote_from_feedback(
            registry,
            args.feedback,
            domain=args.domain,
            profile=args.profile,
            engine=engine,
            dry_run=args.dry_run,
            out_dir=args.out_dir,
        )
    except (ModelArtifactError, ValueError) as error:
        raise SystemExit(f"repro: error: {error}") from None
    print(result.render())
    if result.promoted:
        print(f"current pointer: {result.pointer_path}")
    if args.out_dir:
        print(f"wrote {Path(args.out_dir) / PROMOTION_FILE_NAME}")
    if engine is not None:
        print(_engine_status_line(engine))
    return 0


# ----------------------------------------------------------------------
# Serving benchmarks: repro bench serve
# ----------------------------------------------------------------------
def _cmd_bench_serve(args) -> int:
    """Closed-loop load generation against the serving daemon."""
    import json

    from repro.bench.loadgen import bench_serve, render_bench_serve
    from repro.serving.artifacts import ModelArtifactError

    try:
        result = bench_serve(
            args.model,
            requests=args.requests,
            clients=args.clients,
            max_batch_size=args.max_batch_size,
            max_wait_ms=args.max_wait_ms,
            seed=args.seed,
            compare=not args.no_compare,
            transport=args.transport,
        )
    except ModelArtifactError as error:
        raise SystemExit(f"repro: error: {error}") from None
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print(render_bench_serve(result))
    return 0


# ----------------------------------------------------------------------
# Static analysis: repro lint
# ----------------------------------------------------------------------
def _cmd_lint(args) -> int:
    """Run the AST-based invariant checker (``repro lint``)."""
    from repro.analysis import (
        AnalysisError,
        all_rules,
        lint_paths,
        package_dir,
        render_json,
        render_text,
    )

    if args.list_rules:
        for spec in all_rules():
            scope = ", ".join(spec.scope)
            print(f"{spec.id:<8} {spec.summary} [scope: {scope}]")
        return 0

    try:
        report = lint_paths(
            args.paths or [package_dir()], select=args.select, ignore=args.ignore
        )
    except AnalysisError as error:
        raise SystemExit(f"repro: error: {error}") from None
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return 0 if report.clean else 1


# ----------------------------------------------------------------------
# The experiment suite
# ----------------------------------------------------------------------
def _cmd_experiments_list(args) -> int:
    for name in experiment_names():
        spec = get_experiment(name)
        domains = "all domains" if spec.domains is None else ", ".join(spec.domains)
        sweep_note = "" if spec.needs_sweep else " (no sweep needed)"
        print(f"{spec.name:<18} {spec.title} [{domains}]{sweep_note}")
    return 0


def _select_specs(args):
    """Experiment specs named on the command line, validated for the domain."""
    if args.all and args.names:
        raise SystemExit("repro: error: give experiment names or --all, not both")
    if args.all:
        return experiments_for(args.domain)
    if not args.names:
        raise SystemExit(
            "repro: error: name at least one experiment or pass --all "
            f"(registered: {', '.join(experiment_names())})"
        )
    specs = []
    for name in args.names:
        try:
            spec = get_experiment(name)
        except KeyError as error:
            raise SystemExit(f"repro: error: {error.args[0]}") from None
        if not spec.supports(args.domain):
            supported = (
                "restricted" if spec.domains is None else ", ".join(spec.domains)
            )
            raise SystemExit(
                f"repro: error: experiment {name!r} does not support domain "
                f"{args.domain!r} (supported: {supported})"
            )
        specs.append(spec)
    return specs


def _cmd_experiments_run(args) -> int:
    specs = _select_specs(args)
    context = ExperimentContext(
        domain=args.domain,
        profile=args.profile,
        engine=_resolve_engine(args),
        model_registry=args.model_dir,
    )
    engine = context.engine
    for spec in specs:
        result = run_experiment(spec, context)
        print(result.render())
        if args.out_dir:
            paths = write_artifact(spec, context, result, args.out_dir)
            print(f"[{spec.name}] wrote {paths['data']} and {paths['manifest']}")
        print()
    if engine is not None:
        print(_engine_status_line(engine))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Seer (CGO 2024) reproduction: benchmarking, training and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run the full pipeline and optionally export CSVs")
    _add_profile(sweep)
    _add_domain(sweep)
    _add_engine_options(sweep)
    sweep.add_argument("--output-dir", default=None, help="directory for CSVs and generated headers")
    sweep.set_defaults(func=_cmd_sweep)

    train = sub.add_parser(
        "train",
        help="run the training sweep and save the models to a registry",
    )
    _add_profile(train)
    _add_domain(train)
    _add_engine_options(train)
    train.add_argument(
        "--save", required=True, metavar="DIR",
        help="model-registry root; the artifact lands under "
        "DIR/<domain>/<profile>/<config-hash>/model.json",
    )
    train.set_defaults(func=_cmd_train)

    predict = sub.add_parser(
        "predict",
        help="inspect a saved model artifact or serve a feature-batch CSV",
    )
    predict.add_argument(
        "--model", required=True, metavar="PATH",
        help="path to a model.json (or the directory containing it)",
    )
    predict.add_argument(
        "--batch", default=None, metavar="CSV",
        help="CSV of feature rows (known feature columns required, gathered "
        "columns optional); predictions are written to stdout",
    )
    predict.set_defaults(func=_cmd_predict)

    codegen = sub.add_parser(
        "codegen",
        help="emit a standalone selector (Python module or C++ header) from "
        "a registered model artifact",
    )
    codegen.add_argument(
        "--model", required=True, metavar="PATH",
        help="path to a model.json (or the directory containing it)",
    )
    codegen.add_argument(
        "--language", choices=("py", "cpp"), default="py",
        help="output language (default: py)",
    )
    codegen.add_argument(
        "--output", default=None, metavar="PATH",
        help="file to write; omitted, the generated code goes to stdout",
    )
    codegen.set_defaults(func=_cmd_codegen)

    serve = sub.add_parser(
        "serve",
        help="ingest raw matrix files (.mtx/.mtx.gz/.npz/recipe:) and serve "
        "kernel decisions from a registered model, one-shot or as a "
        "persistent daemon",
    )
    serve.add_argument(
        "corpus", nargs="?", default=None, metavar="PATH",
        help="matrix directory, manifest file, single matrix file or a "
        "recipe:<builder>?key=value spec (omit with --daemon)",
    )
    serve.add_argument(
        "--model", default=None, metavar="PATH",
        help="path to a model.json (or the directory containing it)",
    )
    serve.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="iteration count the decisions assume (default: 1; one-shot "
        "mode only, daemon requests carry their own)",
    )
    serve.add_argument(
        "--out-dir", default=".", metavar="DIR",
        help="directory for decisions.csv + manifest.json (default: cwd)",
    )
    serve.add_argument(
        "--workload-option", action="append", default=[], metavar="KEY=VALUE",
        help="domain-specific workload parameter (e.g. num_vectors=8 for "
        "spmm); may be repeated",
    )
    serve.add_argument(
        "--measure", action="store_true",
        help="after serving, re-benchmark the corpus on every kernel and "
        "score each decision against the oracle; writes feedback.csv + "
        "manifest.json under OUT_DIR/feedback/ (one-shot mode only)",
    )
    serve.add_argument(
        "--daemon", action="store_true",
        help="run the persistent serving daemon (dynamic batching, warm "
        "caches, HTTP API) instead of a one-shot corpus pass",
    )
    serve.add_argument(
        "--config", default=None, metavar="TOML",
        help="daemon configuration file (service.toml); CLI flags override "
        "individual settings",
    )
    serve.add_argument(
        "--host", default=None, metavar="HOST",
        help="daemon bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=None, metavar="PORT",
        help="daemon port (default: 0 = ephemeral, printed on startup)",
    )
    serve.add_argument(
        "--max-batch-size", type=int, default=None, metavar="N",
        help="daemon admission-batch window size (flush-on-full trigger)",
    )
    serve.add_argument(
        "--max-wait-ms", type=float, default=None, metavar="MS",
        help="daemon admission-window deadline (flush-on-timer trigger)",
    )
    serve.add_argument(
        "--log-dir", default=None, metavar="DIR",
        help="daemon run directory for requests.log + summary.json",
    )
    serve.add_argument(
        "--feedback-dir", default=None, metavar="DIR",
        help="daemon drift monitoring: directory of feedback artifacts "
        "(repro serve --measure output) compared against the model's "
        "training-time evaluation in /metrics and summary.json",
    )
    serve.add_argument(
        "--drift-threshold", type=float, default=None, metavar="X",
        help="degradation fraction that flags drift (default: 0.1)",
    )
    _add_engine_options(serve)
    serve.set_defaults(func=_cmd_serve)

    promote = sub.add_parser(
        "promote",
        help="retrain on measured feedback, shadow-score the candidate "
        "against the incumbent on held-out feedback rows, and flip the "
        "registry's current pointer only when the candidate wins",
    )
    promote.add_argument(
        "--registry", required=True, metavar="DIR",
        help="model-registry root holding the incumbent (repro train --save)",
    )
    promote.add_argument(
        "--feedback", required=True, metavar="PATH",
        help="feedback.csv from `repro serve --measure` (or its directory)",
    )
    _add_profile(promote)
    _add_domain(promote)
    _add_engine_options(promote)
    promote.add_argument(
        "--out-dir", default=None, metavar="DIR",
        help="directory for the promotion.json decision record",
    )
    promote.add_argument(
        "--dry-run", action="store_true",
        help="run the full shadow comparison but write nothing to the "
        "registry (no candidate artifact, no pointer flip)",
    )
    promote.set_defaults(func=_cmd_promote)

    bench = sub.add_parser(
        "bench", help="serving benchmarks (closed-loop load generation)"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_serve = bench_sub.add_parser(
        "serve",
        help="drive the serving daemon with closed-loop clients and compare "
        "batched admission against per-request inference",
    )
    bench_serve.add_argument(
        "--model", required=True, metavar="PATH",
        help="path to a model.json (or the directory containing it)",
    )
    bench_serve.add_argument(
        "--requests", type=int, default=200, metavar="N",
        help="total requests per run (default: %(default)s)",
    )
    bench_serve.add_argument(
        "--clients", type=int, default=8, metavar="N",
        help="concurrent closed-loop client threads (default: %(default)s)",
    )
    bench_serve.add_argument(
        "--max-batch-size", type=int, default=8, metavar="N",
        help="admission-batch window of the batched run (default: %(default)s)",
    )
    bench_serve.add_argument(
        "--max-wait-ms", type=float, default=5.0, metavar="MS",
        help="admission-window deadline (default: %(default)s)",
    )
    bench_serve.add_argument(
        "--seed", type=int, default=7, metavar="SEED",
        help="seed of the synthetic request stream (default: %(default)s)",
    )
    bench_serve.add_argument(
        "--transport", choices=("inproc", "http"), default="inproc",
        help="inproc submits straight into the admission batcher (isolates "
        "the batching/inference signal, regression-guarded); http drives "
        "/v1/serve over real sockets (end-to-end, transport-dominated) "
        "(default: %(default)s)",
    )
    bench_serve.add_argument(
        "--no-compare", action="store_true",
        help="skip the per-request (max_batch_size=1) baseline run",
    )
    bench_serve.add_argument(
        "--json", action="store_true",
        help="emit the raw measurement document instead of the table",
    )
    bench_serve.set_defaults(func=_cmd_bench_serve)

    lint = sub.add_parser(
        "lint",
        help="run the AST-based invariant checker (determinism, cache "
        "safety, daemon concurrency, plugin conformance)",
    )
    lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the installed repro "
        "package)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: %(default)s)",
    )
    lint.add_argument(
        "--select", action="append", default=[], metavar="RULE",
        help="only run these rule IDs or prefixes (e.g. DET, CONC002); "
        "may be repeated",
    )
    lint.add_argument(
        "--ignore", action="append", default=[], metavar="RULE",
        help="skip these rule IDs or prefixes; may be repeated",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print every registered rule with its scope and exit",
    )
    lint.set_defaults(func=_cmd_lint)

    experiments = sub.add_parser(
        "experiments", help="list or run the registered experiment suite"
    )
    experiments_sub = experiments.add_subparsers(
        dest="experiments_command", required=True
    )
    list_parser = experiments_sub.add_parser(
        "list", help="show every registered experiment and its domains"
    )
    list_parser.set_defaults(func=_cmd_experiments_list)
    run_parser = experiments_sub.add_parser(
        "run", help="run experiments for one domain, optionally writing artifacts"
    )
    run_parser.add_argument(
        "names", nargs="*", metavar="EXPERIMENT",
        help="experiments to run (see 'repro experiments list')",
    )
    run_parser.add_argument(
        "--all", action="store_true",
        help="run every experiment the domain supports",
    )
    _add_domain(run_parser)
    _add_profile(run_parser)
    _add_engine_options(run_parser)
    run_parser.add_argument(
        "--out-dir", default=None, metavar="DIR",
        help="write data.csv + manifest.json per experiment under DIR/<domain>/<name>/",
    )
    run_parser.add_argument(
        "--model-dir", default=None, metavar="DIR",
        help="model-registry root: publish the suite's trained models there, "
        "servable later via 'repro predict' or ExperimentContext.models()",
    )
    run_parser.set_defaults(func=_cmd_experiments_run)
    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
