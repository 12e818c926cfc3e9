"""Command-line driver for the full pipeline.

    actriv ball     build and persist a trivialization ball
    actriv sample   draw a training set from a ball
    actriv learn    evolve a set of distance metrics
    actriv fit      fit ensemble weights or trim multi-objectives
    actriv solve    run a search campaign on an instance
    actriv verify   replay and verify a move-sequence certificate
    actriv catalog  list the embedded problem instances

Solver settings may come from a key=value config file (--config); explicit
flags override the file, which overrides built-in defaults, and a flag's
value parses as a config line's does; the model file sets the search mode.
Every file is read through ``formats``.  Only ``main`` exits: bad input of
any command ends it with the error's message as one line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys

from . import ball as ball_mod
from . import catalog as catalog_mod
from . import ensemble as ensemble_mod
from . import formats
from . import metrics as metrics_mod
from . import notation
from . import proof as proof_mod
from . import solver as solver_mod
from .presentations import MoveSequence, Presentation


def _read_config(path: str) -> dict[str, tuple[str, str]]:
    """The config file's ``key -> (path:line, value)``; a key given twice
    is an error."""
    values: dict[str, tuple[str, str]] = {}
    for where, line in formats.read_lines(path):
        if "=" not in line:
            raise ValueError(f"{where}: expected key=value")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in values:
            raise ValueError(f"{where}: config key {key!r} is given twice")
        values[key] = (where, value.strip())
    return values


# each solver setting parses as the type of its default, from a config
# line or a flag alike; the model file sets the mode
_CONFIG_FIELDS = {
    f.name: type(f.default)
    for f in dataclasses.fields(solver_mod.SolverConfig)
    if f.name != "mode"
}
_FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_EXPECTED = {int: "an integer", float: "a number", bool: "one of " + "/".join(_FLAGS)}


def _solver_config(args) -> tuple[solver_mod.SolverConfig, dict[str, str]]:
    """The solver settings, and where each one that is not a default came
    from (setting -> the file line or flag that set it)."""
    cfg = solver_mod.SolverConfig()
    origin = {}
    settings = list(_read_config(args.config).items()) if args.config else []
    for key in _CONFIG_FIELDS:
        raw = getattr(args, key, None)
        if raw is not None:
            settings.append((key, ("--" + key.replace("_", "-"), raw)))
    for key, (where, raw) in settings:
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"{where}: unknown config key {key!r}")
        kind = _CONFIG_FIELDS[key]
        try:
            setattr(cfg, key, _FLAGS[raw.lower()] if kind is bool else kind(raw))
        except (KeyError, ValueError):
            raise ValueError(
                f"{where}: {key} {raw!r} is not {_EXPECTED[kind]}"
            ) from None
        origin[key] = where
    _located(cfg.validate, origin)
    return cfg, origin


def _located(call, origin: dict[str, str]):
    """``call()``; a ``ValueError`` that names a parameter in ``origin``
    (parameter -> the flag or file line that set it) is prefixed with
    where each named parameter came from."""
    try:
        return call()
    except ValueError as exc:
        named = [
            where for key, where in origin.items() if re.search(rf"\b{key}\b", str(exc))
        ]
        if not named:
            raise
        raise ValueError(f"{', '.join(named)}: {exc}") from None


def _read_sequence(path: str, rank: int) -> MoveSequence:
    """The certificate's moves; ``-`` alone is the empty sequence."""
    lines = formats.read_lines(path)
    codes = [(where, code) for where, text in lines for code in text.split()]
    if [code for _, code in codes] == ["-"]:
        return ()
    return tuple(formats.parse_move(code, rank, where) for where, code in codes)


def _load_instance(args) -> tuple[str, Presentation]:
    """The instance's id and presentation; an error names the instance
    file or ``--instance``."""
    if args.instance_file:
        where = args.instance_file
        name = os.path.splitext(os.path.basename(where))[0]
        text = "\n".join(line for _, line in formats.read_lines(where))
    else:
        where, name, text = "--instance", "custom", args.instance
    try:
        if args.instance_file or text.lstrip().startswith("<"):
            return name, notation.parse_presentation(text)
        record = catalog_mod.get_instance(text)
    except (KeyError, notation.NotationError) as exc:
        raise ValueError(f"{where}: {exc.args[0]}") from None
    return record.id, record.presentation


def _cmd_catalog(args) -> int:
    if args.id:
        try:
            records = [catalog_mod.get_instance(args.id)]
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
    else:
        records = catalog_mod.catalog()
        if args.auxiliary:
            records += catalog_mod.auxiliary_catalog()
    for r in records:
        length = "-" if r.known_length is None else str(r.known_length)
        print(f"{r.id}\t{notation.format_presentation(r.presentation)}\t{length}")
    return 0


def _cmd_ball(args) -> int:
    built = _located(
        lambda: ball_mod.build_ball(
            args.rank, args.max_total_length, args.max_depth, args.max_members
        ),
        {
            "rank": "--rank",
            "max_total_length": "--max-total-length",
            "max_depth": "--max-depth",
            "max_members": "--max-members",
        },
    )
    ball_mod.save_ball(built, args.out)
    census = " ".join(f"{d}:{n}" for d, n in sorted(built.depth_census().items()))
    print(f"ball: {len(built)} members -> {args.out}")
    print(f"depth census: {census}")
    return 0


def _cmd_sample(args) -> int:
    built = ball_mod.load_ball(args.ball)
    training = _located(
        lambda: ball_mod.sample_cases(built, args.count, args.seed),
        {"count": "--count"},
    )
    ball_mod.save_training(training, args.out)
    print(f"training set: {len(training.cases)} cases -> {args.out}")
    return 0


def _cmd_learn(args) -> int:
    training = ball_mod.load_training(args.train)
    config = metrics_mod.MetricGaConfig(
        population_size=args.population,
        generations=args.generations,
        correlation=args.correlation,
    )
    metric_set = _located(
        lambda: metrics_mod.learn_metric_set(
            training, args.runs, config, args.seed, args.workers
        ),
        {
            "runs": "--runs",
            "population_size": "--population",
            "generations": "--generations",
            "workers": "--workers",
        },
    )
    metrics_mod.save_metric_set(metric_set, args.out)
    shown = ", ".join(f"{f:.3f}" for f in metric_set.fitnesses)
    print(f"learned {len(metric_set)} metrics -> {args.out}")
    print(f"best-of-run correlations: {shown}")
    return 0


def _cmd_fit(args) -> int:
    metric_set = metrics_mod.load_metric_set(args.metrics)
    training = ball_mod.load_training(args.train)
    if args.mode == "single":
        weights = _located(
            lambda: ensemble_mod.fit_weights(metric_set, training, args.cap),
            {"cap": "--cap"},
        )
        model = ensemble_mod.ScalarEnsemble(weights, metric_set)
        ensemble_mod.save_ensemble(model, args.out)
        print(
            f"ensemble: intercept {weights.intercept:.4f}, "
            f"{sum(1 for w in weights.weights if w)} active weights -> {args.out}"
        )
    else:
        objectives = _located(
            lambda: ensemble_mod.trim_objectives(
                metric_set, training, args.objectives, args.cap, args.correlation
            ),
            {"k": "--objectives", "cap": "--cap"},
        )
        ensemble_mod.save_objectives(objectives, args.out)
        print(f"objective set: {len(objectives)} objectives -> {args.out}")
    return 0


_MODELS = {
    "ensemble": ("single", ensemble_mod.load_ensemble),
    "objectives": ("multi", ensemble_mod.load_objectives),
}


def _load_model(path: str, cfg: solver_mod.SolverConfig):
    """Load a model file; its kind sets ``cfg.mode``."""
    kind = formats.kind_of(path)
    if kind not in _MODELS:
        raise ValueError(f"{path}: not an ensemble or objectives file")
    cfg.mode, load = _MODELS[kind]
    return load(path)


def _cmd_solve(args) -> int:
    cfg, origin = _solver_config(args)
    instance_id, instance = _load_instance(args)
    built = ball_mod.load_ball(args.ball)
    model = _load_model(args.model, cfg)
    results = _located(
        lambda: solver_mod.run_campaign(
            instance, model, built, cfg, args.seed, instance_id, args.workers
        ),
        {**origin, "workers": "--workers"},
    )
    solver_mod.write_results_jsonl(results, instance.rank, args.out)
    if args.summary:
        solver_mod.write_summary_csv(results, args.summary)
    solved = [r for r in results if r.outcome == "solved"]
    print(f"{instance_id}: {len(solved)}/{len(results)} runs solved -> {args.out}")
    if solved:
        best = min(solved, key=lambda r: r.prefix_length)
        print(
            f"shortest trivialization: {best.prefix_length} moves "
            f"(seed {best.seed}, generation {best.generations})"
        )
    return 0


def _cmd_verify(args) -> int:
    instance_id, instance = _load_instance(args)
    built = ball_mod.load_ball(args.ball)
    sequence = _read_sequence(args.sequence, instance.rank)
    result = proof_mod.verify(instance, sequence, built, instance_id)
    listing = result.to_text()
    if args.out:
        formats.write_atomic(args.out, [listing + "\n"])
        print(f"proof listing -> {args.out}")
    else:
        print(listing)
    if not result.verified:
        if args.out:
            print(f"{instance_id}: NOT verified: {result.failure}")
        return 1
    print(f"{instance_id}: verified, trivialization length {result.prefix_length}")
    return 0


def _instance_arguments(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--instance", help="catalog id or literal <...> text")
    group.add_argument("--instance-file")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="actriv",
        description="search and verification of AC-trivializations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list embedded instances")
    p.add_argument("--id", help="show one instance")
    p.add_argument("--auxiliary", action="store_true", help="include T83")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("ball", help="build a trivialization ball")
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--max-total-length", type=int, required=True)
    p.add_argument("--max-depth", type=int, required=True)
    p.add_argument("--max-members", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ball)

    p = sub.add_parser("sample", help="sample fitness cases from a ball")
    p.add_argument("--ball", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("learn", help="evolve distance metrics")
    p.add_argument("--train", required=True)
    p.add_argument("--runs", type=int, default=50)
    p.add_argument("--population", type=int, default=100)
    p.add_argument("--generations", type=int, default=200)
    p.add_argument("--correlation", choices=("pearson", "kendall"), default="pearson")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("fit", help="fit ensemble weights / trim objectives")
    p.add_argument("--metrics", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--mode", choices=("single", "multi"), default="single")
    p.add_argument("--objectives", type=int, default=5)
    p.add_argument("--correlation", choices=("pearson", "kendall"), default="pearson")
    p.add_argument("--cap", type=int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    # no abbreviations, so a stray --mode is not read as --model
    p = sub.add_parser("solve", help="run a search campaign", allow_abbrev=False)
    _instance_arguments(p)
    p.add_argument("--ball", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--config", help="key=value solver config file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--summary")
    for name, kind in _CONFIG_FIELDS.items():
        bare = {"action": "store_const", "const": "true"} if kind is bool else {}
        p.add_argument("--" + name.replace("_", "-"), **bare)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="verify a move-sequence certificate")
    _instance_arguments(p)
    p.add_argument("--sequence", required=True, help="file of move codes")
    p.add_argument("--ball", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ball_mod.BallCapacityError) as exc:
        raise SystemExit(str(exc)) from None
    except OSError as exc:
        if exc.filename is None:
            raise SystemExit(str(exc)) from None
        raise SystemExit(f"{exc.filename}: {exc.strerror}") from None


if __name__ == "__main__":
    sys.exit(main())
