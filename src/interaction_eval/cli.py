"""Command-line interface: filter, rollout, baseline, eval, report."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
from click.core import ParameterSource

from . import __version__
from .errors import (
    ConfigError,
    EmptyCorpus,
    InteractionEvalError,
    ParseError,
)
from .filtering import filter_scene_with_rejections
from .pipeline import (
    BASELINE_MODELS,
    DEFAULT_ORACLE_K,
    _evaluate_corpus,
    _histogram_inputs,
    _load_scene_dir,
    analyse_scene,
    emit_histograms,
    evaluate_scene,
    run_fixture,
    run_pipeline,
    write_filter_csv,
    write_rollout_csv,
)
from .sceneio import save_predictions
from .types import EvalConfig

EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_EMPTY = 4


def _fail(err: Exception) -> None:
    code = 1
    if isinstance(err, ConfigError):
        code = EXIT_CONFIG
    elif isinstance(err, ParseError):
        code = EXIT_PARSE
    elif isinstance(err, EmptyCorpus):
        code = EXIT_EMPTY
    click.echo(json.dumps({"error": type(err).__name__, "message": str(err)}), err=True)
    sys.exit(code)


_CONFIG_OPTIONS = (
    click.option("--d-collision", type=float, default=EvalConfig.d_collision, show_default=True,
                 help="Path-sharing distance threshold [m]."),
    click.option("--dt-ps-max", type=float, default=EvalConfig.dt_ps_max, show_default=True,
                 help="Max gap between first shared-path times [s]."),
    click.option("--a-lon-max", type=float, default=EvalConfig.a_lon_max, show_default=True,
                 help="Longitudinal acceleration limit [m/s^2]."),
    click.option("--a-lat-max", type=float, default=EvalConfig.a_lat_max, show_default=True,
                 help="Lateral acceleration limit [m/s^2]."),
    click.option("--horizon", "t_p", type=float, default=EvalConfig.t_p, show_default=True,
                 help="Prediction horizon [s]."),
    click.option("--theta-hat", type=float, default=EvalConfig.theta_hat, show_default=True,
                 help="Static-class winding threshold [rad]."),
    click.option("--interp-factor", type=int, default=EvalConfig.interp_factor,
                 show_default=True, help="Trajectory interpolation factor."),
    click.option("--t-min", type=float, default=EvalConfig.t_min,
                 help="Path-sharing start threshold [s]; default: first co-observed time."),
)


def _refuse_given(ctx: click.Context, names: set[str], reason: str) -> None:
    """Refuse each option of ``names`` that the command line gives, even at
    its default value: the run would not read it."""
    for param in ctx.command.params:
        if (param.name in names
                and ctx.get_parameter_source(param.name) is not ParameterSource.DEFAULT):
            raise ConfigError(f"{param.opts[0]} cannot be used with {reason}")


def config_options(f):
    """One option per ``EvalConfig`` field, passed on under the field's name."""
    for option in reversed(_CONFIG_OPTIONS):
        f = option(f)
    return f


class _Main(click.Group):
    """Sends an ``InteractionEvalError`` from any subcommand to ``_fail``."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except InteractionEvalError as e:
            _fail(e)


@click.group(cls=_Main)
@click.version_option(__version__, prog_name="interaction-eval")
def main():
    """Evaluate interaction-mode prediction in joint trajectory forecasts."""


@main.command("filter")
@click.option("--scene-dir", type=click.Path(exists=True), required=True)
@click.option("--out", "out_path", type=click.Path(), required=True,
              help="Output CSV of accepted safety-critical pairs.")
@config_options
def cmd_filter(scene_dir, out_path, **cfg_kw):
    """Find safety-critical interaction pairs in a scene directory."""
    cfg = EvalConfig(**cfg_kw)
    rows = []
    for scene in _load_scene_dir(scene_dir):
        accepted, rejected = filter_scene_with_rejections(scene, cfg)
        rows.extend((scene.scene_id, p) for p in accepted)
        for rej in rejected:
            click.echo(f"{scene.scene_id}: rejected ({rej.agent_a}, {rej.agent_b}): "
                       f"{rej.reason.value} {rej.detail}".rstrip(), err=True)
    write_filter_csv(Path(out_path), rows)
    click.echo(f"{len(rows)} pair(s) accepted -> {out_path}")


@main.command("rollout")
@click.option("--scene-dir", type=click.Path(exists=True), required=True)
@click.option("--out", "out_path", type=click.Path(), required=True,
              help="Output CSV of per-frame feasible classes and IHS summary.")
@config_options
def cmd_rollout(scene_dir, out_path, **cfg_kw):
    """Enumerate feasible interaction classes and locate the IHS per pair."""
    cfg = EvalConfig(**cfg_kw)
    write_rollout_csv(Path(out_path), [analyse_scene(scene, cfg)
                                       for scene in _load_scene_dir(scene_dir)])
    click.echo(f"rollout timelines -> {out_path}")


@main.command("baseline")
@click.option("--scene-dir", type=click.Path(exists=True), required=True)
@click.option("--model", type=click.Choice(BASELINE_MODELS), required=True)
@click.option("--out-dir", type=click.Path(), required=True,
              help="Directory for standard prediction files (<scene_id>.json).")
@click.option("--k", type=int, default=DEFAULT_ORACLE_K, show_default=True,
              help="Prediction count for the oracle model.")
@config_options
@click.pass_context
def cmd_baseline(ctx, scene_dir, model, out_dir, k, **cfg_kw):
    """Write baseline predictions in the standard prediction file format."""
    if model != "oracle":
        _refuse_given(ctx, {"k"}, f"--model {model}")
    cfg = EvalConfig(**cfg_kw)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for scene in _load_scene_dir(scene_dir):
        result = evaluate_scene(scene, cfg, baseline=model, oracle_k=k)
        save_predictions(scene.scene_id, cfg.t_p, result.predictions,
                         out / f"{scene.scene_id}.json")
        click.echo(f"{scene.scene_id}: {len(result.predictions)} frame(s)")


@main.command("eval")
@click.option("--scene-dir", type=click.Path(exists=True),
              help="Scene directory (required unless --fixture is used).")
@click.option("--pred", "pred_source", default=None,
              help="Prediction directory, or baseline name: cv | oracle.")
@click.option("--out-dir", type=click.Path(), required=True)
@click.option("--fixture", type=click.Path(exists=True), default=None,
              help="Pre-computed per-frame mode table (skips geometry).")
@click.option("--k", type=int, default=DEFAULT_ORACLE_K, show_default=True)
@click.option("--substitute-static", is_flag=True,
              help="Fill missing agent predictions with static ground truth.")
@config_options
@click.pass_context
def cmd_eval(ctx, scene_dir, pred_source, out_dir, fixture, k, substitute_static, **cfg_kw):
    """Run the full evaluation and write report.json plus CSV outputs."""
    if fixture is not None:
        # a fixture run reads only its table and --out-dir
        _refuse_given(ctx, {param.name for param in ctx.command.params} - {"fixture", "out_dir"},
                      "--fixture")
        report = run_fixture(fixture, out_dir)
    else:
        if scene_dir is None or pred_source is None:
            raise ConfigError("--scene-dir and --pred are required without --fixture")
        unread = set()
        if pred_source != "oracle":
            unread.add("k")  # only the oracle reads it
        if pred_source in BASELINE_MODELS:
            unread.add("substitute_static")  # only prediction files miss agents
        _refuse_given(ctx, unread, f"--pred {pred_source}")
        report = run_pipeline(scene_dir, pred_source, out_dir, EvalConfig(**cfg_kw),
                              oracle_k=k, substitute_static=substitute_static)
    click.echo(json.dumps(report.to_dict(), indent=1, sort_keys=True))


@main.command("report")
@click.option("--scene-dir", type=click.Path(exists=True), required=True)
@click.option("--out-dir", type=click.Path(), required=True)
@config_options
def cmd_report(scene_dir, out_dir, **cfg_kw):
    """Emit plot-data CSVs (closeness heatmap, time-to-IHS histogram)."""
    cfg = EvalConfig(**cfg_kw)
    results, dt = _evaluate_corpus(scene_dir, cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    emit_histograms(*_histogram_inputs(results), out, dt)
    click.echo(f"heatmap.csv and ihs_hist.csv -> {out_dir}")


if __name__ == "__main__":
    main()
