"""Command-line entry points for scenario runs and report inspection."""

from __future__ import annotations

import logging
import sys
from pathlib import Path

import click

from .scenarios import RUNNERS, load_config


def _configure_logging(level: str) -> None:
    logging.basicConfig(
        level=level,
        format="%(levelname)s %(name)s: %(message)s",
    )


@click.group()
@click.option(
    "--log-level",
    envvar="DISCOVERFRIENDS_LOG",
    type=click.Choice(("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"), case_sensitive=False),
    default="WARNING",
    show_default=True,
    help="Log verbosity; also via the DISCOVERFRIENDS_LOG environment variable.",
)
def main(log_level: str) -> None:
    """Friend discovery, messaging, anonymous check-ins and network sweeps."""
    _configure_logging(log_level)


def _scenario_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(exists=True), default=None,
                      help="INI scenario config; defaults are used when omitted.")(fn)
    fn = click.option("--seed", type=int, default=None, help="Override the config seed.")(fn)
    fn = click.option("--out", "out_dir", type=click.Path(), default=None,
                      help="Directory for report.txt, results.csv and traces.")(fn)
    return fn


def _run(kind: str, config_path: str | None, seed: int | None, out_dir: str | None) -> None:
    try:
        cfg = load_config(config_path, kind=kind, seed=seed)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    report = RUNNERS[kind](cfg)
    if out_dir is not None:
        path = report.write(out_dir)
        click.echo(f"report written to {path}")
    click.echo(report.render())
    if report.failures:
        sys.exit(1)


@main.command()
@_scenario_options
def discover(config_path, seed, out_dir):
    """Five-stage discovery for each configured friend-list size."""
    _run("discover", config_path, seed, out_dir)


@main.command()
@_scenario_options
def chat(config_path, seed, out_dir):
    """Discovery followed by acknowledged message rounds."""
    _run("chat", config_path, seed, out_dir)


@main.command()
@_scenario_options
def checkin(config_path, seed, out_dir):
    """Anonymous check-in epoch across the configured servers."""
    _run("checkin", config_path, seed, out_dir)


@main.command()
@_scenario_options
def loadtest(config_path, seed, out_dir):
    """Multi-hop throughput and loss sweep."""
    _run("loadtest", config_path, seed, out_dir)


@main.command()
@_scenario_options
def adversary(config_path, seed, out_dir):
    """Replay, eavesdropping and collusion experiments."""
    _run("adversary", config_path, seed, out_dir)


@main.command()
@click.option("--out", "out_dir", type=click.Path(exists=True), required=True,
              help="Directory previously populated by a scenario run.")
def report(out_dir):
    """Print stored reports; exit non-zero if any recorded a failure."""
    paths = sorted(Path(out_dir).rglob("report.txt"))
    if not paths:
        raise click.ClickException(f"no report.txt found under {out_dir}")
    failed = False
    for path in paths:
        text = path.read_text()
        click.echo(f"--- {path} ---")
        click.echo(text)
        if "STATUS: FAIL" in text:
            failed = True
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
