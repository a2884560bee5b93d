"""Command-line front end: decompose, track, separate, bench, synth.

Configuration is layered: dataclass defaults, then a JSON config file
(--config), then individual flags. Every module config knob is exposed as
a prefixed flag (e.g. --emd-ensemble-size); --print-config dumps the
resolved configuration before running.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import sys

import click
import numpy as np

from .audio import load_wav, mix_at_snr, save_wav
from .corpus import (
    NOISE_KINDS,
    generate_corpus,
    load_manifest,
    write_noise_set,
)
from .emd import eemd_decompose, mode_energies, write_imf_wav
from .evaluation import mix_cells, run_benchmark, write_report_csv
from .separation import AnalysisConfig, analyze_utterance, check_keys

OUT_DIR_ENV = "MODEPITCH_OUT_DIR"
DEFAULT_SNRS = (-15.0, -10.0, -5.0, 0.0, 5.0)

CONFIG_SECTIONS = {f.name: type(f.default) for f in dataclasses.fields(AnalysisConfig)}


def config_options(fn):
    """Attach one flag per config dataclass field, prefixed by section."""
    for section, cls in reversed(list(CONFIG_SECTIONS.items())):
        for field in reversed(dataclasses.fields(cls)):
            flag = f"--{section}-{field.name.replace('_', '-')}"
            fn = click.option(
                flag, default=None, type=type(field.default),
                help=f"{section}.{field.name} (default {field.default!r})",
            )(fn)
    fn = click.option("--config", "config_file", default=None,
                      type=click.Path(exists=True, dir_okay=False),
                      help="JSON config file: {section: {field: value}}")(fn)
    fn = click.option("--seed", default=0, show_default=True, type=click.INT,
                      help="master seed (also sets emd.rng_seed unless given)")(fn)
    fn = click.option("--print-config", is_flag=True,
                      help="dump the resolved configuration as JSON")(fn)
    return fn


def resolve_config(config_file: str | None, seed: int, flags: dict) -> AnalysisConfig:
    """defaults <- file <- flags, then build the config bundle."""
    layered = {section: {f.name: f.default for f in dataclasses.fields(cls)}
               for section, cls in CONFIG_SECTIONS.items()}
    layered["emd"]["rng_seed"] = seed
    if config_file:
        with open(config_file) as fh:
            file_cfg = json.load(fh)
        for section, values in file_cfg.items():
            if section not in layered:
                raise click.ClickException(f"unknown config section {section!r}")
            for name, value in values.items():
                if name not in layered[section]:
                    raise click.ClickException(
                        f"unknown config field {section}.{name}")
                layered[section][name] = value
    for key, value in flags.items():
        if value is None:
            continue
        section, _, name = key.partition("_")
        layered[section][name] = value
    try:
        return AnalysisConfig(**{
            section: cls(**layered[section])
            for section, cls in CONFIG_SECTIONS.items()
        })
    except (TypeError, ValueError) as exc:
        raise click.ClickException(f"bad configuration: {exc}")


def _setup(kwargs: dict) -> tuple[AnalysisConfig, int]:
    # config flags are named <section>_<field>
    flags = {key: kwargs.pop(key) for key in list(kwargs)
             if key.partition("_")[0] in CONFIG_SECTIONS}
    config_file = kwargs.pop("config_file")
    seed = kwargs.pop("seed")
    print_config = kwargs.pop("print_config")
    cfg = resolve_config(config_file, seed, flags)
    if print_config:
        click.echo(json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True))
    return cfg, seed


@contextlib.contextmanager
def _input_errors():
    """Report a ValueError raised on what the user supplied (too short an
    input, a bad synth option) as an ``Error:`` line, not a traceback."""
    try:
        yield
    except ValueError as exc:
        raise click.ClickException(str(exc))


def _default_out(name: str, audio: str | None = None) -> str:
    """Path of NAME in $MODEPITCH_OUT_DIR (default "."); given an input
    AUDIO path, NAME is prefixed with its stem and an underscore."""
    if audio is not None:
        name = f"{os.path.splitext(os.path.basename(audio))[0]}_{name}"
    return os.path.join(os.environ.get(OUT_DIR_ENV, "."), name)


def _num(x: float) -> str:
    """x to four decimals, or empty when it is not finite."""
    return f"{x:.4f}" if np.isfinite(x) else ""


@click.group()
def main():
    """Pitch tracking with mode-decomposition octave-error correction."""


@main.command()
@click.argument("audio", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", default=None,
              help="multi-channel WAV for the mode dump "
                   f"[default: $${OUT_DIR_ENV}/<stem>_modes.wav]")
@config_options
def decompose(audio, output, **kwargs):
    """Decompose AUDIO and dump modes plus per-mode energies."""
    cfg, _ = _setup(kwargs)
    buf = load_wav(audio)
    imfset = eemd_decompose(buf, cfg.emd)
    click.echo(f"{len(imfset)} IMFs from {len(buf)} samples at "
               f"{buf.sample_rate_hz} Hz")
    energies = mode_energies(imfset)
    for k, energy in enumerate(energies, start=1):
        click.echo(f"  IMF_{k}: mean-square energy {energy:.6e}")
    if output is None:
        output = _default_out("modes.wav", audio)
    write_imf_wav(output, imfset)
    click.echo(f"modes written to {output}")


@main.command()
@click.argument("audio", type=click.Path(exists=True, dir_okay=False))
@click.option("--estimator", default="hht", show_default=True,
              type=click.Choice(["pefac", "shr", "swipe", "hht"]))
@click.option("--pro/--raw", "use_pro", default=False,
              help="apply low/high separation and candidate correction")
@click.option("-o", "--output", default=None, help="per-frame CSV path")
@config_options
def track(audio, estimator, use_pro, output, **kwargs):
    """Track F0 of AUDIO frame by frame."""
    cfg, _ = _setup(kwargs)
    buf = load_wav(audio)
    method = "pro" if use_pro else "raw"
    with _input_errors():
        result = analyze_utterance(buf, [estimator], [method], cfg)[(estimator, method)]
    if output is None:
        output = _default_out(f"{estimator}_{method}.csv", audio)
    pro_columns = ["region", "mean_f0", "selected_imfs", "raw_candidates",
                   "corrected_candidates", "out_of_model"] if use_pro else []
    diag_at = {d.region.frame_index: d for d in result.diagnostics}
    with open(output, "w") as fh:
        fh.write(",".join(["time_ms", "voiced", "f0_hz", *pro_columns]) + "\n")
        for i, (t, v, f0) in enumerate(zip(result.track.frame_times_ms,
                                           result.track.voiced_mask,
                                           result.track.f0_hz)):
            cells = [f"{t:g}", str(int(v)), _num(f0)] + [""] * len(pro_columns)
            d = diag_at.get(i)
            if d is not None:
                r = d.region
                cells[3:] = [r.region, _num(r.mean_f0),
                             "+".join(map(str, r.selected_imfs or ())),
                             "+".join(f"{x:.2f}" for x in d.raw_f0s),
                             "+".join(f"{x:.2f}" for x in d.corrected_f0s),
                             str(int(d.out_of_model))]
            fh.write(",".join(cells) + "\n")
    click.echo(f"track written to {output}")


@main.command()
@click.argument("audio", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", default=None, help="per-frame region CSV path")
@config_options
def separate(audio, output, **kwargs):
    """Classify voiced frames of AUDIO as low or high frequency."""
    cfg, _ = _setup(kwargs)
    buf = load_wav(audio)
    # regions come from the modes alone; the estimator only names the result key
    with _input_errors():
        result = analyze_utterance(buf, ["pefac"], ["pro"], cfg)
    regions = result[("pefac", "pro")].regions
    if output is None:
        output = _default_out("regions.csv", audio)
    hop = cfg.frame.hop_ms
    with open(output, "w") as fh:
        fh.write("time_ms,region,mean_f0,imf_a,imf_b\n")
        for r in regions:
            a, b = r.selected_imfs or ("", "")
            fh.write(f"{r.frame_index * hop:g},{r.region},{_num(r.mean_f0)},{a},{b}\n")
    click.echo(f"{len(regions)} voiced frames classified; regions written to {output}")


@main.command()
@click.option("--manifest", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="corpus manifest: lines of 'wav_path ref_path'")
@click.option("--noise-dir", required=True,
              type=click.Path(exists=True, file_okay=False),
              help="directory of noise WAVs (one cell group per file)")
@click.option("--snrs", default=",".join(f"{s:g}" for s in DEFAULT_SNRS),
              show_default=True, help="comma-separated SNR values in dB")
@click.option("--estimators", default="shr,swipe,hht", show_default=True)
@click.option("--methods", default="raw,pro", show_default=True)
@click.option("--gate", default="ref_voiced", show_default=True,
              type=click.Choice(["ref_voiced", "detected_voiced"]),
              help="which voicing gates the GE denominator")
@click.option("--jobs", default=os.cpu_count() or 1, show_default="cpu count",
              type=click.INT, help="parallel workers for benchmark cells")
@click.option("--dump-mixes", default=None,
              type=click.Path(file_okay=False),
              help="also materialize every mixed signal as 16-bit PCM WAV here")
@click.option("-o", "--output", default=None, help="report CSV path")
@config_options
def bench(manifest, noise_dir, snrs, estimators, methods, gate, jobs,
          dump_mixes, output, **kwargs):
    """Score estimators over the (noise x SNR x method) grid."""
    cfg, seed = _setup(kwargs)
    est_list = [e.strip() for e in estimators.split(",") if e.strip()]
    meth_list = [m.strip() for m in methods.split(",") if m.strip()]
    with _input_errors():
        check_keys(est_list, meth_list)
    corpus = load_manifest(manifest)
    noise_files = sorted(f for f in os.listdir(noise_dir) if f.endswith(".wav"))
    if not noise_files:
        raise click.ClickException(f"no noise WAVs in {noise_dir}")
    noises = [(os.path.splitext(f)[0], load_wav(os.path.join(noise_dir, f)))
              for f in noise_files]
    snr_list = [float(s) for s in snrs.split(",") if s.strip()]
    reports, failures = run_benchmark(
        corpus, noises, snr_list, est_list, meth_list, cfg,
        seed=seed, gate=gate, jobs=jobs)
    if dump_mixes:
        os.makedirs(dump_mixes, exist_ok=True)
        for noise_name, snr, mixes in mix_cells(corpus, noises, snr_list, seed):
            for item, mix in zip(corpus, mixes):
                name = f"{item.name}_{noise_name}_{snr:g}dB.wav"
                save_wav(os.path.join(dump_mixes, name), mix_at_snr(mix))
        click.echo(f"mixed signals written to {dump_mixes}")
    if output is None:
        output = _default_out("bench_report.csv")
    write_report_csv(output, reports)
    click.echo(f"{len(reports)} cells written to {output} (gate={gate})")
    if failures:
        for failure in failures:
            click.echo(f"FAILED cell {failure.noise}/{failure.snr_db}dB/"
                       f"{failure.estimator}/{failure.method}: {failure.reason}",
                       err=True)
        sys.exit(1)


@main.command()
@click.option("--out-dir", default=None,
              help=f"corpus directory [default: ${OUT_DIR_ENV}/corpus]")
@click.option("--count", default=20, show_default=True, type=click.INT)
@click.option("--duration-ms", default=600.0, show_default=True, type=click.FLOAT)
@click.option("--sample-rate", default=8000, show_default=True, type=click.INT)
@click.option("--low-fraction", default=0.5, show_default=True, type=click.FLOAT,
              help="fraction of contours at or below 200 Hz")
@click.option("--noises/--no-noises", default=True, show_default=True,
              help="also write the synthetic noise set")
@click.option("--seed", default=0, show_default=True, type=click.INT)
def synth(out_dir, count, duration_ms, sample_rate, low_fraction, noises, seed):
    """Generate a synthetic corpus (WAVs + reference F0 + manifest)."""
    if out_dir is None:
        out_dir = _default_out("corpus")
    with _input_errors():
        manifest = generate_corpus(out_dir, count=count, seed=seed,
                                   duration_ms=duration_ms,
                                   sample_rate_hz=sample_rate,
                                   low_fraction=low_fraction)
    click.echo(f"manifest written to {manifest}")
    if noises:
        noise_dir = os.path.join(out_dir, "noises")
        paths = write_noise_set(noise_dir, kinds=NOISE_KINDS,
                                sample_rate_hz=sample_rate, seed=seed)
        click.echo(f"{len(paths)} noise files written to {noise_dir}")


if __name__ == "__main__":
    main()
