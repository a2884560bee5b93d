"""Command-line front end: decompose, track, separate, bench, synth.

The analysis commands take the three settable values as flags:
--emd-ensemble-size, --emd-wgn-std-ratio and --seed, the one seed (bench
also mixes its noise with it). Every other analysis value is a fixed
constant of AnalysisConfig.
"""
from __future__ import annotations

import contextlib
import os
import sys

import click
import numpy as np

from .audio import _snr_power_ratio, load_wav, mix_at_snr, save_wav
from .corpus import (
    NOISE_KINDS,
    generate_corpus,
    load_manifest,
    write_noise_set,
)
from .emd import DEFAULT_MAX_IMFS, EmdConfig, eemd_decompose, mode_energies, write_imf_wav
from .evaluation import GATES, mix_cells, run_benchmark, write_report_csv
from .separation import ESTIMATORS, HIGH, LOW, AnalysisConfig, analyze_utterance, check_keys

OUT_DIR_ENV = "MODEPITCH_OUT_DIR"
DEFAULT_SNRS = (-15.0, -10.0, -5.0, 0.0, 5.0)


def emd_options(fn):
    """The settable configuration: the EEMD ensemble's two values and the seed."""
    fn = click.option("--seed", default=0, show_default=True, type=click.INT,
                      help="seed of the EEMD added noise, and of bench's mixing")(fn)
    fn = click.option("--emd-wgn-std-ratio", "wgn_std_ratio",
                      default=EmdConfig.wgn_std_ratio, show_default=True, type=click.FLOAT,
                      help="added-noise std as a fraction of the signal std")(fn)
    return click.option("--emd-ensemble-size", "ensemble_size",
                        default=EmdConfig.ensemble_size, show_default=True,
                        type=click.INT, help="EEMD trials to average")(fn)


def _analysis_config(ensemble_size, wgn_std_ratio, seed) -> AnalysisConfig:
    """The flags' config; a value EmdConfig rejects is an ``Error:`` line."""
    try:
        return AnalysisConfig(emd=EmdConfig(ensemble_size, wgn_std_ratio, rng_seed=seed))
    except (TypeError, ValueError) as exc:
        raise click.ClickException(f"bad configuration: {exc}")


@contextlib.contextmanager
def _input_errors():
    """Report a ValueError or OSError raised on what the user supplied (an
    unreadable or missing file, too short an input, a bad option value) as
    an ``Error:`` line, not a traceback."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise click.ClickException(str(exc))


def _csv_list(flag: str, text: str, convert=str) -> list:
    """The comma-separated values of FLAG; ValueError if one does not
    convert or there are none."""
    try:
        values = [convert(x.strip()) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}")
    if not values:
        raise ValueError(f"{flag} names no values")
    return values


def _snr_db(text: str) -> float:
    """One --snrs value in dB, by mix_at_snr's rule (_snr_power_ratio); inf
    mixes no noise."""
    snr_db = float(text)
    try:
        _snr_power_ratio(snr_db)
    except ValueError:
        raise ValueError(f"SNR must be a number of dB or inf, got {text}: its power "
                         "ratio 10^(SNR/10) is not a positive float") from None
    return snr_db


def _default_out(name: str, audio: str | None = None) -> str:
    """Path of NAME in $MODEPITCH_OUT_DIR (default "."); given an input
    AUDIO path, NAME is prefixed with its stem and an underscore."""
    if audio is not None:
        name = f"{os.path.splitext(os.path.basename(audio))[0]}_{name}"
    return os.path.join(os.environ.get(OUT_DIR_ENV, "."), name)


def _output_path(output: str | None, name: str, audio: str | None = None) -> str:
    """OUTPUT, or NAME's default path (see _default_out). A missing
    directory or a directory as the output is a click error; commands
    resolve the path before they read any input, so it costs no work."""
    if output is None:
        output = _default_out(name, audio)
    directory = os.path.dirname(output) or "."
    if not os.path.isdir(directory):
        raise click.ClickException(f"output directory {directory} does not exist")
    if os.path.isdir(output):
        raise click.ClickException(f"output {output} is a directory")
    return output


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
                   f"[default: ${OUT_DIR_ENV}/<stem>_modes.wav]")
@click.option("--emd-max-imfs", "max_imfs", default=DEFAULT_MAX_IMFS, show_default=True,
              type=click.IntRange(min=1), help="most modes to sift")
@emd_options
def decompose(audio, output, max_imfs, ensemble_size, wgn_std_ratio, seed):
    """Decompose AUDIO and dump modes plus per-mode energies."""
    cfg = _analysis_config(ensemble_size, wgn_std_ratio, seed)
    output = _output_path(output, "modes.wav", audio)
    with _input_errors():
        buf = load_wav(audio)
    imfset = eemd_decompose(buf, cfg.emd, max_imfs)
    click.echo(f"{len(imfset)} IMFs from {len(buf)} samples at "
               f"{buf.sample_rate_hz} Hz")
    energies = mode_energies(imfset)
    for k, energy in enumerate(energies, start=1):
        click.echo(f"  IMF_{k}: mean-square energy {energy:.6e}")
    write_imf_wav(output, imfset)
    click.echo(f"modes written to {output}")


@main.command()
@click.argument("audio", type=click.Path(exists=True, dir_okay=False))
@click.option("--estimator", default="hht", show_default=True,
              type=click.Choice(ESTIMATORS))
@click.option("--pro/--raw", "use_pro", default=False,
              help="apply low/high separation and candidate correction")
@click.option("-o", "--output", default=None,
              help="per-frame CSV path "
                   f"[default: ${OUT_DIR_ENV}/<stem>_<estimator>_<method>.csv]")
@emd_options
def track(audio, estimator, use_pro, output, ensemble_size, wgn_std_ratio, seed):
    """Track F0 of AUDIO frame by frame."""
    cfg = _analysis_config(ensemble_size, wgn_std_ratio, seed)
    method = "pro" if use_pro else "raw"
    output = _output_path(output, f"{estimator}_{method}.csv", audio)
    with _input_errors():
        buf = load_wav(audio)
        result = analyze_utterance(buf, [estimator], [method], cfg)[(estimator, method)]
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
@click.option("-o", "--output", default=None,
              help=f"per-frame region CSV path [default: ${OUT_DIR_ENV}/<stem>_regions.csv]")
@emd_options
def separate(audio, output, ensemble_size, wgn_std_ratio, seed):
    """Classify voiced frames of AUDIO as low or high frequency."""
    cfg = _analysis_config(ensemble_size, wgn_std_ratio, seed)
    output = _output_path(output, "regions.csv", audio)
    # regions come from the modes alone; the estimator only names the result key
    with _input_errors():
        buf = load_wav(audio)
        result = analyze_utterance(buf, ["pefac"], ["pro"], cfg)
    table = result[("pefac", "pro")].region_table
    hop = cfg.frame.hop_ms
    with open(output, "w") as fh:
        fh.write("time_ms,region,mean_f0,imf_a,imf_b\n")
        for i, high, mean_f0, a, b in table.tolist():
            a, b = (a, b) if a else ("", "")
            fh.write(f"{i * hop:g},{(LOW, HIGH)[high]},{_num(mean_f0)},{a},{b}\n")
    click.echo(f"{len(table)} voiced frames classified; regions written to {output}")


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
              type=click.Choice(GATES),
              help="which voicing gates the GE denominator")
@click.option("--jobs", default=os.cpu_count() or 1, show_default="cpu count",
              type=click.IntRange(min=1),
              help="parallel workers for benchmark cells (at most one per utterance)")
@click.option("--dump-mixes", default=None,
              type=click.Path(file_okay=False),
              help="also materialize every mixed signal as 16-bit PCM WAV here")
@click.option("-o", "--output", default=None,
              help=f"report CSV path [default: ${OUT_DIR_ENV}/bench_report.csv]")
@emd_options
def bench(manifest, noise_dir, snrs, estimators, methods, gate, jobs,
          dump_mixes, output, ensemble_size, wgn_std_ratio, seed):
    """Score estimators over the (noise x SNR x method) grid."""
    cfg = _analysis_config(ensemble_size, wgn_std_ratio, seed)
    output = _output_path(output, "bench_report.csv")
    noise_files = sorted(f for f in os.listdir(noise_dir) if f.endswith(".wav"))
    if not noise_files:
        raise click.ClickException(f"no noise WAVs in {noise_dir}")
    with _input_errors():
        est_list = _csv_list("--estimators", estimators)
        meth_list = _csv_list("--methods", methods)
        snr_list = _csv_list("--snrs", snrs, _snr_db)
        check_keys(est_list, meth_list)
        corpus = load_manifest(manifest)
        names = [item.name for item in corpus]
        if dump_mixes and len(set(names)) < len(names):
            twice = next(n for i, n in enumerate(names) if n in names[:i])
            raise ValueError(f"--dump-mixes: two corpus items are named {twice!r}, "
                             "so their mixes would share file names")
        noises = [(os.path.splitext(f)[0], load_wav(os.path.join(noise_dir, f)))
                  for f in noise_files]
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
    write_report_csv(output, reports)
    click.echo(f"{len(reports)} cells written to {output} (gate={gate})")
    ges: dict[tuple[str, str], list[float]] = {}
    for report in reports:
        ges.setdefault((report.estimator, report.method), []).append(report.ge_percent)
    click.echo("mean GE by estimator/method:")
    for (est, meth), values in sorted(ges.items()):
        click.echo(f"  {est:6s} {meth:4s}: {sum(values) / len(values):5.1f}%")
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
