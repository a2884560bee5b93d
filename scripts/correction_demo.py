#!/usr/bin/env python3
"""Show the separate-and-correct step on one noisy high-pitched utterance.

Synthesizes a 300 Hz vowel, corrupts it with babble at 0 dB, and prints the
raw envelope-ACF candidates next to their region-corrected versions frame by
frame. Most raw candidates sit at or below 200 Hz (halving errors); after
correction they land in the high band.
"""
import argparse

import numpy as np

from modepitch.audio import NoisyMix, mix_at_snr
from modepitch.corpus import SynthUtteranceSpec, make_noise, synthesize_utterance
from modepitch.emd import EmdConfig
from modepitch.evaluation import gross_error
from modepitch.separation import AnalysisConfig, analyze_utterance


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--f0", type=float, default=300.0)
    parser.add_argument("--snr", type=float, default=0.0)
    parser.add_argument("--noise", default="babble")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    spec = SynthUtteranceSpec(
        f0_contour=((0.0, args.f0), (600.0, args.f0)),
        duration_ms=600.0, jitter_pct=0.5, rng_seed=args.seed)
    clean, truth = synthesize_utterance(spec)
    noise = make_noise(args.noise, 2 * len(clean), clean.sample_rate_hz,
                       seed=args.seed + 1)
    noisy = mix_at_snr(NoisyMix(clean, noise, args.snr, seed=args.seed))

    cfg = AnalysisConfig(emd=EmdConfig(ensemble_size=20, rng_seed=args.seed))
    out = analyze_utterance(noisy, ["hht"], ["raw", "pro"], cfg)

    print(f"true F0 {args.f0:g} Hz, {args.noise} noise at {args.snr:g} dB\n")
    print(f"{'t(ms)':>6} {'region':>6}  {'raw candidates':<28} corrected")
    for diag in out[("hht", "pro")].diagnostics:
        raw = " ".join(f"{f:6.1f}" for f in diag.raw_f0s) or "-"
        cor = " ".join(f"{f:6.1f}" for f in diag.corrected_f0s) or "-"
        region = diag.region
        print(f"{region.frame_index * cfg.frame.hop_ms:6.0f} {region.region:>6}  "
              f"{raw:<28} {cor}")

    raw_ge = gross_error(out[("hht", "raw")].track, truth)
    pro_ge = gross_error(out[("hht", "pro")].track, truth)
    below = sum(f <= 200.0 for d in out[("hht", "pro")].diagnostics
                for f in d.raw_f0s)
    total = sum(len(d.raw_f0s) for d in out[("hht", "pro")].diagnostics)
    print(f"\n{below}/{total} raw candidates at or below 200 Hz")
    print(f"gross error: raw {raw_ge:.1f}%  ->  corrected {pro_ge:.1f}%")


if __name__ == "__main__":
    main()
