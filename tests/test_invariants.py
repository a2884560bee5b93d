"""The input contract and metamorphic relations of analyze_utterance.

A contract row feeds one kind of input a caller can supply and asserts
what must come back. A metamorphic property relates the analyses of two
inputs, so it needs no reference track.
"""
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FS
from modepitch.audio import NoisyMix, SampleBuffer, mix_at_snr
from modepitch.corpus import SynthUtteranceSpec, make_noise, synthesize_utterance
from modepitch.emd import EmdConfig
from modepitch.separation import ESTIMATORS, AnalysisConfig, analyze_utterance

METHODS = ["raw", "pro"]
CFG = AnalysisConfig(emd=EmdConfig(ensemble_size=2, rng_seed=1))


def _analysis(samples, estimators=ESTIMATORS, methods=METHODS, cfg=CFG):
    return analyze_utterance(SampleBuffer(samples, FS), list(estimators), methods, cfg)


def _outputs(result):
    """The bytes of a result's track, voicing and region table."""
    table = result.region_table
    return (result.track.f0_hz.tobytes(), result.track.voiced_mask.tobytes(),
            None if table is None else table.tobytes())


def _normal_gains(x):
    """The k for which every nonzero sample of x * 2**k is normal and finite."""
    tiny = np.abs(x[x != 0]).min()
    return -1021 - math.frexp(tiny)[1], 1024 - math.frexp(np.abs(x).max())[1]


class TestGainContract:
    # C7's rule on a clean 150 Hz vowel: within 20% on at least 95% of all
    # frames, for every estimator x method key. Squared samples overflow
    # above about 1e154 and underflow below about 1e-162, so without the
    # input's power-of-two normalisation the VAD found no voiced frame
    @pytest.mark.parametrize("gain", [1.0, 1e200, 1e-300])
    def test_clean_vowel_tracked_at_any_gain(self, gain):
        buf, _ = synthesize_utterance(SynthUtteranceSpec(
            f0_contour=((0, 150.0), (600, 150.0)), duration_ms=600.0, jitter_pct=0.0,
            rng_seed=4))
        out = _analysis(buf.samples * gain, cfg=AnalysisConfig(emd=EmdConfig(ensemble_size=4)))
        hits = {key: float(np.mean(np.abs(r.track.f0_hz - 150.0) <= 0.2 * 150.0))
                for key, r in out.items()}
        assert len(hits) == 8 and min(hits.values()) >= 0.95, hits


@functools.cache
def _noise(kind):
    return make_noise(kind, 3 * FS, FS, seed={"white": 7, "babble": 8}[kind])


@st.composite
def noisy_vowels(draw):
    """C6's shape: a 600 ms vowel rising 8% and back, low or high, in white
    or babble noise at -5, 0 or +5 dB."""
    low = draw(st.booleans())
    base = draw(st.floats(95.0, 175.0) if low else st.floats(225.0, 340.0))
    knots = ((0.0, base), (300.0, min(195.0 if low else 395.0, base * 1.08)), (600.0, base))
    clean, _ = synthesize_utterance(SynthUtteranceSpec(
        f0_contour=knots, duration_ms=600.0, jitter_pct=0.5,
        rng_seed=draw(st.integers(0, 2 ** 16))))
    mix = NoisyMix(clean, _noise(draw(st.sampled_from(["white", "babble"]))),
                   draw(st.sampled_from([-5.0, 0.0, 5.0])), seed=draw(st.integers(0, 2 ** 16)))
    return mix_at_snr(mix).samples


class TestMetamorphic:
    @settings(max_examples=6, deadline=None)
    @given(x=noisy_vowels(), data=st.data())
    def test_power_of_two_gain_keeps_every_output(self, x, data):
        # the extreme gains, the gains that put the peak's binary exponent at
        # either edge of the band the analysis leaves unscaled (a quarter of
        # float64's exponent range either side of 0), and one drawn gain
        lo, hi = _normal_gains(x)
        peak = math.frexp(np.abs(x).max())[1]
        drawn = data.draw(st.integers(lo, hi))
        base = {key: _outputs(r) for key, r in _analysis(x).items()}
        for k in (lo, -256 - peak, 256 - peak, hi, drawn):
            scaled = {key: _outputs(r) for key, r in _analysis(np.ldexp(x, k)).items()}
            assert scaled == base, (k, [key for key in base if scaled[key] != base[key]])

    @settings(max_examples=20, deadline=None)
    @given(x=noisy_vowels())
    def test_polarity_keeps_raw_comb_tracks(self, x):
        # negating the samples negates every spectrum exactly, so the comb
        # estimators see the same power and magnitude bit for bit
        comb = ["pefac", "shr", "swipe"]
        got, want = (_analysis(s, comb, ["raw"]) for s in (-x, x))
        assert {key: _outputs(r) for key, r in got.items()} == \
            {key: _outputs(r) for key, r in want.items()}

    @settings(max_examples=20, deadline=None)
    @given(x=noisy_vowels(), k=st.integers(1, 10))
    def test_leading_hop_zeros_keep_raw_comb_f0(self, x, k):
        # k hops of zeros shift the frame grid by k frames and leave every
        # frame's samples as they were, so a frame voiced in both runs gets
        # the same comb F0 bit for bit
        comb = ["pefac", "shr", "swipe"]
        hop = round(AnalysisConfig.frame.hop_ms * FS / 1000)
        got = _analysis(np.concatenate([np.zeros(k * hop), x]), comb, ["raw"])
        for key, want in _analysis(x, comb, ["raw"]).items():
            shifted = got[key].track
            both = shifted.voiced_mask[k:] & want.track.voiced_mask
            assert both.any(), key
            assert shifted.f0_hz[k:][both].tobytes() == want.track.f0_hz[both].tobytes(), key

    @settings(max_examples=6, deadline=None)
    @given(x=noisy_vowels(), log10_gain=st.floats(-3.0, 3.0))
    def test_gain_keeps_f0_voicing_and_regions(self, x, log10_gain):
        # the extreme gains and one drawn gain, all in [1e-3, 1e3]: the peak
        # stays inside the unscaled exponent band, so the samples are not
        # normalised and rounding moves the F0 by a few ulps at most; the
        # voicing, the frames with an estimate and the region labels do not
        # move
        base = _analysis(x)
        for gain in (1e-3, 1e3, 10.0 ** log10_gain):
            got = _analysis(gain * x)
            for key, want in base.items():
                track, ref = got[key].track, want.track
                assert track.voiced_mask.tobytes() == ref.voiced_mask.tobytes(), (gain, key)
                assert track.estimated_mask().tobytes() == \
                    ref.estimated_mask().tobytes(), (gain, key)
                np.testing.assert_allclose(track.f0_hz, ref.f0_hz, rtol=1e-9, atol=0,
                                           err_msg=f"{gain} {key}")
                if want.region_table is not None:
                    for field in ("frame_index", "high"):
                        assert got[key].region_table[field].tobytes() == \
                            want.region_table[field].tobytes(), (gain, key)
