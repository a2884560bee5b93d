"""The input contract and metamorphic relations of analyze_utterance and
the inputs it is fed.

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
from modepitch.audio import FrameSpec, NoisyMix, SampleBuffer, mix_at_snr
from modepitch.cli import _snr_db
from modepitch.corpus import (
    DEFAULT_FORMANTS,
    CorpusItem,
    SynthUtteranceSpec,
    generate_corpus,
    make_noise,
    read_reference,
    synthesize_utterance,
    write_noise_set,
)
from modepitch.emd import EmdConfig
from modepitch.evaluation import run_benchmark
from modepitch.separation import ESTIMATORS, AnalysisConfig, analyze_utterance
from modepitch.track import FramePitchTrack

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


def _spec(**kwargs):
    """A 600 ms 150 Hz vowel's recipe at 8 kHz."""
    return SynthUtteranceSpec(((0, 150.0),), **kwargs)


def _mix(snr_db):
    return mix_at_snr(NoisyMix(synthesize_utterance(_spec())[0], _noise("white"), snr_db))


def _bench(snrs):
    # the utterance is all zeros, so every mix fails and is recorded; only
    # a check made before mixing raises
    truth = synthesize_utterance(_spec())[1]
    item = CorpusItem("u", SampleBuffer(np.zeros(4800), FS), truth)
    return run_benchmark([item], [("white", _noise("white"))], snrs, ["shr"], ["raw"])


def _reference(out, line):
    out.mkdir()
    (out / "ref.f0").write_text(f"0.0 0.0\n{line}\n")
    return read_reference(out / "ref.f0")


def _track(times=(0.0, 10.0), f0=(100.0, 110.0)):
    return FramePitchTrack(frame_times_ms=times, f0_hz=f0, voiced_mask=np.ones(np.shape(f0)))


_SNR_RULE = r"^snr_db must be a number of dB or \+inf whose power ratio " \
            r"10 \*\* \(snr_db / 10\) is positive and finite, got "
_FORMANTS = r"^formant frequencies must lie in \(0, 4000\) Hz at 8000 Hz, got "


def _formants(*changed):
    """DEFAULT_FORMANTS with the first len(changed) resonances replaced."""
    return _spec(formant_set=(*changed, *DEFAULT_FORMANTS[len(changed):]))


def _integer(name, value):
    return TypeError, f"^{name} must be an integer, got {value}$"


# each row is an input a caller can supply that was accepted, or rejected
# late, with another exception or without naming the value: (id, call of
# the output directory, exception, message)
_REJECTED = [
    # the SNR's power ratio 10 ** (snr_db / 10) overflows, underflows to 0,
    # or the noise scaled by it overflows (OverflowError, "SampleBuffer
    # samples must be finite" and ZeroDivisionError before)
    ("mix-at-3083dB", lambda out: _mix(3083.0), ValueError, _SNR_RULE + r"3083\.0$"),
    ("mix-at-1e308dB", lambda out: _mix(1e308), ValueError, _SNR_RULE + r"1e\+308$"),
    ("mix-at-minus-3100dB", lambda out: _mix(-3100.0), ValueError,
     r"^noise scaled to snr_db=-3100\.0 overflows float64$"),
    ("mix-at-minus-3200dB", lambda out: _mix(-3200.0), ValueError,
     r"^noise scaled to snr_db=-3200\.0 overflows float64$"),
    ("mix-at-minus-3300dB", lambda out: _mix(-3300.0), ValueError,
     _SNR_RULE + r"-3300\.0$"),
    ("bench-at-1e308dB", lambda out: _bench([0.0, 1e308]), ValueError,
     _SNR_RULE + r"1e\+308$"),
    ("bench-at-minus-3300dB", lambda out: _bench([-3300.0]), ValueError,
     _SNR_RULE + r"-3300\.0$"),
    ("snrs-flag-1e308", lambda out: _snr_db("1e308"), ValueError,
     r"^SNR must be a number of dB or inf, got 1e308: its power ratio "
     r"10\^\(SNR/10\) is not a positive float$"),
    # synthesis options
    ("duration-nan", lambda out: _spec(duration_ms=math.nan), ValueError,
     "^duration_ms must be at least 200 ms and finite, got nan$"),
    ("duration-inf", lambda out: _spec(duration_ms=math.inf), ValueError,
     "^duration_ms must be at least 200 ms and finite, got inf$"),
    ("formant-at-nyquist", lambda out: _formants((4000.0, 80.0)), ValueError,
     _FORMANTS + r"4000\.0$"),
    ("formant-at-0hz", lambda out: _formants((0.0, 80.0)), ValueError,
     _FORMANTS + r"0\.0$"),
    ("negative-bandwidth", lambda out: _formants((500.0, -80.0)), ValueError,
     r"^formant bandwidths must be positive and finite, got -80\.0$"),
    ("nan-bandwidth", lambda out: _formants((500.0, math.nan)), ValueError,
     "^formant bandwidths must be positive and finite, got nan$"),
    ("spec-float-rate", lambda out: _spec(sample_rate_hz=8000.0),
     *_integer("sample_rate_hz", "8000.0")),
    ("spec-bool-seed", lambda out: _spec(rng_seed=True), *_integer("rng_seed", "True")),
    ("spec-negative-seed", lambda out: _spec(rng_seed=-1), ValueError,
     "^rng_seed must be non-negative, got -1$"),
    ("frame-nan", lambda out: FrameSpec(math.nan, 10.0), ValueError,
     r"^frame_len_ms and hop_ms must be positive and finite, got nan and 10\.0$"),
    ("frame-inf", lambda out: FrameSpec(math.inf, 10.0), ValueError,
     r"^frame_len_ms and hop_ms must be positive and finite, got inf and 10\.0$"),
    # corpus options, each named before the output directory is made
    ("corpus-float-rate", lambda out: generate_corpus(out, sample_rate_hz=8000.0),
     *_integer("sample_rate_hz", "8000.0")),
    ("corpus-bool-count", lambda out: generate_corpus(out, count=True),
     *_integer("count", "True")),
    ("corpus-bool-seed", lambda out: generate_corpus(out, count=1, seed=True),
     *_integer("seed", "True")),
    ("corpus-nan-duration", lambda out: generate_corpus(out, count=1, duration_ms=math.nan),
     ValueError, "^duration_ms must be at least 200 ms and finite, got nan$"),
    ("noise-set-bool-seed", lambda out: write_noise_set(out, ("white",), seed=True),
     *_integer("seed", "True")),
    ("noise-bool-length", lambda out: make_noise("white", True, FS),
     *_integer("n_samples", "True")),
    # reference tracks
    ("track-inf-f0", lambda out: _track(f0=(100.0, math.inf)), ValueError,
     r"^f0 values must be positive and finite, or NaN \(no estimate\)$"),
    ("track-nan-time", lambda out: _track(times=(0.0, math.nan)), ValueError,
     "^frame times must be finite$"),
    ("track-inf-time", lambda out: _track(times=(0.0, math.inf)), ValueError,
     "^frame times must be finite$"),
    ("track-2d", lambda out: _track(((0.0, 10.0), (20.0, 30.0)), ((100.0, 110.0),) * 2),
     ValueError, r"^track arrays must be 1-D, got shapes \(2, 2\), \(2, 2\) and \(2, 2\)$"),
    ("reference-inf-f0", lambda out: _reference(out, "10.0 inf"), ValueError,
     r"^reference file \S+ref\.f0 line 2: time and F0 must be finite, got '10\.0 inf'$"),
    ("reference-nan-time", lambda out: _reference(out, "nan 120.0"), ValueError,
     r"^reference file \S+ref\.f0 line 2: time and F0 must be finite, got 'nan 120\.0'$"),
]


@pytest.mark.parametrize("call,error,message", [row[1:] for row in _REJECTED],
                         ids=[row[0] for row in _REJECTED])
def test_rejected_input_is_named_before_any_output(tmp_path, call, error, message):
    out = tmp_path / "out"
    with pytest.raises(error, match=message):
        call(out)
    assert not out.exists() or [p.name for p in out.iterdir()] == ["ref.f0"]


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
