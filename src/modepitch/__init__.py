"""Mode-decomposition based low/high separation and F0 octave correction."""

from .audio import (
    Frame,
    FrameSpec,
    NoisyMix,
    SampleBuffer,
    frame_signal,
    load_wav,
    measured_snr_db,
    mix_at_snr,
    resample,
    save_wav,
)
from .corpus import (
    CorpusItem,
    SynthUtteranceSpec,
    generate_corpus,
    load_manifest,
    make_noise,
    synthesize_utterance,
)
from .emd import EmdConfig, ImfSet, eemd_decompose, emd_decompose
from .estimators import (
    EstimatorConfig,
    PitchCandidate,
    hht_candidates,
    pefac_estimate,
    pick,
    shr_estimate,
    swipe_estimate,
)
from .evaluation import (
    EvalReport,
    gross_error,
    mean_absolute_error,
    run_benchmark,
    separation_error,
    write_report_csv,
)
from .separation import (
    AnalysisConfig,
    FrequencyRegion,
    ProConfig,
    analyze_utterance,
    classify_frames,
    classify_region,
    correct_candidate,
    distance_matrix,
    imf_pitch_vector,
    select_imf_pair,
)
from .spectral import analytic_signal, autocorrelation, power_spectrum, to_log_frequency
from .track import FramePitchTrack
from .vad import VadConfig, detect_voiced

__version__ = "0.1.0"
