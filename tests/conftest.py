import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import lfilter

import modepitch
from modepitch.audio import SampleBuffer

FS = 8000


def tone(freq_hz, duration_s=1.0, fs=FS, amp=0.5, phase=0.0):
    t = np.arange(int(duration_s * fs)) / fs
    return SampleBuffer(amp * np.sin(2 * np.pi * freq_hz * t + phase), fs)


def glottal_pulse_train(f0_hz, duration_s=1.0, fs=FS, tilt=True):
    """Impulse train at f0 with a -6 dB/oct glottal tilt."""
    n = int(duration_s * fs)
    x = np.zeros(n)
    t = 0.0
    while t < n:
        x[int(t)] = 1.0
        t += fs / f0_hz
    if tilt:
        x = lfilter([1.0], [1.0, -0.95], x)
    return SampleBuffer(0.5 * x / np.max(np.abs(x)), fs)


def traced_peak(fn):
    """(peak bytes allocated while fn runs, its result), under tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result


def run_python(*args) -> subprocess.CompletedProcess:
    """Run ``python ARGS`` in a fresh interpreter that imports this
    modepitch; its exit status, stdout and stderr come back as text."""
    src = str(Path(modepitch.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
