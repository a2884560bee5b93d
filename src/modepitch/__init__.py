"""Mode-decomposition based low/high separation and F0 octave correction."""
