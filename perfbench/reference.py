"""Stored pitch output of every block-0 utterance at the reference seed.

Each record holds, per estimator/method key, the F0 track (null where no
estimate), the voicing mask and the region sequence ('L'/'H' on frames
with a region decision, '-' elsewhere). A run matches the reference when
voicing, the set of frames with an estimate and every region are identical
and every F0 lies within F0_REL_TOL of the stored value. The tolerance
absorbs summation-order changes (about 1e-12 relative) but not one candidate
bin of the comb grids (1.4%) or a parabolic-refinement shift.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_SEED = 0
F0_REL_TOL = 1e-6
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def key_name(key: tuple[str, str]) -> str:
    return f"{key[0]}/{key[1]}"


def record(analysis: dict) -> dict:
    """Compact, JSON-ready form of one `analyze_utterance` result."""
    out = {}
    for key, result in analysis.items():
        track = result.track
        regions = ["-"] * len(track)
        for region in result.regions:
            regions[region.frame_index] = "L" if region.region == "low" else "H"
        out[key_name(key)] = {
            "f0": [None if math.isnan(f) else float(f"{f:.12g}")
                   for f in track.f0_hz.tolist()],
            "voiced": "".join("1" if v else "0" for v in track.voiced_mask),
            "regions": "".join(regions),
        }
    return out


def mismatches(got: dict, want: dict) -> list[str]:
    """Human-readable differences between two records; empty when they match."""
    problems = []
    if sorted(got) != sorted(want):
        return [f"keys {sorted(got)} != reference {sorted(want)}"]
    for key in sorted(want):
        g, w = got[key], want[key]
        if g["voiced"] != w["voiced"]:
            problems.append(f"{key}: voicing differs")
        if g["regions"] != w["regions"]:
            problems.append(f"{key}: regions {g['regions']} != {w['regions']}")
        if len(g["f0"]) != len(w["f0"]):
            problems.append(f"{key}: {len(g['f0'])} frames != {len(w['f0'])}")
            continue
        for i, (a, b) in enumerate(zip(g["f0"], w["f0"])):
            if (a is None) != (b is None) or (
                    a is not None and abs(a - b) > F0_REL_TOL * abs(b)):
                problems.append(f"{key}: frame {i} f0 {a} != reference {b}")
                break
    return problems


def path_for(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load(workload: str) -> dict[int, dict]:
    """Job index -> record, for the reference seed's block 0."""
    data = json.loads(path_for(workload).read_text())
    if data["seed"] != REFERENCE_SEED or data["f0_rel_tol"] != F0_REL_TOL:
        raise ValueError(f"{path_for(workload)} was written under other settings")
    return {int(j): rec for j, rec in data["jobs"].items()}


def store(workload: str, records: dict[int, dict]) -> Path:
    path = path_for(workload)
    path.parent.mkdir(exist_ok=True)
    data = {"seed": REFERENCE_SEED, "f0_rel_tol": F0_REL_TOL,
            "jobs": {str(j): records[j] for j in sorted(records)}}
    path.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    return path
