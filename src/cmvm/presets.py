"""Named noise models used by the verification scenarios.

Three presets cover the interesting regimes: mixed (diffusion and jumps
side by side, including a diffusion-only and a jump-only cell), purely
Gaussian, and purely discontinuous. Magnitudes are chosen so that a unit
horizon carries order-one quadratic-variation mass in every cell.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .noise import (
    CellNoise,
    GaussianAmplitude,
    NoiseSpec,
    SpatialPartition,
    TwoPointAmplitude,
    normalize_spec,
)

__all__ = ["PRESETS", "make_preset", "preset_names"]


def _mixed_default() -> NoiseSpec:
    cells = [
        CellNoise(
            diffusion_cov=np.array([[1.0, 0.3], [0.3, 0.5]]),
            diffusion_intensity=0.8,
            jump_rate=1.5,
            jump_amplitude=TwoPointAmplitude([0.6, -0.2]),
        ),
        CellNoise(
            diffusion_cov=np.array([[0.5, 0.0], [0.0, 1.2]]),
            diffusion_intensity=1.0,
            jump_rate=1.0,
            jump_amplitude=GaussianAmplitude([[0.4, 0.1], [0.1, 0.3]]),
        ),
        CellNoise(
            diffusion_cov=np.array([[0.7, -0.2], [-0.2, 0.9]]),
            diffusion_intensity=0.6,
        ),
        CellNoise(
            jump_rate=2.0,
            jump_amplitude=TwoPointAmplitude([0.25, 0.45]),
        ),
    ]
    return NoiseSpec(2, SpatialPartition.uniform(4), cells)


def _gauss_default() -> NoiseSpec:
    cells = [
        CellNoise(
            diffusion_cov=np.array([[1.0, 0.2], [0.2, 0.8]]),
            diffusion_intensity=1.0,
        ),
        CellNoise(
            diffusion_cov=np.array([[0.6, -0.1], [-0.1, 0.4]]),
            diffusion_intensity=1.5,
        ),
    ]
    return NoiseSpec(2, SpatialPartition.uniform(2), cells)


def _jump_default() -> NoiseSpec:
    cells = [
        CellNoise(jump_rate=3.0, jump_amplitude=TwoPointAmplitude([0.5, 0.1])),
        CellNoise(jump_rate=1.5, jump_amplitude=GaussianAmplitude([[0.3, 0.0], [0.0, 0.2]])),
    ]
    return NoiseSpec(2, SpatialPartition.uniform(2), cells)


PRESETS = {
    "mixed-default": _mixed_default,
    "gauss-default": _gauss_default,
    "jump-default": _jump_default,
}


def preset_names() -> list:
    return sorted(PRESETS)


def make_preset(name: str) -> NoiseSpec:
    """A named preset, normalized, built once and shared: specs are read-only."""
    if name not in PRESETS:
        raise ValueError(f"unknown noise preset {name!r}; expected one of {preset_names()}")
    return _built(name)


@lru_cache(maxsize=None)
def _built(name: str) -> NoiseSpec:
    return normalize_spec(PRESETS[name]())
