"""Image sensor (S10) waveform: synthetic DCT-coded frames.

The JPEG-decoder app (A9) runs IDCT on camera frames.  This module is the
matching *encoder* side: it renders a deterministic grayscale scene,
forward-DCTs and quantizes it, and hands the quantized coefficient planes
to the app — which must reconstruct the scene with small error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dsp.dct import JPEG_LUMA_QTABLE, blockwise_dct, quantize
from .synthetic import Waveform

#: Frame geometry for the low-res sensor: 96 x 254 x 8bit = 24384 B, the
#: paper's 23.81 KB per frame.
LOWRES_SHAPE = (96, 254)
#: Geometry for the MCU-unfriendly high-res sensor (~619 kB per frame).
HIGHRES_SHAPE = (704, 880)


@dataclass(frozen=True)
class EncodedFrame:
    """A quantized-DCT frame as produced by the camera pipeline."""

    levels: np.ndarray  # int32, multiple-of-8 dimensions
    qtable: np.ndarray
    frame_id: int

    @property
    def shape(self):
        """Pixel dimensions of the decoded image."""
        return self.levels.shape

    @property
    def nbytes(self) -> int:
        """Transfer size modelled for this frame (8-bit plane)."""
        return int(self.levels.shape[0] * self.levels.shape[1])

    def to_bytes(self) -> bytes:
        """Entropy-coded bitstream (zigzag + RLE) of the frame."""
        from ..dsp.rle import encode_plane

        return encode_plane(self.levels)


def render_scene(shape, frame_id: int = 0) -> np.ndarray:
    """A deterministic grayscale test scene: gradient + bars + a disc."""
    rows, cols = shape
    y = np.linspace(0.0, 1.0, rows).reshape(-1, 1)
    x = np.linspace(0.0, 1.0, cols).reshape(1, -1)
    image = 96.0 + 64.0 * x + 32.0 * y
    # Vertical bars whose phase moves with the frame id.
    image += 24.0 * np.sin(2 * np.pi * (8 * x + 0.1 * frame_id))
    # A bright disc.
    cy, cx = 0.5 + 0.1 * np.sin(frame_id), 0.5 + 0.1 * np.cos(frame_id)
    disc = ((y - cy) ** 2 + (x - cx) ** 2) < 0.04
    image = np.where(disc, image + 48.0, image)
    return np.clip(image, 0.0, 255.0)


def _pad_to_blocks(image: np.ndarray, size: int = 8) -> np.ndarray:
    rows, cols = image.shape
    pad_rows = (-rows) % size
    pad_cols = (-cols) % size
    if pad_rows or pad_cols:
        image = np.pad(image, ((0, pad_rows), (0, pad_cols)), mode="edge")
    return image


def encode_frame(image: np.ndarray, frame_id: int = 0) -> EncodedFrame:
    """Forward DCT + quantization of a grayscale image."""
    padded = _pad_to_blocks(np.asarray(image, dtype=np.float64) - 128.0)
    coeffs = blockwise_dct(padded)
    levels = quantize(coeffs, JPEG_LUMA_QTABLE)
    return EncodedFrame(levels=levels, qtable=JPEG_LUMA_QTABLE, frame_id=frame_id)


class CameraWaveform(Waveform):
    """Produces one encoded frame per acquisition.

    ``sample(t)`` returns the frame id (scalar) for timeline purposes;
    :meth:`frame_at` returns the full :class:`EncodedFrame` for the app.
    """

    def __init__(self, shape=LOWRES_SHAPE, frame_rate_hz: float = 1.0):
        if frame_rate_hz <= 0:
            raise ValueError("frame rate must be positive")
        self.shape = shape
        self.frame_rate_hz = frame_rate_hz

    def frame_id_at(self, time: float) -> int:
        """Monotone frame counter at ``time``."""
        return int(time * self.frame_rate_hz)

    def frame_at(self, time: float) -> EncodedFrame:
        """The encoded frame captured at ``time``."""
        frame_id = self.frame_id_at(time)
        scene = render_scene(self.shape, frame_id)
        return encode_frame(scene, frame_id)

    def sample(self, time: float) -> np.ndarray:
        """Scalar view for the sampling pipeline: the current frame id."""
        return np.array([float(self.frame_id_at(time))])


def highres_camera_waveform() -> CameraWaveform:
    """The camera at its high-resolution frame size (sensor S10H)."""
    return CameraWaveform(shape=HIGHRES_SHAPE)
