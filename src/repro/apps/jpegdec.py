"""A9 — JPEG decoder (Security).

Takes the camera's quantized-DCT frame and reconstructs the image:
dequantize, blockwise inverse DCT, level shift, clip — the IDCT pipeline
the paper cites [59, 60].  One frame per window (Table II: 1 interrupt,
23.81 KB).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import WorkloadError
from ..units import kib
from .base import AppProfile, AppResult, IoTApp, SampleWindow

if TYPE_CHECKING:
    import numpy as np

    from ..sensors.camera import EncodedFrame

PROFILE = AppProfile(
    table2_id="A9",
    name="jpeg",
    title="JPEG Decoder",
    category="Security",
    user_task="Inverse Discrete Cosine Transform (IDCT)",
    sensor_ids=("S10",),
    mips=88.0,
    heap_bytes=kib(35.9),  # Fig. 6: the largest footprint (36.3 KB total)
    stack_bytes=kib(0.4),
    output_bytes=96,
)


def decode_frame_pixels(frame: EncodedFrame) -> np.ndarray:
    """Full decode of one frame: parse the entropy-coded bitstream, then
    dequantize and run the blockwise inverse DCT."""
    import numpy as np

    from ..dsp import blockwise_idct, dequantize
    from ..dsp.rle import decode_plane

    levels = decode_plane(frame.to_bytes())
    coeffs = dequantize(levels, frame.qtable)
    pixels = blockwise_idct(coeffs) + 128.0
    return np.clip(pixels, 0.0, 255.0)


class JpegDecoderApp(IoTApp):
    """Decodes one camera frame per window."""

    def __init__(self) -> None:
        super().__init__(PROFILE)
        self.frames_decoded = 0

    def compute(self, window: SampleWindow) -> AppResult:
        """Decode the frame captured in this window to pixel statistics."""
        camera = window.sources.get("S10")
        if camera is None:
            raise WorkloadError("jpeg: window carries no camera source")
        samples = window.samples("S10")
        if not samples:
            raise WorkloadError("jpeg: no frame captured this window")
        capture_time = samples[-1].time
        frame = camera.frame_at(capture_time)
        pixels = decode_frame_pixels(frame)
        self.frames_decoded += 1
        return self.make_result(
            window,
            {
                "frame_id": frame.frame_id,
                "width": int(pixels.shape[1]),
                "height": int(pixels.shape[0]),
                "mean_luma": float(pixels.mean()),
                "min_luma": float(pixels.min()),
                "max_luma": float(pixels.max()),
                "frames_decoded": self.frames_decoded,
            },
        )
