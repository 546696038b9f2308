"""A5 — Blynk (Smartphone Interactions).

Pushes per-sensor virtual-pin updates to a phone client using the Blynk
binary framing, including a camera snapshot summary, and processes the
client's acknowledgements.
"""

from __future__ import annotations

from ..protocols import (
    decode_stream,
    encode_frame,
    ok_response,
    parse_virtual_write,
    virtual_write,
)
from ..units import kib
from .base import AppProfile, AppResult, IoTApp, SampleWindow

#: Virtual pin assignment per sensor.
PIN_MAP = {"S1": 1, "S2": 2, "S4": 3, "S5": 4, "S10": 5}

PROFILE = AppProfile(
    table2_id="A5",
    name="blynk",
    title="Blynk",
    category="Smartphone Interactions",
    user_task="Platform interacting with Smartphones",
    sensor_ids=("S1", "S2", "S4", "S5", "S10"),
    mips=45.0,
    heap_bytes=kib(31.6),
    stack_bytes=kib(0.4),
    output_bytes=1024,
)


class BlynkApp(IoTApp):
    """Aggregates sensors into Blynk virtual-pin writes."""

    def __init__(self) -> None:
        super().__init__(PROFILE)
        self._message_id = 0
        self.updates_sent = 0

    def _next_id(self) -> int:
        self._message_id = (self._message_id + 1) % 0x10000
        return self._message_id

    def compute(self, window: SampleWindow) -> AppResult:
        """Summarize each stream into a Blynk virtual-write frame."""
        import numpy as np

        frames = []
        for sensor_id, pin in PIN_MAP.items():
            series = window.scalar_series(sensor_id)
            if series.size == 0:
                continue
            if sensor_id == "S4":
                value = f"{float(np.abs(series).max()):.3f}"
            elif sensor_id == "S10":
                # Snapshot summary: the frame id that was captured.
                value = f"frame:{int(series[-1])}"
            else:
                value = f"{float(series.mean()):.3f}"
            frames.append(virtual_write(self._next_id(), pin, value))
        stream = b"".join(encode_frame(frame) for frame in frames)
        # Phone side: decode, validate, acknowledge each frame.
        decoded = decode_stream(stream)
        acks = []
        for frame in decoded:
            pin, _ = parse_virtual_write(frame)
            if pin not in PIN_MAP.values():
                raise AssertionError(f"unexpected virtual pin {pin}")
            acks.append(ok_response(frame.message_id))
        self.updates_sent += len(decoded)
        return self.make_result(
            window,
            {
                "pins_updated": len(decoded),
                "stream_bytes": len(stream),
                "acks": len(acks),
                "updates_sent": self.updates_sent,
            },
        )
