"""A1 — CoAP server (Building Automation).

Publishes light and sound observations as CoAP resources and answers a
set of GET requests per window, exercising the full encode/decode path of
the in-house RFC 7252 codec.
"""

from __future__ import annotations

from ..protocols import CoapCode, CoapMessage, decode_message, dumps, encode_message
from ..protocols.coap_block import BlockwiseServer, fetch_blockwise
from ..units import kib
from .base import AppProfile, AppResult, IoTApp, SampleWindow

PROFILE = AppProfile(
    table2_id="A1",
    name="coap",
    title="CoAP Server",
    category="Building Automation",
    user_task="Constrained Application Protocol",
    sensor_ids=("S7", "S8"),
    mips=22.0,
    heap_bytes=kib(25.6),
    stack_bytes=kib(0.4),
    output_bytes=256,
)

#: GETs served per window (observe notifications to subscribed clients).
REQUESTS_PER_WINDOW = 8


class CoapServerApp(IoTApp):
    """Aggregates light/sound windows into CoAP observe resources."""

    def __init__(self) -> None:
        super().__init__(PROFILE)
        self.server = BlockwiseServer(block_size=64)
        self._message_id = 0

    def _next_id(self) -> int:
        self._message_id = (self._message_id + 1) % 0x10000
        return self._message_id

    def compute(self, window: SampleWindow) -> AppResult:
        """Publish light/sound summaries and serve the pending GETs."""
        import numpy as np

        light = window.scalar_series("S7")
        sound = window.scalar_series("S8")
        self.server.publish(
            "/sensors/light",
            dumps(
                {
                    "mean_lux": round(float(np.mean(light)), 2),
                    "max_lux": round(float(np.max(light)), 2),
                    "n": int(light.size),
                }
            ).encode("utf-8"),
        )
        self.server.publish(
            "/sensors/sound",
            dumps(
                {
                    "rms": round(float(np.sqrt(np.mean(sound**2))), 4),
                    "n": int(sound.size),
                }
            ).encode("utf-8"),
        )
        # A larger observe resource: the decimated light history, which a
        # subscriber pulls with RFC 7959 blockwise GETs.
        history = dumps(
            {"lux": [round(float(v), 1) for v in light[:: max(1, light.size // 50)]]}
        ).encode("utf-8")
        self.server.publish("/sensors/light/history", history)

        served = 0
        response_bytes = 0
        for index in range(REQUESTS_PER_WINDOW):
            path = "/sensors/light" if index % 2 == 0 else "/sensors/sound"
            request = encode_message(
                CoapMessage.get(path, message_id=self._next_id())
            )
            response = decode_message(self.server.handle(request))
            if response.code != CoapCode.CONTENT:
                raise AssertionError(f"resource {path} missing")
            served += 1
            response_bytes += len(response.payload)
        fetched, block_requests = fetch_blockwise(
            self.server, "/sensors/light/history", first_message_id=self._next_id()
        )
        if fetched != history:
            raise AssertionError("blockwise reassembly corrupted the history")
        return self.make_result(
            window,
            {
                "requests_served": served + block_requests,
                "history_blocks": block_requests,
                "response_bytes": response_bytes + len(fetched),
                "light_samples": int(light.size),
                "sound_samples": int(sound.size),
            },
        )
