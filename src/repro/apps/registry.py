"""Registry of the eleven Table II workloads."""

from __future__ import annotations

from typing import Callable, Dict, List

from ..errors import WorkloadError
from . import (
    arduinojson,
    blynk_app,
    coap_server,
    dropbox,
    earthquake,
    fingerprint_app,
    heartbeat,
    jpegdec,
    m2x,
    speech2text,
    stepcounter,
)
from .base import AppProfile, IoTApp

#: Constructor per Table II id, in table order.
APP_FACTORIES: Dict[str, Callable[[], IoTApp]] = {
    "A1": coap_server.CoapServerApp,
    "A2": stepcounter.StepCounterApp,
    "A3": arduinojson.ArduinoJsonApp,
    "A4": m2x.M2XApp,
    "A5": blynk_app.BlynkApp,
    "A6": dropbox.DropboxApp,
    "A7": earthquake.EarthquakeApp,
    "A8": heartbeat.HeartbeatApp,
    "A9": jpegdec.JpegDecoderApp,
    "A10": fingerprint_app.FingerprintApp,
    "A11": speech2text.SpeechToTextApp,
}

#: Profile per Table II id, each app module's ``PROFILE``: lookups by
#: name and weight read these, so they construct no app.
APP_PROFILES: Dict[str, AppProfile] = {
    profile.table2_id: profile
    for profile in (
        coap_server.PROFILE,
        stepcounter.PROFILE,
        arduinojson.PROFILE,
        m2x.PROFILE,
        blynk_app.PROFILE,
        dropbox.PROFILE,
        earthquake.PROFILE,
        heartbeat.PROFILE,
        jpegdec.PROFILE,
        fingerprint_app.PROFILE,
        speech2text.PROFILE,
    )
}

#: Alternate lookup by machine name ("stepcounter", "m2x", ...).
_BY_NAME: Dict[str, str] = {
    profile.name: table2_id for table2_id, profile in APP_PROFILES.items()
}


def create_app(identifier: str) -> IoTApp:
    """Instantiate a workload by Table II id or machine name."""
    table2_id = identifier if identifier in APP_FACTORIES else _BY_NAME.get(identifier)
    if table2_id is None:
        raise WorkloadError(f"unknown app {identifier!r}")
    return APP_FACTORIES[table2_id]()


def light_weight_ids() -> List[str]:
    """A1..A10 — offload candidates."""
    return [
        table2_id
        for table2_id, profile in APP_PROFILES.items()
        if not profile.heavy
    ]


def all_ids() -> List[str]:
    """All Table II ids in order."""
    return list(APP_FACTORIES)
