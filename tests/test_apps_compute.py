"""Functional tests: each app's computation produces correct results."""

import pytest

from repro.apps import create_app
from repro.apps.offline import collect_window
from repro.sensors.accelerometer import SeismicWaveform, WalkingWaveform
from repro.sensors.camera import CameraWaveform, render_scene
from repro.sensors.fingerprint import FingerprintWaveform
from repro.sensors.pulse import EcgWaveform
from repro.sensors.sound import SpokenWordWaveform


# ----------------------------------------------------------------------
# A2 step counter
# ----------------------------------------------------------------------
def test_stepcounter_counts_walking_steps():
    app = create_app("A2")
    cadence = 2.0
    window = collect_window(app, waveforms={"S4": WalkingWaveform(cadence_hz=cadence)})
    result = app.compute(window)
    assert result.payload["samples"] == 1000
    assert result.payload["steps"] == pytest.approx(cadence * 1.0, abs=1)


def test_stepcounter_zero_steps_when_still():
    app = create_app("A2")
    window = collect_window(app, waveforms={"S4": WalkingWaveform(walking=False)})
    assert app.compute(window).payload["steps"] == 0


def test_stepcounter_accumulates_across_windows():
    app = create_app("A2")
    waveform = WalkingWaveform(cadence_hz=2.0)
    for index in range(3):
        window = collect_window(
            app, window_index=index, start_s=float(index), waveforms={"S4": waveform}
        )
        app.compute(window)
    assert app.total_steps == pytest.approx(6, abs=2)


# ----------------------------------------------------------------------
# A7 earthquake
# ----------------------------------------------------------------------
def test_earthquake_triggers_on_quake():
    app = create_app("A7")
    quake = SeismicWaveform(quake_start_s=0.5, quake_duration_s=0.5)
    window = collect_window(app, waveforms={"S4": quake})
    result = app.compute(window)
    assert result.payload["triggered"]
    # Onset detected near 0.5 s into the window (index at 1 kHz).
    assert 450 <= result.payload["onset_index"] <= 650
    assert result.payload["verification_query"] is not None


def test_earthquake_quiet_background_no_trigger():
    app = create_app("A7")
    window = collect_window(app, waveforms={"S4": SeismicWaveform()})
    result = app.compute(window)
    assert not result.payload["triggered"]
    assert result.payload["verification_query"] is None


def test_earthquake_ignores_walking():
    """Walking must not read as an earthquake (steady rhythm, no onset)."""
    app = create_app("A7")
    window = collect_window(app, waveforms={"S4": WalkingWaveform(cadence_hz=1.8)})
    result = app.compute(window)
    assert not result.payload["triggered"]


# ----------------------------------------------------------------------
# A8 heartbeat
# ----------------------------------------------------------------------
def test_heartbeat_regular_rhythm_not_flagged():
    app = create_app("A8")
    window = collect_window(app, waveforms={"S6": EcgWaveform(heart_rate_bpm=72.0)})
    result = app.compute(window)
    assert not result.payload["irregular"]
    assert result.payload["bpm"] == pytest.approx(72.0, rel=0.1)


def test_heartbeat_irregular_rhythm_flagged():
    app = create_app("A8")
    window = collect_window(
        app, waveforms={"S6": EcgWaveform(heart_rate_bpm=72.0, irregular=True)}
    )
    result = app.compute(window)
    assert result.payload["irregular"]
    assert result.payload["rmssd_s"] > 0.12


def test_heartbeat_counts_beats():
    app = create_app("A8")
    window = collect_window(app, waveforms={"S6": EcgWaveform(heart_rate_bpm=60.0)})
    result = app.compute(window)
    # 5-second window at 60 bpm -> ~5 beats.
    assert result.payload["beats"] == pytest.approx(5, abs=1)


# ----------------------------------------------------------------------
# A1 CoAP server
# ----------------------------------------------------------------------
def test_coap_serves_all_window_requests():
    app = create_app("A1")
    window = collect_window(app)
    result = app.compute(window)
    # 8 observe GETs plus the blockwise history fetch.
    assert result.payload["requests_served"] >= 8 + result.payload["history_blocks"]
    assert result.payload["history_blocks"] >= 2  # history spans blocks
    assert result.payload["light_samples"] == 1000
    assert result.payload["sound_samples"] == 1000
    assert result.payload["response_bytes"] > 0


# ----------------------------------------------------------------------
# A3 arduinoJSON
# ----------------------------------------------------------------------
def test_arduinojson_roundtrip_document():
    app = create_app("A3")
    window = collect_window(app)
    result = app.compute(window)
    assert result.payload["readings"] == 20  # 10 + 10 samples
    assert result.payload["json_bytes"] > 100


# ----------------------------------------------------------------------
# A4 M2X
# ----------------------------------------------------------------------
def test_m2x_batches_five_streams():
    app = create_app("A4")
    window = collect_window(app)
    result = app.compute(window)
    assert result.payload["streams"] == 5
    assert result.payload["raw_samples"] == 2220
    assert result.payload["points"] > 0
    assert result.payload["payload_bytes"] > 500


# ----------------------------------------------------------------------
# A5 Blynk
# ----------------------------------------------------------------------
def test_blynk_updates_all_pins():
    app = create_app("A5")
    window = collect_window(app)
    result = app.compute(window)
    assert result.payload["pins_updated"] == 5
    assert result.payload["acks"] == 5


# ----------------------------------------------------------------------
# A6 Dropbox manager
# ----------------------------------------------------------------------
def test_dropbox_first_sync_uploads_everything():
    app = create_app("A6")
    window = collect_window(app)
    result = app.compute(window)
    assert result.payload["chunks_uploaded"] == result.payload["chunks"]
    assert result.payload["upload_bytes"] == result.payload["log_bytes"]


def test_dropbox_incremental_sync_skips_unchanged_chunks():
    app = create_app("A6")
    first = app.compute(collect_window(app, window_index=0, start_s=0.0))
    second = app.compute(collect_window(app, window_index=1, start_s=1.0))
    assert second.payload["chunks_skipped"] > 0
    assert second.payload["upload_bytes"] < second.payload["log_bytes"]
    assert first.payload["log_bytes"] < second.payload["log_bytes"]


# ----------------------------------------------------------------------
# A9 JPEG decoder
# ----------------------------------------------------------------------
def test_jpeg_decodes_frame_close_to_scene():
    app = create_app("A9")
    camera = CameraWaveform()
    window = collect_window(app, waveforms={"S10": camera})
    result = app.compute(window)
    scene = render_scene(camera.shape, result.payload["frame_id"])
    assert result.payload["mean_luma"] == pytest.approx(scene.mean(), abs=4.0)
    assert result.payload["height"] >= camera.shape[0]


# ----------------------------------------------------------------------
# A10 fingerprint
# ----------------------------------------------------------------------
def test_fingerprint_enrolls_then_identifies():
    app = create_app("A10")
    reader = FingerprintWaveform(person_ids=(3,))
    first = app.compute(
        collect_window(app, window_index=0, start_s=0.0, waveforms={"S3": reader})
    )
    second = app.compute(
        collect_window(app, window_index=1, start_s=1.0, waveforms={"S3": reader})
    )
    assert first.payload["action"] == "enrolled"
    assert second.payload["action"] == "identified"
    assert second.payload["identity"] == first.payload["identity"]


def test_fingerprint_distinguishes_people():
    app = create_app("A10")
    reader = FingerprintWaveform(person_ids=(1, 2))
    first = app.compute(
        collect_window(app, window_index=0, start_s=0.0, waveforms={"S3": reader})
    )
    second = app.compute(
        collect_window(app, window_index=1, start_s=1.0, waveforms={"S3": reader})
    )
    assert second.payload["action"] == "enrolled"
    assert second.payload["identity"] != first.payload["identity"]
    assert second.payload["database_size"] == 2


# ----------------------------------------------------------------------
# A11 speech-to-text
# ----------------------------------------------------------------------
def test_speech_recognizes_spoken_word():
    app = create_app("A11")
    speech = SpokenWordWaveform(["on"])
    window = collect_window(app, waveforms={"S8": speech})
    result = app.compute(window)
    assert result.payload["words"] == ["on"]


def test_speech_silence_decodes_to_nothing():
    app = create_app("A11")
    speech = SpokenWordWaveform([], noise_amplitude=0.001)
    window = collect_window(app, waveforms={"S8": speech})
    result = app.compute(window)
    assert result.payload["words"] == []


@pytest.mark.parametrize("word", ["on", "off", "stop", "open"])
def test_speech_vocabulary_words_recognized(word):
    app = create_app("A11")
    window = collect_window(app, waveforms={"S8": SpokenWordWaveform([word])})
    assert app.compute(window).payload["words"] == [word]
