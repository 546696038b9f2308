"""A11 — Speech-to-text (Smart City): the heavy-weight workload.

Converts each window's 1 kHz sound samples to text with an MFCC + DTW
template matcher (our PocketSphinx substitute): voice-activity detection
segments utterances, each segment's MFCC features are matched against
per-word templates, and the best word under a rejection threshold wins.

The paper: A11 needs 4683 MIPS and a 1.43 GB model footprint, so it can
never be offloaded to the 80 KB MCU — making it the Batching/BCOM test
case of Figure 12.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from ..sensors.specs import A11_SOUND_SAMPLE_BYTES
from ..units import MIB, kib
from .base import AppProfile, AppResult, IoTApp, SampleWindow

if TYPE_CHECKING:
    import numpy as np

PROFILE = AppProfile(
    table2_id="A11",
    name="speech2text",
    title="Speech-To-Text",
    category="Smart City",
    user_task="Voice-to-text conversion",
    sensor_ids=("S8",),
    mips=4683.0,  # §IV-E3
    heap_bytes=int(1.43 * 1024 * MIB),  # §IV-E3: 1.43 GB model footprint
    stack_bytes=kib(64),
    output_bytes=128,
    # The PocketSphinx decode is single-threaded: converting 1 s of audio
    # takes ~2.6 s of CPU — slower than real time, which is exactly why
    # the app-specific routine dominates A11's energy (Fig. 12a).
    parallel_cores=1,
    heavy=True,
    sample_bytes_overrides={"S8": A11_SOUND_SAMPLE_BYTES},
)

#: MFCC framing at the 1 kHz sensor rate.
FRAME_LENGTH = 128
HOP_LENGTH = 64
NUM_FILTERS = 16
#: Normalized DTW cost above this is rejected as "not a word".
REJECT_THRESHOLD = 4.0
#: Energy fraction (of the window's max frame energy) that counts as voice.
VAD_LEVEL = 0.15

#: Sample rate -> the vocabulary's MFCC templates at that rate.  Filled
#: by the first recognition at each rate and shared by every app in the
#: process; the templates are never written after they are built.
_TEMPLATES: Dict[float, Dict[str, np.ndarray]] = {}


def _frame_energies(signal: np.ndarray) -> np.ndarray:
    import numpy as np

    count = max(1, 1 + (len(signal) - FRAME_LENGTH) // HOP_LENGTH)
    energies = np.empty(count)
    for index in range(count):
        start = index * HOP_LENGTH
        chunk = signal[start : start + FRAME_LENGTH]
        energies[index] = float(np.mean(chunk**2)) if chunk.size else 0.0
    return energies


def segment_utterances(
    signal: np.ndarray, min_frames: int = 3
) -> List[Tuple[int, int]]:
    """(start, end) sample ranges of voiced segments via energy VAD."""
    energies = _frame_energies(signal)
    if energies.max() <= 0:
        return []
    voiced = energies > VAD_LEVEL * energies.max()
    segments: List[Tuple[int, int]] = []
    start = None
    for index, active in enumerate(voiced):
        if active and start is None:
            start = index
        elif not active and start is not None:
            if index - start >= min_frames:
                segments.append(
                    (start * HOP_LENGTH, index * HOP_LENGTH + FRAME_LENGTH)
                )
            start = None
    if start is not None and len(voiced) - start >= min_frames:
        segments.append((start * HOP_LENGTH, len(signal)))
    return segments


def _features(signal: np.ndarray, sample_rate_hz: float) -> np.ndarray:
    from ..dsp import mfcc

    return mfcc(
        signal,
        sample_rate_hz,
        frame_length=FRAME_LENGTH,
        hop_length=HOP_LENGTH,
        num_filters=NUM_FILTERS,
    )


def _word_templates(sample_rate_hz: float) -> Dict[str, np.ndarray]:
    """The vocabulary's MFCC templates at ``sample_rate_hz``.

    Synthesized and encoded on first use, once per process and rate.
    """
    templates = _TEMPLATES.get(sample_rate_hz)
    if templates is None:
        from ..sensors.sound import VOCABULARY, synthesize_word

        templates = _TEMPLATES[sample_rate_hz] = {
            word: _features(
                synthesize_word(word, sample_rate_hz), sample_rate_hz
            )
            for word in VOCABULARY
        }
    return templates


class SpeechToTextApp(IoTApp):
    """MFCC + DTW keyword recognizer over sound-sensor windows."""

    def __init__(self, sample_rate_hz: float = 1000.0):
        super().__init__(PROFILE)
        self.sample_rate_hz = sample_rate_hz
        self.words_recognized = 0

    def recognize(self, signal: np.ndarray) -> List[str]:
        """Decode a PCM window into a word list."""
        from ..dsp import dtw_distance

        templates = _word_templates(self.sample_rate_hz)
        words: List[str] = []
        for start, end in segment_utterances(signal):
            segment = signal[start:end]
            features = _features(segment, self.sample_rate_hz)
            best_word, best_cost = None, float("inf")
            for word, template in templates.items():
                cost = dtw_distance(features, template)
                if cost < best_cost:
                    best_word, best_cost = word, cost
            if best_word is not None and best_cost <= REJECT_THRESHOLD:
                words.append(best_word)
        return words

    def compute(self, window: SampleWindow) -> AppResult:
        """Recognize spoken words in the window's audio signal."""
        signal = window.scalar_series("S8")
        words = self.recognize(signal)
        self.words_recognized += len(words)
        return self.make_result(
            window,
            {
                "text": " ".join(words),
                "words": words,
                "segments": len(segment_utterances(signal)),
                "words_recognized_total": self.words_recognized,
            },
        )
