"""Cepstral features, statistics-pooling speaker embeddings, cosine
scoring, and sidecar files for embeddings computed elsewhere."""

import functools
import os
from dataclasses import dataclass
from typing import Dict

import numpy as np
from scipy.fft import dct

from .audio import AudioBuffer, stft, vad

N_MELS = 26
N_CEPSTRA = 24
PREEMPHASIS = 0.97
DELTA_SPAN = 2
FEATURE_DIM = 3 * N_CEPSTRA        # statics + deltas + delta-deltas
EMBED_DIM = 2 * FEATURE_DIM        # mean and std pooling
MIN_ACTIVE_FRAMES = 3


@dataclass
class Embedding:
    """A fixed-length utterance representation."""

    vector: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("embedding vector must be non-empty and 1-D")
        if not np.all(np.isfinite(v)):
            raise ValueError("embedding vector contains non-finite values")
        self.vector = v

    @property
    def dim(self) -> int:
        return self.vector.size


@functools.lru_cache(maxsize=None)
def mel_filterbank(sample_rate: int, fft_size: int) -> np.ndarray:
    """Triangular filters spaced uniformly on the mel scale from 0 Hz
    to Nyquist, returned as (N_MELS, fft_size // 2 + 1), read-only."""
    def to_mel(hz):
        return 2595.0 * np.log10(1.0 + hz / 700.0)

    def to_hz(mel):
        return 700.0 * (10.0 ** (mel / 2595.0) - 1.0)

    edges_hz = to_hz(np.linspace(0.0, to_mel(sample_rate / 2.0), N_MELS + 2))
    bins = np.arange(fft_size // 2 + 1) * sample_rate / fft_size
    fb = np.zeros((N_MELS, bins.size))
    for m in range(N_MELS):
        left, center, right = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        rising = (bins - left) / max(center - left, 1e-12)
        falling = (right - bins) / max(right - center, 1e-12)
        fb[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    fb.flags.writeable = False
    return fb


@functools.lru_cache(maxsize=None)
def _preemphasis(n_bins: int, fft_size: int) -> np.ndarray:
    """Power response of first-order pre-emphasis at each FFT bin."""
    omega = 2.0 * np.pi * np.arange(n_bins) / fft_size
    return 1.0 + PREEMPHASIS ** 2 - 2.0 * PREEMPHASIS * np.cos(omega)


def _delta(c: np.ndarray, span: int = DELTA_SPAN) -> np.ndarray:
    padded = np.concatenate([np.repeat(c[:1], span, axis=0), c,
                             np.repeat(c[-1:], span, axis=0)], axis=0)
    num = np.zeros_like(c)
    for j in range(1, span + 1):
        num += j * (padded[span + j:padded.shape[0] - span + j]
                    - padded[span - j:c.shape[0] + span - j])
    return num / (2.0 * sum(j * j for j in range(1, span + 1)))


def features_from_magnitudes(magnitudes: np.ndarray,
                             sample_rate: int) -> np.ndarray:
    """Cepstral features straight from STFT magnitude frames; frames of
    n bins come from an FFT of 2 * (n - 1) points.

    Pre-emphasis is a per-bin power weighting (the squared magnitude
    response of the usual first-order difference), so features computed
    from warped magnitudes and from re-analyzed audio share one code
    path. The log floor is relative to the loudest filter output,
    keeping a pure gain change a constant shift of the first cepstrum.
    The input is made C-contiguous first, so that the filterbank
    product rounds the same for any memory layout.
    """
    mags = np.ascontiguousarray(magnitudes, dtype=np.float64)
    if mags.ndim != 2 or mags.shape[0] == 0 or mags.shape[1] < 2:
        raise ValueError("need a (frames, bins) magnitude array, bins >= 2")
    fft_size = 2 * (mags.shape[1] - 1)
    power = (mags * mags) * _preemphasis(mags.shape[1], fft_size)
    mel = power @ mel_filterbank(sample_rate, fft_size).T
    floor = max(float(mel.max()) * 1e-12, 1e-300)
    logmel = np.log(np.maximum(mel, floor))
    ceps = dct(logmel, type=2, norm="ortho", axis=1)[:, :N_CEPSTRA]
    d1 = _delta(ceps)
    d2 = _delta(d1)
    return np.concatenate([ceps, d1, d2], axis=1)


def active_magnitudes(buf: AudioBuffer) -> np.ndarray:
    """STFT magnitudes of the frames that pass the energy gate.

    Raises ValueError when fewer than MIN_ACTIVE_FRAMES frames pass
    (e.g. silence).
    """
    magnitudes = np.abs(stft(buf))
    mask = vad(buf)
    if int(mask.sum()) < MIN_ACTIVE_FRAMES:
        raise ValueError("insufficient voiced content for features")
    return magnitudes[mask]


def mfcc(buf: AudioBuffer) -> np.ndarray:
    """Voice-activity-gated (frames, FEATURE_DIM) cepstral features for
    one utterance (see `active_magnitudes`)."""
    return features_from_magnitudes(active_magnitudes(buf), buf.sample_rate)


def embed(features: np.ndarray) -> Embedding:
    """Mean and standard deviation of each column of a (frames,
    FEATURE_DIM) feature array, concatenated."""
    if features.shape[1:] != (FEATURE_DIM,) or len(features) == 0:
        raise ValueError(f"features must be (frames >= 1, {FEATURE_DIM}), "
                         f"got {features.shape}")
    return Embedding(np.concatenate([features.mean(axis=0),
                                     features.std(axis=0)]))


def distance(a: Embedding, b: Embedding) -> float:
    """Cosine distance, 1 - cos(a, b), in [0, 2]. Lower is more similar."""
    if a.dim != b.dim:
        raise ValueError(f"embedding dims differ: {a.dim} vs {b.dim}")
    na = np.linalg.norm(a.vector)
    nb = np.linalg.norm(b.vector)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cannot score a zero-norm embedding")
    cos = float(np.dot(a.vector, b.vector) / (na * nb))
    return 1.0 - max(-1.0, min(1.0, cos))


def load_external_embeddings(path) -> Dict[str, Embedding]:
    """Read an embedding sidecar: one utterance per line, the id then
    whitespace-separated float components. All lines must agree on the
    dimension; duplicate ids and unparsable values are rejected with
    the file and the offending line number."""
    table: Dict[str, Embedding] = {}
    dim = None
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            utt, comps = parts[0], parts[1:]
            if not comps:
                raise ValueError(f"{path}:{lineno}: no embedding components")
            if utt in table:
                raise ValueError(
                    f"{path}:{lineno}: duplicate utterance id {utt!r}")
            try:
                vec = np.array([float(c) for c in comps])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: non-numeric embedding component")
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise ValueError(
                    f"{path}:{lineno}: dimension {vec.size} differs from "
                    f"{dim} seen earlier")
            try:
                table[utt] = Embedding(vec)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not table:
        raise ValueError(f"no embeddings found in {path}")
    return table


def write_embeddings(path, table: Dict[str, Embedding]) -> None:
    """Write embeddings in the sidecar format `load_external_embeddings`
    reads, one line per utterance, ids sorted."""
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        for utt in sorted(table):
            comps = " ".join(format(v, ".17g") for v in table[utt].vector)
            fh.write(f"{utt} {comps}\n")
