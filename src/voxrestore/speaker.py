"""Cepstral features, statistics-pooling speaker embeddings, cosine
scoring, and sidecar files for embeddings computed elsewhere."""

import functools
import os
from dataclasses import dataclass
from typing import Dict

import numpy as np

from .audio import AudioBuffer, stft, vad
from .disguise import NO_OP, DisguiseSpec, warp_indices

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
    left, center, right = (edges_hz[i:i + N_MELS, None] for i in range(3))
    rising = (bins - left) / np.maximum(center - left, 1e-12)
    falling = (right - bins) / np.maximum(right - center, 1e-12)
    fb = np.clip(np.minimum(rising, falling), 0.0, None)
    fb.flags.writeable = False
    return fb


# the first N_CEPSTRA columns of the orthonormal DCT-II of N_MELS points
_DCT = np.sqrt((2.0 - (np.arange(N_CEPSTRA) == 0)) / N_MELS) * np.cos(
    np.pi / N_MELS * np.outer(np.arange(N_MELS) + 0.5, np.arange(N_CEPSTRA)))


def _delta(c: np.ndarray, span: int = DELTA_SPAN) -> np.ndarray:
    """Deltas along the frame axis, -2, repeating the edge frames."""
    n = c.shape[-2]
    padded = np.concatenate([c[..., :1, :]] * span + [c]
                            + [c[..., -1:, :]] * span, axis=-2)
    num = sum(j * (padded[..., span + j:n + span + j, :]
                   - padded[..., span - j:n + span - j, :])
              for j in range(1, span + 1))
    return num / (2.0 * sum(j * j for j in range(1, span + 1)))


@functools.lru_cache(maxsize=256)
def warped_filterbank(spec: DisguiseSpec, n_bins: int,
                      sample_rate: int) -> np.ndarray:
    """(n_bins, N_MELS) pre-emphasis and mel filterbank, read-only, for
    power inverse-warped by `spec`: linear on power, the warp folds into
    the bank, as in filterbank-warped VTLN (Lee and Rose, 1998)."""
    fft_size = 2 * (n_bins - 1)
    # pre-emphasis, as the power response of a first-order difference
    cos = np.cos(2.0 * np.pi * np.arange(n_bins) / fft_size)
    weights = ((1.0 + PREEMPHASIS ** 2 - 2.0 * PREEMPHASIS * cos)[:, None]
               * mel_filterbank(sample_rate, fft_size).T)
    lo, frac = warp_indices(spec, n_bins, "inverse")
    bank = np.zeros_like(weights)
    np.add.at(bank, lo, (1.0 - frac)[:, None] * weights)
    np.add.at(bank, lo + 1, frac[:, None] * weights)
    bank.flags.writeable = False
    return bank


def candidate_features(power: np.ndarray, sample_rate: int,
                       specs) -> np.ndarray:
    """(len(specs), frames, FEATURE_DIM) features of (frames, bins) STFT
    power restored by each candidate spec: one product per candidate
    with its `warped_filterbank`, each log floored relative to that
    candidate's loudest filter output (so gain only shifts c0)."""
    power = np.ascontiguousarray(power, dtype=np.float64)   # layout-free bits
    if power.ndim != 2 or power.shape[0] == 0 or power.shape[1] < 2:
        raise ValueError("need a (frames, bins) spectral array, bins >= 2")
    mel = power @ np.stack([warped_filterbank(spec, power.shape[1],
                                              sample_rate) for spec in specs])
    floor = np.maximum(mel.max(axis=(1, 2)) * 1e-12, 1e-300)
    ceps = np.log(np.maximum(mel, floor[:, None, None])) @ _DCT
    d1 = _delta(ceps)
    return np.concatenate([ceps, d1, _delta(d1)], axis=-1)


def features_from_magnitudes(magnitudes: np.ndarray,
                             sample_rate: int) -> np.ndarray:
    """`candidate_features` of the no-op on these magnitudes' power."""
    return candidate_features(np.square(magnitudes), sample_rate, (NO_OP,))[0]


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
    """Voice-activity-gated features of one utterance: the no-op candidate."""
    return features_from_magnitudes(active_magnitudes(buf), buf.sample_rate)


def pool(features: np.ndarray) -> np.ndarray:
    """Per-feature mean and std over the frame axis, -2, concatenated."""
    return np.concatenate([features.mean(axis=-2), features.std(axis=-2)],
                          axis=-1)


def embed(features: np.ndarray) -> Embedding:
    """Mean and standard deviation of each column of a (frames,
    FEATURE_DIM) feature array, concatenated."""
    if features.shape[1:] != (FEATURE_DIM,) or len(features) == 0:
        raise ValueError(f"features must be (frames >= 1, {FEATURE_DIM}), "
                         f"got {features.shape}")
    return Embedding(pool(features))


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
