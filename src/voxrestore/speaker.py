"""Cepstral features, statistics-pooling speaker embeddings, cosine
scoring, and sidecar files for embeddings computed elsewhere."""

import functools
import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

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
_BLOCK_CANDIDATES = 16   # candidates featurized together; bounds memory


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


def warped_filterbank(spec: DisguiseSpec, n_bins: int,
                      sample_rate: int) -> np.ndarray:
    """(N_MELS, n_bins) pre-emphasis and mel filterbank for power
    inverse-warped by `spec`: linear on power, the warp folds into the
    bank, as in filterbank-warped VTLN (Lee and Rose, 1998). Uncached;
    `filterbank_stack` caches the banks of each block of candidates."""
    fft_size = 2 * (n_bins - 1)
    # pre-emphasis, as the power response of a first-order difference
    cos = np.cos(2.0 * np.pi * np.arange(n_bins) / fft_size)
    weights = ((1.0 + PREEMPHASIS ** 2 - 2.0 * PREEMPHASIS * cos)
               * mel_filterbank(sample_rate, fft_size))
    lo, frac = warp_indices(spec, n_bins, "inverse")
    bank = np.zeros_like(weights)
    np.add.at(bank, (slice(None), lo), (1.0 - frac) * weights)
    np.add.at(bank, (slice(None), lo + 1), frac * weights)
    return bank


# 16 blocks of _BLOCK_CANDIDATES: up to 256 banks, 53 kB each at
# 16 kHz; a grid of more than 256 candidates cycles it
@functools.lru_cache(maxsize=16)
def filterbank_stack(specs: Tuple[DisguiseSpec, ...], n_bins: int,
                     sample_rate: int) -> np.ndarray:
    """(len(specs), N_MELS, n_bins) `warped_filterbank`s of a block of
    candidates, read-only; each block is built once."""
    stack = np.empty((len(specs), N_MELS, n_bins))
    for bank, spec in zip(stack, specs):
        bank[...] = warped_filterbank(spec, n_bins, sample_rate)
    stack.flags.writeable = False
    return stack


def workspace(frames: int, candidates: int) -> np.ndarray:
    """A flat buffer `candidate_features` fills for up to `candidates`
    candidates of up to `frames` frames, and fills again for the next."""
    return np.empty(4 * (frames + 2 * DELTA_SPAN) * candidates * N_CEPSTRA)


def candidate_features(power: np.ndarray, sample_rate: int, specs,
                       work: Optional[np.ndarray] = None) -> np.ndarray:
    """(3, frames, len(specs), N_CEPSTRA) statics, deltas and
    delta-deltas of (frames, bins) STFT power restored by each candidate
    spec, in `work` (a new `workspace` if None). The block takes one
    product of its `filterbank_stack` with the transposed power, which
    numpy runs as one product of one shape per candidate, so no
    candidate's bits depend on its batch; then a log floored at each
    candidate's own loudest filter output (so gain only shifts c0), and
    the DCT. Deltas regress over DELTA_SPAN frames each side, repeating
    the edges (Furui, 1986), on all candidates at once."""
    power = np.asarray(power, dtype=np.float64)
    if power.ndim != 2 or power.shape[0] == 0 or power.shape[1] < 2:
        raise ValueError("need a (frames, bins) spectral array, bins >= 2")
    n, bins = power.shape
    k, span = len(specs), DELTA_SPAN
    power_t = np.ascontiguousarray(power.T)   # layout-free bits
    if work is None:
        work = workspace(n, k)
    # frames span .. n + span - 1 of each section hold the features, the
    # rest repeat its edge frames; section 3 is scratch. The mel energies
    # fill sections 1 and on (N_MELS < 3 * N_CEPSTRA) until the DCT has
    # read them
    section = (n + 2 * span) * k * N_CEPSTRA
    feats = work[:4 * section].reshape(4, n + 2 * span, k, N_CEPSTRA)
    mel = work[section:section + k * N_MELS * n].reshape(k, N_MELS, n)
    np.matmul(filterbank_stack(tuple(specs), bins, sample_rate), power_t,
              out=mel)
    floor = np.maximum(mel.max(axis=(1, 2)) * 1e-12, 1e-300)
    np.log(np.maximum(mel, floor[:, None, None], out=mel), out=mel)
    np.matmul(mel.transpose(0, 2, 1), _DCT,
              out=feats[0, span:n + span].transpose(1, 0, 2))
    for i in (1, 2):
        src, out, tmp = feats[i - 1], feats[i, span:n + span], feats[3, :n]
        src[:span], src[n + span:] = src[span], src[n + span - 1]
        np.subtract(src[span + 1:n + span + 1], src[span - 1:n + span - 1],
                    out=out)
        for j in range(2, span + 1):
            np.subtract(src[span + j:n + span + j],
                        src[span - j:n + span - j], out=tmp)
            out += np.multiply(tmp, j, out=tmp)
        out /= 2.0 * sum(j * j for j in range(1, span + 1))
    return feats[:3, span:n + span]


def pool(features: np.ndarray) -> np.ndarray:
    """(k, EMBED_DIM) per-feature means and stds over the frame axis,
    concatenated, of k candidates' (3, frames, k, N_CEPSTRA) features,
    which it overwrites."""
    n, k = features.shape[1:3]
    mean = np.add.reduce(features, axis=1) / n
    dev = np.subtract(features, mean[:, None], out=features)
    std = np.sqrt(np.add.reduce(np.square(dev, out=dev), axis=1) / n)
    return np.concatenate([mean, std]).transpose(1, 0, 2).reshape(
        k, EMBED_DIM)


def candidate_embeddings(power: np.ndarray, sample_rate: int,
                         specs) -> np.ndarray:
    """(len(specs), EMBED_DIM) pooled `candidate_features` of (frames,
    bins) STFT power, _BLOCK_CANDIDATES candidates at a time in the
    order given, every block in one reused `workspace`."""
    out = np.empty((len(specs), EMBED_DIM))
    work = workspace(len(power), min(len(specs), _BLOCK_CANDIDATES))
    for i in range(0, len(specs), _BLOCK_CANDIDATES):
        out[i:i + _BLOCK_CANDIDATES] = pool(candidate_features(
            power, sample_rate, specs[i:i + _BLOCK_CANDIDATES], work))
    return out


def frames_major(features: np.ndarray) -> np.ndarray:
    """The one candidate of `candidate_features` as a (frames,
    FEATURE_DIM) array: statics, then deltas, then delta-deltas."""
    return features[:, :, 0].transpose(1, 0, 2).reshape(-1, FEATURE_DIM)


def features_from_magnitudes(magnitudes: np.ndarray,
                             sample_rate: int) -> np.ndarray:
    """`candidate_features` of the no-op on these magnitudes' power."""
    return frames_major(candidate_features(np.square(magnitudes),
                                           sample_rate, (NO_OP,)))


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


def embed(features: np.ndarray) -> Embedding:
    """Mean and standard deviation of each column of a (frames,
    FEATURE_DIM) feature array, concatenated, pooled as the embedding
    table pools `candidate_features`."""
    if features.shape[1:] != (FEATURE_DIM,) or len(features) == 0:
        raise ValueError(f"features must be (frames >= 1, {FEATURE_DIM}), "
                         f"got {features.shape}")
    rows = np.asarray(features, dtype=np.float64).reshape(
        len(features), 3, N_CEPSTRA).transpose(1, 0, 2).copy()
    return Embedding(pool(rows[:, :, None])[0])


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array."""
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


def cosine_distances(rows: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """1 - cos(row, ref), in [0, 2], for each row of `rows`: norms and
    one matrix-vector product with the same arithmetic for every row,
    so equal rows score equal, in any batch."""
    norms = _row_norms(rows) * _row_norms(ref[None])[0]
    if not norms.all():
        raise ValueError("cannot score a zero-norm embedding")
    return 1.0 - np.clip(np.einsum("ij,j->i", rows, ref) / norms, -1.0, 1.0)


def distance(a: Embedding, b: Embedding) -> float:
    """Cosine distance, 1 - cos(a, b), in [0, 2]. Lower is more similar."""
    if a.dim != b.dim:
        raise ValueError(f"embedding dims differ: {a.dim} vs {b.dim}")
    return float(cosine_distances(b.vector[None], a.vector)[0])


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
            vector = table[utt].vector
            fh.write(("%s" + " %.17g" * vector.size + "\n")
                     % (utt, *vector.tolist()))
