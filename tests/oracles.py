"""Reference implementations kept as oracles for the vectorized kernels.

`resample` is the direct Kaiser-windowed sinc resampler, which evaluates
the kernel for every tap of every output sample; `estimate_f0` is the
frame-by-frame F0 tracker, fed by `band_limit`, a full-rate low-pass
read every q-th sample in place of the tracker's short inverse
transform; `RestorationContext.features` is the candidate path that
warped each candidate's STFT magnitudes before the mel filterbank;
`candidate_features`, `pool` and `distance` are the power-domain
candidate path that stacked the filterbanks of a block of candidates
into one product, took deltas along its middle axis and scored one pair
of embeddings at a time; `istft` overlap-adds one frame at a time;
`formant_cascade` and `resonator` are the corpus synthesizer's `lfilter`
chain; `load_wav` reads through `scipy.io.wavfile`; `write_embeddings`
formats a sidecar one float at a time. All but `band_limit` are the
library's earlier bodies, kept verbatim (save the tracker's Nyquist bin,
now halved) with their helpers (the unchanged framing, warping, gating
and filterbank helpers are imported; `_delta` is the later, batched form
of the same arithmetic), so the table-driven resampler, the
frame-batched tracker, the power-domain warped filterbank, the candidate
kernel and its matrix-vector scoring, the block-wise overlap-add, the
spectral all-pole filter, the numpy RIFF reader and the row-at-a-time
sidecar writer can be checked against them.
"""

import os

import numpy as np
from scipy.fft import dct, fft, ifft
from scipy.io import wavfile
from scipy.linalg import solve_toeplitz
from scipy.signal import lfilter

from voxrestore import AudioBuffer, DisguiseFamily, DisguiseSpec
from voxrestore.audio import HOP_MS, WINDOW_MS, _frame_signal, frame_geometry
from voxrestore.disguise import warp_bins
from voxrestore.pitch import (F0_MAX, F0_MIN, F0_RATE, LPC_ORDER, PEAK_KEEP,
                              PITCH_WINDOW_MS, VOICING_THRESHOLD, F0Track)
from voxrestore.speaker import (_DCT, DELTA_SPAN, N_CEPSTRA, PREEMPHASIS,
                                Embedding, active_magnitudes, mel_filterbank,
                                warped_filterbank)


def resample(buf: AudioBuffer, ratio: float) -> AudioBuffer:
    """Band-limited resampling by an arbitrary rate ratio.

    ratio > 1 shortens the signal (reads faster), ratio < 1 stretches
    it. The sample rate of the result is unchanged, so all content
    moves up or down in frequency by `ratio`. Uses a Kaiser-windowed
    sinc kernel with the cutoff lowered for downward shifts to prevent
    aliasing. ratio == 1 returns the samples untouched.
    """
    if not np.isfinite(ratio) or not (0.1 <= ratio <= 10.0):
        raise ValueError(f"resampling ratio {ratio} out of supported range")
    x = buf.samples
    if ratio == 1.0:
        return AudioBuffer(x.copy(), buf.sample_rate)
    n_out = max(1, int(round(x.size / ratio)))
    fc = min(1.0, 1.0 / ratio)          # anti-alias cutoff, Nyquist = 1
    half = int(np.ceil(16.0 / fc))      # taps per side, widened when fc < 1
    beta = 8.0
    i0_beta = np.i0(beta)
    offsets = np.arange(-half + 1, half + 1, dtype=np.float64)
    out = np.empty(n_out)
    block = 1 << 16
    for start in range(0, n_out, block):
        stop = min(start + block, n_out)
        pos = np.arange(start, stop, dtype=np.float64) * ratio
        base = np.floor(pos).astype(np.int64)
        frac = pos - base
        t = offsets[None, :] - frac[:, None]
        u = t / half
        kb = np.where(np.abs(u) <= 1.0,
                      np.i0(beta * np.sqrt(np.maximum(0.0, 1.0 - u * u))),
                      0.0) / i0_beta
        h = fc * np.sinc(fc * t) * kb
        h /= h.sum(axis=1, keepdims=True)
        idx = base[:, None] + offsets.astype(np.int64)[None, :]
        valid = (idx >= 0) & (idx < x.size)
        gathered = x[np.clip(idx, 0, x.size - 1)] * valid
        out[start:stop] = (h * gathered).sum(axis=1)
    return AudioBuffer(out, buf.sample_rate)


def _lpc_residual(frame: np.ndarray, order: int) -> np.ndarray:
    """Whiten a frame with an autocorrelation-method LPC inverse filter.

    The lag-0 term gets a small ridge so the solve stays stable on
    near-deterministic input (a pure sinusoid would otherwise be
    cancelled down to numerical noise). The first `order` output
    samples are dropped to skip the filter start-up transient.
    """
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame.size) / frame.size)
    xw = frame * w
    full = np.correlate(xw, xw, mode="full")
    r = full[frame.size - 1:frame.size + order]
    r0 = r[0] * (1.0 + 1e-4)
    coeffs = solve_toeplitz((np.concatenate(([r0], r[1:order])),
                             np.concatenate(([r0], r[1:order]))), r[1:])
    inverse = np.concatenate(([1.0], -coeffs))
    return lfilter(inverse, [1.0], frame)[order:]


_LAG_OVERSAMPLE = 4


def _nccf(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Normalized cross-correlation of a signal with itself on a lag
    grid oversampled by _LAG_OVERSAMPLE (so entry m sits at lag
    m / _LAG_OVERSAMPLE samples).

    The correlation itself is band-limited, so evaluating it between
    integer lags via frequency-domain zero padding is exact; without
    it a fundamental whose period falls between samples can lose
    almost 30% of its peak height against an integer-period
    subharmonic. Each lag is normalized by the energies of the two
    overlapped segments (interpolated between integer lags), which
    keeps peak heights near 1 regardless of amplitude."""
    n = x.size
    os = _LAG_OVERSAMPLE
    nfft = 1
    while nfft < 2 * n:
        nfft *= 2
    spec = np.fft.rfft(x, nfft)
    power = spec * np.conj(spec)
    power[-1] *= 0.5        # Nyquist, half at each of ±nfft/2 once padded
    raw = os * np.fft.irfft(power, os * nfft)[:os * max_lag + 1]
    csum = np.cumsum(x * x)
    total = csum[-1]
    lags = np.arange(max_lag + 1)
    head = csum[n - 1 - lags]                      # energy of x[0 : n-k]
    tail = total - np.concatenate(([0.0], csum[:max_lag]))
    frac = np.arange(os * max_lag + 1) / os
    norm = np.interp(frac, lags, head) * np.interp(frac, lags, tail)
    return raw / np.sqrt(norm + 1e-300)


def band_limit(buf: AudioBuffer) -> AudioBuffer:
    """`buf` decimated by q, the largest divisor of its rate that leaves
    at least F0_RATE: the first q·m samples (m = len // q) through an
    ideal circular low-pass, at full weight below the new Nyquist m / 2
    and half weight at ±m / 2, then read every q-th sample. q = 1
    returns `buf` itself."""
    sr = buf.sample_rate
    q = max(d for d in range(1, max(sr // F0_RATE, 1) + 1) if sr % d == 0)
    if q == 1:
        return buf
    m = buf.samples.size // q
    spec = fft(buf.samples[:q * m])
    k = np.abs(np.fft.fftfreq(q * m, 1.0 / (q * m)))     # |bin index|
    spec *= np.where(k < m / 2, 1.0, np.where(k == m / 2, 0.5, 0.0))
    return AudioBuffer(ifft(spec).real[::q], sr // q)


def estimate_f0(buf: AudioBuffer) -> F0Track:
    """Track F0 between F0_MIN and F0_MAX Hz on PITCH_WINDOW_MS frames.

    Per frame: remove DC, whiten with an order-12 LPC inverse filter,
    then pick the shortest-lag autocorrelation peak of the residual
    whose height is within PEAK_KEEP of the strongest peak (favoring
    the fundamental over subharmonics), refined by parabolic
    interpolation. Frames whose best peak is below VOICING_THRESHOLD
    are unvoiced. The decision is invariant to signal gain.
    """
    sr = buf.sample_rate
    win = int(round(PITCH_WINDOW_MS * sr / 1000.0))
    hop = int(round(HOP_MS * sr / 1000.0))
    # a peak needs a grid point below it, so search from one lag below
    min_lag = max(2, int(np.floor(sr / F0_MAX))) - 1
    max_lag = int(np.ceil(sr / F0_MIN))
    if win - LPC_ORDER <= max_lag + 2:
        raise ValueError(
            f"window of {win} samples too short to resolve {F0_MIN} Hz "
            f"at {sr} Hz")
    frames = _frame_signal(buf.samples, win, hop)
    f0 = np.zeros(frames.shape[0])
    for i, frame in enumerate(frames):
        frame = frame - frame.mean()
        power = np.mean(frame * frame)
        if power < 1e-18:
            continue
        residual = _lpc_residual(frame, LPC_ORDER)
        # a near-deterministic frame (e.g. a pure tone) is cancelled by
        # LPC down to numerical noise; correlate the frame itself then
        if np.sqrt(np.mean(residual * residual)) < 1e-2 * np.sqrt(power):
            residual = frame[LPC_ORDER:]
        corr = _nccf(residual, max_lag)
        os = _LAG_OVERSAMPLE
        lo, hi = os * min_lag, os * max_lag
        seg = corr[lo:hi + 1]
        interior = (seg[1:-1] > seg[:-2]) & (seg[1:-1] >= seg[2:])
        peak_idx = np.flatnonzero(interior) + 1 + lo
        if peak_idx.size == 0:
            continue
        # refine each candidate by parabolic interpolation, then compare
        # refined heights; the shortest candidate near the best wins,
        # favoring the fundamental over its subharmonics
        ym, y0, yp = corr[peak_idx - 1], corr[peak_idx], corr[peak_idx + 1]
        denom = ym - 2.0 * y0 + yp
        with np.errstate(divide="ignore", invalid="ignore"):
            shifts = np.where(np.abs(denom) < 1e-12, 0.0,
                              0.5 * (ym - yp) / denom)
        shifts = np.clip(shifts, -0.5, 0.5)
        heights = y0 - 0.25 * (ym - yp) * shifts
        best = np.max(heights)
        if best < VOICING_THRESHOLD:
            continue
        j = int(np.flatnonzero(heights >= PEAK_KEEP * best)[0])
        hz = sr * os / (peak_idx[j] + shifts[j])
        if F0_MIN <= hz <= F0_MAX:
            f0[i] = hz
    return F0Track(f0)


def _preemphasis(n_bins: int, fft_size: int) -> np.ndarray:
    """Power response of first-order pre-emphasis at each FFT bin."""
    omega = 2.0 * np.pi * np.arange(n_bins) / fft_size
    return 1.0 + PREEMPHASIS ** 2 - 2.0 * PREEMPHASIS * np.cos(omega)


def _delta(c: np.ndarray, span: int = DELTA_SPAN) -> np.ndarray:
    """Deltas along the frame axis, -2, repeating the edge frames."""
    n = c.shape[-2]
    padded = np.concatenate([c[..., :1, :]] * span + [c]
                            + [c[..., -1:, :]] * span, axis=-2)
    num = sum(j * (padded[..., span + j:n + span + j, :]
                   - padded[..., span - j:n + span - j, :])
              for j in range(1, span + 1))
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
                                              sample_rate).T for spec in specs])
    floor = np.maximum(mel.max(axis=(1, 2)) * 1e-12, 1e-300)
    ceps = np.log(np.maximum(mel, floor[:, None, None])) @ _DCT
    d1 = _delta(ceps)
    return np.concatenate([ceps, d1, _delta(d1)], axis=-1)


def pool(features: np.ndarray) -> np.ndarray:
    """Per-feature mean and std over the frame axis, -2, concatenated."""
    return np.concatenate([features.mean(axis=-2), features.std(axis=-2)],
                          axis=-1)


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


def istft(spectrum: np.ndarray, sample_rate: int) -> AudioBuffer:
    """Weighted overlap-add inverse of `stft` at `sample_rate`, one
    frame at a time."""
    win, hop, nfft, w = frame_geometry(sample_rate, WINDOW_MS, HOP_MS)
    frames = np.fft.irfft(spectrum, n=nfft, axis=1)[:, :win]
    n_out = (len(frames) - 1) * hop + win
    y = np.zeros(n_out)
    den = np.zeros(n_out)
    for i, frame in enumerate(frames):
        start = i * hop
        y[start:start + win] += frame * w
        den[start:start + win] += w * w
    # normalize only where the window sum carries real weight; at the
    # extreme edges the raw tapered sum is kept, avoiding huge gains
    good = den > 1e-3 * den.max()
    y[good] /= den[good]
    return AudioBuffer(y, sample_rate)


class RestorationContext:
    """VAD-active STFT magnitudes and geometry of one utterance,
    computed once and shared by all its candidates."""

    def __init__(self, disguised: AudioBuffer):
        self.sample_rate = disguised.sample_rate
        self.active = active_magnitudes(disguised)

    def features(self, alpha: float, family: DisguiseFamily) -> np.ndarray:
        mags = warp_bins(self.active, DisguiseSpec(family, alpha), "inverse")
        return features_from_magnitudes(mags, self.sample_rate)


def resonator(x: np.ndarray, freq: float, bandwidth: float,
              sample_rate: int) -> np.ndarray:
    freq = min(freq, 0.45 * sample_rate)   # keep poles below Nyquist
    r = np.exp(-np.pi * bandwidth / sample_rate)
    theta = 2.0 * np.pi * freq / sample_rate
    return lfilter([1.0], [1.0, -2.0 * r * np.cos(theta), r * r], x)


def formant_cascade(excitation: np.ndarray, formants, bandwidths,
                    sample_rate: int) -> np.ndarray:
    """The voiced chain: the glottal tilt, then one resonator per
    formant."""
    x = lfilter([1.0], [1.0, -0.95], excitation)   # glottal spectral tilt
    for freq, bw in zip(formants, bandwidths):
        x = resonator(x, freq, bw, sample_rate)
    return x


def load_wav(path) -> AudioBuffer:
    """Read a WAV file as a mono float64 AudioBuffer.

    Integer PCM is scaled by the type's full-scale positive range
    (e.g. int16 by 32768); float data is taken as-is. Multi-channel
    input is averaged down to mono after scaling.
    """
    try:
        sr, data = wavfile.read(os.fspath(path))
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise ValueError(f"cannot read WAV file {path}: {exc}") from exc
    if data.size == 0:
        raise ValueError(f"WAV file {path} contains no samples")
    if data.dtype == np.int16:
        x = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        x = data.astype(np.float64) / 2147483648.0
    elif data.dtype == np.uint8:
        x = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype in (np.float32, np.float64):
        x = data.astype(np.float64)
    else:
        raise ValueError(f"unsupported WAV sample format {data.dtype}")
    if x.ndim == 2:
        x = x.mean(axis=1)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"WAV file {path} contains non-finite samples")
    return AudioBuffer(x, int(sr))


def write_embeddings(path, table) -> None:
    """Write embeddings in the sidecar format `load_external_embeddings`
    reads, one line per utterance, ids sorted."""
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        for utt in sorted(table):
            comps = " ".join(format(v, ".17g") for v in table[utt].vector)
            fh.write(f"{utt} {comps}\n")
