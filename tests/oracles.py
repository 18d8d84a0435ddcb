"""Reference implementations kept as oracles for the vectorized kernels.

`resample` is the direct Kaiser-windowed sinc resampler, which evaluates
the kernel for every tap of every output sample; `estimate_f0` is the
frame-by-frame F0 tracker. Both are the library's earlier bodies, kept
verbatim with their helpers (the unchanged framing helper is imported),
so the table-driven resampler and the frame-batched tracker can be
checked against them.
"""

import numpy as np
from scipy.linalg import solve_toeplitz
from scipy.signal import lfilter

from voxrestore import AudioBuffer
from voxrestore.audio import HOP_MS, _frame_signal
from voxrestore.pitch import (F0_MAX, F0_MIN, LPC_ORDER, PEAK_KEEP,
                              PITCH_WINDOW_MS, VOICING_THRESHOLD, F0Track)


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
    raw = os * np.fft.irfft(power, os * nfft)[:os * max_lag + 1]
    csum = np.cumsum(x * x)
    total = csum[-1]
    lags = np.arange(max_lag + 1)
    head = csum[n - 1 - lags]                      # energy of x[0 : n-k]
    tail = total - np.concatenate(([0.0], csum[:max_lag]))
    frac = np.arange(os * max_lag + 1) / os
    norm = np.interp(frac, lags, head) * np.interp(frac, lags, tail)
    return raw / np.sqrt(norm + 1e-300)


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
    min_lag = max(2, int(np.floor(sr / F0_MAX)))
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
