"""Fundamental frequency tracking via LPC inverse filtering and
normalized autocorrelation of the residual."""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_toeplitz
from scipy.signal import lfilter

from .audio import AudioBuffer, FrameParams, _frame_signal

F0_MIN = 50.0
F0_MAX = 500.0
LPC_ORDER = 12
VOICING_THRESHOLD = 0.3
PEAK_KEEP = 0.85        # keep peaks within this fraction of the best one

PITCH_FRAME = FrameParams(window_ms=40.0, hop_ms=15.0)


class UnvoicedUtteranceError(ValueError):
    """Raised when an utterance has no voiced frames to average."""


@dataclass
class F0Track:
    """Per-frame pitch estimates with a voicing mask.

    f0_hz is 0 on unvoiced frames and inside [F0_MIN, F0_MAX] on voiced
    ones; both arrays share one entry per analysis frame.
    """

    f0_hz: np.ndarray
    voiced: np.ndarray

    def __post_init__(self):
        f0 = np.asarray(self.f0_hz, dtype=np.float64)
        v = np.asarray(self.voiced, dtype=bool)
        if f0.shape != v.shape or f0.ndim != 1:
            raise ValueError("f0_hz and voiced must be equal-length 1-D arrays")
        if np.any(f0[~v] != 0.0):
            raise ValueError("unvoiced frames must carry f0 = 0")
        if v.any():
            voiced_f0 = f0[v]
            if np.any(voiced_f0 < F0_MIN) or np.any(voiced_f0 > F0_MAX):
                raise ValueError("voiced f0 outside the tracking band")
        self.f0_hz = f0
        self.voiced = v

    @property
    def n_frames(self) -> int:
        return self.f0_hz.size


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
    """Track F0 between F0_MIN and F0_MAX Hz on PITCH_FRAME frames.

    Per frame: remove DC, whiten with an order-12 LPC inverse filter,
    then pick the shortest-lag autocorrelation peak of the residual
    whose height is within PEAK_KEEP of the strongest peak (favoring
    the fundamental over subharmonics), refined by parabolic
    interpolation. Frames whose best peak is below VOICING_THRESHOLD
    are unvoiced. The decision is invariant to signal gain.
    """
    sr = buf.sample_rate
    win = PITCH_FRAME.window_length(sr)
    hop = PITCH_FRAME.hop_length(sr)
    min_lag = max(2, int(np.floor(sr / F0_MAX)))
    max_lag = int(np.ceil(sr / F0_MIN))
    if win - LPC_ORDER <= max_lag + 2:
        raise ValueError(
            f"window of {win} samples too short to resolve {F0_MIN} Hz "
            f"at {sr} Hz")
    frames = _frame_signal(buf.samples, win, hop)
    f0 = np.zeros(frames.shape[0])
    voiced = np.zeros(frames.shape[0], dtype=bool)
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
            voiced[i] = True
    return F0Track(f0, voiced)


def mean_f0(track: F0Track) -> float:
    """Average F0 over voiced frames only."""
    if not track.voiced.any():
        raise UnvoicedUtteranceError("unvoiced utterance: no voiced frames")
    return float(track.f0_hz[track.voiced].mean())


def f0_ratio_alpha(f0_source: float, f0_disguised: float) -> float:
    """Semitone offset implied by two mean F0 values,
    12*log2(f0_disguised / f0_source)."""
    if not (np.isfinite(f0_source) and f0_source > 0):
        raise ValueError(f"source F0 must be positive, got {f0_source}")
    if not (np.isfinite(f0_disguised) and f0_disguised > 0):
        raise ValueError(f"disguised F0 must be positive, got {f0_disguised}")
    return float(12.0 * np.log2(f0_disguised / f0_source))
