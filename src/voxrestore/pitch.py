"""Fundamental frequency tracking via LPC inverse filtering and
normalized autocorrelation of the residual."""

from dataclasses import dataclass

import numpy as np

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


_LAG_OVERSAMPLE = 4
_BLOCK_FRAMES = 128     # frames analyzed together; bounds the NCCF buffers


def _levinson(r: np.ndarray) -> np.ndarray:
    """Levinson-Durbin recursion on each row of `r` (lags 0..p):
    predictor coefficients a_1..a_p solving the Toeplitz normal
    equations. Rows need r[:, 0] > 0."""
    p = r.shape[1] - 1
    a = np.zeros((r.shape[0], p))
    err = r[:, 0].copy()
    for k in range(p):
        acc = r[:, k + 1] - np.einsum("ij,ij->i", a[:, :k], r[:, k:0:-1])
        refl = acc / err
        a[:, :k] -= refl[:, None] * a[:, :k][:, ::-1]
        a[:, k] = refl
        err *= 1.0 - refl * refl
    return a


def _track_frames(frames: np.ndarray, floor: float, sr: int, min_lag: int,
                  max_lag: int):
    """F0 and voicing of each row of `frames`; a row whose power after
    DC removal is at most `floor` is unvoiced (see `estimate_f0`)."""
    n_frames, win = frames.shape
    f0 = np.zeros(n_frames)
    voiced = np.zeros(n_frames, dtype=bool)
    x = frames - frames.mean(axis=1, keepdims=True)
    power = np.mean(x * x, axis=1)
    rows = np.flatnonzero(power > floor)
    if rows.size == 0:
        return f0, voiced
    x, power = x[rows], power[rows]

    # whiten with an autocorrelation-method LPC inverse filter; the
    # lag-0 term gets a small ridge so the solve stays stable on
    # near-deterministic input, and the first LPC_ORDER output samples
    # are dropped to skip the filter start-up transient
    xw = x * PITCH_FRAME.window_array(sr)
    r = np.stack([np.einsum("ij,ij->i", xw[:, :win - k], xw[:, k:])
                  for k in range(LPC_ORDER + 1)], axis=1)
    r[:, 0] *= 1.0 + 1e-4
    inverse = np.concatenate((-_levinson(r)[:, ::-1],
                              np.ones((rows.size, 1))), axis=1)
    residual = np.einsum("ink,ik->in", np.lib.stride_tricks
                         .sliding_window_view(x, LPC_ORDER + 1, axis=1),
                         inverse)
    # a near-deterministic frame (e.g. a pure tone) is cancelled by LPC
    # down to numerical noise; correlate the frame itself then
    cancelled = (np.sqrt(np.mean(residual * residual, axis=1))
                 < 1e-2 * np.sqrt(power))
    residual[cancelled] = x[cancelled, LPC_ORDER:]

    # normalized cross-correlation on a lag grid oversampled by
    # _LAG_OVERSAMPLE (entry m sits at lag m / _LAG_OVERSAMPLE). The
    # correlation is band-limited, so zero padding in frequency
    # evaluates it exactly between integer lags; without it a
    # fundamental whose period falls between samples can lose almost
    # 30% of its peak height against an integer-period subharmonic.
    # Each lag is normalized by the energies of the two overlapped
    # segments (interpolated between integer lags), which keeps peak
    # heights near 1 regardless of amplitude.
    n = residual.shape[1]
    os = _LAG_OVERSAMPLE
    nfft = 1
    while nfft < 2 * n:
        nfft *= 2
    spec = np.fft.rfft(residual, nfft, axis=1)
    corr = os * np.fft.irfft(spec * np.conj(spec), os * nfft,
                             axis=1)[:, :os * max_lag + 1]
    # segment energies at integer lags 0 .. max_lag + 1 (the last one is
    # only read at weight 0), interpolated onto the oversampled grid
    csum = np.cumsum(residual * residual, axis=1)
    head = csum[:, n - 1 - np.arange(max_lag + 2)]   # energy of x[0 : n-k]
    tail = csum[:, -1:] - np.concatenate(
        (np.zeros((rows.size, 1)), csum[:, :max_lag + 1]), axis=1)

    def interp(v):
        step = np.diff(v, axis=1)[:, :, None] * (np.arange(os) / os)
        fine = (step + v[:, :-1, None]).reshape(len(v), -1)
        return fine[:, :os * max_lag + 1]

    corr /= np.sqrt(interp(head) * interp(tail) + 1e-300)

    # pick the shortest-lag peak within PEAK_KEEP of the best one
    # (favoring the fundamental over its subharmonics), each peak
    # refined by parabolic interpolation before heights are compared
    first, last = os * min_lag, os * max_lag
    ym = corr[:, first:last - 1]
    y0 = corr[:, first + 1:last]
    yp = corr[:, first + 2:last + 1]
    peak = (y0 > ym) & (y0 >= yp)
    denom = ym - 2.0 * y0 + yp
    flat = np.abs(denom) < 1e-12
    shifts = np.clip(0.5 * (ym - yp) / np.where(flat, 1.0, denom), -0.5, 0.5)
    shifts[flat] = 0.0
    heights = np.where(peak, y0 - 0.25 * (ym - yp) * shifts, -np.inf)
    best = heights.max(axis=1)
    j = np.argmax(heights >= PEAK_KEEP * best[:, None], axis=1)
    hz = sr * os / (first + 1 + j + shifts[np.arange(rows.size), j])
    ok = (best >= VOICING_THRESHOLD) & (hz >= F0_MIN) & (hz <= F0_MAX)
    f0[rows[ok]] = hz[ok]
    voiced[rows[ok]] = True
    return f0, voiced


def estimate_f0(buf: AudioBuffer) -> F0Track:
    """Track F0 between F0_MIN and F0_MAX Hz on PITCH_FRAME frames.

    Per frame: remove DC, whiten with an order-12 LPC inverse filter,
    then pick the shortest-lag autocorrelation peak of the residual
    whose height is within PEAK_KEEP of the strongest peak (favoring
    the fundamental over subharmonics), refined by parabolic
    interpolation. Frames whose best peak is below VOICING_THRESHOLD
    are unvoiced, and so are frames whose power after DC removal is at
    most 1e-18 of the squared peak sample, so the decision is invariant
    to signal gain. Frames are analyzed together, in blocks of
    _BLOCK_FRAMES.
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
    # the peak includes any DC, so the floor stays above the rounding
    # noise that removing a large DC leaves
    floor = 1e-18 * np.max(np.abs(buf.samples)) ** 2
    tracks = [_track_frames(frames[i:i + _BLOCK_FRAMES], floor, sr, min_lag,
                            max_lag)
              for i in range(0, frames.shape[0], _BLOCK_FRAMES)]
    return F0Track(np.concatenate([f for f, _ in tracks]),
                   np.concatenate([v for _, v in tracks]))


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
