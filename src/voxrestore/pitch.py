"""Fundamental frequency tracking via LPC inverse filtering and
normalized autocorrelation of the residual."""

from dataclasses import dataclass

import numpy as np

from .audio import HOP_MS, AudioBuffer, _frame_signal, frame_geometry

F0_MIN = 50.0
F0_MAX = 500.0
F0_RATE = 8000          # least rate of the decimated copy F0 is tracked on
LPC_ORDER = 12
VOICING_THRESHOLD = 0.3
PEAK_KEEP = 0.85        # keep peaks within this fraction of the best one
PITCH_WINDOW_MS = 40.0  # F0 frames, every audio.HOP_MS


class UnvoicedUtteranceError(ValueError):
    """Raised when an utterance has no voiced frames to average."""


@dataclass
class F0Track:
    """Per-frame pitch estimates, one per analysis frame: f0_hz is 0 on
    unvoiced frames and inside [F0_MIN, F0_MAX] on voiced ones."""

    f0_hz: np.ndarray

    def __post_init__(self):
        f0 = np.asarray(self.f0_hz, dtype=np.float64)
        if f0.ndim != 1:
            raise ValueError("f0_hz must be a 1-D array")
        if not np.all((f0 == 0.0) | ((f0 >= F0_MIN) & (f0 <= F0_MAX))):
            raise ValueError(f"f0 must be 0 (unvoiced) or within "
                             f"[{F0_MIN}, {F0_MAX}] Hz")
        self.f0_hz = f0

    @property
    def voiced(self) -> np.ndarray:
        return self.f0_hz > 0.0

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
    """F0 of each row of `frames`, 0 where unvoiced; a row whose power
    after DC removal is at most `floor` is unvoiced (see `estimate_f0`)."""
    n_frames, win = frames.shape
    f0 = np.zeros(n_frames)
    x = frames - frames.mean(axis=1, keepdims=True)
    power = np.mean(x * x, axis=1)
    rows = np.flatnonzero(power > floor)
    if rows.size == 0:
        return f0
    x, power = x[rows], power[rows]

    # whiten with an autocorrelation-method LPC inverse filter; the
    # lag-0 term gets a small ridge so the solve stays stable on
    # near-deterministic input, and the first LPC_ORDER output samples
    # are dropped to skip the filter start-up transient
    xw = x * frame_geometry(sr, PITCH_WINDOW_MS, HOP_MS)[3]
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
    # _LAG_OVERSAMPLE (entry m sits at lag m / os), the power spectrum P
    # zero-padded to os times its length: without it a fundamental whose
    # period falls between samples can lose almost 30% of its peak height
    # against an integer-period subharmonic. Entry os·q + p is entry q of
    # irfft(P·t_p, N), t_p[k] = exp(2πi·k·p / (os·N)), whose Nyquist term
    # is P[N/2]·cos(πp/os): phase 0 is the linear autocorrelation, and
    # phase os - p is phase p read backwards, the correlation being even.
    # Each lag is normalized by the energies of the two overlapped segments
    # (interpolated between integer lags): peak heights stay near 1.
    n = residual.shape[1]
    os = _LAG_OVERSAMPLE
    nfft = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(residual, nfft, axis=1)
    spec *= np.conj(spec)                              # P
    p = np.arange(os // 2 + 1)
    twist = np.exp(2j * np.pi * p[:, None] / os * np.fft.rfftfreq(nfft))
    twisted, phases = np.empty_like(spec), np.empty((p.size, rows.size, nfft))
    for i in range(p.size):
        np.fft.irfft(np.multiply(spec, twist[i], out=twisted), nfft, axis=1,
                     out=phases[i])
    corr = np.empty((os, rows.size, max_lag - min_lag + 1))   # phase, row, q
    corr[:p.size] = phases[:, :, min_lag:max_lag + 1]
    corr[p.size:] = phases[os // 2 - 1:0:-1, :, -1 - min_lag:-2 - max_lag:-1]
    del spec, twisted, phases         # back to the heap before normalizing
    # segment energies at integer lags min_lag .. max_lag + 1 (the last
    # one is only read at weight 0), interpolated onto the lag grid
    csum = np.cumsum(residual * residual, axis=1)
    lags = np.arange(min_lag, max_lag + 2)
    head = csum[:, n - 1 - lags]                     # energy of x[0 : n-k]
    tail = csum[:, -1:] - csum[:, lags - 1]          # energy of x[k : n]
    rise_h, rise_t = np.diff(head, axis=1), np.diff(tail, axis=1)
    for i in range(os):
        corr[i] /= np.sqrt((rise_h * (i / os) + head[:, :-1])
                           * (rise_t * (i / os) + tail[:, :-1]) + 1e-300)
    corr = np.moveaxis(corr, 0, 2).reshape(rows.size, -1)

    # pick the shortest-lag peak within PEAK_KEEP of the best one
    # (favoring the fundamental over its subharmonics), each peak
    # refined by parabolic interpolation before heights are compared
    last = os * (max_lag - min_lag)
    ym, y0, yp = corr[:, :last - 1], corr[:, 1:last], corr[:, 2:last + 1]
    peaks = np.flatnonzero((y0 > ym) & (y0 >= yp))   # in (rows, last - 1)
    at, col = np.divmod(peaks, last - 1)
    ym, y0, yp = corr[at, col], corr[at, col + 1], corr[at, col + 2]
    denom = ym - 2.0 * y0 + yp
    flat = np.abs(denom) < 1e-12
    shift = np.clip(0.5 * (ym - yp) / np.where(flat, 1.0, denom), -0.5, 0.5)
    shift[flat] = 0.0
    shifts = np.zeros((rows.size, last - 1))
    heights = np.full(shifts.shape, -np.inf)
    shifts.ravel()[peaks] = shift
    heights.ravel()[peaks] = y0 - 0.25 * (ym - yp) * shift
    best = heights.max(axis=1)
    j = np.argmax(heights >= PEAK_KEEP * best[:, None], axis=1)
    hz = sr * os / (os * min_lag + 1 + j + shifts[np.arange(rows.size), j])
    ok = (best >= VOICING_THRESHOLD) & (hz >= F0_MIN) & (hz <= F0_MAX)
    f0[rows[ok]] = hz[ok]
    return f0


def estimate_f0(buf: AudioBuffer) -> F0Track:
    """Track F0 between F0_MIN and F0_MAX Hz on PITCH_WINDOW_MS frames.

    Per frame: remove DC, whiten with an order-12 LPC inverse filter,
    then pick the shortest-lag autocorrelation peak of the residual
    whose height is within PEAK_KEEP of the strongest peak (favoring
    the fundamental over subharmonics), refined by parabolic
    interpolation. Frames whose best peak is below VOICING_THRESHOLD
    are unvoiced, and so are frames whose power after DC removal is at
    most 1e-18 of the squared peak sample. The samples are first scaled
    by the power of two that brings the peak into [0.5, 1), which is
    exact, so the track is invariant to signal gain down to subnormal
    levels. They are then decimated by q, the largest divisor of the
    rate that leaves at least F0_RATE, to their spectrum up to the new
    Nyquist (of whose bin irfft reads the real part); q = 1 leaves them
    as they are. Frames are analyzed in blocks of _BLOCK_FRAMES.
    """
    sr = buf.sample_rate
    q = next(d for d in range(max(sr // F0_RATE, 1), 0, -1) if sr % d == 0)
    sr //= q
    win, hop, _, _ = frame_geometry(sr, PITCH_WINDOW_MS, HOP_MS)
    min_lag = max(2, int(np.floor(sr / F0_MAX)))
    max_lag = int(np.ceil(sr / F0_MIN))
    if win - LPC_ORDER <= max_lag + 2:
        raise ValueError(f"window of {win} samples too short to resolve "
                         f"{F0_MIN} Hz at {sr} Hz")
    _frame_signal(buf.samples, q * win, q * hop)   # names the caller's length
    # `peak` is the scaled peak sample; it includes any DC, so the floor
    # stays above the rounding noise that removing a large DC leaves
    peak, exponent = np.frexp(np.max(np.abs(buf.samples)))
    x, m = np.ldexp(buf.samples, -exponent), buf.samples.size // q
    if q > 1:
        x = np.fft.irfft(np.fft.rfft(x[:q * m])[:m // 2 + 1], m) / q
    frames = _frame_signal(x, win, hop)
    floor = 1e-18 * peak ** 2
    return F0Track(np.concatenate([
        _track_frames(frames[i:i + _BLOCK_FRAMES], floor, sr, min_lag, max_lag)
        for i in range(0, frames.shape[0], _BLOCK_FRAMES)]))


def mean_f0(track: F0Track) -> float:
    """Average F0 over voiced frames only."""
    voiced_hz = track.f0_hz[track.voiced]
    if voiced_hz.size == 0:
        raise UnvoicedUtteranceError("unvoiced utterance: no voiced frames")
    return float(voiced_hz.mean())


def f0_ratio_alpha(f0_source: float, f0_disguised: float) -> float:
    """Semitone offset implied by two mean F0 values,
    12*log2(f0_disguised / f0_source)."""
    if not (np.isfinite(f0_source) and f0_source > 0):
        raise ValueError(f"source F0 must be positive, got {f0_source}")
    if not (np.isfinite(f0_disguised) and f0_disguised > 0):
        raise ValueError(f"disguised F0 must be positive, got {f0_disguised}")
    return float(12.0 * np.log2(f0_disguised / f0_source))
