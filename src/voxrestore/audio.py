"""Core audio containers, WAV I/O, STFT analysis/synthesis, resampling and VAD."""

import functools
import os
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile


@dataclass
class AudioBuffer:
    """A mono floating-point signal with its sample rate.

    Samples live in (nominally) [-1, 1] as float64. Values slightly
    outside are tolerated; NaN/inf are not.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        a = np.asarray(self.samples, dtype=np.float64)
        if a.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {a.shape}")
        if a.size == 0:
            raise ValueError("empty audio buffer")
        if not np.all(np.isfinite(a)):
            raise ValueError("audio contains non-finite samples")
        if int(self.sample_rate) <= 0:
            raise ValueError(f"sample rate must be positive, got {self.sample_rate}")
        self.samples = a
        self.sample_rate = int(self.sample_rate)

    def __len__(self) -> int:
        return self.samples.size


# the spectral analysis frame of every STFT, VAD decision and feature
WINDOW_MS = 25.0
HOP_MS = 15.0
VAD_THRESHOLD_DB = 40.0


@functools.lru_cache(maxsize=8)
def frame_geometry(sample_rate: int, window_ms: float, hop_ms: float):
    """(window, hop, fft size, Hann window) of a frame at `sample_rate`:
    the window and hop in samples, the next power of two at or above
    the window, and the read-only periodic Hann window, built once."""
    win = int(round(window_ms * sample_rate / 1000.0))
    hop = int(round(hop_ms * sample_rate / 1000.0))
    nfft = 1
    while nfft < win:
        nfft *= 2
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win) / win)
    hann.flags.writeable = False
    return win, hop, nfft, hann


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


def save_wav(path, buf: AudioBuffer) -> None:
    """Write an AudioBuffer to disk as a PCM16 WAV.

    Refuses non-finite data and missing parent directories before
    touching the filesystem, so a failed call leaves no partial file.
    """
    if not np.all(np.isfinite(buf.samples)):
        raise ValueError("refusing to write non-finite samples")
    parent = os.path.dirname(os.path.abspath(os.fspath(path)))
    if not os.path.isdir(parent):
        raise FileNotFoundError(f"directory does not exist: {parent}")
    q = np.rint(buf.samples * 32768.0)
    data = np.clip(q, -32768, 32767).astype(np.int16)
    wavfile.write(os.fspath(path), buf.sample_rate, data)


def _frame_signal(x: np.ndarray, win: int, hop: int) -> np.ndarray:
    if x.size < win:
        raise ValueError(
            f"signal of {x.size} samples is shorter than one "
            f"{win}-sample analysis window")
    n_frames = 1 + (x.size - win) // hop
    view = np.lib.stride_tricks.sliding_window_view(x, win)[::hop]
    return view[:n_frames]


def stft(buf: AudioBuffer) -> np.ndarray:
    """Windowed short-time Fourier analysis with WINDOW_MS Hann frames
    every HOP_MS: the complex (frames, nfft // 2 + 1) spectrum.

    Frames start at multiples of the hop; a trailing partial window is
    dropped rather than padded, so n_frames = 1 + (len - win) // hop.
    """
    win, hop, nfft, w = frame_geometry(buf.sample_rate, WINDOW_MS, HOP_MS)
    return np.fft.rfft(_frame_signal(buf.samples, win, hop) * w, n=nfft,
                       axis=1)


def istft(spectrum: np.ndarray, sample_rate: int) -> AudioBuffer:
    """Weighted overlap-add inverse of `stft` at `sample_rate`.

    Each synthesized frame is re-windowed and the sum is normalized by
    the accumulated squared window, which makes interior samples exact
    for any window/hop combination.
    """
    win, hop, nfft, w = frame_geometry(sample_rate, WINDOW_MS, HOP_MS)
    if spectrum.ndim != 2 or spectrum.shape[1] != nfft // 2 + 1:
        raise ValueError(f"spectrum of shape {spectrum.shape} is not (frames, "
                         f"{nfft // 2 + 1}) as at {sample_rate} Hz")
    if not np.all(np.isfinite(spectrum)):
        raise ValueError("spectrum contains non-finite values")
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


# fractional offsets tabulated per kernel; output rows x taps per block
# (4 MB of float64 per temporary)
_PHASES = 1024
_BLOCK_ELEMENTS = 1 << 19


@functools.lru_cache(maxsize=32)
def _kernel_table(fc: float) -> np.ndarray:
    """Read-only Kaiser-windowed sinc kernel with cutoff `fc` (Nyquist
    = 1), tabulated at _PHASES + 1 evenly spaced fractional offsets.

    Row p holds the 2 * half taps at offsets -half + 1 .. half for an
    output sample p / _PHASES of the way past its base input sample,
    with half = ceil(16 / fc). Built once per cutoff.
    """
    half = int(np.ceil(16.0 / fc))
    offsets = np.arange(-half + 1, half + 1, dtype=np.float64)
    t = offsets[None, :] - np.arange(_PHASES + 1)[:, None] / _PHASES
    table = _kaiser_sinc(t, fc, half)
    table.flags.writeable = False
    return table


def _kaiser_sinc(t: np.ndarray, fc: float, half: int) -> np.ndarray:
    """fc * sinc(fc * t) * I0(beta * sqrt(1 - (t / half)^2)) / I0(beta)
    with beta = 8, zero for |t| > half."""
    beta = 8.0
    u = t / half
    kb = np.where(np.abs(u) <= 1.0,
                  np.i0(beta * np.sqrt(np.maximum(0.0, 1.0 - u * u))),
                  0.0) / np.i0(beta)
    return fc * np.sinc(fc * t) * kb


def resample(buf: AudioBuffer, ratio: float) -> AudioBuffer:
    """Band-limited resampling by an arbitrary rate ratio.

    ratio > 1 shortens the signal (reads faster), ratio < 1 stretches
    it. The sample rate of the result is unchanged, so all content
    moves up or down in frequency by `ratio`. Uses a Kaiser-windowed
    sinc kernel with the cutoff lowered for downward shifts to prevent
    aliasing, read from a cached polyphase table (`_kernel_table`) by
    linear interpolation between its two nearest fractional offsets and
    normalized to unit sum per output sample; the signal is zero beyond
    its ends. Against the kernel evaluated exactly, the output moves by
    under 1e-6 of full scale on full-band noise and by about 1e-8 on
    voices. ratio == 1 returns the samples untouched.
    """
    if not np.isfinite(ratio) or not (0.1 <= ratio <= 10.0):
        raise ValueError(f"resampling ratio {ratio} out of supported range")
    x = buf.samples
    if ratio == 1.0:
        return AudioBuffer(x.copy(), buf.sample_rate)
    n_out = max(1, int(round(x.size / ratio)))
    fc = min(1.0, 1.0 / ratio)          # anti-alias cutoff, Nyquist = 1
    table = _kernel_table(fc)
    taps = table.shape[1]
    half = taps // 2
    # windows[b + 1] holds x[b - half + 1 .. b + half], zero off the ends
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(x, half), taps)
    out = np.empty(n_out)
    block = max(1, _BLOCK_ELEMENTS // taps)
    for start in range(0, n_out, block):
        stop = min(start + block, n_out)
        pos = np.arange(start, stop, dtype=np.float64) * ratio
        base = np.floor(pos).astype(np.int64)
        phase = (pos - base) * _PHASES
        row = phase.astype(np.int64)
        w = (phase - row)[:, None]
        h = table[row] * (1.0 - w) + table[row + 1] * w
        h /= h.sum(axis=1, keepdims=True)
        out[start:stop] = np.einsum("ij,ij->i", h, windows[base + 1])
    return AudioBuffer(out, buf.sample_rate)


def vad(buf: AudioBuffer) -> np.ndarray:
    """Frame-level energy gate.

    A frame is active when its mean-square energy is within
    VAD_THRESHOLD_DB of the loudest frame in the utterance, which makes
    the decision invariant to overall gain. All-silent input yields an
    all-False mask. The framing matches `stft` exactly.
    """
    win, hop, _, _ = frame_geometry(buf.sample_rate, WINDOW_MS, HOP_MS)
    frames = _frame_signal(buf.samples, win, hop)
    energy = np.mean(frames * frames, axis=1)
    peak = energy.max()
    if peak <= 0.0:
        return np.zeros(energy.size, dtype=bool)
    return energy > peak * (10.0 ** (-VAD_THRESHOLD_DB / 10.0))
