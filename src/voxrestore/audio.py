"""Core audio containers, WAV I/O, STFT analysis/synthesis, resampling and VAD."""

import functools
import os
import struct
from dataclasses import dataclass

import numpy as np


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


# RIFF format tags, and the fixed tail of an extensible sub-format GUID
_PCM, _FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _riff_chunks(path) -> tuple:
    """The first `fmt ` fields (extensible tags resolved) and `data`."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE file")
    pos, fmt = 12, None
    while pos + 8 <= len(blob):
        chunk, size = struct.unpack_from("<4sI", blob, pos)
        body = blob[pos + 8:pos + 8 + size]
        if chunk == b"fmt " and fmt is None and len(body) >= 16:
            fmt = list(struct.unpack_from("<HHIIHH", body))
            if fmt[0] == _EXTENSIBLE and body[28:40] == _GUID_TAIL:
                fmt[0] = struct.unpack_from("<I", body, 24)[0]
        elif chunk == b"data":
            if fmt is None:
                raise ValueError("data chunk comes before a fmt chunk")
            if len(body) < size:
                raise ValueError(f"data chunk has {len(body)} of {size} bytes")
            return fmt, body
        pos += 8 + size + size % 2     # chunks are padded to even sizes
    raise ValueError("no data chunk")


def load_wav(path) -> AudioBuffer:
    """Read a WAV file as a mono float64 AudioBuffer.

    Integer PCM in 1- to 4-byte containers (8-bit unsigned) is scaled
    by its full-scale positive range (e.g. int16 by 32768); IEEE float
    at 32 or 64 bits is taken as-is; extensible headers are resolved.
    Multi-channel input is averaged down to mono after scaling. Other
    formats and malformed files raise ValueError naming the file.
    """
    try:
        (tag, channels, sr, _, align, bits), body = _riff_chunks(path)
        width = align // channels if channels else 0
        if not ((tag == _PCM and 1 <= width <= 4) or
                (tag == _FLOAT and bits in (32, 64) and 8 * width == bits)):
            raise ValueError(f"unsupported format {tag:#x} at {bits} bits")
        if sr == 0:
            raise ValueError("sample rate must be positive, got 0")
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read WAV file {path}: {exc}") from exc
    n = len(body) // (width * channels) * channels
    if n == 0:
        raise ValueError(f"WAV file {path} contains no samples")
    if tag == _FLOAT:
        x = np.frombuffer(body, f"<f{width}", n).astype(np.float64)
    elif width == 3:   # no 3-byte integer type: left-justify into int32
        x = np.pad(np.frombuffer(body, np.uint8, 3 * n).reshape(n, 3),
                   ((0, 0), (1, 0))).view("<i4")[:, 0] / 2147483648.0
    else:              # 8-bit PCM is unsigned, centred on 128
        ints = np.frombuffer(body, {1: "u1", 2: "<i2", 4: "<i4"}[width], n)
        x = (ints - 128.0 * (width == 1)) / 2.0 ** (8 * width - 1)
    if channels > 1:
        x = x.reshape(-1, channels).mean(axis=1)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"WAV file {path} contains non-finite samples")
    return AudioBuffer(x, int(sr))


def save_wav(path, buf: AudioBuffer) -> None:
    """Write an AudioBuffer to disk as a PCM16 WAV (a 44-byte header).

    Refuses non-finite data and missing parent directories before
    touching the filesystem, so a failed call leaves no partial file.
    """
    if not np.all(np.isfinite(buf.samples)):
        raise ValueError("refusing to write non-finite samples")
    parent = os.path.dirname(os.path.abspath(os.fspath(path)))
    if not os.path.isdir(parent):
        raise FileNotFoundError(f"directory does not exist: {parent}")
    q = np.rint(buf.samples * 32768.0)
    data = np.clip(q, -32768, 32767).astype("<i2").tobytes()
    with open(path, "wb") as f:
        f.write(struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data),
                            b"WAVE", b"fmt ", 16, _PCM, 1, buf.sample_rate,
                            2 * buf.sample_rate, 2, 16, b"data", len(data)))
        f.write(data)


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
    n_frames = len(spectrum)
    n_out = (n_frames - 1) * hop + win
    # frame i's block b lands on output block i + b; adding each block
    # position over all frames, last block first, sums every sample's
    # frames in ascending order
    blocks = -(-win // hop)
    frames = np.zeros((n_frames, blocks * hop))
    frames[:, :win] = np.fft.irfft(spectrum, n=nfft, axis=1)[:, :win] * w
    weight = np.zeros(blocks * hop)
    weight[:win] = w * w
    y = np.zeros((n_frames + blocks - 1, hop))
    den = np.zeros_like(y)
    for b in reversed(range(blocks)):
        y[b:b + n_frames] += frames[:, b * hop:(b + 1) * hop]
        den[b:b + n_frames] += weight[b * hop:(b + 1) * hop]
    y, den = y.ravel()[:n_out], den.ravel()[:n_out]
    # normalize only where the window sum carries real weight; at the
    # extreme edges the raw tapered sum is kept, avoiding huge gains
    good = den > 1e-3 * den.max()
    y[good] /= den[good]
    return AudioBuffer(y, sample_rate)


# fractional offsets tabulated per kernel; output rows x taps per block
# (256 kB of float64 per temporary, so the temporaries stay in cache and
# are reused rather than freshly mapped on every block)
_PHASES = 1024
_BLOCK_ELEMENTS = 1 << 15


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
    normalized to unit sum per output sample, which by linearity is
    (lo + (hi - lo)·w) / (S[p] + (S[p+1] - S[p])·w) for the window's dot
    products lo, hi with rows p, p + 1 and the row sums S. The signal is
    zero beyond its ends. Against the kernel evaluated exactly, the
    output moves by under 1e-6 of full scale on full-band noise and by
    about 1e-8 on voices. ratio == 1 returns the samples untouched.
    """
    if not np.isfinite(ratio) or not (0.1 <= ratio <= 10.0):
        raise ValueError(f"resampling ratio {ratio} out of supported range")
    x = buf.samples
    if ratio == 1.0:
        return AudioBuffer(x.copy(), buf.sample_rate)
    n_out = max(1, int(round(x.size / ratio)))
    fc = min(1.0, 1.0 / ratio)          # anti-alias cutoff, Nyquist = 1
    table = _kernel_table(fc)
    taps, sums = table.shape[1], table.sum(axis=1)
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
        w = phase - row
        win = windows[base + 1]
        lo = np.einsum("ij,ij->i", table[row], win)
        hi = np.einsum("ij,ij->i", table[row + 1], win)
        out[start:stop] = ((lo + (hi - lo) * w)
                           / (sums[row] + (sums[row + 1] - sums[row]) * w))
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
