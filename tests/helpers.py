"""Shared signal builders and an FFT-peak frequency oracle.

Everything here is deliberately independent of the library's own
analysis code so tests measure against a second implementation.
"""

import numpy as np
from scipy.signal import lfilter

from voxrestore import AudioBuffer, CorpusConfig

SR = 16000

# the configuration of the shared `corpus_small` fixture
SMALL_CORPUS = CorpusConfig(n_speakers=4, utts_per_speaker=2, duration_s=1.0)


def tone(freq: float, duration: float = 1.0, sr: int = SR,
         amp: float = 0.4) -> AudioBuffer:
    t = np.arange(int(round(duration * sr))) / sr
    return AudioBuffer(amp * np.sin(2.0 * np.pi * freq * t), sr)


def bl_sawtooth(freq: float, duration: float = 1.0, sr: int = SR,
                amp: float = 0.4) -> AudioBuffer:
    """Sawtooth built from harmonics kept below 0.45 x Nyquist, so it
    stays clean under resampling by up to half an octave."""
    t = np.arange(int(round(duration * sr))) / sr
    x = np.zeros_like(t)
    k = 1
    while k * freq < 0.45 * sr / 2.0:
        x += np.sin(2.0 * np.pi * k * freq * t) / k
        k += 1
    return AudioBuffer(amp * x / np.max(np.abs(x)), sr)


def white_noise(duration: float = 1.0, sr: int = SR, seed: int = 0,
                amp: float = 0.3) -> AudioBuffer:
    rng = np.random.default_rng(seed)
    return AudioBuffer(amp * rng.standard_normal(int(round(duration * sr))),
                       sr)


def speechy(duration: float = 1.0, sr: int = SR, seed: int = 3) -> AudioBuffer:
    """A vowel-like signal: harmonic-rich source shaped by two
    resonances plus a whisper of noise. Enough structure for feature
    tests without pulling in the corpus module."""
    rng = np.random.default_rng(seed)
    x = bl_sawtooth(140.0, duration, sr, amp=1.0).samples
    for freq, bw in ((700.0, 120.0), (2200.0, 180.0)):
        r = np.exp(-np.pi * bw / sr)
        th = 2.0 * np.pi * freq / sr
        x = lfilter([1.0], [1.0, -2.0 * r * np.cos(th), r * r], x)
    x = x + rng.standard_normal(x.size) * np.sqrt(np.mean(x * x)) * 0.002
    return AudioBuffer(0.4 * x / np.max(np.abs(x)), sr)


def dominant_freq(buf: AudioBuffer, lo: float = 0.0,
                  hi: float = None) -> float:
    """Frequency of the strongest spectral peak, by zero-padded FFT and
    parabolic refinement. Independent of the library's pitch tracker."""
    x = buf.samples * np.hanning(len(buf.samples))
    nfft = 1 << (int(len(x)).bit_length() + 2)
    mag = np.abs(np.fft.rfft(x, nfft))
    freqs = np.arange(mag.size) * buf.sample_rate / nfft
    if hi is None:
        hi = buf.sample_rate / 2.0
    band = np.flatnonzero((freqs >= lo) & (freqs <= hi))
    k = band[np.argmax(mag[band])]
    if 0 < k < mag.size - 1:
        ym, y0, yp = mag[k - 1], mag[k], mag[k + 1]
        den = ym - 2.0 * y0 + yp
        if abs(den) > 1e-30:
            k = k + 0.5 * (ym - yp) / den
    return float(k * buf.sample_rate / nfft)


def rel_rms(a: np.ndarray, b: np.ndarray, trim: int = 0) -> float:
    """Relative RMS error between two equal-length signals, optionally
    ignoring `trim` samples at each end."""
    n = min(a.size, b.size)
    a = a[trim:n - trim] if trim else a[:n]
    b = b[trim:n - trim] if trim else b[:n]
    return float(np.linalg.norm(a - b) / np.linalg.norm(a))
