"""
A tour of the disguise families and their inverses
==================================================

Builds one synthetic vowel, measures how each disguise family moves its
fundamental and its spectral envelope, then undoes each disguise with
the known parameter and checks how close the features come back to the
original.
"""

import numpy as np

from voxrestore import (DisguiseSpec, disguise, distance, embed,
                        estimate_f0, mean_f0, mfcc, restore_with,
                        semitone_to_scale)
from voxrestore.audio import AudioBuffer

SR = 16000


def vowel(f0=140.0, seconds=1.5):
    # band-limited sawtooth through two fixed resonances, a crude but
    # honest stand-in for a vowel
    t = np.arange(int(seconds * SR)) / SR
    x = np.zeros(t.size)
    k = 1
    while k * f0 < 4000.0:
        x += np.sin(2 * np.pi * k * f0 * t) / k
        k += 1
    for freq, bw in ((650.0, 90.0), (1900.0, 140.0)):
        x = resonate(x, freq, bw)
    return AudioBuffer(0.3 * x / np.max(np.abs(x)), SR)


def resonate(x, freq, bw):
    # two-pole resonator y[n] = x[n] + a1 * y[n-1] - a2 * y[n-2]
    r = np.exp(-np.pi * bw / SR)
    a1, a2 = 2 * r * np.cos(2 * np.pi * freq / SR), r * r
    y = [0.0, 0.0]
    for v in x.tolist():
        y.append(v + a1 * y[-1] - a2 * y[-2])
    return np.array(y[2:])


def spectral_peak(buf, lo=1500.0):
    # strongest component above `lo`, to watch the envelope move
    mag = np.abs(np.fft.rfft(buf.samples * np.hanning(len(buf))))
    freqs = np.arange(mag.size) * buf.sample_rate / (2 * (mag.size - 1))
    sel = freqs >= lo
    return freqs[sel][np.argmax(mag[sel])]


x = vowel()
f0_ref = mean_f0(estimate_f0(x))
print(f"vowel: {len(x)} samples, mean F0 {f0_ref:.1f} Hz, "
      f"upper spectral peak {spectral_peak(x):.0f} Hz")

# Pitch disguise by resampling obeys an exact law: alpha semitones of
# offset scale the fundamental by 2^(alpha/12).
print()
print("pitch-time resampling law")
for alpha in (-6, -3, 3, 6):
    y = disguise(x, DisguiseSpec("pitch-time", float(alpha)))
    ratio = mean_f0(estimate_f0(y)) / f0_ref
    print(f"  alpha {alpha:+d}: measured F0 ratio {ratio:.4f}, "
          f"ideal {semitone_to_scale(alpha):.4f}")

# Resampling is also exactly invertible in the waveform domain: negate
# the offset and the samples line up again.
spec = DisguiseSpec("pitch-time", 6.0)
z = disguise(disguise(x, spec), DisguiseSpec(spec.family, -spec.param))
n = min(len(x), len(z))
err = np.sqrt(np.mean((z.samples[:n] - x.samples[:n]) ** 2))
rms = np.sqrt(np.mean(x.samples[:n] ** 2))
print(f"  waveform round trip at alpha +6: residual "
      f"{20 * np.log10(err / rms):.0f} dB below signal")

# The other families reshape the magnitude spectrogram, so their
# fingerprint lives in the envelope and the features rather than in
# sample-exact waveforms. Undoing them means applying the family's
# frequency map in the opposite direction and comparing features.
print()
print("feature distance to the original (cosine, lower is closer)")
ref = embed(mfcc(x))
tour = [
    DisguiseSpec("pitch-freq", 6.0),
    DisguiseSpec("pitch-time", 6.0),
    DisguiseSpec("vtln-bilinear", 0.2),
    DisguiseSpec("vtln-quadratic", 1.6),
    DisguiseSpec("vtln-power", 0.35),
    DisguiseSpec("vtln-piecewise", 1.3),
]
for spec in tour:
    y = disguise(x, spec)
    d_disg = distance(embed(mfcc(y)), ref)
    d_rest = distance(embed(restore_with(y, spec.param, spec.family)), ref)
    print(f"  {spec.spec_string():20s} peak {spectral_peak(y):5.0f} Hz   "
          f"disguised {d_disg:.4f}   restored {d_rest:.4f}   "
          f"({d_disg / d_rest:4.1f}x closer)")

print()
print("every family pushes the voice away from itself; undoing the warp")
print("with the true parameter brings most of the distance back")
