import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.io import wavfile

import oracles
from helpers import dominant_freq, rel_rms, speechy, tone, white_noise
from voxrestore import (AudioBuffer, istft, load_wav, resample, save_wav,
                        stft, vad)
from voxrestore import audio
from voxrestore.audio import HOP_MS, WINDOW_MS, frame_geometry
from voxrestore.pitch import PITCH_WINDOW_MS

SR = 16000


# ---------------------------------------------------------------------------
# containers


def test_audio_buffer_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        AudioBuffer(np.zeros((10, 2)), SR)
    with pytest.raises(ValueError):
        AudioBuffer(np.array([]), SR)
    with pytest.raises(ValueError):
        AudioBuffer(np.array([0.0, np.nan]), SR)
    with pytest.raises(ValueError):
        AudioBuffer(np.zeros(10), 0)


def test_audio_buffer_duration():
    buf = AudioBuffer(np.zeros(8000), SR)
    assert len(buf) == 8000
    assert len(buf) / buf.sample_rate == 0.5


def test_istft_validation():
    spectrum = np.ones((4, 257), dtype=complex)
    istft(spectrum, SR)   # 512-point fft at 16 kHz
    with pytest.raises(ValueError, match="not \\(frames, 257\\)"):
        istft(np.ones((4, 100), dtype=complex), SR)
    with pytest.raises(ValueError, match="not \\(frames, 129\\)"):
        istft(spectrum, 8000)
    with pytest.raises(ValueError, match="not \\(frames, 257\\)"):
        istft(np.ones(257, dtype=complex), SR)
    for bad in (np.inf, np.nan, complex(0.0, np.inf)):
        spectrum[1, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            istft(spectrum, SR)


def test_frame_geometry():
    win, hop, nfft, hann = frame_geometry(SR, WINDOW_MS, HOP_MS)
    assert (win, hop, nfft) == (400, 240, 512)
    assert frame_geometry(SR, PITCH_WINDOW_MS, HOP_MS)[:3] == (640, 240, 1024)
    # periodic Hann: zero at n = 0, one at n = win / 2, symmetric about it
    assert hann.shape == (win,)
    assert hann[0] == 0.0 and hann[win // 2] == 1.0
    np.testing.assert_allclose(hann[1:], hann[1:][::-1], atol=1e-15)
    assert frame_geometry(SR, WINDOW_MS, HOP_MS)[3] is hann   # built once
    with pytest.raises(ValueError):
        hann[0] = 1.0


# ---------------------------------------------------------------------------
# WAV I/O


def test_wav_pcm16_round_trip(tmp_path):
    buf = tone(1000.0)
    path = tmp_path / "t.wav"
    save_wav(path, buf)
    back = load_wav(path)
    assert back.sample_rate == SR
    assert len(back) == len(buf)
    assert np.max(np.abs(back.samples - buf.samples)) <= 1.0 / 32768.0


def test_wav_float32_round_trip(tmp_path):
    buf = white_noise(0.25)
    path = tmp_path / "t.wav"
    wavfile.write(path, SR, buf.samples.astype(np.float32))
    back = load_wav(path)
    assert np.max(np.abs(back.samples - buf.samples)) <= 1e-7


def test_wav_int16_full_scale_normalization(tmp_path):
    path = tmp_path / "t.wav"
    wavfile.write(path, SR, np.array([32767, -32768, 0], dtype=np.int16))
    back = load_wav(path)
    assert back.samples[0] == pytest.approx(32767.0 / 32768.0)
    assert back.samples[1] == pytest.approx(-1.0)
    assert back.samples[2] == 0.0


def test_wav_header_passthrough(tmp_path):
    path = tmp_path / "t.wav"
    wavfile.write(path, SR, np.zeros(16000, dtype=np.int16))
    back = load_wav(path)
    assert len(back) == 16000 and back.sample_rate == 16000


def test_wav_stereo_downmix(tmp_path):
    path = tmp_path / "t.wav"
    frames = np.array([[0.5, -0.5], [0.5, 0.1]], dtype=np.float32)
    wavfile.write(path, SR, frames)
    back = load_wav(path)
    assert back.samples[0] == pytest.approx(0.0)
    assert back.samples[1] == pytest.approx(0.3, abs=1e-7)


def test_save_wav_requires_parent_dir(tmp_path):
    target = tmp_path / "missing" / "t.wav"
    with pytest.raises(FileNotFoundError):
        save_wav(target, tone(440.0, 0.1))
    assert not target.exists()


def test_save_wav_rejects_nan(tmp_path):
    buf = tone(440.0, 0.1)
    buf.samples[5] = np.nan   # injected after construction
    target = tmp_path / "t.wav"
    with pytest.raises(ValueError):
        save_wav(target, buf)
    assert not target.exists()


def test_load_wav_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_wav(tmp_path / "nope.wav")


def test_load_wav_rejects_non_wav(tmp_path):
    path = tmp_path / "t.wav"
    path.write_text("not a riff container")
    with pytest.raises(ValueError):
        load_wav(path)


def test_load_wav_names_a_file_with_non_finite_samples(tmp_path):
    path = tmp_path / "nan.wav"
    wavfile.write(path, SR, np.array([0.0, np.nan, 0.5], dtype=np.float32))
    with pytest.raises(ValueError) as exc:
        load_wav(path)
    assert str(exc.value) == f"WAV file {path} contains non-finite samples"


# the tail every standard sub-format GUID of an extensible header ends in
GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def riff(tag, channels, bits, payload, sub_tag=None, data_first=False,
         data_size=None):
    """A hand-built WAV file: a `fmt ` chunk, extensible when `sub_tag`
    is given, and `payload` as the `data` chunk, whose header claims
    `data_size` bytes when given."""
    align = channels * bits // 8
    fmt = struct.pack("<HHIIHH", tag, channels, SR, SR * align, align, bits)
    if sub_tag is not None:
        fmt += struct.pack("<HHII", 22, bits, 0, sub_tag) + GUID_TAIL
    size = len(payload) if data_size is None else data_size
    chunks = [b"fmt " + struct.pack("<I", len(fmt)) + fmt,
              b"data" + struct.pack("<I", size) + payload]
    if data_first:
        chunks.reverse()
    return wave(b"".join(chunks))


def wave(chunks):
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def assert_reads_as_scipy(path):
    new, old = load_wav(path), oracles.load_wav(path)
    assert new.sample_rate == old.sample_rate
    assert np.array_equal(new.samples, old.samples)


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("dtype", ["uint8", "int16", "int32", "float32",
                                   "float64"])
def test_load_wav_reads_what_scipy_writes(tmp_path, dtype, channels):
    rng = np.random.default_rng(channels)
    if dtype.startswith("float"):
        data = rng.uniform(-1.0, 1.0, (101, channels)).astype(dtype)
    else:
        info = np.iinfo(dtype)
        data = rng.integers(info.min, info.max, (101, channels),
                            endpoint=True).astype(dtype)
    path = tmp_path / "t.wav"
    wavfile.write(path, 22050, data[:, 0] if channels == 1 else data)
    assert_reads_as_scipy(path)


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("extensible", [False, True])
def test_load_wav_reads_24_bit_pcm(tmp_path, channels, extensible):
    raw = np.random.default_rng(3).integers(0, 256, 3 * 57 * channels,
                                            dtype=np.uint8)
    path = tmp_path / "t.wav"
    path.write_bytes(riff(0xFFFE if extensible else 1, channels, 24,
                          raw.tobytes(), sub_tag=1 if extensible else None))
    assert_reads_as_scipy(path)
    # little-endian signed 24-bit integers over 2^23
    b = raw.reshape(-1, 3).astype(np.int64)
    ints = b[:, 0] | b[:, 1] << 8 | b[:, 2] << 16
    ints = np.where(ints >= 1 << 23, ints - (1 << 24), ints)
    want = (ints / 2.0 ** 23).reshape(-1, channels).mean(axis=1)
    assert np.array_equal(load_wav(path).samples, want)


@pytest.mark.parametrize("sub_tag,bits,dtype", [
    (1, 8, "uint8"), (1, 16, "int16"), (1, 32, "int32"),
    (3, 32, "float32"), (3, 64, "float64")])
def test_load_wav_resolves_extensible_headers(tmp_path, sub_tag, bits, dtype):
    x = np.random.default_rng(bits).uniform(-1.0, 1.0, 80)
    data = (x * 100 + (128 if dtype == "uint8" else 0)).astype(dtype)
    path = tmp_path / "t.wav"
    path.write_bytes(riff(0xFFFE, 2, bits, data.tobytes(), sub_tag=sub_tag))
    assert_reads_as_scipy(path)
    assert len(load_wav(path)) == 40


@pytest.mark.parametrize("rate", [8000, 16000, 22050, 44100])
@pytest.mark.parametrize("n", [1, 777, 1600])
def test_save_wav_writes_what_scipy_writes(tmp_path, rate, n):
    buf = AudioBuffer(np.random.default_rng(n).uniform(-1.1, 1.1, n), rate)
    save_wav(tmp_path / "ours.wav", buf)
    pcm = np.clip(np.rint(buf.samples * 32768.0), -32768, 32767)
    wavfile.write(tmp_path / "scipy.wav", rate, pcm.astype(np.int16))
    ours = (tmp_path / "ours.wav").read_bytes()
    assert len(ours) == 44 + 2 * n
    assert ours == (tmp_path / "scipy.wav").read_bytes()


def test_load_wav_skips_odd_chunks_and_reads_the_first_fmt_and_data(
        tmp_path):
    samples = np.array([1000, -2000, 3000], dtype="<i2")
    pcm = riff(1, 1, 16, samples.tobytes())
    other = riff(3, 2, 64, bytes(32))
    odd = b"LIST" + struct.pack("<I", 3) + b"abc\0"     # padded to even
    path = tmp_path / "t.wav"
    path.write_bytes(wave(odd + pcm[12:]))
    assert_reads_as_scipy(path)
    # a second fmt chunk before the data, a second data chunk after it
    path.write_bytes(wave(odd + pcm[12:36] + other[12:36] + pcm[36:]
                          + other[36:]))
    back = load_wav(path)
    assert back.sample_rate == SR
    assert np.array_equal(back.samples, samples / 32768.0)


def test_load_wav_rejects_a_truncated_data_chunk(tmp_path):
    path = tmp_path / "cut.wav"
    save_wav(path, tone(440.0, 100 / SR))
    whole = path.read_bytes()
    assert len(whole) == 244
    path.write_bytes(whole[:94])
    with pytest.raises(ValueError) as exc:
        load_wav(path)
    assert str(exc.value) == (f"cannot read WAV file {path}: "
                              "data chunk has 50 of 200 bytes")


def test_load_wav_names_a_file_whose_header_gives_a_rate_of_0(tmp_path):
    path = tmp_path / "rate0.wav"
    blob = bytearray(riff(1, 1, 16, bytes(20)))
    blob[24:32] = bytes(8)              # sample rate and byte rate
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError) as exc:
        load_wav(path)
    assert str(exc.value) == (f"cannot read WAV file {path}: "
                              "sample rate must be positive, got 0")


def test_load_wav_names_a_file_with_no_samples(tmp_path):
    path = tmp_path / "empty.wav"
    path.write_bytes(riff(1, 2, 16, bytes(2)))     # half of one frame
    with pytest.raises(ValueError) as exc:
        load_wav(path)
    assert str(exc.value) == f"WAV file {path} contains no samples"


def test_load_wav_rejects_data_before_fmt(tmp_path):
    path = tmp_path / "t.wav"
    path.write_bytes(riff(1, 1, 16, bytes(20), data_first=True))
    with pytest.raises(ValueError, match="data chunk comes before") as exc:
        load_wav(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("blob", [
    b"RIFX" + bytes(40),                    # big-endian RIFF
    b"RIFF" + bytes(4) + b"AVI " + bytes(32),
    b"RIFF",
    riff(1, 1, 16, bytes(20))[:36],        # fmt but no data chunk
    wave(b"fmt " + struct.pack("<I", 14) + bytes(14)   # short fmt
         + b"data" + struct.pack("<I", 4) + bytes(4))])
def test_load_wav_rejects_what_is_not_a_wave_file(tmp_path, blob):
    path = tmp_path / "t.wav"
    path.write_bytes(blob)
    with pytest.raises(ValueError, match="cannot read WAV file") as exc:
        load_wav(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("tag,bits,sub_tag", [
    (2, 4, None),          # Microsoft ADPCM
    (6, 8, None),          # A-law
    (3, 16, None),         # 16-bit float
    (1, 64, None),         # 64-bit integer PCM
    (0xFFFE, 16, 2),       # extensible over ADPCM
])
def test_load_wav_rejects_unsupported_formats(tmp_path, tag, bits, sub_tag):
    path = tmp_path / "t.wav"
    path.write_bytes(riff(tag, 1, bits, bytes(64), sub_tag=sub_tag))
    with pytest.raises(ValueError, match="unsupported format") as exc:
        load_wav(path)
    assert str(path) in str(exc.value)


def test_load_wav_rejects_an_extensible_header_of_unknown_guid(tmp_path):
    path = tmp_path / "t.wav"
    blob = bytearray(riff(0xFFFE, 1, 16, bytes(64), sub_tag=1))
    blob[-64 - 8 - 1] ^= 0xFF          # last byte of the GUID
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="unsupported format 0xfffe"):
        load_wav(path)


# ---------------------------------------------------------------------------
# STFT / inverse


def test_stft_frame_count_one_second():
    spec = stft(tone(440.0, 1.0))
    # 1 + (16000 - 400) // 240
    assert spec.shape == (66, 257)
    assert np.iscomplexobj(spec)


def test_stft_tone_peaks_at_expected_bin():
    spec = stft(tone(1000.0))
    expected = round(1000 * 512 / SR)
    assert np.all(np.argmax(np.abs(spec), axis=1) == expected)


def test_stft_zero_signal():
    spec = stft(AudioBuffer(np.zeros(SR), SR))
    assert np.all(spec == 0.0)


def test_stft_too_short():
    with pytest.raises(ValueError):
        stft(AudioBuffer(np.zeros(100), SR))


def test_istft_round_trip_interior():
    x = white_noise(1.0, seed=11)
    y = istft(stft(x), SR)
    half = frame_geometry(SR, WINDOW_MS, HOP_MS)[0] // 2
    assert rel_rms(x.samples, y.samples, trim=half) <= 1e-6


def test_istft_zero_spectrogram():
    spec = stft(AudioBuffer(np.zeros(SR), SR))
    assert np.all(istft(spec, SR).samples == 0.0)


# ---------------------------------------------------------------------------
# resampling


def test_resample_identity_is_exact():
    x = white_noise(0.3, seed=2)
    y = resample(x, 1.0)
    assert np.array_equal(x.samples, y.samples)
    assert y.sample_rate == x.sample_rate


@pytest.mark.parametrize("ratio,expected", [
    (2.0, 400.0),
    (0.5, 100.0),
    (2.0 ** (4.0 / 12.0), 200.0 * 2.0 ** (4.0 / 12.0)),
])
def test_resample_frequency_law(ratio, expected):
    out = resample(tone(200.0), ratio)
    assert dominant_freq(out) == pytest.approx(expected, rel=0.01)


@pytest.mark.parametrize("ratio", [0.25, 0.8, 1.5, 3.0])
def test_resample_length_law(ratio):
    n = 16000
    out = resample(AudioBuffer(np.zeros(n), SR), ratio)
    assert len(out) == round(n / ratio)


def test_resample_ratio_bounds():
    x = tone(200.0, 0.2)
    for bad in (0.05, 11.0, 0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            resample(x, bad)
    # the documented extremes still work
    assert len(resample(x, 0.1)) == round(len(x) / 0.1)
    assert len(resample(x, 10.0)) == round(len(x) / 10.0)


@pytest.mark.parametrize("block", [1 << 10, 1 << 15, 1 << 19])
def test_resample_block_size_changes_no_sample(monkeypatch, block):
    # each output sample is computed alone, so the block size that
    # bounds the temporaries cannot change a value
    x = white_noise(0.5, seed=7)
    want = {ratio: resample(x, ratio).samples
            for ratio in (0.3, 0.8, 2.0 ** (-5 / 12), 1.26, 2.0, 3.7)}
    monkeypatch.setattr(audio, "_BLOCK_ELEMENTS", block)
    for ratio, samples in want.items():
        assert np.array_equal(resample(x, ratio).samples, samples)


# ---------------------------------------------------------------------------
# voice activity


def test_vad_silence_is_all_inactive():
    assert not vad(AudioBuffer(np.zeros(SR), SR)).any()


def test_vad_steady_sine_is_all_active():
    assert vad(tone(220.0, 1.0, amp=0.9)).all()


def test_vad_half_sine_boundary():
    t = np.arange(SR) / SR
    x = np.where(t < 0.5, 0.4 * np.sin(2.0 * np.pi * 220.0 * t), 0.0)
    mask = vad(AudioBuffer(x, SR))
    win, hop = 400, 240
    # frames overlapping the sine half by any amount stay above the
    # -40 dB gate; the rest are digital silence
    last_overlap = (8000 - 1) // hop
    covered = np.zeros(mask.size, dtype=bool)
    covered[:last_overlap + 1] = True
    assert np.sum(mask != covered) <= 1


@settings(max_examples=25, deadline=None)
@given(gain=st.floats(min_value=1e-3, max_value=1e3,
                      allow_nan=False, allow_infinity=False))
def test_vad_gain_invariance(gain):
    x = speechy(0.5)
    scaled = AudioBuffer(x.samples * gain, SR)
    assert np.array_equal(vad(x), vad(scaled))
