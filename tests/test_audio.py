import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.io import wavfile

from helpers import dominant_freq, rel_rms, speechy, tone, white_noise
from voxrestore import (AudioBuffer, istft, load_wav, resample, save_wav,
                        stft, vad)
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
