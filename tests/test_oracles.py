"""The table-driven resampler, the frame-batched F0 tracker, the
power-domain candidate features, the candidate kernel and its scoring,
the block-wise overlap-add, the corpus synthesizer's all-pole filter
and the sidecar writer against their direct forms in `oracles.py`."""

import importlib
import warnings
from unittest import mock

import numpy as np
import pytest

import oracles
from helpers import SR, speechy, tone, white_noise
from voxrestore import (AudioBuffer, DisguiseFamily, DisguiseSpec,
                        default_grid, disguise, embed, estimate_f0, mfcc,
                        resample, restore_with, semitone_to_scale)

audio = importlib.import_module("voxrestore.audio")
evaluate = importlib.import_module("voxrestore.evaluate")
pitch = importlib.import_module("voxrestore.pitch")
restore = importlib.import_module("voxrestore.restore")
speaker = importlib.import_module("voxrestore.speaker")

PITCH_TIME_RATIOS = [semitone_to_scale(spec.param)
                     for spec in default_grid("pitch-time")]


def _first_utterance(corpus):
    return next(iter(corpus.utterances.values()))


def _gapped(buf: AudioBuffer) -> AudioBuffer:
    """`buf` with its middle third zeroed, so frames there are skipped
    between voiced ones."""
    x = buf.samples.copy()
    x[x.size // 3:2 * x.size // 3] = 0.0
    return AudioBuffer(x, buf.sample_rate)


# ---------------------------------------------------------------------------
# resampler


@pytest.mark.parametrize("ratio", PITCH_TIME_RATIOS + [0.1, 10.0],
                         ids=lambda r: f"{r:.4f}")
def test_resample_matches_direct_kernel(corpus_small, ratio):
    for buf in (white_noise(0.5, seed=7), tone(200.0, 0.5),
                _first_utterance(corpus_small)):
        got = resample(buf, ratio).samples
        want = oracles.resample(buf, ratio).samples
        assert got.size == want.size
        assert np.max(np.abs(got - want)) <= 1e-6


@pytest.mark.parametrize("ratio", [0.1, 0.5, 2.0, 10.0])
def test_resample_shorter_than_kernel_matches_direct_kernel(ratio):
    buf = white_noise(20 / SR, seed=8)
    got = resample(buf, ratio).samples
    want = oracles.resample(buf, ratio).samples
    assert got.size == want.size
    assert np.max(np.abs(got - want)) <= 1e-6


@pytest.mark.parametrize("ratio", PITCH_TIME_RATIOS, ids=lambda r: f"{r:.4f}")
def test_resample_keeps_a_constant_at_unit_gain(ratio):
    # each output divides by the row sums of its interpolated kernel, so
    # a constant passes unchanged wherever the kernel misses both ends
    buf = AudioBuffer(np.full(SR // 2, 0.75), SR)
    out = resample(buf, ratio).samples
    half = audio._kernel_table(min(1.0, 1.0 / ratio)).shape[1] // 2
    inner = out[int(np.ceil(half / ratio)) + 1:
                int((buf.samples.size - half) / ratio) - 1]
    assert inner.size > 0.5 * out.size
    assert np.max(np.abs(inner - 0.75)) <= 1e-12


def test_kernel_table_is_built_once_per_cutoff_and_read_only(monkeypatch):
    built = []
    kernel = audio._kaiser_sinc

    def counted_kernel(t, fc, half):
        built.append(fc)
        return kernel(t, fc, half)

    monkeypatch.setattr(audio, "_kaiser_sinc", counted_kernel)
    audio._kernel_table.cache_clear()
    x = white_noise(0.1, seed=9)
    for ratio in (1.5, 0.5, 1.5, 0.8, 0.5):
        resample(x, ratio)
    # every upward stretch (ratio < 1) keeps the full band: one table
    assert built == [1.0 / 1.5, 1.0]
    table = audio._kernel_table(1.0)
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
    # row 0 and the last row are the kernel at offsets 0 and 1 exactly
    half = table.shape[1] // 2
    offsets = np.arange(-half + 1, half + 1, dtype=np.float64)
    assert np.array_equal(table[0], kernel(offsets, 1.0, half))
    assert np.array_equal(table[-1], kernel(offsets - 1.0, 1.0, half))


# ---------------------------------------------------------------------------
# F0 tracker


def _assert_same_track(buf: AudioBuffer):
    framed, frame_signal = [], pitch._frame_signal

    def spy(x, win, hop):
        framed.append(x)
        return frame_signal(x, win, hop)

    with mock.patch.object(pitch, "_frame_signal", spy):
        got = estimate_f0(buf)
    low = oracles.band_limit(buf)
    want = oracles.estimate_f0(low)
    assert np.array_equal(got.voiced, want.voiced)
    np.testing.assert_allclose(got.f0_hz, want.f0_hz, rtol=1e-9, atol=0.0)
    # the tracker frames its unit-peak scaling of the decimated copy;
    # at q = 1 that is the caller's samples, scaled and otherwise untouched
    exponent = np.frexp(np.max(np.abs(buf.samples)))[1]
    scaled = np.ldexp(low.samples, -exponent)
    if low is buf:
        assert np.array_equal(framed[-1], scaled)
    else:
        np.testing.assert_allclose(framed[-1], scaled, rtol=0.0, atol=1e-13)


def test_tracker_matches_oracle_on_corpus_and_disguises(corpus_small):
    for buf in corpus_small.utterances.values():
        _assert_same_track(buf)
    for alpha in (-11.0, -5.0, 5.0, 11.0):
        _assert_same_track(disguise(_first_utterance(corpus_small),
                                    DisguiseSpec("pitch-time", alpha)))


@pytest.mark.parametrize("make", [
    lambda: tone(200.0),                        # the LPC fallback path
    lambda: white_noise(1.0, seed=4),
    lambda: AudioBuffer(np.zeros(SR), SR),
    lambda: _gapped(speechy(1.0)),
    lambda: speechy(3.0),                       # more than one block
    lambda: speechy(1.0, sr=8000),
    lambda: _gapped(speechy(1.0, sr=8000)),
], ids=["tone", "noise", "silence", "gapped", "long", "8k", "8k-gapped"])
def test_tracker_matches_oracle(make):
    _assert_same_track(make())


@pytest.mark.parametrize("block", [1, 7, 128])
@pytest.mark.parametrize("make", [
    lambda: speechy(3.0),
    lambda: _gapped(speechy(1.0, sr=8000)),
], ids=["long", "8k-gapped"])
def test_tracker_matches_oracle_at_any_block_size(monkeypatch, make, block):
    # remainder blocks, and blocks whose rows the power floor drops
    monkeypatch.setattr(pitch, "_BLOCK_FRAMES", block)
    _assert_same_track(make())


def test_tracker_takes_no_transform_longer_than_its_frame_spectrum(
        monkeypatch):
    # at 16 kHz the frames are read from an 8 kHz copy, made by one
    # inverse transform of the whole signal, and the oversampled lags
    # come from one 1,024-point inverse transform per phase, not from
    # one transform os times as long
    lengths = []
    irfft = np.fft.irfft

    def spy(a, n=None, *args, **kwargs):
        lengths.append(n)
        return irfft(a, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", spy)
    track = estimate_f0(speechy(1.0))
    assert track.voiced.any()
    assert [n for n in lengths if n != 1024] == [SR // 2]
    assert lengths.count(1024) > 1


def test_tracker_raises_no_numerical_warnings(corpus_small):
    inputs = [AudioBuffer(np.zeros(SR), SR),
              _gapped(_first_utterance(corpus_small)),
              tone(200.0, amp=1e-8)]
    for buf in inputs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_same_track(buf)
    # below the oracle's absolute floor of 1e-18 the tracker analyzes
    # the frames, so no oracle track to compare with
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimate_f0(tone(200.0, amp=1e-12))


# ---------------------------------------------------------------------------
# candidate features


def test_plain_rows_match_the_magnitude_warp_oracle(corpus_small):
    # the no-op bank is the filterbank itself, so only rounding differs
    bufs = list(corpus_small.utterances.values()) + [
        disguise(_first_utterance(corpus_small), DisguiseSpec(family, param))
        for family, param in (("pitch-time", 4.0), ("vtln-bilinear", -0.2))
    ] + [speechy(1.0, sr=8000)]
    for buf in bufs:
        want = oracles.RestorationContext(buf).features(
            0.0, DisguiseFamily.PITCH_FREQ)
        np.testing.assert_allclose(embed(mfcc(buf)).vector,
                                   embed(want).vector, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("family", list(DisguiseFamily))
def test_candidates_stay_near_the_magnitude_warp_oracle(corpus_small,
                                                        family):
    # warping power rather than magnitude moves a candidate's embedding,
    # but by under half the distance between two neighbouring candidates
    buf = _first_utterance(corpus_small)
    ctx = oracles.RestorationContext(buf)
    grid = default_grid(family)
    for spec in (grid[0], grid[len(grid) // 3], grid[-1]):
        got = embed(restore_with(buf, spec.param, family)).vector
        want = embed(ctx.features(spec.param, family)).vector
        step = embed(ctx.features(grid[1].param, family)).vector - embed(
            ctx.features(grid[0].param, family)).vector
        assert np.linalg.norm(got - want) < 0.5 * np.linalg.norm(step)


# ---------------------------------------------------------------------------
# candidate kernel and scoring


def test_candidate_kernel_matches_the_stacked_product_oracle(corpus_small):
    # per-candidate products, deltas along the leading frame axis and
    # pooling in place against one stacked product, `_delta` and `pool`
    buf = _first_utterance(corpus_small)
    specs = ((restore.NO_OP,) + default_grid("pitch-freq")
             + default_grid("vtln-bilinear"))
    for x in (buf, disguise(buf, DisguiseSpec("vtln-power", 0.3)),
              speechy(1.0, sr=8000)):
        power = np.square(speaker.active_magnitudes(x))
        want = oracles.candidate_features(power, x.sample_rate, specs)
        got = speaker.candidate_features(power, x.sample_rate, specs)
        assert np.max(np.abs(got.transpose(2, 1, 0, 3).reshape(want.shape)
                             - want)) <= 1e-12 * np.max(np.abs(want))
        want = oracles.pool(want)
        got = speaker.pool(got)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_search_distances_match_the_dot_product_oracle(corpus_small):
    ids = sorted(corpus_small.utterances)[:6]
    grid = default_grid("vtln-power")
    table = restore.embedding_table(
        [(u, corpus_small.utterances[u], (restore.NO_OP,) + grid)
         for u in ids], None)
    for e in ids:
        ref = table[e].embedding(restore.NO_OP)
        for t in ids:
            _, scored = restore._search(table, e, t, grid)
            got = np.array([d for _, d in scored])
            want = np.array([oracles.distance(ref, table[t].embedding(s))
                             for s in grid])
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
            # the public distance is the search's, bit for bit
            assert got.tolist() == [
                speaker.distance(ref, table[t].embedding(s)) for s in grid]


def test_sidecar_writer_matches_the_per_float_oracle(tmp_path):
    # signed zero, the smallest subnormal, the largest magnitudes and
    # values that need all 17 significant digits
    edge = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308,
            0.1 + 0.2, 1.0 / 3.0, np.nextafter(1.0, 2.0), -2.0 ** -1022]
    rng = np.random.default_rng(7)
    dim = speaker.EMBED_DIM
    table = {"edge": speaker.Embedding(np.concatenate(
                 [edge, rng.standard_normal(dim - len(edge))])),
             "utt#vtln-power:-0.05": speaker.Embedding(
                 rng.standard_normal(dim)
                 * 10.0 ** rng.integers(-300, 300, dim))}
    for i in range(20):
        table[f"u{i:02d}"] = speaker.Embedding(rng.standard_normal(dim))
    for writer in (speaker.write_embeddings, oracles.write_embeddings):
        writer(tmp_path / writer.__module__, table)
    got = (tmp_path / speaker.__name__).read_bytes()
    assert got == (tmp_path / oracles.__name__).read_bytes()
    assert b"-0 0 4.9406564584124654e-324" in got
    back = speaker.load_external_embeddings(tmp_path / speaker.__name__)
    assert all(np.array_equal(back[u].vector, e.vector)
               and np.array_equal(np.signbit(back[u].vector),
                                  np.signbit(e.vector))
               for u, e in table.items())


# ---------------------------------------------------------------------------
# overlap-add


@pytest.mark.parametrize("sample_rate", [8000, 16000, 22050])
def test_istft_matches_the_frame_loop(sample_rate, monkeypatch):
    # at the stock hop a sample sums at most two frames, which add the
    # same in either order; a 7 ms hop makes it sum up to four
    rng = np.random.default_rng(sample_rate)
    for hop_ms in (audio.HOP_MS, 7.0):
        for module in (audio, oracles):
            monkeypatch.setattr(module, "HOP_MS", hop_ms)
        win, hop, _, _ = audio.frame_geometry(sample_rate, audio.WINDOW_MS,
                                              hop_ms)
        assert win % hop      # a frame's last hop-sized block is partial
        for n in (win, win + hop // 2, 5 * hop + 7, sample_rate + 3):
            spectrum = audio.stft(AudioBuffer(rng.standard_normal(n),
                                              sample_rate))
            assert np.array_equal(
                audio.istft(spectrum, sample_rate).samples,
                oracles.istft(spectrum, sample_rate).samples)


# ---------------------------------------------------------------------------
# corpus synthesizer filter

# the ranges `synth_corpus` draws from, per formant and for the hiss band
FORMANT_HZ = [(300.0, 900.0), (1100.0, 2300.0), (2500.0, 3400.0),
              (3600.0, 4400.0)]
FORMANT_BW_HZ = [(60.0, 120.0), (80.0, 160.0), (100.0, 200.0),
                 (150.0, 250.0)]
HISS_HZ, HISS_BW_HZ = (5100.0, 5300.0), (400.0, 1000.0)
DRIFT = 2.0 ** 0.02


def _assert_within_peak(got: np.ndarray, want: np.ndarray):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("sample_rate", [8000, 16000, 22050, 44100, 48000])
def test_all_pole_filter_matches_the_lfilter_cascade(sample_rate):
    rng = np.random.default_rng(sample_rate)
    # random draws, then the slowest poles (narrowest bands at the
    # lowest drift) and the highest ones (widest bands at the highest
    # drift, clipped to 0.45 of the rate at 8 kHz), each at both ends of
    # the 0.5-2 s length range
    draws = [(rng.uniform(0.5, 2.0),
              [rng.uniform(lo, hi) * DRIFT ** rng.uniform(-1.0, 1.0)
               for lo, hi in FORMANT_HZ],
              [rng.uniform(lo, hi) for lo, hi in FORMANT_BW_HZ],
              rng.uniform(*HISS_HZ), rng.uniform(*HISS_BW_HZ))
             for _ in range(6)]
    for duration in (0.5, 2.0):
        draws.append((duration, [lo / DRIFT for lo, _ in FORMANT_HZ],
                      [lo for lo, _ in FORMANT_BW_HZ], HISS_HZ[0],
                      HISS_BW_HZ[0]))
        draws.append((duration, [hi * DRIFT for _, hi in FORMANT_HZ],
                      [hi for _, hi in FORMANT_BW_HZ], HISS_HZ[1],
                      HISS_BW_HZ[1]))
    for duration, formants, bandwidths, hiss_freq, hiss_bw in draws:
        n = int(round(duration * sample_rate))
        excitation = np.zeros(n)   # a 90-250 Hz pulse train
        excitation[::int(sample_rate / rng.uniform(90.0, 250.0))] = 1.0
        poles = [0.95]
        for freq, bw in zip(formants, bandwidths):
            poles += evaluate._resonator_poles(freq, bw, sample_rate)
        _assert_within_peak(
            evaluate._all_pole(excitation, poles),
            oracles.formant_cascade(excitation, formants, bandwidths,
                                    sample_rate))
        noise = rng.standard_normal(n)
        _assert_within_peak(
            evaluate._all_pole(noise, evaluate._resonator_poles(
                hiss_freq, hiss_bw, sample_rate)),
            oracles.resonator(noise, hiss_freq, hiss_bw, sample_rate))
