import importlib

import numpy as np
import pytest

from helpers import bl_sawtooth, white_noise
from voxrestore import (IDENTITY_PARAMS, AudioBuffer,
                        DisguiseFamily, DisguiseSpec, Embedding,
                        GridSpec, UnvoicedUtteranceError,
                        apply_spectral_warp, build_warp,
                        default_grid, disguise, distance, embed,
                        istft, mel_filterbank, mfcc, nearest_grid_value,
                        resample, restore_pair, restore_with,
                        semitone_to_scale, stft, vad)
from voxrestore.disguise import warp_indices
from voxrestore.restore import (NO_OP, _RestorationContext,
                                _candidate_token, embedding_table)
from voxrestore.speaker import features_from_magnitudes


@pytest.fixture(scope="module")
def pair(corpus_small):
    """Two utterances of the same synthetic speaker."""
    by = corpus_small.by_speaker()
    utts = by[sorted(by)[0]]
    return (corpus_small.utterances[utts[0]], corpus_small.utterances[utts[1]])


# ---------------------------------------------------------------------------
# grids


def test_default_grid_sizes_and_contents():
    pitch = default_grid("pitch-freq")
    assert len(pitch) == 23
    assert pitch.values == tuple(float(v) for v in range(-11, 12))

    power = default_grid("vtln-power")
    assert len(power) == 21
    assert power.values[0] == -0.5 and power.values[-1] == 0.5
    assert 0.0 in power.values

    quad = default_grid("vtln-quadratic")
    assert len(quad) == 21 and 0.0 in quad.values

    bilin = default_grid("vtln-bilinear")
    assert len(bilin) == 31 and 0.0 in bilin.values

    pw = default_grid("vtln-piecewise")
    assert len(pw) == 21 and 1.0 in pw.values
    assert pw.values[0] == 0.5 and pw.values[-1] == 1.5


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec("pitch-freq", ())
    with pytest.raises(ValueError):
        GridSpec("pitch-freq", (0.0, 0.0, 1.0))          # not increasing
    with pytest.raises(ValueError):
        GridSpec("vtln-power", (-0.6, 0.0, 0.5))         # out of range
    with pytest.raises(ValueError):
        GridSpec("vtln-piecewise", (0.5, 0.9, 1.1))      # no identity value
    with pytest.raises(ValueError):
        GridSpec("pitch-freq", (0.0, np.inf))


def test_nearest_grid_value():
    pitch = default_grid("pitch-freq")
    assert nearest_grid_value(pitch, 3.4) == 3.0
    assert nearest_grid_value(pitch, -7.6) == -8.0
    assert nearest_grid_value(pitch, 25.0) == 11.0
    power = default_grid("vtln-power")
    assert nearest_grid_value(power, 0.213) == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# single restorations


def test_identity_restoration_reproduces_features(pair):
    y = pair[1]
    feats = restore_with(y, 0.0, "pitch-freq")
    assert np.array_equal(feats.data, mfcc(y).data)


def test_restore_with_pitch_time_matches_pitch_freq(pair):
    # the time-domain family has the same spectral inverse as the
    # frequency-domain one
    y = disguise(pair[1], DisguiseSpec("pitch-time", 5.0))
    a = restore_with(y, 5.0, "pitch-time")
    b = restore_with(y, 5.0, "pitch-freq")
    assert np.array_equal(a.data, b.data)


def test_restoring_with_truth_beats_identity(pair):
    x, clean = pair
    ref = embed(mfcc(x))
    y = disguise(clean, DisguiseSpec("pitch-freq", 4.0))
    d_truth = distance(ref, embed(restore_with(y, 4.0, "pitch-freq")))
    d_none = distance(ref, embed(restore_with(y, 0.0, "pitch-freq")))
    assert d_truth < d_none


def test_restoring_quadratic_with_truth_beats_identity(pair):
    x, clean = pair
    ref = embed(mfcc(x))
    y = disguise(clean, DisguiseSpec("vtln-quadratic", 2.0))
    d_truth = distance(ref, embed(restore_with(y, 2.0, "vtln-quadratic")))
    d_none = distance(ref, embed(restore_with(y, 0.0, "vtln-quadratic")))
    assert d_truth < d_none


def test_restore_with_audio_output(pair):
    spec = DisguiseSpec("pitch-freq", 3.0)
    y = disguise(pair[1], spec)
    feats = restore_with(y, 3.0, "pitch-freq")
    audio = istft(apply_spectral_warp(stft(y), spec, "inverse"))
    assert feats.n_frames >= 3
    assert np.all(np.isfinite(audio.samples))
    assert audio.sample_rate == y.sample_rate


def test_restore_with_rejects_out_of_range(pair):
    with pytest.raises(ValueError):
        restore_with(pair[1], 0.9, "vtln-power")


# ---------------------------------------------------------------------------
# candidate features against the whole-spectrogram warp


def _whole_spectrogram_features(y: AudioBuffer, alpha: float,
                                family: DisguiseFamily) -> np.ndarray:
    """The candidate path the inverse-warp cache replaced, with its
    index math written out: warp every frame of the full spectrogram,
    then keep the VAD-active frames."""
    warp_family = (DisguiseFamily.PITCH_FREQ
                   if family is DisguiseFamily.PITCH_TIME else family)
    spec = DisguiseSpec(warp_family, alpha)
    mags = stft(y).magnitudes
    if not spec.is_identity:
        n_bins = mags.shape[1]
        src = build_warp(spec)(np.linspace(0.0, np.pi, n_bins))
        coord = np.clip(src / np.pi * (n_bins - 1), 0.0, n_bins - 1.0)
        lo = np.minimum(coord.astype(np.int64), n_bins - 2)
        frac = coord - lo
        mags = mags[:, lo] * (1.0 - frac) + mags[:, lo + 1] * frac
    return features_from_magnitudes(mags[vad(y)], y.sample_rate)


@pytest.mark.parametrize("family", list(DisguiseFamily))
def test_candidate_features_equal_the_whole_spectrogram_warp(pair, family):
    grid = default_grid(family)
    lo, hi = grid.values[0], grid.values[-1]
    ident = IDENTITY_PARAMS[family]
    interior = grid.values[len(grid) // 4]
    assert lo < interior < ident
    y = disguise(pair[1], DisguiseSpec(family, lo + 0.7 * (hi - lo)))
    # the half-second cut has few enough active frames that the
    # filterbank product rounds differently for a non-contiguous input
    half = AudioBuffer(y.samples[:y.sample_rate // 2], y.sample_rate)
    for buf in (y, half):
        ctx = _RestorationContext(buf)
        for alpha in (lo, ident, interior, hi):
            assert np.array_equal(
                ctx.features(alpha, family).data,
                _whole_spectrogram_features(buf, alpha, family))


def test_inverse_warp_is_built_once_per_family_and_alpha(pair, monkeypatch):
    built = []

    def counted_build_warp(spec):
        built.append((spec.family, spec.param))
        return build_warp(spec)

    monkeypatch.setattr(importlib.import_module("voxrestore.disguise"),
                        "build_warp", counted_build_warp)
    warp_indices.cache_clear()
    grid = default_grid("vtln-power")
    for utterance in pair:
        ctx = _RestorationContext(utterance)
        for alpha in grid.values:
            ctx.features(alpha, grid.family)
    # the no-op needs no map, but its None is cached like the others
    ident = IDENTITY_PARAMS[grid.family]
    assert built == [(grid.family, a) for a in grid.values if a != ident]
    assert warp_indices.cache_info().misses == len(grid)
    # pitch-time shares pitch-freq's map but keeps its own entry
    _RestorationContext(pair[0]).features(3.0, DisguiseFamily.PITCH_TIME)
    assert built[-1] == (DisguiseFamily.PITCH_FREQ, 3.0)


def test_cached_tables_are_read_only():
    with pytest.raises(ValueError):
        mel_filterbank(16000, 512)[0, 0] = 1.0
    for direction in ("forward", "inverse"):
        spec = DisguiseSpec(DisguiseFamily.VTLN_POWER, 0.2)
        lo, frac = warp_indices(spec, 257, direction)
        with pytest.raises(ValueError):
            lo[0] = 1
        with pytest.raises(ValueError):
            frac[0] = 0.5
        spec = DisguiseSpec(DisguiseFamily.VTLN_POWER, 0.0)
        assert warp_indices(spec, 257, direction) is None


def test_out_of_range_alpha_fails_on_every_call(pair):
    ctx = _RestorationContext(pair[1])
    for _ in range(2):
        with pytest.raises(ValueError, match="outside"):
            warp_indices(DisguiseSpec(DisguiseFamily.VTLN_POWER, 0.9), 257,
                         "inverse")
        with pytest.raises(ValueError, match="outside"):
            ctx.features(13.0, DisguiseFamily.PITCH_TIME)


# ---------------------------------------------------------------------------
# grid search


def test_grid_search_on_identical_audio_picks_no_disguise(pair):
    x = pair[0]
    result = restore_pair(x, x, "grid")
    assert result.alpha_hat == 0.0
    assert result.d_hat <= 1e-12
    assert result.method == "grid"


def test_grid_search_recovers_a_known_pitch_disguise(pair):
    x, clean = pair
    y = disguise(clean, DisguiseSpec("pitch-freq", 4.0))
    result = restore_pair(x, y, "grid")
    assert abs(result.alpha_hat - 4.0) <= 1.0


def test_grid_search_result_invariants(pair):
    x, clean = pair
    y = disguise(clean, DisguiseSpec("pitch-freq", -3.0))
    grid = default_grid("pitch-freq")
    result = restore_pair(x, y, "grid", grid)
    alphas = [a for a, _ in result.per_candidate]
    dists = [d for _, d in result.per_candidate]
    assert tuple(alphas) == grid.values
    assert result.d_hat == min(dists)
    assert dict(result.per_candidate)[result.alpha_hat] == result.d_hat
    # identity is always on the grid, so searching can never lose to it
    assert result.d_hat <= dict(result.per_candidate)[0.0]
    # and the search is repeatable
    again = restore_pair(x, y, "grid", grid)
    assert again.alpha_hat == result.alpha_hat
    assert again.per_candidate == result.per_candidate


def test_grid_search_tie_breaks_toward_identity(pair):
    y = pair[1]
    grid = GridSpec("pitch-freq", (-1.0, 0.0, 1.0))
    same = Embedding(np.ones(4))
    table = {"ref": same}
    for a in grid.values:
        table[_candidate_token("probe", DisguiseFamily.PITCH_FREQ, a)] = same
    result = restore_pair(y, y, "grid", grid, external=table,
                          enroll_id="ref", test_id="probe")
    assert result.alpha_hat == 0.0          # all distances equal


def test_grid_search_tie_breaks_toward_smaller_alpha(pair):
    y = pair[1]
    grid = GridSpec("pitch-freq", (-1.0, 0.0, 1.0))
    near = Embedding(np.array([1.0, 0.05]))
    far = Embedding(np.array([0.0, 1.0]))
    table = {
        "ref": Embedding(np.array([1.0, 0.0])),
        _candidate_token("probe", DisguiseFamily.PITCH_FREQ, -1.0): near,
        _candidate_token("probe", DisguiseFamily.PITCH_FREQ, 0.0): far,
        _candidate_token("probe", DisguiseFamily.PITCH_FREQ, 1.0): near,
    }
    result = restore_pair(y, y, "grid", grid, external=table,
                          enroll_id="ref", test_id="probe")
    assert result.alpha_hat == -1.0         # equal distance, equal |a|


def test_external_scorer_agrees_with_builtin(pair):
    x, clean = pair
    y = disguise(clean, DisguiseSpec("pitch-freq", 2.0))
    grid = GridSpec("pitch-freq", (-2.0, 0.0, 2.0))
    ctx = _RestorationContext(y)
    table = {"enroll": embed(mfcc(x))}
    for a in grid.values:
        token = _candidate_token("test", DisguiseFamily.PITCH_FREQ, a)
        table[token] = embed(ctx.features(a, DisguiseFamily.PITCH_FREQ))
    builtin = restore_pair(x, y, "grid", grid)
    external = restore_pair(
        x, y, "grid", grid, external=table, enroll_id="enroll",
        test_id="test")
    assert external.alpha_hat == builtin.alpha_hat
    for (_, d_ext), (_, d_blt) in zip(external.per_candidate,
                                      builtin.per_candidate):
        assert d_ext == pytest.approx(d_blt, abs=1e-12)


def test_embedding_table_reports_missing_external_token():
    table = {"u1": Embedding(np.ones(3))}
    got = embedding_table([("u1", None, [NO_OP])], external=table)
    assert got["u1"] is table["u1"]
    with pytest.raises(KeyError,
                       match="'u2' missing from external embedding table"):
        embedding_table([("u2", None, [NO_OP])], external=table)
    # an empty table is still external: it never falls back to audio
    with pytest.raises(KeyError, match="'u1' missing"):
        embedding_table([("u1", None, [NO_OP])], external={})


def test_restoration_rejects_one_id_for_both_sides(pair):
    # the test's no-op row would replace the enrollment's
    x, y = pair
    with pytest.raises(ValueError, match="'x' names both"):
        restore_pair(x, y, "grid", enroll_id="x", test_id="x")


def test_grid_search_rejects_mixed_sample_rates(pair):
    x, y = pair
    narrow = AudioBuffer(y.samples[::2], 8000)
    with pytest.raises(ValueError, match="8000 Hz and 16000 Hz"):
        restore_pair(x, narrow, "grid")


def test_grid_search_rejects_silence(pair):
    silent = resample(pair[0], 1.0)
    silent.samples[:] = 0.0
    with pytest.raises(ValueError):
        restore_pair(pair[0], silent, "grid")


# ---------------------------------------------------------------------------
# F0-ratio restoration


def test_f0_ratio_on_identical_audio():
    x = bl_sawtooth(150.0, 1.0)
    result = restore_pair(x, x, "f0ratio")
    assert result.alpha_hat == 0.0
    assert result.method == "f0-ratio"
    assert len(result.per_candidate) == 1


def test_f0_ratio_recovers_an_octave():
    x = bl_sawtooth(150.0, 1.0)
    y = resample(x, semitone_to_scale(12.0))
    result = restore_pair(x, y, "f0ratio")
    assert result.alpha_hat == 11.0      # snapped to the grid edge


def test_f0_ratio_recovers_interior_offsets():
    x = bl_sawtooth(150.0, 1.0)
    for alpha in (-5.0, 3.0):
        y = resample(x, semitone_to_scale(alpha))
        result = restore_pair(x, y, "f0ratio")
        assert result.alpha_hat == alpha


def test_f0_ratio_requires_voiced_audio():
    noise = white_noise(1.0, seed=9)
    voiced = bl_sawtooth(150.0, 1.0)
    with pytest.raises(UnvoicedUtteranceError, match="^enroll: "):
        restore_pair(noise, voiced, "f0ratio")
    silent = AudioBuffer(np.zeros(len(voiced)), voiced.sample_rate)
    with pytest.raises(UnvoicedUtteranceError, match="^test: "):
        restore_pair(voiced, silent, "f0ratio")


def test_f0_ratio_analysis_error_names_its_side():
    voiced = bl_sawtooth(150.0, 1.0)
    short = AudioBuffer(voiced.samples[:100], voiced.sample_rate)
    with pytest.raises(ValueError, match="^test: signal of 100 samples"):
        restore_pair(voiced, short, "f0ratio")


def test_f0_ratio_rejects_warp_families():
    x = bl_sawtooth(150.0, 1.0)
    with pytest.raises(ValueError, match="estimates semitones"):
        restore_pair(x, x, "f0ratio", default_grid("vtln-power"))


def test_unknown_kind_is_rejected(pair):
    # search_pairs reads every kind but "f0ratio" as a grid
    x, y = pair
    with pytest.raises(ValueError,
                       match="'grid' or 'f0ratio', got 'f0-ratio'"):
        restore_pair(x, y, "f0-ratio")


def test_f0_ratio_takes_its_family_from_the_grid(pair):
    x = bl_sawtooth(150.0, 1.0)
    y = resample(x, semitone_to_scale(4.0))
    result = restore_pair(x, y, "f0ratio", default_grid("pitch-time"))
    assert result.family is DisguiseFamily.PITCH_TIME
    assert result.alpha_hat == 4.0
    # so does the grid search's
    enrolled, clean = pair
    power = default_grid("vtln-power")
    result = restore_pair(enrolled, disguise(clean, DisguiseSpec(
        "vtln-power", 0.2)), "grid", power)
    assert result.family is DisguiseFamily.VTLN_POWER
    assert [a for a, _ in result.per_candidate] == list(power.values)


def test_result_serialization(pair):
    x = pair[0]
    result = restore_pair(x, x, "grid", GridSpec("pitch-freq",
                                                 (-1.0, 0.0, 1.0)))
    blob = result.to_dict()
    assert blob["family"] == "pitch-freq"
    assert blob["alpha_hat"] == 0.0
    assert [a for a, _ in blob["per_candidate"]] == [-1.0, 0.0, 1.0]
