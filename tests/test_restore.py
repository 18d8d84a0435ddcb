import importlib
import tracemalloc

import numpy as np
import pytest

from helpers import bl_sawtooth, white_noise
from voxrestore import (IDENTITY_PARAMS, AudioBuffer,
                        DisguiseFamily, DisguiseSpec, Embedding,
                        UnvoicedUtteranceError,
                        apply_spectral_warp, build_warp,
                        default_grid, disguise, distance, embed,
                        istft, mel_filterbank, mfcc,
                        resample, restore_pair, restore_with,
                        semitone_to_scale, stft, vad)
from voxrestore.disguise import warp_indices
from voxrestore.restore import (MAX_GRID_CANDIDATES, NO_OP,
                                _RestorationContext, _candidate_token,
                                embedding_table, grid_from_range,
                                parse_restoration)
from voxrestore.speaker import (candidate_features, filterbank_stack,
                                frames_major)


@pytest.fixture(scope="module")
def pair(corpus_small):
    """Two utterances of the same synthetic speaker."""
    by = corpus_small.by_speaker()
    utts = by[sorted(by)[0]]
    return (corpus_small.utterances[utts[0]], corpus_small.utterances[utts[1]])


# ---------------------------------------------------------------------------
# grids


def _params(grid):
    return [spec.param for spec in grid]


def test_default_grid_sizes_and_contents():
    pitch = default_grid("pitch-freq")
    assert pitch == tuple(DisguiseSpec("pitch-freq", v)
                          for v in range(-11, 12))

    power = _params(default_grid("vtln-power"))
    assert len(power) == 21
    assert power[0] == -0.5 and power[-1] == 0.5
    assert 0.0 in power

    quad = _params(default_grid("vtln-quadratic"))
    assert len(quad) == 21 and 0.0 in quad

    bilin = _params(default_grid("vtln-bilinear"))
    assert len(bilin) == 31 and 0.0 in bilin

    pw = _params(default_grid("vtln-piecewise"))
    assert len(pw) == 21 and 1.0 in pw
    assert pw[0] == 0.5 and pw[-1] == 1.5
    for family in DisguiseFamily:
        params = _params(default_grid(family))
        assert all(a < b for a, b in zip(params, params[1:]))


def test_grid_from_range_validation():
    assert grid_from_range("vtln-power", 0.2, 0.2, 1e-12) == (
        DisguiseSpec("vtln-power", 0.2),)
    with pytest.raises(ValueError, match="bad grid bounds 1:0:1"):
        grid_from_range("pitch-freq", 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="unknown disguise family"):
        grid_from_range("pitch", 0.0, 1.0, 1.0)
    # the bounds are checked as DisguiseSpecs of the family
    with pytest.raises(ValueError, match=r"-0.6 outside \[-0.5, 0.5\] for "
                       r"family vtln-power"):
        grid_from_range("vtln-power", -0.6, 0.5, 0.1)
    with pytest.raises(ValueError, match="grid lo must be finite"):
        grid_from_range("pitch-freq", np.nan, 1.0, 1.0)
    # a grid that overshoots its upper bound is checked value by value
    with pytest.raises(ValueError, match="16.0 outside"):
        grid_from_range("pitch-freq", 0.0, 12.0, 8.0)


def test_grid_from_range_rejects_huge_grids_before_allocating(monkeypatch):
    # each of these asks for 1e12 values; np.arange must never see them
    def no_arange(*args, **kwargs):
        raise AssertionError("grid values were allocated")

    monkeypatch.setattr(np, "arange", no_arange)
    with pytest.raises(ValueError, match=r"1000000000000.0 outside \[-12"):
        grid_from_range("pitch-freq", 0.0, 1e12, 1.0)
    with pytest.raises(ValueError, match="grid step 1e-12 is below 1e-10"):
        grid_from_range("pitch-freq", 0.0, 1.0, 1e-12)
    # in range and above the step floor, but far more candidates than
    # any search needs
    with pytest.raises(ValueError, match="holds 1000001 candidates, over "
                       "the 10000 allowed"):
        grid_from_range("pitch-freq", 0.0, 0.01, 1e-8)
    with pytest.raises(ValueError, match="holds 240000000001 candidates"):
        grid_from_range("pitch-freq", -12.0, 12.0, 1e-10)


def test_grid_from_range_allows_the_largest_grid():
    grid = grid_from_range("pitch-freq", 0.0, 9.999, 0.001)
    assert len(grid) == MAX_GRID_CANDIDATES == 10_000
    assert grid[-1] == DisguiseSpec("pitch-freq", 9.999)


def test_restoration_grid_must_hold_a_no_op(pair):
    x, y = pair
    no_identity = grid_from_range("vtln-piecewise", 0.5, 0.9, 0.1)
    for kind in ("grid", "f0ratio"):
        with pytest.raises(ValueError, match="must include a no-op candidate"
                           ": vtln-piecewise:1$"):
            restore_pair(x, y, kind, no_identity)
        with pytest.raises(ValueError, match="no-op candidate: it is empty"):
            restore_pair(x, y, kind, ())
    mixed = (DisguiseSpec("pitch-freq", 1.0), DisguiseSpec("vtln-power", 0.1))
    with pytest.raises(ValueError, match=": pitch-freq:0 or vtln-power:0$"):
        restore_pair(x, y, "grid", mixed)
    # any family's no-op will do
    grid = (DisguiseSpec("vtln-power", 0.1), DisguiseSpec("pitch-time", 0.0))
    result = restore_pair(x, x, "grid", grid)
    assert result.family is DisguiseFamily.PITCH_TIME
    assert result.alpha_hat == 0.0


@pytest.mark.parametrize("grid, ratio, snapped", [
    ("pitch-freq", 3.4, 3.0), ("pitch-freq", -7.6, -8.0),
    ("pitch-freq", 25.0, 11.0), ("vtln-power", 0.213, 0.2)])
def test_f0_ratio_snaps_to_the_nearest_grid_value(monkeypatch, grid, ratio,
                                                   snapped):
    restore = importlib.import_module("voxrestore.restore")
    monkeypatch.setattr(restore, "f0_ratio_alpha", lambda f_e, f_t: ratio)
    x = bl_sawtooth(150.0, 1.0)
    grid = default_grid(grid)
    # the snap itself reads no family; one the F0 ratio cannot estimate
    # is rejected only by restore_pair
    table = {"e": Embedding(np.ones(2))}
    table.update((_candidate_token("t", s), Embedding(np.ones(2)))
                 for s in grid)
    _, [[((best, _), scored)]], _ = restore.search_pairs(
        {"e": x, "t": x}, [("e", "t")], [("f0ratio", grid)], table,
        f0_fallback=False)
    assert best.param == pytest.approx(snapped, abs=1e-12)
    assert [s for s, _ in scored] == [best] and best.family is grid[0].family


# ---------------------------------------------------------------------------
# single restorations


def test_identity_restoration_reproduces_features(pair):
    y = pair[1]
    feats = restore_with(y, 0.0, "pitch-freq")
    assert np.array_equal(feats, mfcc(y))


def test_restore_with_pitch_time_matches_pitch_freq(pair):
    # the time-domain family has the same spectral inverse as the
    # frequency-domain one
    y = disguise(pair[1], DisguiseSpec("pitch-time", 5.0))
    a = restore_with(y, 5.0, "pitch-time")
    b = restore_with(y, 5.0, "pitch-freq")
    assert np.array_equal(a, b)


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
    audio = istft(apply_spectral_warp(stft(y), spec, "inverse"),
                  y.sample_rate)
    assert feats.shape[0] >= 3
    assert np.all(np.isfinite(audio.samples))
    assert audio.sample_rate == y.sample_rate


def test_restore_with_rejects_out_of_range(pair):
    with pytest.raises(ValueError):
        restore_with(pair[1], 0.9, "vtln-power")


# ---------------------------------------------------------------------------
# candidate features against the whole-spectrogram warp


def _whole_spectrogram_features(y: AudioBuffer, alpha: float,
                                family: DisguiseFamily) -> np.ndarray:
    """The candidate path the warped filterbank folds, with its index
    math written out: warp the power of every frame of the full
    spectrogram, keep the VAD-active frames, then apply the unwarped
    bank."""
    spec = DisguiseSpec(family, alpha)
    power = np.abs(stft(y)) ** 2
    if not spec.is_identity:
        n_bins = power.shape[1]
        src = build_warp(spec)(np.linspace(0.0, np.pi, n_bins))
        coord = np.clip(src / np.pi * (n_bins - 1), 0.0, n_bins - 1.0)
        lo = np.minimum(coord.astype(np.int64), n_bins - 2)
        frac = coord - lo
        power = power[:, lo] * (1.0 - frac) + power[:, lo + 1] * frac
    return frames_major(
        candidate_features(power[vad(y)], y.sample_rate, (NO_OP,)))


@pytest.mark.parametrize("family", list(DisguiseFamily))
def test_candidate_features_equal_the_whole_spectrogram_warp(pair, family):
    grid = _params(default_grid(family))
    lo, hi = grid[0], grid[-1]
    ident = IDENTITY_PARAMS[family]
    interior = grid[len(grid) // 4]
    assert lo < interior < ident
    y = disguise(pair[1], DisguiseSpec(family, lo + 0.7 * (hi - lo)))
    half = AudioBuffer(y.samples[:y.sample_rate // 2], y.sample_rate)
    for buf in (y, half):
        ctx = _RestorationContext(buf)
        for alpha in (lo, ident, interior, hi):
            want = _whole_spectrogram_features(buf, alpha, family)
            got = ctx.features(alpha, family)
            # the folded bank sums the same products in another order
            np.testing.assert_allclose(got, want, rtol=0.0,
                                       atol=1e-9 * np.abs(want).max())
            if alpha == ident:
                assert np.array_equal(got, want)


def test_inverse_warp_is_built_once_per_family_and_alpha(pair, monkeypatch):
    built = []

    def counted_build_warp(spec):
        built.append((spec.family, spec.param))
        return build_warp(spec)

    monkeypatch.setattr(importlib.import_module("voxrestore.disguise"),
                        "build_warp", counted_build_warp)
    warp_indices.cache_clear()
    filterbank_stack.cache_clear()
    grid = default_grid("vtln-power")
    restore = importlib.import_module("voxrestore.restore")
    n_blocks = -(-len(grid) // restore._BLOCK_CANDIDATES)
    assert n_blocks == 2
    for utterance in pair:
        ctx = _RestorationContext(utterance)
        ctx.embeddings(grid)
        ctx.features(grid[3].param, grid[3].family)
    # the no-op needs no map, but its identity table is cached like the
    # others; each distinct block of candidates (here the grid's two and
    # one alone) stacks its filterbanks once, and the next utterance
    # reuses every stack
    assert built == [(s.family, s.param) for s in grid if not s.is_identity]
    assert warp_indices.cache_info().misses == len(grid)
    blocks = filterbank_stack.cache_info()
    assert (blocks.misses, blocks.hits) == (n_blocks + 1, n_blocks + 1)
    # pitch-time keeps its own entry; build_warp gives it pitch-freq's map
    _RestorationContext(pair[0]).features(3.0, DisguiseFamily.PITCH_TIME)
    assert built[-1] == (DisguiseFamily.PITCH_TIME, 3.0)


def test_cached_tables_are_read_only():
    with pytest.raises(ValueError):
        mel_filterbank(16000, 512)[0, 0] = 1.0
    stack = filterbank_stack((DisguiseSpec("vtln-power", 0.2),), 257, 16000)
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 1.0
    for direction in ("forward", "inverse"):
        spec = DisguiseSpec(DisguiseFamily.VTLN_POWER, 0.2)
        lo, frac = warp_indices(spec, 257, direction)
        with pytest.raises(ValueError):
            lo[0] = 1
        with pytest.raises(ValueError):
            frac[0] = 0.5
        # a no-op reads each bin from itself at weight 1
        spec = DisguiseSpec(DisguiseFamily.VTLN_POWER, 0.0)
        lo, frac = warp_indices(spec, 257, direction)
        assert lo.tolist() == list(range(256)) + [255]
        assert frac.tolist() == [0.0] * 256 + [1.0]
        with pytest.raises(ValueError):
            frac[0] = 0.5


def test_out_of_range_alpha_fails_on_every_call(pair):
    ctx = _RestorationContext(pair[1])
    for _ in range(2):
        with pytest.raises(ValueError, match="outside"):
            warp_indices(DisguiseSpec(DisguiseFamily.VTLN_POWER, 0.9), 257,
                         "inverse")
        with pytest.raises(ValueError, match="outside"):
            ctx.features(13.0, DisguiseFamily.PITCH_TIME)


# ---------------------------------------------------------------------------
# batched candidates


@pytest.mark.parametrize("family", ["pitch-freq", "vtln-bilinear"])
def test_table_embeddings_do_not_depend_on_their_batch(pair, family,
                                                      monkeypatch):
    # the benchmark holds sidecar rows to embed(mfcc(x)) and the none
    # row to plain distances, so batching candidates must not move a bit
    restore = importlib.import_module("voxrestore.restore")
    y = disguise(pair[1], DisguiseSpec(family, default_grid(family)[2].param))
    grid = (NO_OP,) + default_grid(family) + default_grid("vtln-power")
    assert len(grid) > restore._BLOCK_CANDIDATES
    x_row = embed(mfcc(pair[0])).vector
    want = {spec: embed(restore_with(y, spec.param, spec.family)).vector
            for spec in grid}
    assert np.array_equal(want[NO_OP], embed(mfcc(y)).vector)
    # a candidate's row is the same whether its block's filterbank stack
    # is built or found in the cache (as it is for the same candidates
    # in another order), and from a block built for other neighbours
    spec = grid[5]
    filterbank_stack.cache_clear()
    built = embedding_table([("y", y, grid)], None)["y"]
    misses = filterbank_stack.cache_info().misses
    cached = embedding_table([("y", y, grid[:1] + grid[:0:-1])], None)["y"]
    assert filterbank_stack.cache_info().misses == misses
    moved = embedding_table([("y", y, grid[:1] + grid[2:])], None)["y"]
    assert filterbank_stack.cache_info().misses > misses
    assert all(np.array_equal(rows.embedding(spec).vector, want[spec])
               for rows in (built, cached, moved))
    for block in (1, 7, restore._BLOCK_CANDIDATES,
                  restore._BLOCK_CANDIDATES + 3):
        monkeypatch.setattr(restore, "_BLOCK_CANDIDATES", block)
        table = embedding_table([("x", pair[0], (NO_OP,)), ("y", y, grid)],
                                None)
        assert np.array_equal(table["x"].embedding(NO_OP).vector, x_row)
        assert all(np.array_equal(table["y"].embedding(spec).vector, vec)
                   for spec, vec in want.items())
        # in reverse the plain row comes from vtln-power's no-op, so the
        # blocks hold other candidates
        reordered = embedding_table([("y", y, grid[::-1])], None)["y"]
        assert all(np.array_equal(reordered.embedding(spec).vector, vec)
                   for spec, vec in want.items())


def test_a_block_takes_one_bank_product_and_one_log(pair, monkeypatch):
    speaker = importlib.import_module("voxrestore.speaker")
    restore = importlib.import_module("voxrestore.restore")
    specs = default_grid("vtln-power")[:restore._BLOCK_CANDIDATES]
    assert len(specs) == 16
    power, rate = _RestorationContext(pair[0]).power, pair[0].sample_rate
    candidate_features(power, rate, specs)   # fills the stack cache
    calls = {"log": 0, "bank": 0}

    def log(*args, **kwargs):
        calls["log"] += 1
        return np.log(*args, **kwargs)

    def matmul(a, b, **kwargs):
        calls["bank"] += b.shape == power.T.shape
        return np.matmul(a, b, **kwargs)

    class SpiedNumpy:
        def __getattr__(self, name):
            return {"log": log, "matmul": matmul}.get(name, getattr(np, name))

    monkeypatch.setattr(speaker, "np", SpiedNumpy())
    got = candidate_features(power, rate, specs)
    monkeypatch.undo()
    assert calls == {"log": 1, "bank": 1}
    assert np.array_equal(got, candidate_features(power, rate, specs))


def test_large_grid_restoration_stays_in_bounded_memory(pair):
    # candidates are featurized _BLOCK_CANDIDATES at a time; all 2,001
    # at once would need a 108 MB workspace before any product. The
    # peak holds the filterbank and warp-table caches at their size
    # bounds (14 and 4 MB) and a block's buffers.
    grid = grid_from_range("vtln-power", -0.5, 0.5, 0.0005)
    assert len(grid) == 2001
    warp_indices.cache_clear()
    filterbank_stack.cache_clear()
    tracemalloc.start()
    try:
        result = restore_pair(pair[0], pair[1], "grid", grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.per_candidate) == len(grid)
    print(f"tracemalloc peak {peak / 1e6:.1f} MB")
    assert peak < 30e6


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
    assert alphas == _params(grid)
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
    grid = grid_from_range("pitch-freq", -1.0, 1.0, 1.0)
    same = Embedding(np.ones(4))
    table = {"ref": same}
    for spec in grid:
        table[_candidate_token("probe", spec)] = same
    result = restore_pair(y, y, "grid", grid, external=table,
                          enroll_id="ref", test_id="probe")
    assert result.alpha_hat == 0.0          # all distances equal


def test_grid_search_tie_breaks_toward_smaller_alpha(pair):
    y = pair[1]
    grid = grid_from_range("pitch-freq", -1.0, 1.0, 1.0)
    near = Embedding(np.array([1.0, 0.05]))
    far = Embedding(np.array([0.0, 1.0]))
    table = {"ref": Embedding(np.array([1.0, 0.0])), "probe": far,
             "probe#pitch-freq:-1": near, "probe#pitch-freq:1": near}
    result = restore_pair(y, y, "grid", grid, external=table,
                          enroll_id="ref", test_id="probe")
    assert result.alpha_hat == -1.0         # equal distance, equal |a|


def test_external_scorer_agrees_with_builtin(pair):
    x, clean = pair
    y = disguise(clean, DisguiseSpec("pitch-freq", 2.0))
    grid = grid_from_range("pitch-freq", -2.0, 2.0, 2.0)
    ctx = _RestorationContext(y)
    table = {"enroll": embed(mfcc(x))}
    for spec in grid:
        table[_candidate_token("test", spec)] = embed(
            ctx.features(spec.param, spec.family))
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
    assert np.array_equal(got["u1"].embedding(NO_OP).vector, np.ones(3))
    assert got["u1"].norms.tolist() == [np.sqrt(3.0)]
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


def test_every_method_is_a_grid_or_the_f0_ratio():
    # "none" is the one-candidate grid of the no-op
    assert parse_restoration("none") == ("grid", (NO_OP,))
    assert NO_OP == DisguiseSpec("pitch-freq", 0.0)
    assert parse_restoration("f0ratio") == ("f0ratio",
                                            default_grid("pitch-freq"))
    for name in ("vtln-power", "grid:vtln-power"):
        assert parse_restoration(name) == ("grid", default_grid("vtln-power"))


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
    assert [a for a, _ in result.per_candidate] == _params(power)


def test_result_serialization(pair):
    x = pair[0]
    result = restore_pair(x, x, "grid",
                          grid_from_range("pitch-freq", -1.0, 1.0, 1.0))
    blob = result.to_dict()
    assert blob["family"] == "pitch-freq"
    assert blob["alpha_hat"] == 0.0
    assert [a for a, _ in blob["per_candidate"]] == [-1.0, 0.0, 1.0]
