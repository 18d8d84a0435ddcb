import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import speechy, white_noise
from voxrestore import (AudioBuffer, Embedding, distance, embed,
                        load_external_embeddings, mel_filterbank, mfcc,
                        write_embeddings)
from voxrestore.speaker import (EMBED_DIM, FEATURE_DIM, cosine_distances,
                                features_from_magnitudes)

SR = 16000


# ---------------------------------------------------------------------------
# features


def test_mfcc_shape():
    feats = mfcc(speechy())
    assert feats.shape[1] == FEATURE_DIM == 72
    assert feats.shape[0] >= 3


def test_mfcc_rejects_silence():
    with pytest.raises(ValueError, match="insufficient voiced content"):
        mfcc(AudioBuffer(np.zeros(SR), SR))


def test_mfcc_gain_change_shifts_only_the_first_cepstrum():
    x = speechy()
    quiet = AudioBuffer(x.samples * 0.5, SR)
    d = mfcc(x) - mfcc(quiet)
    # a pure gain scales every mel energy equally, so the log moves by a
    # constant that only the zeroth cosine basis picks up
    assert np.abs(d[:, 0] - d[0, 0]).max() <= 1e-9
    assert abs(d[0, 0]) > 0.1
    assert np.abs(d[:, 1:]).max() <= 1e-6


def test_embed_validation():
    for shape in ((5, 10), (FEATURE_DIM,), (0, FEATURE_DIM),
                  (2, FEATURE_DIM, 1)):
        with pytest.raises(ValueError, match=r"must be \(frames >= 1, 72\)"):
            embed(np.ones(shape))
    with pytest.raises(ValueError, match="non-finite"):
        embed(np.full((2, FEATURE_DIM), np.nan))


def test_mel_filterbank_geometry():
    fb = mel_filterbank(SR, 512)
    assert fb.shape == (26, 257)
    assert np.all(fb >= 0)
    assert np.all(fb.sum(axis=1) > 0)          # every filter is non-empty
    peaks = np.argmax(fb, axis=1)
    assert np.all(np.diff(peaks) > 0)          # centers march upward


@pytest.mark.parametrize("n", [8, 15, 20, 30, 43])
def test_features_do_not_depend_on_memory_layout(n):
    mags = np.random.default_rng(n).random((n, 257))
    want = features_from_magnitudes(mags, SR)
    got = features_from_magnitudes(np.asfortranarray(mags), SR)
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# embeddings and scoring


def test_embed_of_constant_features_has_zero_std_half():
    e = embed(np.ones((10, FEATURE_DIM)))
    assert e.dim == EMBED_DIM == 144
    assert np.all(e.vector[FEATURE_DIM:] == 0.0)
    assert np.all(e.vector[:FEATURE_DIM] == 1.0)


def test_embed_is_frame_order_free():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((20, FEATURE_DIM))
    shuffled = data[rng.permutation(20)]
    a = embed(data)
    b = embed(shuffled)
    assert np.allclose(a.vector, b.vector, rtol=0, atol=1e-12)


def test_embed_ignores_exact_duplication():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((15, FEATURE_DIM))
    a = embed(data)
    b = embed(np.vstack([data, data]))
    assert np.allclose(a.vector, b.vector, rtol=0, atol=1e-12)


def test_distance_landmarks():
    a = Embedding(np.array([1.0, 0.0]))
    b = Embedding(np.array([0.0, 1.0]))
    assert distance(a, a) == 0.0
    assert distance(a, b) == pytest.approx(1.0)
    assert distance(a, Embedding(np.array([-1.0, 0.0]))) == pytest.approx(2.0)


def test_distance_scale_invariance_and_symmetry():
    rng = np.random.default_rng(2)
    a = Embedding(rng.standard_normal(144))
    b = Embedding(rng.standard_normal(144))
    assert distance(a, b) == pytest.approx(distance(b, a))
    scaled = Embedding(a.vector * 37.5)
    assert distance(scaled, b) == pytest.approx(distance(a, b), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40),
       dim=st.sampled_from([3, 17, EMBED_DIM]))
def test_cosine_distances_of_any_rows_are_those_rows_of_the_batch(seed, n,
                                                                   dim):
    # a search scores only its own candidates' rows of a table, so a
    # row's distance must not depend on which rows share its batch
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
    ref = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3)
    rows = rng.integers(0, n, rng.integers(1, 2 * n + 1))  # any order, repeats
    assert np.array_equal(cosine_distances(matrix[rows], ref),
                          cosine_distances(matrix, ref)[rows])


def test_distance_errors():
    a = Embedding(np.ones(4))
    with pytest.raises(ValueError):
        distance(a, Embedding(np.ones(5)))
    with pytest.raises(ValueError):
        distance(a, Embedding(np.zeros(4)))


def test_embedding_validation():
    with pytest.raises(ValueError):
        Embedding(np.array([]))
    with pytest.raises(ValueError):
        Embedding(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        Embedding(np.ones((2, 2)))


def test_pipeline_is_deterministic():
    x = speechy()
    a = embed(mfcc(x)).vector
    b = embed(mfcc(AudioBuffer(x.samples.copy(), SR))).vector
    assert np.array_equal(a, b)


def test_toy_speakers_separate(corpus_small):
    embs = {utt: embed(mfcc(buf))
            for utt, buf in corpus_small.utterances.items()}
    within, between = [], []
    keys = sorted(embs)
    for i, ki in enumerate(keys):
        for kj in keys[i + 1:]:
            d = distance(embs[ki], embs[kj])
            same = corpus_small.speaker_of[ki] == corpus_small.speaker_of[kj]
            (within if same else between).append(d)
    assert np.mean(between) - np.mean(within) >= 0.1


# ---------------------------------------------------------------------------
# sidecar files


def test_embedding_sidecar_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    table = {f"utt{i}": Embedding(rng.standard_normal(20)) for i in range(4)}
    path = tmp_path / "emb.txt"
    write_embeddings(path, table)
    back = load_external_embeddings(path)
    assert sorted(back) == sorted(table)
    for utt in table:
        assert np.array_equal(back[utt].vector, table[utt].vector)


def test_load_external_embeddings_shapes(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("a " + " ".join(["0.5"] * 200) + "\n"
                    "b " + " ".join(["1.5"] * 200) + "\n")
    table = load_external_embeddings(path)
    assert len(table) == 2
    assert table["a"].dim == 200


def test_load_external_embeddings_error_reporting(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("a 1 2 3\na 4 5 6\n")
    with pytest.raises(ValueError, match="'a'"):
        load_external_embeddings(path)
    path.write_text("a 1 2 3\nb 4 5\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: dimension")):
        load_external_embeddings(path)
    path.write_text("a 1 2 x\n")
    with pytest.raises(ValueError, match="non-numeric"):
        load_external_embeddings(path)
    path.write_text("a\n")
    with pytest.raises(ValueError, match="no embedding components"):
        load_external_embeddings(path)
    path.write_text("")
    with pytest.raises(ValueError, match="no embeddings"):
        load_external_embeddings(path)


def test_load_external_embeddings_names_the_line_of_a_non_finite_row(
        tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("a 1 2 3\nb 4 nan 6\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:2: embedding vector contains non-finite")):
        load_external_embeddings(path)
