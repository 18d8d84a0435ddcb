import hashlib
import json
import logging
import os

import numpy as np
import pytest

from helpers import SR, dominant_freq, rel_rms, speechy, tone, white_noise
from voxrestore import (IDENTITY_PARAMS, AudioBuffer, DisguiseSpec, disguise,
                        embed, load_wav, load_external_embeddings, mfcc,
                        restore_with, save_wav, write_embeddings)
from voxrestore.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def json_line(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


@pytest.fixture()
def voice_wav(tmp_path):
    path = tmp_path / "voice.wav"
    save_wav(path, speechy(1.0))
    return str(path)


# ---------------------------------------------------------------------------
# disguise


def test_disguise_identity_round_trip(tmp_path, capsys, voice_wav):
    out = str(tmp_path / "same.wav")
    rc, stdout, _ = run_cli(capsys, "disguise", "--in", voice_wav,
                            "--out", out, "--spec", "pitch-freq:0")
    assert rc == 0
    payload = json_line(stdout)
    assert payload["family"] == "pitch-freq" and payload["param"] == 0.0
    a = load_wav(voice_wav)
    b = load_wav(out)
    assert b.sample_rate == a.sample_rate
    assert rel_rms(b.samples, a.samples, trim=400) < 2e-3


def test_disguise_octave_resampling(tmp_path, capsys):
    src = str(tmp_path / "tone.wav")
    save_wav(src, tone(200.0, 1.0))
    out = str(tmp_path / "up.wav")
    rc, stdout, _ = run_cli(capsys, "disguise", "--in", src, "--out", out,
                            "--spec", "pitch-time:12")
    assert rc == 0
    shifted = load_wav(out)
    assert dominant_freq(shifted) == pytest.approx(400.0, rel=0.02)
    assert json_line(stdout)["samples"] == len(shifted)
    assert abs(len(shifted) - SR // 2) <= 2


def test_disguise_rejects_out_of_range_param(tmp_path, capsys, voice_wav):
    out = str(tmp_path / "no.wav")
    rc, _, stderr = run_cli(capsys, "disguise", "--in", voice_wav,
                            "--out", out, "--spec", "vtln-power:0.6")
    assert rc == 1
    assert stderr.startswith("error:")
    assert not os.path.exists(out)


def test_disguise_rejects_malformed_spec(tmp_path, capsys, voice_wav):
    rc, _, stderr = run_cli(capsys, "disguise", "--in", voice_wav,
                            "--out", str(tmp_path / "no.wav"),
                            "--spec", "pitch-freq")
    assert rc == 1 and "error:" in stderr


def test_disguise_missing_input(tmp_path, capsys):
    ghost = str(tmp_path / "ghost.wav")
    rc, _, stderr = run_cli(capsys, "disguise", "--in", ghost,
                            "--out", str(tmp_path / "no.wav"),
                            "--spec", "pitch-freq:2")
    assert rc == 1 and "error:" in stderr and ghost in stderr


# ---------------------------------------------------------------------------
# estimate


def test_estimate_identical_audio(tmp_path, capsys, voice_wav):
    rc, stdout, _ = run_cli(capsys, "estimate", "--enroll", voice_wav,
                            "--test", voice_wav, "--grid=-2:2:1")
    assert rc == 0
    payload = json_line(stdout)
    assert payload["alpha_hat"] == 0.0
    assert payload["d_hat"] <= 1e-12
    assert payload["method"] == "grid"
    assert len(payload["per_candidate"]) == 5


def test_estimate_recovers_disguise_and_writes_audio(tmp_path, capsys,
                                                     voice_wav):
    disguised = str(tmp_path / "up6.wav")
    assert run_cli(capsys, "disguise", "--in", voice_wav, "--out", disguised,
                   "--spec", "pitch-freq:6")[0] == 0
    restored = str(tmp_path / "undone.wav")
    rc, stdout, _ = run_cli(capsys, "estimate", "--enroll", voice_wav,
                            "--test", disguised, "--restored", restored)
    assert rc == 0
    payload = json_line(stdout)
    assert abs(payload["alpha_hat"] - 6.0) <= 1.0
    undone = load_wav(restored)
    ref = load_wav(voice_wav)
    assert dominant_freq(undone, lo=50.0, hi=1000.0) == pytest.approx(
        dominant_freq(ref, lo=50.0, hi=1000.0), rel=0.05)


# SHA-256 of the `estimate --restored` WAV for `voice_wav` disguised with
# each family; a refactor of the restoration path must leave them alone
RESTORED_SHA256 = {
    "pitch-freq:4": "114ca34535548b091ce05b116e70f273"
                    "559d0167c4c4f1191dd1302252dad236",
    "pitch-time:-3": "f521a0605c6de432a994db11b670e091"
                     "283190b31372e5b7626613ce6683a35e",
    "vtln-bilinear:0.1": "1e4b4b743f4a47ece4caace6a5a7cdc1"
                         "a9ec33cc6b8e6550a18118882d142457",
    "vtln-quadratic:1": "ad5702bd94e1bec703e9eeec4eaa33a0"
                        "ba011365b7aad09e9551c5a57203f04d",
    "vtln-power:0.2": "8caa7fd0fba9c16d15d6a3c930829f1a"
                      "823a867ddb8211f8c523585c9b6f433b",
    "vtln-piecewise:1.2": "5b485f260f31b7b72cc08c27e4142b49"
                          "5892aec1e40db197c58916be95041778",
}


@pytest.mark.parametrize("spec", sorted(RESTORED_SHA256))
def test_estimate_restored_audio_is_pinned(tmp_path, capsys, voice_wav,
                                           spec):
    family = spec.split(":")[0]
    disguised = tmp_path / "disguised.wav"
    restored = tmp_path / "restored.wav"
    assert run_cli(capsys, "disguise", "--in", voice_wav,
                   "--out", str(disguised), "--spec", spec)[0] == 0
    rc, stdout, _ = run_cli(capsys, "estimate", "--enroll", voice_wav,
                            "--test", str(disguised), "--family", family,
                            "--restored", str(restored))
    assert rc == 0
    assert json_line(stdout)["alpha_hat"] != IDENTITY_PARAMS[family]
    digest = hashlib.sha256(restored.read_bytes()).hexdigest()
    assert digest == RESTORED_SHA256[spec]


@pytest.mark.parametrize("method", ["grid", "f0ratio"])
def test_estimate_external_scorer_matches_builtin(tmp_path, capsys,
                                                  voice_wav, method):
    probe = str(tmp_path / "probe.wav")
    save_wav(probe, disguise(speechy(1.0, seed=5),
                             DisguiseSpec("pitch-freq", 3.0)))
    enroll, test = load_wav(voice_wav), load_wav(probe)
    argv = ["estimate", "--enroll", voice_wav, "--test", probe,
            "--method", method, "--grid=-4:4:1"]
    rc, want, _ = run_cli(capsys, *argv)
    assert rc == 0
    for enroll_id, test_id, flags in (
            ("E", "T", ["--enroll-id", "E", "--test-id", "T"]),
            ("voice", "probe", [])):
        table = {enroll_id: embed(mfcc(enroll))}
        for alpha in range(-4, 5):   # the no-op reads the plain row
            token = f"{test_id}#pitch-freq:{alpha}" if alpha else test_id
            table[token] = embed(
                restore_with(test, float(alpha), "pitch-freq"))
        sidecar = tmp_path / f"{enroll_id}.txt"
        write_embeddings(sidecar, table)
        rc, got, _ = run_cli(capsys, *argv, "--scorer",
                             f"external:{sidecar}", *flags)
        assert rc == 0
        assert json_line(got) == json_line(want)


def test_estimate_external_grid_reads_no_audio(tmp_path, capsys, voice_wav):
    probe = str(tmp_path / "probe.wav")
    save_wav(probe, disguise(speechy(1.0, seed=5),
                             DisguiseSpec("pitch-freq", 2.0)))
    rc, want, _ = run_cli(capsys, "estimate", "--enroll", voice_wav,
                          "--test", probe, "--grid=-2:2:1")
    assert rc == 0
    table = {"E": embed(mfcc(load_wav(voice_wav)))}
    for alpha in range(-2, 3):       # the no-op reads the plain row
        table[f"T#pitch-freq:{alpha}" if alpha else "T"] = embed(
            restore_with(load_wav(probe), float(alpha), "pitch-freq"))
    sidecar = tmp_path / "emb.txt"
    write_embeddings(sidecar, table)
    ghost = str(tmp_path / "ghost1.wav")
    argv = ["estimate", "--enroll", ghost,
            "--test", str(tmp_path / "ghost2.wav"), "--grid=-2:2:1",
            "--scorer", f"external:{sidecar}",
            "--enroll-id", "E", "--test-id", "T"]
    rc, got, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert json_line(got) == json_line(want)
    # the F0 ratio and the restored audio read the samples
    for flags in (["--method", "f0ratio"],
                  ["--restored", str(tmp_path / "restored.wav")]):
        rc, _, stderr = run_cli(capsys, *argv, *flags)
        assert rc == 1 and ghost in stderr


def test_estimate_ids_name_only_sidecar_rows(tmp_path, capsys, voice_wav):
    hidden = disguise(speechy(1.0, seed=5), DisguiseSpec("pitch-freq", 2.0))
    probe = str(tmp_path / "probe.wav")
    save_wav(probe, hidden)
    for side in ("a", "b"):
        os.makedirs(tmp_path / side)
    same_enroll = str(tmp_path / "a" / "x.wav")
    same_test = str(tmp_path / "b" / "x.wav")
    save_wav(same_enroll, load_wav(voice_wav))
    save_wav(same_test, hidden)
    rc, want, _ = run_cli(capsys, "estimate", "--enroll", voice_wav,
                          "--test", probe, "--grid=-2:2:1")
    assert rc == 0
    rc, got, _ = run_cli(capsys, "estimate", "--enroll", same_enroll,
                         "--test", same_test, "--grid=-2:2:1")
    assert rc == 0
    assert json_line(got) == json_line(want)
    # a sidecar cannot tell the two sides apart by one id
    sidecar = tmp_path / "emb.txt"
    write_embeddings(sidecar, {"x": embed(mfcc(hidden))})
    rc, _, stderr = run_cli(capsys, "estimate", "--enroll", same_enroll,
                            "--test", same_test, "--grid=-2:2:1",
                            "--scorer", f"external:{sidecar}")
    assert rc == 1 and "'x' names both" in stderr


def test_estimate_f0ratio_requires_voiced_audio(tmp_path, capsys):
    noisy = str(tmp_path / "noise.wav")
    save_wav(noisy, white_noise(1.0, seed=4))
    voiced = str(tmp_path / "voiced.wav")
    save_wav(voiced, speechy(1.0))
    rc, _, stderr = run_cli(capsys, "estimate", "--enroll", noisy,
                            "--test", voiced, "--method", "f0ratio")
    assert rc == 1
    assert "unvoiced" in stderr


def test_estimate_f0ratio_names_the_side_it_cannot_analyze(tmp_path, capsys,
                                                           voice_wav):
    short = str(tmp_path / "short.wav")
    save_wav(short, AudioBuffer(tone(200.0).samples[:100], SR))
    rc, _, stderr = run_cli(capsys, "estimate", "--enroll", voice_wav,
                            "--test", short, "--method", "f0ratio")
    assert rc == 1
    assert "error: test: signal of 100 samples is shorter" in stderr


def test_estimate_f0ratio_rejects_warp_family(capsys, voice_wav):
    rc, _, stderr = run_cli(capsys, "estimate", "--enroll", voice_wav,
                            "--test", voice_wav, "--method", "f0ratio",
                            "--family", "vtln-power")
    assert rc == 1 and "error:" in stderr


def test_estimate_grid_argument_validation(capsys, voice_wav):
    rc, _, stderr = run_cli(capsys, "estimate", "--enroll", voice_wav,
                            "--test", voice_wav, "--grid", "1:2")
    assert rc == 1 and "lo:hi:step" in stderr
    rc, _, stderr = run_cli(capsys, "estimate", "--enroll", voice_wav,
                            "--test", voice_wav, "--grid", "4:8:1")
    assert rc == 1 and "no-op" in stderr
    rc, _, stderr = run_cli(capsys, "estimate", "--enroll", voice_wav,
                            "--test", voice_wav, "--scorer", "magic")
    assert rc == 1 and "scorer" in stderr


@pytest.mark.parametrize("grid, bound", [("0:inf:1", "hi"),
                                         ("nan:1:1", "lo"),
                                         ("0:1:inf", "step")])
def test_estimate_rejects_non_finite_grid_bounds(capsys, voice_wav, grid,
                                                 bound):
    rc, _, stderr = run_cli(capsys, "estimate", "--enroll", voice_wav,
                            "--test", voice_wav, "--grid", grid)
    assert rc == 1
    assert stderr.startswith(f"error: grid {bound} must be finite")


def test_estimate_rejects_unknown_method(capsys, voice_wav):
    with pytest.raises(SystemExit):
        main(["estimate", "--enroll", voice_wav, "--test", voice_wav,
              "--method", "oracle"])
    capsys.readouterr()


# ---------------------------------------------------------------------------
# corpus + trials + eval pipeline


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    rc = main(["corpus", "--out", str(path), "--speakers", "3",
               "--utts", "2", "--duration", "1.0"])
    assert rc == 0
    return str(path)


@pytest.fixture(scope="module")
def trial_dir(tmp_path_factory, corpus_dir):
    path = tmp_path_factory.mktemp("trials")
    rc = main(["trials", "--corpus", corpus_dir, "--out", str(path),
               "--n", "12", "--disguise", "vtln-power", "--seed", "5"])
    assert rc == 0
    return str(path)


def test_corpus_artifacts(corpus_dir, capsys):
    capsys.readouterr()
    index = os.path.join(corpus_dir, "corpus.tsv")
    lines = open(index, encoding="utf-8").read().splitlines()
    assert len(lines) == 6
    for line in lines:
        utt, spk, filename = line.split("\t")
        assert utt.startswith(spk)
        buf = load_wav(os.path.join(corpus_dir, filename))
        assert buf.sample_rate == 16000
        assert len(buf) == 16000


def test_corpus_rejects_bad_config(tmp_path, capsys):
    rc, _, stderr = run_cli(capsys, "corpus", "--out", str(tmp_path / "c"),
                            "--speakers", "1")
    assert rc == 1 and "error:" in stderr


def test_trials_artifacts(trial_dir, capsys):
    capsys.readouterr()
    lines = open(os.path.join(trial_dir, "trials.txt"),
                 encoding="utf-8").read().splitlines()
    assert len(lines) == 12
    labels = [line.split()[0] for line in lines]
    assert set(labels) == {"0", "1"} and labels.count("1") == 6
    for line in lines:
        parts = line.split()
        assert len(parts) == 4
        assert parts[3].startswith("vtln-power:")
        for token in parts[1:3]:
            assert os.path.isfile(os.path.join(trial_dir, token))
    assert os.path.isdir(os.path.join(trial_dir, "disguised"))


def test_trials_undisguised_lines_have_three_tokens(tmp_path_factory,
                                                    corpus_dir, capsys):
    out = tmp_path_factory.mktemp("plain_trials")
    rc, stdout, _ = run_cli(capsys, "trials", "--corpus", corpus_dir,
                            "--out", str(out), "--n", "10")
    assert rc == 0
    assert json_line(stdout)["n_disguised_files"] == 0
    lines = open(out / "trials.txt", encoding="utf-8").read().splitlines()
    assert all(len(line.split()) == 3 for line in lines)
    assert not os.path.isdir(out / "disguised")


def test_trials_reads_the_corpus_filename_column(tmp_path, capsys,
                                                 corpus_dir):
    moved = tmp_path / "c"
    os.makedirs(moved / "wav")
    index = open(os.path.join(corpus_dir, "corpus.tsv"),
                 encoding="utf-8").read().splitlines()
    with open(moved / "corpus.tsv", "w", encoding="utf-8") as fh:
        for line in index:
            utt, spk, filename = line.split("\t")
            save_wav(moved / "wav" / filename,
                     load_wav(os.path.join(corpus_dir, filename)))
            fh.write(f"{utt}\t{spk}\twav/{filename}\n")
    rc, _, _ = run_cli(capsys, "trials", "--corpus", str(moved),
                       "--out", str(tmp_path / "t"), "--n", "4")
    assert rc == 0
    for line in open(tmp_path / "t" / "trials.txt", encoding="utf-8"):
        assert all(token.startswith("../c/wav/")
                   for token in line.split()[1:3])
    rc, _, stderr = run_cli(capsys, "eval", "--trials",
                            str(tmp_path / "t" / "trials.txt"),
                            "--out", str(tmp_path / "r.json"))
    assert rc == 0, stderr


def test_trials_requires_corpus_index(tmp_path, capsys):
    rc, _, stderr = run_cli(capsys, "trials", "--corpus",
                            str(tmp_path / "nowhere"),
                            "--out", str(tmp_path / "t"))
    assert rc == 1 and "no corpus index" in stderr


def test_eval_report_artifacts(trial_dir, tmp_path, capsys):
    report_path = str(tmp_path / "report.json")
    rc, stdout, stderr = run_cli(
        capsys, "eval", "--trials", os.path.join(trial_dir, "trials.txt"),
        "--out", report_path, "--restore", "none",
        "--restore", "vtln-power")
    assert rc == 0
    payload = json.load(open(report_path, encoding="utf-8"))
    assert json_line(stdout) == payload
    assert set(payload) == {"matrix", "bias", "per_alpha", "n_trials",
                            "trial_summary"}
    assert [r["restoration"] for r in payload["matrix"]] == ["none",
                                                             "vtln-power"]
    assert all(r["disguise"] == "vtln-power" for r in payload["matrix"])
    assert payload["n_trials"] == 12
    assert "EER" in stderr

    rows = open(str(tmp_path / "report.csv"), encoding="utf-8").read() \
        .splitlines()
    assert rows[0] == "disguise,restoration,eer_percent,threshold," \
                      "n_same,n_diff"
    assert len(rows) == 3
    assert rows[1].startswith("vtln-power,none,")
    assert rows[2].startswith("vtln-power,vtln-power,")
    got = float(rows[2].split(",")[2])
    assert got == payload["matrix"][1]["eer"]

    per_alpha = str(tmp_path / "report_per_alpha_vtln-power.csv")
    lines = open(per_alpha, encoding="utf-8").read().splitlines()
    assert lines[0] == "alpha,eer"
    assert len(lines) > 1
    alphas = [float(line.split(",")[0]) for line in lines[1:]]
    assert alphas == sorted(alphas)


def test_eval_is_deterministic_across_workers(trial_dir, tmp_path, capsys):
    trials = os.path.join(trial_dir, "trials.txt")
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert run_cli(capsys, "eval", "--trials", trials, "--out", a,
                   "--restore", "vtln-power", "--jobs", "1")[0] == 0
    assert run_cli(capsys, "eval", "--trials", trials, "--out", b,
                   "--restore", "vtln-power", "--jobs", "4")[0] == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    assert (open(str(tmp_path / "a.csv"), "rb").read()
            == open(str(tmp_path / "b.csv"), "rb").read())


def test_eval_dump_embeddings_round_trip(trial_dir, tmp_path, capsys):
    trials = os.path.join(trial_dir, "trials.txt")
    emb_path = str(tmp_path / "emb.txt")
    first = str(tmp_path / "builtin.json")
    rc, _, _ = run_cli(capsys, "eval", "--trials", trials, "--out", first,
                       "--dump-embeddings", emb_path)
    assert rc == 0
    table = load_external_embeddings(emb_path)
    tokens = set()
    for line in open(trials, encoding="utf-8"):
        parts = line.split()
        tokens.update(parts[1:3])
    assert set(table) == tokens

    second = str(tmp_path / "external.json")
    rc, _, _ = run_cli(capsys, "eval", "--trials", trials, "--out", second,
                       "--scorer", f"external:{emb_path}")
    assert rc == 0
    a = json.load(open(first, encoding="utf-8"))
    b = json.load(open(second, encoding="utf-8"))
    assert (a["matrix"][0]["eer"], a["matrix"][0]["threshold"]) \
        == (b["matrix"][0]["eer"], b["matrix"][0]["threshold"])


def test_eval_external_no_op_candidates_read_the_plain_rows(
        trial_dir, tmp_path, capsys):
    trials = os.path.join(trial_dir, "trials.txt")
    methods = ["--restore", "none", "--restore", "pitch-freq"]
    builtin, dump = tmp_path / "builtin", tmp_path / "emb.txt"
    external = tmp_path / "external"
    for out in (builtin, external):
        os.makedirs(out)
    assert run_cli(capsys, "eval", "--trials", trials, "--out",
                   str(builtin / "report.json"), *methods,
                   "--dump-embeddings", str(dump))[0] == 0
    # the dumped plain rows plus every candidate that is not a no-op
    table = load_external_embeddings(dump)
    tests = {line.split()[2] for line in open(trials, encoding="utf-8")}
    for token in tests:
        test = load_wav(os.path.join(trial_dir, token))
        for alpha in range(-11, 12):
            if alpha:
                table[f"{token}#pitch-freq:{alpha}"] = embed(
                    restore_with(test, float(alpha), "pitch-freq"))
    sidecar = tmp_path / "sidecar.txt"
    write_embeddings(sidecar, table)
    assert run_cli(capsys, "eval", "--trials", trials, "--out",
                   str(external / "report.json"), *methods,
                   "--scorer", f"external:{sidecar}")[0] == 0
    names = sorted(os.listdir(builtin))
    assert names == sorted(os.listdir(external)) and len(names) == 4
    for name in names:
        assert (builtin / name).read_bytes() == (external / name).read_bytes()


def _count_analyses(monkeypatch) -> dict:
    """Count restoration contexts built and feature computations,
    wherever the CLI reaches them."""
    from voxrestore import restore, speaker
    counts = {"features": 0, "context": 0}
    features = speaker.features_from_magnitudes
    init = restore._RestorationContext.__init__

    def counted_features(*args):
        counts["features"] += 1
        return features(*args)

    def counted_init(self, disguised):
        counts["context"] += 1
        init(self, disguised)

    for module in (restore, speaker):
        monkeypatch.setattr(module, "features_from_magnitudes",
                            counted_features)
    monkeypatch.setattr(restore._RestorationContext, "__init__", counted_init)
    return counts


def test_eval_dump_embeddings_reuses_the_run(trial_dir, tmp_path, capsys,
                                             monkeypatch):
    trials = os.path.join(trial_dir, "trials.txt")
    counts = _count_analyses(monkeypatch)
    methods = ["--restore", "none", "--restore", "pitch-freq"]
    assert run_cli(capsys, "eval", "--trials", trials, "--out",
                   str(tmp_path / "a.json"), *methods)[0] == 0
    plain = dict(counts)
    counts.update(features=0, context=0)
    assert run_cli(capsys, "eval", "--trials", trials, "--out",
                   str(tmp_path / "b.json"), *methods,
                   "--dump-embeddings", str(tmp_path / "b.txt"))[0] == 0
    assert counts == plain
    # without "none" the dump holds the same rows
    assert run_cli(capsys, "eval", "--trials", trials, "--out",
                   str(tmp_path / "c.json"), "--restore", "pitch-freq",
                   "--dump-embeddings", str(tmp_path / "c.txt"))[0] == 0
    assert ((tmp_path / "b.txt").read_bytes()
            == (tmp_path / "c.txt").read_bytes())


def test_eval_dump_without_none_reuses_the_run(trial_dir, tmp_path, capsys,
                                               monkeypatch):
    trials = os.path.join(trial_dir, "trials.txt")
    counts = _count_analyses(monkeypatch)
    assert run_cli(capsys, "eval", "--trials", trials, "--out",
                   str(tmp_path / "a.json"), "--restore", "pitch-freq")[0] == 0
    plain = dict(counts)
    counts.update(features=0, context=0)
    assert run_cli(capsys, "eval", "--trials", trials, "--out",
                   str(tmp_path / "b.json"), "--restore", "pitch-freq",
                   "--dump-embeddings", str(tmp_path / "b.txt"))[0] == 0
    assert counts == plain
    assert run_cli(capsys, "eval", "--trials", trials, "--out",
                   str(tmp_path / "c.json"), "--restore", "none",
                   "--restore", "pitch-freq",
                   "--dump-embeddings", str(tmp_path / "c.txt"))[0] == 0
    assert ((tmp_path / "b.txt").read_bytes()
            == (tmp_path / "c.txt").read_bytes())


def test_eval_names_the_line_of_a_bad_disguise_token(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    for token in ("pitch-freq:abc", "pitch-freq:99"):
        bad.write_text(f"1 a.wav b.wav pitch-freq:1\n0 a.wav b.wav {token}\n",
                       encoding="utf-8")
        rc, _, stderr = run_cli(capsys, "eval", "--trials", str(bad),
                                "--out", str(tmp_path / "r.json"))
        assert rc == 1 and f"{bad}:2: " in stderr


def test_eval_missing_trials_writes_nothing(tmp_path, capsys):
    report = str(tmp_path / "report.json")
    rc, _, stderr = run_cli(capsys, "eval", "--trials",
                            str(tmp_path / "ghost.txt"), "--out", report)
    assert rc == 1 and "error:" in stderr
    assert not os.path.exists(report)


def test_eval_names_a_missing_audio_file(tmp_path, capsys, voice_wav):
    trials = tmp_path / "trials.txt"
    trials.write_text("1 voice.wav ghost.wav\n0 voice.wav ghost.wav\n",
                      encoding="utf-8")
    rc, _, stderr = run_cli(capsys, "eval", "--trials", str(trials),
                            "--out", str(tmp_path / "r.json"))
    assert rc == 1 and str(tmp_path / "ghost.wav") in stderr


@pytest.mark.parametrize("method", ["none", "pitch-freq", "f0ratio"])
@pytest.mark.parametrize("kind", ["silent", "short"])
def test_eval_names_the_utterance_it_cannot_analyze(tmp_path, capsys,
                                                    voice_wav, kind, method):
    samples = np.zeros(SR) if kind == "silent" else tone(200.0).samples[:100]
    save_wav(tmp_path / f"{kind}.wav", AudioBuffer(samples, SR))
    trials = tmp_path / "trials.txt"
    trials.write_text(f"1 voice.wav {kind}.wav\n0 voice.wav {kind}.wav\n",
                      encoding="utf-8")
    rc, _, stderr = run_cli(capsys, "eval", "--trials", str(trials),
                            "--out", str(tmp_path / "r.json"),
                            "--restore", method)
    reason = ("insufficient voiced content" if kind == "silent"
              else "signal of 100 samples is shorter")
    assert rc == 1 and f"error: {kind}.wav: {reason}" in stderr


def test_eval_rejects_bad_trial_lines(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 a b\n", encoding="utf-8")
    rc, _, stderr = run_cli(capsys, "eval", "--trials", str(bad),
                            "--out", str(tmp_path / "r.json"))
    assert rc == 1 and "label must be 0 or 1" in stderr


def test_eval_rejects_unknown_restoration(trial_dir, tmp_path, capsys):
    rc, _, stderr = run_cli(capsys, "eval", "--trials",
                            os.path.join(trial_dir, "trials.txt"),
                            "--out", str(tmp_path / "r.json"),
                            "--restore", "telepathy")
    assert rc == 1 and "unknown disguise family" in stderr


def test_eval_rejects_mixed_sample_rates(tmp_path, capsys):
    save_wav(tmp_path / "wide.wav", speechy(1.0))
    save_wav(tmp_path / "narrow.wav", speechy(1.0, sr=8000))
    trials = tmp_path / "trials.txt"
    trials.write_text("1 wide.wav narrow.wav\n0 wide.wav narrow.wav\n",
                      encoding="utf-8")
    rc, _, stderr = run_cli(capsys, "eval", "--trials", str(trials),
                            "--out", str(tmp_path / "r.json"))
    assert rc == 1 and "8000 Hz and 16000 Hz" in stderr


def test_seed_and_jobs_only_where_they_act(tmp_path, capsys, voice_wav):
    for argv in (["disguise", "--in", voice_wav, "--out",
                  str(tmp_path / "x.wav"), "--spec", "pitch-freq:1",
                  "--seed", "1"],
                 ["estimate", "--enroll", voice_wav, "--test", voice_wav,
                  "--jobs", "2"],
                 ["corpus", "--out", str(tmp_path / "c"), "--jobs", "2"],
                 ["eval", "--trials", str(tmp_path / "t.txt"), "--out",
                  str(tmp_path / "r.json"), "--seed", "1"]):
        with pytest.raises(SystemExit):
            main(argv)
    assert list(tmp_path.iterdir()) == [tmp_path / "voice.wav"]
    capsys.readouterr()


def test_eval_dump_embeddings_needs_builtin(trial_dir, tmp_path, capsys):
    emb_path = str(tmp_path / "emb.txt")
    assert run_cli(capsys, "eval", "--trials",
                   os.path.join(trial_dir, "trials.txt"),
                   "--out", str(tmp_path / "a.json"),
                   "--dump-embeddings", emb_path)[0] == 0
    rc, _, stderr = run_cli(capsys, "eval", "--trials",
                            os.path.join(trial_dir, "trials.txt"),
                            "--out", str(tmp_path / "b.json"),
                            "--scorer", f"external:{emb_path}",
                            "--dump-embeddings", str(tmp_path / "c.txt"))
    assert rc == 1 and "builtin" in stderr


def test_eval_rejects_external_dump_before_any_work(trial_dir, tmp_path,
                                                   tmp_path_factory, capsys,
                                                   monkeypatch):
    from voxrestore import cli
    trials = os.path.join(trial_dir, "trials.txt")
    first = tmp_path_factory.mktemp("first")
    sidecar = first / "emb.txt"
    assert run_cli(capsys, "eval", "--trials", trials,
                   "--out", str(first / "a.json"),
                   "--dump-embeddings", str(sidecar))[0] == 0
    loaded = []
    monkeypatch.setattr(cli, "load_wav",
                        lambda path: loaded.append(path) or load_wav(path))
    rc, _, stderr = run_cli(capsys, "eval", "--trials", trials,
                            "--out", str(tmp_path / "b.json"),
                            "--scorer", f"external:{sidecar}",
                            "--dump-embeddings", str(tmp_path / "c.txt"))
    assert rc == 1 and "builtin" in stderr
    assert loaded == []
    assert list(tmp_path.iterdir()) == []


def test_eval_logs_embeddings_and_warp_maps(trial_dir, tmp_path, capsys,
                                            caplog):
    from voxrestore.disguise import warp_indices
    trials = os.path.join(trial_dir, "trials.txt")
    enrolls, tests = set(), set()
    for line in open(trials, encoding="utf-8"):
        enrolls.add(line.split()[1])
        tests.add(line.split()[2])
    warp_indices.cache_clear()
    caplog.set_level(logging.INFO, logger="voxrestore")
    rc, stdout, _ = run_cli(capsys, "eval", "--trials", trials, "--out",
                            str(tmp_path / "a.json"), "--restore",
                            "vtln-power", "--log-level", "info")
    assert rc == 0
    n_grid = 21     # the default vtln-power grid
    # every utterance has a plain row; it is the grid's no-op candidate,
    # computed first by the pitch-freq:0 inversion
    assert (f"; {len(enrolls) + n_grid * len(tests)} embeddings, "
            f"{n_grid} warp maps "
            f"({n_grid * (len(tests) - 1) + len(enrolls)} reused)"
            in caplog.text)
    assert "warp maps" not in stdout


# ---------------------------------------------------------------------------
# logging plumbing


def test_log_level_flag_validation(tmp_path, capsys):
    rc, _, stderr = run_cli(capsys, "corpus", "--out", str(tmp_path / "c"),
                            "--log-level", "chatty")
    assert rc == 1 and "unknown log level" in stderr


def test_log_level_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("VOXRESTORE_LOG", "chatty")
    rc, _, stderr = run_cli(capsys, "corpus", "--out", str(tmp_path / "c"),
                            "--speakers", "2", "--utts", "2",
                            "--duration", "1.0")
    assert rc == 1 and "unknown log level" in stderr
    monkeypatch.setenv("VOXRESTORE_LOG", "info")
    rc, _, _ = run_cli(capsys, "corpus", "--out", str(tmp_path / "c"),
                       "--speakers", "2", "--utts", "2",
                       "--duration", "1.0")
    assert rc == 0
