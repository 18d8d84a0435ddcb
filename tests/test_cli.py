import hashlib
import json
import logging
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy.io import wavfile

from helpers import SR, dominant_freq, rel_rms, speechy, tone, white_noise
from voxrestore import (IDENTITY_PARAMS, AudioBuffer, DisguiseSpec, disguise,
                        embed, load_wav, load_external_embeddings, mfcc,
                        restore_with, save_wav, write_embeddings)
from voxrestore.cli import main
from voxrestore.restore import grid_from_range


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


def test_cli_leaves_scipy_unloaded(tmp_path):
    # the package runs on numpy alone: importing the CLI, synthesizing a
    # corpus, reading its WAVs back, writing trials and evaluating them
    # must load no scipy module (scipy.io alone costs 0.2-0.3 s a process)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    script = """
import glob, os, sys
import voxrestore, voxrestore.cli as cli
def scipy_loaded():
    print(any(m == "scipy" or m.startswith("scipy.") for m in sys.modules))
scipy_loaded()
c = sys.argv[1]
assert cli.main(["corpus", "--out", c, "--speakers", "2", "--utts", "2",
                 "--duration", "0.5"]) == 0
scipy_loaded()
voxrestore.load_wav(sorted(glob.glob(os.path.join(c, "*.wav")))[0])
scipy_loaded()
assert cli.main(["trials", "--corpus", c, "--out", c + "-t", "--n", "8",
                 "--disguise", "pitch-time"]) == 0
assert cli.main(["eval", "--trials", os.path.join(c + "-t", "trials.txt"),
                 "--out", c + ".json", "--restore", "none"]) == 0
scipy_loaded()
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "c")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    flags = [line for line in lines if line in ("True", "False")]
    assert flags == ["False"] * 4
    assert json.loads(lines[1])["n_utterances"] == 4


def test_cli_leaves_numpy_random_unloaded(trial_dir, tmp_path):
    # eval never draws, and loading numpy.random costs a process about
    # 6 MB and 35 ms; importing the package must not load it either
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    script = """
import sys
import voxrestore, voxrestore.cli as cli
print("numpy.random" in sys.modules)
assert cli.main(["eval", "--trials", sys.argv[1], "--out", sys.argv[2],
                 "--restore", "none", "--restore", "pitch-freq",
                 "--restore", "f0ratio"]) == 0
print("numpy.random" in sys.modules)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, os.path.join(trial_dir, "trials.txt"),
         str(tmp_path / "r.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert [lines[0], lines[-1]] == ["False", "False"]


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


# SHA-256 of the `disguise` WAV and of the `estimate --restored` WAV for
# `voice_wav` disguised with each family; a refactor of the disguise or
# the restoration path must leave them alone
WAV_SHA256 = {
    "pitch-freq:4": (
        "6ed952d4220e74160d1edcac2172e7e2db889eea2add0be673a889f645b3c2df",
        "114ca34535548b091ce05b116e70f273559d0167c4c4f1191dd1302252dad236"),
    "pitch-time:-3": (
        "6c8fec03f32a05fc4ee9a32b7b6141d7d1f0be5517d21796c54efb1289fbd118",
        "f521a0605c6de432a994db11b670e091283190b31372e5b7626613ce6683a35e"),
    "vtln-bilinear:0.1": (
        "9d4773126e5c01fae21fbbbf0d3250878a9c44b6b21d66ddfd06d64dc10e947f",
        "1e4b4b743f4a47ece4caace6a5a7cdc1a9ec33cc6b8e6550a18118882d142457"),
    "vtln-quadratic:1": (
        "bf5fd04d5ab77d7bb7a09b0c50adb3196dadbef7c9f910da4aa524a99353dba1",
        "ad5702bd94e1bec703e9eeec4eaa33a0ba011365b7aad09e9551c5a57203f04d"),
    "vtln-power:0.2": (
        "43348cd487a991c66769ea93ee5479b5a61924f5dcb15085de9195a0da118505",
        "8caa7fd0fba9c16d15d6a3c930829f1a823a867ddb8211f8c523585c9b6f433b"),
    "vtln-piecewise:1.2": (
        "61b1e6d40c2ff42357816e7352b5c468b5a8620cef5fd7ad04ae78358256419c",
        "5b485f260f31b7b72cc08c27e4142b495892aec1e40db197c58916be95041778"),
}


@pytest.mark.parametrize("spec", sorted(WAV_SHA256))
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
    assert tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in (disguised, restored)) == WAV_SHA256[spec]


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


@pytest.mark.parametrize("grid", ["-12:12:1e-10", "0:0.01:1e-8"])
def test_estimate_rejects_a_grid_of_too_many_candidates(capsys, voice_wav,
                                                        grid):
    rc, _, stderr = run_cli(capsys, "estimate", "--enroll", voice_wav,
                            "--test", voice_wav, f"--grid={grid}")
    assert rc == 1
    assert stderr.startswith("error: grid ") and " candidates, over " in stderr


@pytest.mark.parametrize("grid, bound", [("0:inf:1", "hi"),
                                         ("nan:1:1", "lo"),
                                         ("0:1:inf", "step")])
def test_estimate_rejects_non_finite_grid_bounds(capsys, voice_wav, grid,
                                                 bound):
    rc, _, stderr = run_cli(capsys, "estimate", "--enroll", voice_wav,
                            "--test", voice_wav, "--grid", grid)
    assert rc == 1
    assert stderr.startswith(f"error: grid {bound} must be finite")


def test_custom_grid_holds_no_negative_zero(capsys, voice_wav):
    grid = grid_from_range("pitch-freq", -0.9, 0.9, 0.3)
    assert [repr(spec.param) for spec in grid] == [
        "-0.9", "-0.6", "-0.3", "0.0", "0.3", "0.6", "0.9"]
    rc, stdout, stderr = run_cli(capsys, "estimate", "--enroll", voice_wav,
                                 "--test", voice_wav, "--grid=-0.9:0.9:0.3")
    assert rc == 0
    assert '"alpha_hat": 0.0,' in stdout and "[0.0, " in stdout
    assert "-0.0" not in stdout
    assert "estimated pitch-freq:0 " in stderr


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


def test_trials_rejects_whitespace_in_trial_paths(tmp_path, capsys,
                                                  corpus_dir):
    spaced = tmp_path / "my corpus"
    shutil.copytree(corpus_dir, spaced)
    out = tmp_path / "tr"
    rc, _, stderr = run_cli(capsys, "trials", "--corpus", str(spaced),
                            "--out", str(out), "--n", "8",
                            "--disguise", "vtln-power")
    assert rc == 1
    assert "../my corpus/" in stderr and "whitespace" in stderr
    assert not os.path.exists(out / "trials.txt")
    assert not os.path.exists(out / "disguised")


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


def test_eval_per_alpha_keys_name_the_family_of_mixed_trials(
        tmp_path, capsys, corpus_dir):
    trials = tmp_path / "t"
    assert main(["trials", "--corpus", corpus_dir, "--out", str(trials),
                 "--n", "24", "--disguise", "vtln-all", "--seed", "5"]) == 0
    report_path = tmp_path / "report.json"
    rc, _, _ = run_cli(capsys, "eval", "--trials", str(trials / "trials.txt"),
                       "--out", str(report_path), "--restore", "none")
    assert rc == 0
    payload = json.load(open(report_path, encoding="utf-8"))
    expected = {f"{e['family']}:{e['param']:g}": e["eer_percent"]
                for e in payload["per_alpha"]}
    assert len({e["family"] for e in payload["per_alpha"]}) > 1
    lines = open(tmp_path / "report_per_alpha_none.csv",
                 encoding="utf-8").read().splitlines()
    assert lines[0] == "alpha,eer"
    got = {key: float(eer) for key, eer in
           (line.split(",") for line in lines[1:])}
    assert got == expected


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


def test_eval_external_reads_audio_only_for_the_f0_ratio(trial_dir, tmp_path,
                                                        capsys):
    # with a table of embeddings only the F0 ratio reads samples, so a
    # corrupt WAV stops an f0ratio eval, naming it, and nothing else
    sidecar = str(tmp_path / "emb.txt")
    assert run_cli(capsys, "eval", "--trials",
                   os.path.join(trial_dir, "trials.txt"), "--out",
                   str(tmp_path / "builtin.json"), "--dump-embeddings",
                   sidecar)[0] == 0
    copy = tmp_path / "trials"
    shutil.copytree(trial_dir, copy)
    trials = str(copy / "trials.txt")
    bad = copy / open(trials, encoding="utf-8").readline().split()[2]
    bad.write_bytes(b"RIFF....WAVEjunk")
    assert run_cli(capsys, "eval", "--trials", trials, "--out",
                   str(tmp_path / "external.json"), "--scorer",
                   f"external:{sidecar}")[0] == 0
    assert ((tmp_path / "external.json").read_bytes()
            == (tmp_path / "builtin.json").read_bytes())
    rc, _, stderr = run_cli(capsys, "eval", "--trials", trials, "--out",
                            str(tmp_path / "f0.json"), "--restore",
                            "f0ratio", "--scorer", f"external:{sidecar}")
    assert rc == 1
    assert stderr.startswith("error: ") and str(bad) in stderr


def _count_analyses(monkeypatch) -> dict:
    """Count restoration contexts built and candidate features computed,
    wherever the CLI reaches them."""
    from voxrestore import restore, speaker
    counts = {"features": 0, "context": 0}
    features = speaker.candidate_features
    init = restore._RestorationContext.__init__

    def counted_features(power, sample_rate, specs, work=None):
        counts["features"] += len(specs)
        return features(power, sample_rate, specs, work)

    def counted_init(self, disguised):
        counts["context"] += 1
        init(self, disguised)

    for module in (restore, speaker):
        monkeypatch.setattr(module, "candidate_features", counted_features)
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


def test_eval_rejects_trials_of_one_class(tmp_path, capsys, voice_wav):
    trials = tmp_path / "trials.txt"
    trials.write_text("1 voice.wav voice.wav\n1 voice.wav voice.wav\n",
                      encoding="utf-8")
    rc, stdout, stderr = run_cli(capsys, "eval", "--trials", str(trials),
                                 "--out", str(tmp_path / "r.json"))
    assert rc == 1 and stdout == ""
    assert ("error: no impostor (0) trials: the EER needs both classes"
            in stderr)
    assert not (tmp_path / "r.json").exists()


def test_estimate_names_a_wav_with_non_finite_samples(tmp_path, capsys,
                                                      voice_wav):
    bad = tmp_path / "nan.wav"
    samples = speechy(1.0).samples.astype(np.float32)
    samples[100] = np.nan
    wavfile.write(bad, SR, samples)
    rc, _, stderr = run_cli(capsys, "estimate", "--enroll", voice_wav,
                            "--test", str(bad))
    assert rc == 1
    assert f"error: WAV file {bad} contains non-finite samples" in stderr


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


@pytest.mark.parametrize("out, dump", [("r.csv", None),
                                       ("r.json", "r.json"),
                                       ("r.json", "r.csv"),
                                       ("r.json", "r_per_alpha_none.csv")])
def test_eval_rejects_clashing_output_paths(trial_dir, tmp_path, capsys,
                                            monkeypatch, out, dump):
    from voxrestore import cli
    loaded = []
    monkeypatch.setattr(cli, "load_wav",
                        lambda path: loaded.append(path) or load_wav(path))
    argv = ["eval", "--trials", os.path.join(trial_dir, "trials.txt"),
            "--out", str(tmp_path / out)]
    if dump is not None:
        argv += ["--dump-embeddings", str(tmp_path / dump)]
    rc, _, stderr = run_cli(capsys, *argv)
    assert rc == 1
    assert str(tmp_path / (dump or out)) in stderr
    assert loaded == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("directory, argv", [
    ("outdir", ["--out", "outdir"]),
    ("r.csv", ["--out", "r.json"]),
    ("dumpdir", ["--out", "r.json", "--dump-embeddings", "dumpdir"])])
def test_eval_rejects_a_directory_as_an_output_before_any_work(
        trial_dir, tmp_path, capsys, monkeypatch, directory, argv):
    from voxrestore import cli
    loaded = []
    monkeypatch.setattr(cli, "load_wav",
                        lambda path: loaded.append(path) or load_wav(path))
    (tmp_path / directory).mkdir()
    rc, _, stderr = run_cli(capsys, "eval", "--trials",
                            os.path.join(trial_dir, "trials.txt"),
                            *(a if a.startswith("--") else str(tmp_path / a)
                              for a in argv))
    assert rc == 1
    assert stderr == (f"error: output path {tmp_path / directory} is a "
                      f"directory\n")
    assert loaded == []
    assert list(tmp_path.iterdir()) == [tmp_path / directory]


def test_eval_rejects_a_directory_at_a_per_alpha_path_before_any_work(
        trial_dir, tmp_path, capsys, monkeypatch):
    from voxrestore import cli
    loaded = []
    monkeypatch.setattr(cli, "load_wav",
                        lambda path: loaded.append(path) or load_wav(path))
    directory = tmp_path / "r_per_alpha_pitch-freq.csv"
    directory.mkdir()
    rc, _, stderr = run_cli(capsys, "eval", "--trials",
                            os.path.join(trial_dir, "trials.txt"),
                            "--out", str(tmp_path / "r.json"),
                            "--restore", "pitch-freq")
    assert rc == 1
    assert stderr == f"error: output path {directory} is a directory\n"
    assert loaded == []
    assert list(tmp_path.iterdir()) == [directory]


@pytest.mark.parametrize("flag", ["--out", "--dump-embeddings"])
def test_eval_rejects_a_missing_output_directory_before_any_work(
        trial_dir, tmp_path, capsys, monkeypatch, flag):
    from voxrestore import cli
    loaded = []
    monkeypatch.setattr(cli, "load_wav",
                        lambda path: loaded.append(path) or load_wav(path))
    paths = {"--out": str(tmp_path / "r.json"),
             "--dump-embeddings": str(tmp_path / "emb.txt")}
    paths[flag] = str(tmp_path / "nodir" / "x.txt")
    rc, _, stderr = run_cli(capsys, "eval", "--trials",
                            os.path.join(trial_dir, "trials.txt"),
                            *(a for kv in paths.items() for a in kv))
    assert rc == 1
    assert stderr == f"error: directory does not exist: {tmp_path / 'nodir'}\n"
    assert loaded == []
    assert list(tmp_path.iterdir()) == []


def test_eval_rejects_a_repeated_restoration(trial_dir, tmp_path, capsys):
    rc, _, stderr = run_cli(capsys, "eval", "--trials",
                            os.path.join(trial_dir, "trials.txt"),
                            "--out", str(tmp_path / "dup.json"),
                            "--restore", "none", "--restore", "pitch-freq",
                            "--restore", "none")
    assert rc == 1
    assert stderr == "error: restoration 'none' requested twice\n"
    assert list(tmp_path.iterdir()) == []


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
    from voxrestore.restore import _BLOCK_CANDIDATES
    from voxrestore.speaker import filterbank_stack
    trials = os.path.join(trial_dir, "trials.txt")
    enrolls, tests = set(), set()
    for line in open(trials, encoding="utf-8"):
        enrolls.add(line.split()[1])
        tests.add(line.split()[2])
    filterbank_stack.cache_clear()
    caplog.set_level(logging.INFO, logger="voxrestore")
    rc, stdout, _ = run_cli(capsys, "eval", "--trials", trials, "--out",
                            str(tmp_path / "a.json"), "--restore",
                            "vtln-power", "--log-level", "info")
    assert rc == 0
    n_grid = 21     # the default vtln-power grid
    # every utterance has a plain row; a test utterance's is the grid's
    # no-op candidate, computed first in its first block by the
    # pitch-freq:0 filterbank. The grid's blocks are built once and every
    # later test utterance reuses them; the enrolment's one-candidate
    # block likewise
    n_blocks = -(-n_grid // _BLOCK_CANDIDATES)
    assert n_blocks == 2
    assert (f"; {len(enrolls) + n_grid * len(tests)} embeddings, "
            f"{n_blocks + 1} filterbank blocks "
            f"({n_blocks * (len(tests) - 1) + len(enrolls) - 1} reused)"
            in caplog.text)
    assert "filterbank" not in stdout


# ---------------------------------------------------------------------------
# logging plumbing


def test_log_level_flag_validation(tmp_path, capsys):
    # argparse rejects a bad level with the usage status, as it does a
    # bad --method, before the command runs
    with pytest.raises(SystemExit) as exc:
        main(["corpus", "--out", str(tmp_path / "c"),
              "--log-level", "chatty"])
    assert exc.value.code == 2
    assert "invalid choice: 'chatty'" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()
    rc, _, _ = run_cli(capsys, "corpus", "--out", str(tmp_path / "c"),
                       "--speakers", "2", "--utts", "2",
                       "--duration", "1.0", "--log-level", "INFO")
    assert rc == 0
