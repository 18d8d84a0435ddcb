"""Command-line entry points: disguise audio, estimate a disguise,
build a toy corpus, draw trials, and run the evaluation matrix.

Machine-readable results go to stdout as JSON; progress, summaries and
timings go to stderr so reports stay reproducible byte for byte.
"""

import argparse
import csv
import json
import logging
import os
import sys
import time
from typing import Dict, Optional

from .audio import istft, load_wav, save_wav, stft
from .disguise import DisguiseSpec, apply_spectral_warp, disguise, warp_indices
from .evaluate import (Corpus, CorpusConfig, Trial, gen_trials, run_matrix,
                       synth_corpus)
from .restore import GridSpec, default_grid, grid_from_range, restore_pair
from .speaker import Embedding, load_external_embeddings, write_embeddings

log = logging.getLogger("voxrestore")


def _setup_logging(level: str) -> None:
    numeric = getattr(logging, level.upper(), None)
    if numeric is None:
        raise ValueError(f"unknown log level {level!r}")
    logging.basicConfig(level=numeric, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _parse_scorer(text: str) -> Optional[Dict[str, Embedding]]:
    """The external embedding table a --scorer value names, or None
    for the builtin scorer."""
    if text == "builtin":
        return None
    if text.startswith("external:"):
        return load_external_embeddings(text[len("external:"):])
    raise ValueError(
        f"scorer must be 'builtin' or 'external:<path>', got {text!r}")


def _parse_grid(text: str, family) -> GridSpec:
    if text == "default":
        return default_grid(family)
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(
            f"grid must be 'default' or 'lo:hi:step', got {text!r}")
    return grid_from_range(family, *(float(p) for p in parts))


def _utt_id(token: str) -> str:
    return os.path.splitext(os.path.basename(token))[0]


def cmd_disguise(args) -> int:
    buf = load_wav(args.input)
    spec = DisguiseSpec.from_string(args.spec)
    t0 = time.perf_counter()
    out = disguise(buf, spec)
    save_wav(args.output, out)
    log.info("disguised %s -> %s in %.2fs", args.input, args.output,
             time.perf_counter() - t0)
    _emit({"input": os.fspath(args.input), "output": os.fspath(args.output),
           "family": spec.family.value, "param": spec.param,
           "samples": len(out), "sample_rate": out.sample_rate})
    print(f"wrote {args.output} ({len(out)} samples at {out.sample_rate} Hz)",
          file=sys.stderr)
    return 0


def cmd_estimate(args) -> int:
    external = _parse_scorer(args.scorer)
    # an external grid search reads only the sidecar, not the samples
    reads_audio = (external is None or args.method != "grid"
                   or args.restored is not None)
    enroll = load_wav(args.enroll) if reads_audio else None
    test = load_wav(args.test) if reads_audio else None
    grid = _parse_grid(args.grid, args.family)
    # the ids name sidecar rows; builtin embeddings need none
    ids = {} if external is None else {
        "enroll_id": args.enroll_id or _utt_id(args.enroll),
        "test_id": args.test_id or _utt_id(args.test)}
    t0 = time.perf_counter()
    result = restore_pair(enroll, test, args.method, grid, external, **ids)
    if args.restored is not None:
        spec = DisguiseSpec(result.family, result.alpha_hat)
        save_wav(args.restored,
                 istft(apply_spectral_warp(stft(test), spec, "inverse")))
    elapsed = time.perf_counter() - t0
    _emit(result.to_dict())
    print(f"estimated {result.family.value}:{result.alpha_hat:g} "
          f"(distance {result.d_hat:.4f}) in {elapsed:.2f}s",
          file=sys.stderr)
    return 0


def cmd_corpus(args) -> int:
    config = CorpusConfig(n_speakers=args.speakers,
                          utts_per_speaker=args.utts,
                          seed=args.seed,
                          sample_rate=args.sample_rate,
                          duration_s=args.duration)
    t0 = time.perf_counter()
    corpus = synth_corpus(config)
    os.makedirs(args.out, exist_ok=True)
    index_path = os.path.join(args.out, "corpus.tsv")
    with open(index_path, "w", encoding="utf-8", newline="\n") as fh:
        for utt, buf in corpus.utterances.items():
            filename = f"{utt}.wav"
            save_wav(os.path.join(args.out, filename), buf)
            fh.write(f"{utt}\t{corpus.speaker_of[utt]}\t{filename}\n")
    log.info("synthesized %d utterances in %.2fs",
             len(corpus.utterances), time.perf_counter() - t0)
    _emit({"out": os.fspath(args.out), "n_speakers": config.n_speakers,
           "utts_per_speaker": config.utts_per_speaker,
           "n_utterances": len(corpus.utterances),
           "sample_rate": config.sample_rate, "seed": config.seed})
    print(f"wrote {len(corpus.utterances)} utterances under {args.out}",
          file=sys.stderr)
    return 0


def _load_corpus_dir(path: str):
    """The corpus a `corpus.tsv` indexes, and each utterance's WAV path
    relative to `path`."""
    index_path = os.path.join(path, "corpus.tsv")
    if not os.path.isfile(index_path):
        raise FileNotFoundError(f"no corpus index at {index_path}")
    utterances = {}
    speaker_of = {}
    file_of = {}
    with open(index_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise ValueError(f"{index_path}:{lineno}: expected "
                                 f"'utt speaker filename'")
            utt, spk, filename = parts
            utterances[utt] = load_wav(os.path.join(path, filename))
            speaker_of[utt] = spk
            file_of[utt] = filename
    if not utterances:
        raise ValueError(f"corpus index {index_path} is empty")
    return Corpus(utterances, speaker_of), file_of


def cmd_trials(args) -> int:
    corpus, file_of = _load_corpus_dir(args.corpus)
    t0 = time.perf_counter()
    trials, extra = gen_trials(corpus, args.n, policy=args.disguise,
                               seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    disg_dir = os.path.join(args.out, "disguised")
    if extra:
        os.makedirs(disg_dir, exist_ok=True)
    token_of = {utt: os.path.relpath(os.path.join(args.corpus, filename),
                                     args.out)
                for utt, filename in file_of.items()}
    for test_id, buf in extra.items():
        filename = os.path.join("disguised", f"{test_id}.wav")
        save_wav(os.path.join(args.out, filename), buf)
        token_of[test_id] = filename
    trial_path = os.path.join(args.out, "trials.txt")
    with open(trial_path, "w", encoding="utf-8", newline="\n") as fh:
        for t in trials:
            line = (f"{1 if t.label else 0} {token_of[t.enroll_id]} "
                    f"{token_of[t.test_id]}")
            if t.disguise_meta is not None:
                line += f" {t.disguise_meta.spec_string()}"
            fh.write(line + "\n")
    n_same = sum(1 for t in trials if t.label)
    log.info("drew %d trials in %.2fs", len(trials),
             time.perf_counter() - t0)
    _emit({"trial_file": trial_path, "n_trials": len(trials),
           "n_same": n_same, "n_diff": len(trials) - n_same,
           "policy": args.disguise, "n_disguised_files": len(extra)})
    print(f"wrote {trial_path} ({n_same} target / "
          f"{len(trials) - n_same} impostor)", file=sys.stderr)
    return 0


def _read_trials(path: str):
    base = os.path.dirname(os.path.abspath(path))
    trials = []
    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) not in (3, 4):
                raise ValueError(
                    f"{path}:{lineno}: expected 'label enroll test "
                    f"[family:param]'")
            if parts[0] not in ("0", "1"):
                raise ValueError(f"{path}:{lineno}: label must be 0 or 1")
            try:
                meta = (DisguiseSpec.from_string(parts[3])
                        if len(parts) == 4 else None)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            trials.append(Trial(parts[1], parts[2], parts[0] == "1", meta))
            tokens.extend(parts[1:3])
    if not trials:
        raise ValueError(f"no trials found in {path}")
    return trials, list(dict.fromkeys(tokens)), base


def _restoration_slug(name: str) -> str:
    return name.replace(":", "-")


def cmd_eval(args) -> int:
    trials, tokens, base = _read_trials(args.trials)
    external = _parse_scorer(args.scorer)
    if external is not None and args.dump_embeddings:
        raise ValueError("--dump-embeddings needs the builtin scorer")
    restorations = args.restore or ["none"]
    t0 = time.perf_counter()
    audio = {}
    for token in tokens:
        full = token if os.path.isabs(token) else os.path.join(base, token)
        if external is not None and not os.path.isfile(full):
            continue   # embeddings come from the table; audio optional
        audio[token] = load_wav(full)
    report = run_matrix(audio, trials, restorations, external=external)
    elapsed = time.perf_counter() - t0

    payload = report.to_dict()
    out_json = os.fspath(args.out)
    stem, _ = os.path.splitext(out_json)
    with open(out_json, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(stem + ".csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["disguise", "restoration", "eer_percent",
                         "threshold", "n_same", "n_diff"])
        for row in report.rows:
            writer.writerow([report.disguise_label, row.restoration,
                             repr(row.eer.eer_percent),
                             repr(row.eer.threshold), row.eer.n_same,
                             row.eer.n_diff])
    for row in report.rows:
        if not row.per_alpha:
            continue
        path = f"{stem}_per_alpha_{_restoration_slug(row.restoration)}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["alpha", "eer"])
            single_family = len({e["family"] for e in row.per_alpha}) == 1
            for entry in row.per_alpha:
                key = (f"{entry['param']:g}" if single_family
                       else f"{entry['family']}:{entry['param']:g}")
                writer.writerow([key, repr(entry["eer_percent"])])

    if args.dump_embeddings:
        write_embeddings(args.dump_embeddings,
                         {token: report.embeddings[token] for token in tokens})

    maps = warp_indices.cache_info()
    log.info("evaluated %d trials x %d restorations in %.2fs; %d embeddings,"
             " %d warp maps (%d reused)", report.n_trials, len(report.rows),
             elapsed, len(report.embeddings), maps.misses, maps.hits)
    _emit(payload)
    for row in report.rows:
        print(f"{row.restoration}: EER {row.eer.eer_percent:.2f}% "
              f"(threshold {row.eer.threshold:.4f})", file=sys.stderr)
    print(f"report written to {out_json} in {elapsed:.2f}s", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--log-level",
                        default=os.environ.get("VOXRESTORE_LOG", "warning"),
                        help="debug, info, warning or error "
                             "(env: VOXRESTORE_LOG)")

    parser = argparse.ArgumentParser(
        prog="voxrestore",
        description="Voice disguise, disguise-parameter estimation and "
                    "restoration-based speaker verification tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("disguise", parents=[common],
                       help="apply one disguise transform to a WAV file")
    p.add_argument("--in", dest="input", required=True, metavar="WAV")
    p.add_argument("--out", dest="output", required=True, metavar="WAV")
    p.add_argument("--spec", required=True,
                   help="transform as family:param, e.g. pitch-freq:-4 or "
                        "vtln-power:0.2")
    p.set_defaults(func=cmd_disguise)

    p = sub.add_parser("estimate", parents=[common],
                       help="estimate a disguise parameter against an "
                            "enrolled utterance")
    p.add_argument("--enroll", required=True, metavar="WAV")
    p.add_argument("--test", required=True, metavar="WAV")
    p.add_argument("--family", default="pitch-freq")
    p.add_argument("--method", choices=("grid", "f0ratio"), default="grid")
    p.add_argument("--grid", default="default",
                   help="'default' or lo:hi:step")
    p.add_argument("--scorer", default="builtin",
                   help="'builtin' or external:<sidecar path>")
    p.add_argument("--enroll-id", default=None,
                   help="utterance id for external lookups")
    p.add_argument("--test-id", default=None)
    p.add_argument("--restored", default=None, metavar="WAV",
                   help="also write the restored audio here")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("corpus", parents=[common],
                       help="synthesize a deterministic toy corpus")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--speakers", type=int, default=8)
    p.add_argument("--utts", type=int, default=5)
    p.add_argument("--sample-rate", type=int, default=16000)
    p.add_argument("--duration", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("trials", parents=[common],
                       help="draw verification trials from a corpus "
                            "directory")
    p.add_argument("--corpus", required=True, metavar="DIR")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--disguise", default="none",
                   help="none, a family name, or vtln-all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_trials)

    p = sub.add_parser("eval", parents=[common],
                       help="score trials under one or more restorations "
                            "and write a report")
    p.add_argument("--trials", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="JSON")
    p.add_argument("--restore", action="append", default=None,
                   metavar="METHOD",
                   help="none, f0ratio, a family name, or grid:<family>; "
                        "repeatable (default: none)")
    p.add_argument("--scorer", default="builtin")
    p.add_argument("--dump-embeddings", default=None, metavar="FILE",
                   help="write the builtin embedding of every trial "
                        "utterance in the external sidecar format")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _setup_logging(args.log_level)
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        # an OSError's args[0] is its errno; its str names the file
        msg = exc if isinstance(exc, OSError) or not exc.args else exc.args[0]
        print(f"error: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
