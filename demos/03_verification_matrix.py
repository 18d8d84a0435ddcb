"""
From corpus to error-rate matrix
================================

The end-to-end question: how badly does disguise hurt a speaker
verifier, and how much does restoration win back? Synthesizes a toy
corpus, draws balanced verification trials with a pitch disguise on
every test side, scores them raw and under two restoration strategies,
and prints the resulting error-rate matrix.
"""

import time

from voxrestore import CorpusConfig, gen_trials, run_matrix, synth_corpus

# six voices, four utterances each; enough for stable toy error rates
corpus = synth_corpus(CorpusConfig(n_speakers=6, utts_per_speaker=4))
print(f"corpus: {len(corpus.utterances)} utterances from "
      f"{len(corpus.by_speaker())} speakers")

# first, how the verifier does when nobody is hiding
plain, _ = gen_trials(corpus, 150, "none", seed=12)
baseline = run_matrix(corpus.utterances, plain, ["none"])
print(f"baseline EER on undisguised trials: "
      f"{baseline.row('none').eer.eer_percent:.1f}%")

# now every test utterance gets a pitch disguise drawn from the
# default semitone grid; labels stay balanced
trials, extra = gen_trials(corpus, 150, "pitch-time", seed=11)
audio = {**corpus.utterances, **extra}
n_same = sum(t.label for t in trials)
print(f"disguised trials: {len(trials)} ({n_same} same-speaker, "
      f"{len(trials) - n_same} different-speaker)")

# three ways to score the same trials: take the disguise on the chin,
# grid-search the parameter per trial, or trust the F0 ratio
methods = ["none", "pitch-freq", "f0ratio"]
t0 = time.perf_counter()
report = run_matrix(audio, trials, methods)
elapsed = time.perf_counter() - t0

print()
print("restoration        EER      threshold")
for name in methods:
    row = report.row(name)
    print(f"  {name:12s} {row.eer.eer_percent:6.1f}%    {row.eer.threshold:.4f}")

# the searching methods also report how well they recovered the true
# parameter on same-speaker trials
print()
for name in ("pitch-freq", "f0ratio"):
    b = report.row(name).bias
    print(f"{name}: recovered alpha off by {b.mean_error:+.2f} "
          f"+/- {b.std_error:.2f} semitones over {b.count} trials")

print()
print(f"scored {len(trials)} trials x {len(methods)} methods "
      f"in {elapsed:.0f} s")
print("disguise wrecks an otherwise clean verifier; per-trial grid")
print("search claws most of it back, and the two-F0-tracks shortcut")
print("lands in the same neighborhood at a fraction of the cost")
