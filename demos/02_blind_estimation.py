"""
Blind recovery of a disguise parameter
======================================

Someone hands you a disguised recording plus a clean enrollment of the
suspected speaker, and the disguise strength is unknown. Grid search
tries every candidate parameter, inverts with each, and keeps whichever
restored version lands closest to the enrollment. The F0-ratio shortcut
skips the search and reads the offset straight off the two
fundamentals.
"""

from voxrestore import (CorpusConfig, DisguiseSpec, default_grid, disguise,
                        restore_pair, synth_corpus)

# a tiny synthetic corpus: enrollment and probe are different
# utterances of the same voice, as they would be in practice
corpus = synth_corpus(CorpusConfig(n_speakers=3, utts_per_speaker=2,
                                   duration_s=2.0))
speakers = corpus.by_speaker()
enroll, probe = [corpus.utterances[u] for u in speakers["spk01"]]
imposter = corpus.utterances[speakers["spk00"][0]]

# the caller raised their voice five semitones by resampling
truth = DisguiseSpec("pitch-time", 5.0)
disguised = disguise(probe, truth)
print(f"probe disguised with {truth.spec_string()}")

# a resampling disguise looks like a frequency-axis scale to the
# features, so the search runs over semitone offsets in that family
# (the default grid: pitch-freq, -11 to +11)
result = restore_pair(enroll, disguised, "grid")
print()
print("distance profile over the candidate grid")
dmax = max(d for _, d in result.per_candidate)
for alpha, d in result.per_candidate:
    bar = "#" * int(round(40 * d / dmax))
    mark = "  <- winner" if alpha == result.alpha_hat else ""
    print(f"  {alpha:+5.0f}  {d:.4f} {bar}{mark}")
print(f"estimate {result.alpha_hat:+.0f} semitones (truth "
      f"{truth.param:+.0f}), restored distance {result.d_hat:.4f}")

# the shortcut: one F0 track per side, no search
quick = restore_pair(enroll, disguised, "f0ratio")
print(f"F0-ratio shortcut lands on {quick.alpha_hat:+.0f} semitones")

# against the wrong speaker the same search still picks some candidate,
# but the minimized distance stays high; that number doubles as the
# verification score downstream
wrong = restore_pair(imposter, disguised, "grid")
print()
print(f"searched against the wrong speaker: best distance "
      f"{wrong.d_hat:.4f} vs {result.d_hat:.4f} for the right one")

# nothing in the machinery is pitch-specific: disguise with a spectral
# warp instead and search that family's parameter grid
truth = DisguiseSpec("vtln-power", 0.3)
result = restore_pair(enroll, disguise(probe, truth), "grid",
                      default_grid("vtln-power"))
print()
print(f"warp disguise {truth.spec_string()}: grid search estimates "
      f"{result.alpha_hat:+.2f} (truth {truth.param:+.2f})")
