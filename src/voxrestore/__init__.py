"""Voice disguise and voice restoration toolkit.

A small, deterministic library for studying parametric voice disguise
(pitch scaling and vocal-tract-length-style spectral warps), blind
recovery of the disguise parameter against an enrolled speaker, and the
effect of restoration on verification error rates.
"""

from .audio import (AudioBuffer, istft, load_wav, resample, save_wav, stft,
                    vad)
from .disguise import (DisguiseFamily, DisguiseSpec, IDENTITY_PARAMS,
                       VTLN_FAMILIES, apply_spectral_warp, build_warp,
                       disguise, parse_family, scale_to_semitone,
                       semitone_to_scale)
from .evaluate import (Corpus, CorpusConfig, Trial, alpha_bias, compute_eer,
                       gen_trials, run_matrix, synth_corpus)
from .pitch import (UnvoicedUtteranceError, estimate_f0, f0_ratio_alpha,
                    mean_f0)
from .restore import default_grid, restore_pair, restore_with
from .speaker import (Embedding, distance, embed, load_external_embeddings,
                      mel_filterbank, mfcc, write_embeddings)

__version__ = "0.1.0"


def grid_search_restore(enrolled, disguised):
    # the old name of `restore_pair(..., "grid")`, not exported; only
    # the recovery check in bench/workloads.py still calls it
    return restore_pair(enrolled, disguised, "grid")


__all__ = [
    "AudioBuffer", "load_wav", "save_wav", "stft", "istft", "resample", "vad",
    "DisguiseFamily", "DisguiseSpec", "IDENTITY_PARAMS", "VTLN_FAMILIES",
    "parse_family", "semitone_to_scale", "scale_to_semitone", "build_warp",
    "apply_spectral_warp", "disguise",
    "UnvoicedUtteranceError", "estimate_f0", "mean_f0", "f0_ratio_alpha",
    "Embedding", "mfcc", "embed", "distance", "mel_filterbank",
    "load_external_embeddings", "write_embeddings",
    "default_grid", "restore_with", "restore_pair",
    "Trial", "CorpusConfig", "Corpus", "synth_corpus", "gen_trials",
    "compute_eer", "run_matrix", "alpha_bias",
]
