import pytest

from helpers import SMALL_CORPUS
from voxrestore import synth_corpus


@pytest.fixture(scope="session")
def corpus_small():
    """SMALL_CORPUS: four synthetic speakers, two short utterances each.
    Shared across test modules; treat as read-only."""
    return synth_corpus(SMALL_CORPUS)
