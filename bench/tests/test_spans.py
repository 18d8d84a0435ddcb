"""Self times, span parents across threads and processes, and the
install/remove cycle of the layer wrappers."""

import importlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import spans
from spans import Span, Tracer


def test_union_length():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert spans.union_length([(0.0, 2.0), (1.0, 3.0), (2.5, 2.7)]) == 3.0
    assert spans.union_length([(1.0, 4.0), (0.0, 1.0)]) == 4.0


def test_self_time_is_duration_minus_union_of_children():
    tree = [Span(1, "a", 0.0, 10.0, None, 1),
            Span(2, "b", 1.0, 4.0, 1, 1),
            Span(3, "c", 3.0, 6.0, 1, 2),       # overlaps b, other thread
            Span(4, "d", 9.0, 12.0, 1, 3),      # runs past the parent
            Span(5, "e", 1.5, 2.0, 2, 1)]
    selfs = spans.self_times(tree)
    assert selfs[1] == pytest.approx(10.0 - (5.0 + 1.0))
    assert selfs[2] == pytest.approx(3.0 - 0.5)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(0.5)
    totals = spans.layer_totals(tree)
    assert totals["b"] == (pytest.approx(2.5), 1)


def test_self_times_of_single_thread_tree_add_up_to_wall():
    tracer = Tracer()
    with tracer.span("root") as root:
        for _ in range(3):
            with tracer.span("child"):
                with tracer.span("leaf"):
                    time.sleep(0.002)
                time.sleep(0.001)
    tree = spans.subtree(tracer.spans, root.id)
    selfs = spans.self_times(tracer.spans)
    wall = tree[0].end - tree[0].start
    assert sum(selfs[s.id] for s in tree) == pytest.approx(wall, abs=1e-9)
    assert spans.max_concurrency(tree) == 1


def test_worker_thread_spans_attach_to_main_thread_span():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def work(_):
        with tracer.span("work"):
            barrier.wait(timeout=5)
            time.sleep(0.01)

    with tracer.span("fan-out") as root:
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(work, range(2)))
    works = [s for s in tracer.spans if s.name == "work"]
    assert len(works) == 2
    assert all(s.parent == root.id for s in works)
    assert works[0].thread != works[1].thread
    parent = [s for s in tracer.spans if s.id == root.id][0]
    union = spans.union_length((s.start, s.end) for s in works)
    selfs = spans.self_times(tracer.spans)
    assert selfs[root.id] == pytest.approx(
        parent.end - parent.start - union, abs=1e-12)
    for s in works:
        assert selfs[s.id] == pytest.approx(s.end - s.start, abs=1e-12)
    tree = spans.subtree(tracer.spans, root.id)
    assert spans.max_concurrency(tree) == 3      # main waits, two work
    assert sum(selfs[s.id] for s in tree) > parent.end - parent.start


def test_absorb_reparents_child_roots_and_keeps_ids_unique():
    child = Tracer()
    with child.span("outer"):
        with child.span("inner"):
            pass
    child.count("pitch.frames", 5)
    data = child.export()
    parent = Tracer()
    with parent.span("stage") as stage:
        parent.absorb(data, stage.id)
        parent.absorb(data, stage.id)
    ids = [s.id for s in parent.spans]
    assert len(ids) == len(set(ids)) == 5
    outers = [s for s in parent.spans if s.name == "outer"]
    assert all(s.parent == stage.id for s in outers)
    assert all(s.thread == threading.get_ident() for s in parent.spans)
    assert parent.counters["pitch.frames"] == 10


def test_install_wraps_caller_bindings_and_remove_restores():
    from voxrestore import AudioBuffer, DisguiseSpec, restore, speaker
    # the package re-exports the function `disguise` under the module's name
    disguise_mod = importlib.import_module("voxrestore.disguise")

    originals = (disguise_mod._resample, restore.stft, speaker.mel_filterbank,
                 restore._RestorationContext.features)
    tracer = Tracer()
    handle = tracer.install()
    try:
        assert disguise_mod._resample.__wrapped__ is originals[0]
        x = AudioBuffer(0.3 * np.sin(np.arange(8000) * 0.05), 16000)
        y = disguise_mod.disguise(x, DisguiseSpec("pitch-time", 5.0))
        restore.grid_search_restore(x, y, family="pitch-freq")
    finally:
        handle.remove()
    assert (disguise_mod._resample, restore.stft, speaker.mel_filterbank,
            restore._RestorationContext.features) == originals
    totals = spans.layer_totals(tracer.spans)
    assert totals["audio.resample"][1] == 1
    assert totals["disguise.disguise"][1] == 1
    assert totals["restore.candidate"][1] == 23 + 1
    assert totals["restore.search"][1] == 1
    assert totals["speaker.mel_filterbank"][1] >= 24
    assert tracer.candidate_calls == 24
    assert len(tracer.candidates) == 23
    # an upward shift lowers the cutoff to 1/ratio and widens the kernel
    taps = 2 * int(np.ceil(16.0 * 2 ** (5 / 12)))
    assert tracer.counters["audio.resample.taps"] == len(y) * taps
    by_id = {s.id: s for s in tracer.spans}
    resample = [s for s in tracer.spans if s.name == "audio.resample"][0]
    assert by_id[resample.parent].name == "disguise.disguise"


def _stage_tree():
    """A stage with a main-thread child and a pool-thread child."""
    return [Span(1, "stage.eval", 0.0, 10.0, None, 1),
            Span(2, "restore.search", 1.0, 4.0, 1, 1),
            Span(3, "speaker.embed", 2.0, 6.0, 1, 2)]


def test_tree_problems_accepts_sound_tree():
    assert spans.tree_problems(_stage_tree(), {"eval": 1}) == []


def test_tree_problems_reports_orphaned_worker_span():
    tree = _stage_tree()
    tree[2] = Span(3, "speaker.embed", 2.0, 6.0, None, 2)
    problems = spans.tree_problems(tree, {"eval": 1})
    assert any("#3 has no parent" in p for p in problems)
    assert any("#3 ran during stage eval" in p for p in problems)
    # the self-time sum alone cannot see it: the orphan's time is
    # charged to the stage's own self time instead
    selfs = spans.self_times(tree)
    below = spans.subtree(tree, 1)
    assert sum(selfs[s.id] for s in below) == pytest.approx(10.0)


def test_tree_problems_reports_child_outside_parent():
    tree = _stage_tree()
    tree[1] = Span(2, "restore.search", 8.0, 12.0, 1, 1)
    problems = spans.tree_problems(tree, {"eval": 1})
    assert problems == ["span restore.search #2 runs outside its parent "
                        "stage.eval #1"]


def test_tree_problems_reports_unrecorded_parent():
    tree = _stage_tree()
    tree[2] = Span(3, "speaker.embed", 2.0, 6.0, 99, 2)
    problems = spans.tree_problems(tree, {"eval": 1})
    assert any("#3 has parent #99" in p for p in problems)
    assert any("#3 ran during stage eval" in p for p in problems)


def test_tree_problems_accepts_recorded_pool_tree():
    tracer = Tracer()

    def work(_):
        with tracer.span("work"):
            with tracer.span("leaf"):
                time.sleep(0.002)

    with tracer.span("stage.eval") as stage:
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(work, range(4)))
    assert spans.tree_problems(tracer.spans, {"eval": stage.id}) == []
