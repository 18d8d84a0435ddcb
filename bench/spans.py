"""Span recorder for the traced benchmark run.

Wrappers are installed from outside the package: every module-level
name through which one voxrestore module calls a function of another
(or of itself) is replaced by a wrapper that records a span, so the
program's own files stay untouched. Spans live in memory as
(id, name, start, end, parent, thread) tuples and are reduced to self
times and call counts when the run ends.

A span's self time is its duration minus the union of its children's
intervals. A span opened on a worker thread with nothing open on that
thread takes the main thread's innermost open span as its parent, so
work fanned out by a thread pool is charged to the call that fanned
it out.
"""

import hashlib
import itertools
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

# (defining module, function) -> metric prefix. Functions are found by
# identity, so every binding of one function gets the same name.
LAYER_FUNCTIONS = {
    ("audio", "resample"): "audio.resample",
    ("audio", "stft"): "audio.stft",
    ("audio", "istft"): "audio.istft",
    ("audio", "vad"): "audio.vad",
    ("audio", "load_wav"): "audio.load_wav",
    ("audio", "save_wav"): "audio.save_wav",
    ("disguise", "disguise"): "disguise.disguise",
    ("disguise", "build_warp"): "disguise.build_warp",
    ("disguise", "apply_spectral_warp"): "disguise.apply_spectral_warp",
    ("pitch", "estimate_f0"): "pitch.estimate_f0",
    ("pitch", "mean_f0"): "pitch.mean_f0",
    ("speaker", "mfcc"): "speaker.mfcc",
    ("speaker", "features_from_magnitudes"): "speaker.features_from_magnitudes",
    ("speaker", "mel_filterbank"): "speaker.mel_filterbank",
    ("speaker", "embed"): "speaker.embed",
    ("speaker", "distance"): "speaker.distance",
    ("speaker", "write_embeddings"): "speaker.write_embeddings",
    ("speaker", "load_external_embeddings"): "speaker.load_external_embeddings",
    ("restore", "_search"): "restore.search",
    ("evaluate", "synth_corpus"): "evaluate.synth_corpus",
    ("evaluate", "gen_trials"): "evaluate.gen_trials",
    ("evaluate", "run_matrix"): "evaluate.run_matrix",
    ("evaluate", "compute_eer"): "evaluate.compute_eer",
    ("cli", "cmd_corpus"): "cli.corpus",
    ("cli", "cmd_trials"): "cli.trials",
    ("cli", "cmd_eval"): "cli.eval",
}
# methods of _RestorationContext, wrapped on the class
CONTEXT_METHODS = {"__init__": "restore.context",
                   "features": "restore.candidate"}
MODULES = ("audio", "disguise", "pitch", "speaker", "restore", "evaluate",
           "cli")
LAYER_NAMES = tuple(LAYER_FUNCTIONS.values()) + tuple(CONTEXT_METHODS.values())

COUNTERS = ("audio.resample.taps", "pitch.frames", "pitch.unvoiced",
            "audio.wav_bytes_read", "audio.wav_bytes_written",
            "speaker.sidecar_bytes")


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int


class Tracer:
    """Collects spans and counters for one process."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.candidates = set()       # (utterance digest, family, alpha)
        self.candidate_calls = 0
        self.warps = set()            # (family, param, n_knots)
        # the same three, as counts, from absorbed child processes
        self.child_counts = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: List[int] = []
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def current(self) -> Optional[int]:
        """Id of this thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str) -> Tuple[int, str, float, Optional[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._main_stack[-1]
            except IndexError:
                parent = None
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, name, time.perf_counter(), parent

    def close(self, token) -> None:
        end = time.perf_counter()
        span_id, name, start, parent = token
        self._stack().pop()
        self.spans.append(Span(span_id, name, start, end, parent,
                               threading.get_ident()))

    def span(self, name: str):
        return _SpanContext(self, name)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    # -- wrapping -----------------------------------------------------------

    def install(self) -> "Installed":
        """Wrap every binding of the layer functions in every voxrestore
        module, plus the _RestorationContext methods. Returns a handle
        whose `remove` puts the originals back."""
        import importlib

        modules = {m: importlib.import_module(f"voxrestore.{m}")
                   for m in MODULES}
        package = importlib.import_module("voxrestore")
        originals = {}
        for (mod_name, fn_name), layer in LAYER_FUNCTIONS.items():
            originals[id(getattr(modules[mod_name], fn_name))] = layer
        wrappers = {}
        patched = []
        for module in list(modules.values()) + [package]:
            for attr, value in list(vars(module).items()):
                layer = originals.get(id(value))
                if layer is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, layer)
                patched.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
        ctx_cls = modules["restore"]._RestorationContext
        for attr, layer in CONTEXT_METHODS.items():
            value = ctx_cls.__dict__[attr]
            patched.append((ctx_cls, attr, value))
            setattr(ctx_cls, attr, self._wrap(value, layer))
        return Installed(patched)

    def _wrap(self, fn, layer: str):
        tracer = self
        hook = _HOOKS.get(layer)

        def wrapper(*args, **kwargs):
            token = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(token)
                if hook is not None:
                    hook(tracer, args, kwargs, None, exc)
                raise
            tracer.close(token)
            if hook is not None:
                hook(tracer, args, kwargs, result, None)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    # -- export -------------------------------------------------------------

    def export(self) -> dict:
        """Plain-data form, for a traced child process to hand its
        spans and counters to the benchmark."""
        return {"main_thread": threading.main_thread().ident,
                "spans": [[s.id, s.name, s.start, s.end, s.parent, s.thread]
                          for s in self.spans],
                "counters": dict(self.counters),
                "candidates_unique": len(self.candidates),
                "candidate_calls": self.candidate_calls,
                "warps_unique": len(self.warps)}

    def absorb(self, data: dict, parent: Optional[int]) -> None:
        """Merge the export of a child process this thread waited for.
        Its root spans become children of `parent` and its main thread
        counts as this thread; ids are renumbered so they stay unique.
        time.perf_counter reads the system-wide monotonic clock on
        Linux, so the child's times are comparable with ours."""
        remap = {span_id: next(self._ids) for span_id, *_ in data["spans"]}
        threads = {data["main_thread"]: threading.get_ident()}
        for span_id, name, start, end, par, thread in data["spans"]:
            if thread not in threads:
                threads[thread] = -len(threads)   # a worker of the child
            new_parent = remap[par] if par is not None else parent
            self.spans.append(Span(remap[span_id], name, start, end,
                                   new_parent, threads[thread]))
        for name, value in data["counters"].items():
            self.counters[name] += value
        for name in ("candidates_unique", "candidate_calls", "warps_unique"):
            self.child_counts[name] += data[name]

    def distinct_counts(self) -> Dict[str, int]:
        """Distinct candidates, candidate calls and distinct warps, each
        counted per process and summed over this one and its absorbed
        children: a cache can only reuse work within one process."""
        return {"candidates_unique": len(self.candidates)
                + self.child_counts["candidates_unique"],
                "candidate_calls": self.candidate_calls
                + self.child_counts["candidate_calls"],
                "warps_unique": len(self.warps)
                + self.child_counts["warps_unique"]}


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.token = None

    @property
    def id(self) -> int:
        return self.token[0]

    def __enter__(self):
        self.token = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.token)
        return False


class Installed:
    def __init__(self, patched):
        self.patched = patched

    def remove(self) -> None:
        for owner, attr, value in reversed(self.patched):
            setattr(owner, attr, value)


# -- counters computed from call arguments and results -----------------------


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _resample_hook(tracer, args, kwargs, result, exc):
    if exc is not None:
        return
    ratio = float(_arg(args, kwargs, 1, "ratio"))
    if ratio == 1.0:
        return                      # identity: samples copied, no kernel
    fc = min(1.0, 1.0 / ratio)
    taps = 2 * int(-(-16.0 // fc))  # 2 * ceil(16 / fc), as in audio.resample
    tracer.count("audio.resample.taps", len(result) * taps)


def _estimate_f0_hook(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.count("pitch.frames", result.n_frames)


def _mean_f0_hook(tracer, args, kwargs, result, exc):
    if exc is not None and type(exc).__name__ == "UnvoicedUtteranceError":
        tracer.count("pitch.unvoiced")


def _file_size(path) -> int:
    try:
        return os.path.getsize(os.fspath(path))
    except OSError:
        return 0


def _load_wav_hook(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.count("audio.wav_bytes_read",
                     _file_size(_arg(args, kwargs, 0, "path")))


def _save_wav_hook(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.count("audio.wav_bytes_written",
                     _file_size(_arg(args, kwargs, 0, "path")))


def _sidecar_hook(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.count("speaker.sidecar_bytes",
                     _file_size(_arg(args, kwargs, 0, "path")))


def _context_hook(tracer, args, kwargs, result, exc):
    if exc is None:
        ctx, disguised = args[0], _arg(args, kwargs, 1, "disguised")
        ctx._bench_digest = hashlib.blake2b(
            disguised.samples.tobytes(), digest_size=16).digest()


def _candidate_hook(tracer, args, kwargs, result, exc):
    if exc is None:
        ctx = args[0]
        alpha = float(_arg(args, kwargs, 1, "alpha"))
        family = _arg(args, kwargs, 2, "family")
        with tracer._lock:
            tracer.candidate_calls += 1
            tracer.candidates.add((getattr(ctx, "_bench_digest", id(ctx)),
                                   getattr(family, "value", family), alpha))


def _build_warp_hook(tracer, args, kwargs, result, exc):
    if exc is None:
        spec = _arg(args, kwargs, 0, "spec")
        n_knots = args[1] if len(args) > 1 else kwargs.get("n_knots")
        with tracer._lock:
            tracer.warps.add((spec.family.value, spec.param, n_knots))


_HOOKS = {
    "audio.resample": _resample_hook,
    "pitch.estimate_f0": _estimate_f0_hook,
    "pitch.mean_f0": _mean_f0_hook,
    "audio.load_wav": _load_wav_hook,
    "audio.save_wav": _save_wav_hook,
    "speaker.write_embeddings": _sidecar_hook,
    "speaker.load_external_embeddings": _sidecar_hook,
    "restore.context": _context_hook,
    "restore.candidate": _candidate_hook,
    "disguise.build_warp": _build_warp_hook,
}


# -- reduction ---------------------------------------------------------------


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's
    intervals, each clipped to the parent's interval. Children on other
    threads count like any other child."""
    spans = list(spans)
    children: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ()) if c.end > s.start
            and c.start < s.end)
        out[s.id] = (s.end - s.start) - covered
    return out


def subtree(spans: Iterable[Span], root: int) -> List[Span]:
    """The span `root` and every span below it."""
    spans = list(spans)
    children: Dict[Optional[int], List[Span]] = defaultdict(list)
    by_id = {}
    for s in spans:
        children[s.parent].append(s)
        by_id[s.id] = s
    out, todo = [], [root]
    while todo:
        sid = todo.pop()
        out.append(by_id[sid])
        todo.extend(c.id for c in children.get(sid, ()))
    return out


def tree_problems(spans: Iterable[Span], stage_ids: Dict[str, int]
                  ) -> List[str]:
    """Ways the span tree could charge time to the wrong place: a span
    other than a stage with no parent, a parent that was never
    recorded, a child that starts before or ends after its parent, or
    a span that ran during a stage but is not below it."""
    spans = list(spans)
    by_id = {s.id: s for s in spans}
    stages = set(stage_ids.values())
    problems = []
    for s in spans:
        if s.parent is None:
            if s.id not in stages:
                problems.append(f"span {s.name} #{s.id} has no parent")
            continue
        parent = by_id.get(s.parent)
        if parent is None:
            problems.append(f"span {s.name} #{s.id} has parent #{s.parent}, "
                            f"which was never recorded")
        elif s.start < parent.start or s.end > parent.end:
            problems.append(f"span {s.name} #{s.id} runs outside its parent "
                            f"{parent.name} #{parent.id}")
    for stage, sid in stage_ids.items():
        root = by_id[sid]
        below = {s.id for s in subtree(spans, sid)}
        for s in spans:
            if (s.id not in below and s.id not in stages
                    and s.start < root.end and s.end > root.start):
                problems.append(f"span {s.name} #{s.id} ran during stage "
                                f"{stage} but is not below it")
    return problems


def layer_totals(spans: Iterable[Span]) -> Dict[str, Tuple[float, int]]:
    """Layer name -> (summed self time, call count)."""
    spans = list(spans)
    selfs = self_times(spans)
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for s in spans:
        totals[s.name][0] += selfs[s.id]
        totals[s.name][1] += 1
    return {k: (v[0], int(v[1])) for k, v in totals.items()}


def max_concurrency(spans: Iterable[Span]) -> int:
    """Most threads with an open span at one instant."""
    by_thread: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        by_thread[s.thread].append((s.start, s.end))
    events = []
    for intervals in by_thread.values():
        cur = None
        for start, end in sorted(intervals):
            if cur is not None and start <= cur[1]:
                cur[1] = max(cur[1], end)
                continue
            if cur is not None:
                events += [(cur[0], 1), (cur[1], -1)]
            cur = [start, end]
        events += [(cur[0], 1), (cur[1], -1)]
    busy = peak = 0
    for _, step in sorted(events, key=lambda e: (e[0], e[1])):
        busy += step
        peak = max(peak, busy)
    return peak
