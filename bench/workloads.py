"""The benchmark's three workloads.

Each runs in the benchmark's own process (or, for the CLI, in one
fresh process per subcommand), single-threaded except for the CLI's
`--jobs 2` eval. A run makes one contiguous pass as a user would; a
traced run adds a traced pass between two untraced ones. It returns
its timings, operation counts, the problems its output checks found
and, in a traced run, the recorded spans.
"""

import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"

# numpy's BLAS pool is held to one thread so that the only parallelism
# is the program's own `--jobs`, and a run stays within two cores.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SUBPROCESS_TIMEOUT = 150
# set-ups per run (the run's own and fresh-process ones); setup_s is
# their median
SETUP_SAMPLES = 3


@dataclass(frozen=True)
class LibraryWorkload:
    name: str
    policy: str
    methods: Tuple[str, ...]
    n_speakers: int
    utts_per_speaker: int
    duration_s: float
    n_trials: int
    gen_repeats: int      # gen_trials calls per run; gen_s is their median


@dataclass(frozen=True)
class CliWorkload:
    name: str
    n_speakers: int
    utts_per_speaker: int
    duration_s: float
    n_trials: int
    gen_repeats: int      # `voxrestore trials` calls; gen_s is their median


PITCH_TIME = LibraryWorkload(
    "pitch-time", "pitch-time", ("none", "pitch-freq", "f0ratio"),
    n_speakers=8, utts_per_speaker=5, duration_s=1.0, n_trials=80,
    gen_repeats=1)
VTLN_ALL = LibraryWorkload(
    "vtln-all", "vtln-all", ("none", "vtln-power", "pitch-freq"),
    n_speakers=8, utts_per_speaker=5, duration_s=1.0, n_trials=160,
    gen_repeats=15)
CLI_ROUNDTRIP = CliWorkload(
    "cli-roundtrip", n_speakers=4, utts_per_speaker=2, duration_s=1.0,
    n_trials=100, gen_repeats=3)
WORKLOADS = {w.name: w for w in (PITCH_TIME, VTLN_ALL, CLI_ROUNDTRIP)}


@dataclass
class Outcome:
    setup_s: List[float] = field(default_factory=list)
    gen_s: Optional[float] = None
    eval_s: Optional[float] = None
    total_s: Optional[float] = None
    # mean wall time of the untraced passes around the traced one
    untraced_work_s: Optional[float] = None
    jobs2_s: Optional[float] = None
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)
    tracer: object = None
    traced_work_s: Optional[float] = None
    stage_ids: Dict[str, int] = field(default_factory=dict)


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env.update(BLAS_ENV)
    return env


def repeat_share(test_ids) -> float:
    """Share of trials whose test utterance already appeared in an
    earlier trial."""
    seen, repeats = set(), 0
    for t in test_ids:
        repeats += t in seen
        seen.add(t)
    return repeats / len(test_ids)


# ---------------------------------------------------------------------------
# library workloads

_SETUP_CODE = """\
import time
t0 = time.perf_counter()
import voxrestore
voxrestore.synth_corpus(voxrestore.CorpusConfig(
    n_speakers={n_speakers}, utts_per_speaker={utts}, seed={seed},
    duration_s={duration!r}))
print(time.perf_counter() - t0)
"""


def _fresh_setup(wl: LibraryWorkload, seed: int) -> float:
    code = _SETUP_CODE.format(n_speakers=wl.n_speakers,
                              utts=wl.utts_per_speaker, seed=seed,
                              duration=wl.duration_s)
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, check=True,
                          timeout=SUBPROCESS_TIMEOUT)
    return float(proc.stdout.split()[-1])


def import_program():
    vx = importlib.import_module("voxrestore")
    if not Path(vx.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"voxrestore imported from {vx.__file__}, "
                           f"not from {SRC}")
    return vx


def run_library(wl: LibraryWorkload, seed: int, trace: bool) -> Outcome:
    out = Outcome()
    for _ in range(SETUP_SAMPLES - 1):
        out.setup_s.append(_fresh_setup(wl, seed))

    # the run's pass is contiguous, as a user runs it: import, corpus,
    # trials, matrix; total_s is its wall time
    t0 = time.perf_counter()
    vx = import_program()
    t_import = time.perf_counter() - t0
    config = vx.CorpusConfig(n_speakers=wl.n_speakers,
                             utts_per_speaker=wl.utts_per_speaker,
                             seed=seed, duration_s=wl.duration_s)
    first = _library_pass(vx, wl, config, seed, out, Tracer())
    if first is None:
        return out
    out.setup_s.append(t_import + first.times["setup"])
    out.total_s = t_import + first.wall_s
    out.eval_s = first.times["eval"]
    gens = [first.times["gen"]] + _time_gens(vx, first.corpus, wl, seed,
                                             wl.gen_repeats - 1)
    out.gen_s = statistics.median(gens)

    _check_library(wl, vx, first, out)
    if trace:
        _traced_library_passes(wl, vx, config, seed, first.report, out)
    return out


@dataclass
class LibraryPass:
    corpus: object
    trials: list
    audio: dict
    report: dict
    times: Dict[str, float]       # stage -> wall time
    stage_ids: Dict[str, int]     # stage -> span id

    @property
    def wall_s(self) -> float:
        return sum(self.times.values())


def _library_pass(vx, wl, config, seed, out,
                  tracer: Tracer) -> Optional[LibraryPass]:
    """One pass (corpus, trials, matrix) in this process, each stage in
    a span of `tracer`; None if the program raised."""
    ops = wl.n_trials * len(wl.methods)
    out.attempted += ops
    stage_ids = {}
    try:
        with tracer.span("stage.setup") as s:
            corpus = vx.synth_corpus(config)
        stage_ids["setup"] = s.id
        with tracer.span("stage.gen") as s:
            trials, extra = vx.gen_trials(corpus, wl.n_trials, wl.policy,
                                          seed=seed)
        stage_ids["gen"] = s.id
        audio = {**corpus.utterances, **extra}
        with tracer.span("stage.eval") as s:
            report = vx.run_matrix(audio, trials, list(wl.methods), jobs=1)
        stage_ids["eval"] = s.id
    except Exception as exc:          # the program failed: report it
        out.failed += ops
        out.problems.append(f"pass raised {type(exc).__name__}: {exc}")
        return None
    by_id = {sp.id: sp for sp in tracer.spans}
    times = {k: by_id[i].end - by_id[i].start for k, i in stage_ids.items()}
    return LibraryPass(corpus, trials, audio, report.to_dict(), times,
                       stage_ids)


def _time_gens(vx, corpus, wl, seed, n) -> List[float]:
    times = []
    for _ in range(n):
        t = time.perf_counter()
        vx.gen_trials(corpus, wl.n_trials, wl.policy, seed=seed)
        times.append(time.perf_counter() - t)
    return times


def _check_library(wl, vx, run: LibraryPass, out) -> None:
    import numpy as np
    import checks

    trials, report = run.trials, run.report
    out.problems += checks.check_labels(
        ((t.enroll_id, t.test_id.split("~")[0], t.label) for t in trials),
        run.corpus.speaker_of)
    ids = sorted({t.enroll_id for t in trials} | {t.test_id for t in trials})
    vecs = {u: vx.embed(vx.mfcc(run.audio[u])).vector for u in ids}
    dist = checks.cosine_distances(
        np.array([vecs[t.enroll_id] for t in trials]),
        np.array([vecs[t.test_id] for t in trials]))
    labels = [t.label for t in trials]
    none_row = [m for m in report["matrix"] if m["restoration"] == "none"][0]
    out.problems += checks.check_none_row(none_row, labels, dist)
    if wl.policy == "pitch-time":
        out.problems += checks.check_pitch_time(report)
    else:
        out.problems += checks.check_vtln(report)
    out.info["eer"] = checks.eers(report)
    out.info["bias"] = {b["restoration"]: {"mean_error": b["mean_error"],
                                           "std_error": b["std_error"],
                                           "count": b["count"]}
                        for b in report["bias"]}
    out.info["test_repeat_share"] = repeat_share([t.test_id for t in trials])
    out.info["trial_summary"] = report["trial_summary"]


def _traced_library_passes(wl, vx, config, seed, report, out) -> None:
    """A traced pass between two untraced ones, all three warm and on
    the same inputs as the run's pass; each must give its report."""
    before = _library_pass(vx, wl, config, seed, out, Tracer())
    tracer = Tracer()
    handle = tracer.install()
    try:
        traced = _library_pass(vx, wl, config, seed, out, tracer)
    finally:
        handle.remove()
    after = _library_pass(vx, wl, config, seed, out, Tracer())
    if None in (before, traced, after):
        return
    for name, run in (("before", before), ("traced", traced),
                      ("after", after)):
        if run.report != report:
            out.problems.append(f"{name} pass report differs from the "
                                f"run's first")
    out.untraced_work_s = statistics.mean([before.wall_s, after.wall_s])
    out.traced_work_s = traced.wall_s
    out.stage_ids = traced.stage_ids
    out.tracer = tracer


# ---------------------------------------------------------------------------
# CLI workload


def cli_commands(wl: CliWorkload, seed: int) -> Dict[str, Tuple[str, ...]]:
    """The subcommands of one round trip, in order."""
    def evaluate(tag: str, jobs: int):
        return ("eval", "--trials", "trials/trials.txt", "--out",
                f"report_{tag}.json", "--restore", "none", "--restore",
                "pitch-freq", "--dump-embeddings", f"emb_{tag}.txt",
                "--jobs", str(jobs))

    return {
        "corpus": ("corpus", "--out", "corpus", "--speakers",
                   str(wl.n_speakers), "--utts", str(wl.utts_per_speaker),
                   "--duration", str(wl.duration_s), "--seed", str(seed)),
        "trials": ("trials", "--corpus", "corpus", "--out", "trials", "--n",
                   str(wl.n_trials), "--disguise", "pitch-freq", "--seed",
                   str(seed)),
        "eval_j1": evaluate("j1", 1),
        "eval_j2": evaluate("j2", 2),
        "eval_ext": ("eval", "--trials", "trials/trials.txt", "--out",
                     "report_ext.json", "--restore", "none", "--scorer",
                     "external:emb_j1.txt"),
    }


class _Cli:
    """Runs voxrestore subcommands in fresh processes inside `workdir`,
    each one operation. With a tracer, each process runs under
    traced_cli.py and its spans join the tracer's innermost open
    span."""

    def __init__(self, workdir: Path, out: Outcome, tracer=None):
        self.workdir = workdir
        self.out = out
        self.tracer = tracer
        self.n = 0

    def __call__(self, args: Tuple[str, ...]) -> float:
        self.out.attempted += 1
        self.n += 1
        trace_file = self.workdir / f"trace-{self.n}.json"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "voxrestore", *args]
        else:
            cmd = [sys.executable, str(BENCH / "traced_cli.py"),
                   str(trace_file), *args]
        t = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.workdir, env=child_env(),
                              capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT)
        elapsed = time.perf_counter() - t
        if proc.returncode != 0:
            self.out.failed += 1
            err = (proc.stderr.strip().splitlines() or [""])[-1]
            self.out.problems.append(
                f"voxrestore {args[0]} exited {proc.returncode}: {err}")
        if self.tracer is not None and trace_file.exists():
            with open(trace_file, encoding="utf-8") as fh:
                data = json.load(fh)
            self.tracer.absorb(data, self.tracer.current())
        return elapsed


# the subcommands of each stage of a round trip, in order
CLI_STAGES = (("setup", ("corpus",)), ("gen", ("trials",)),
              ("eval", ("eval_j1", "eval_j2", "eval_ext")))


def run_cli(wl: CliWorkload, seed: int, trace: bool,
            workdir: Path) -> Outcome:
    out = Outcome()
    cmds = cli_commands(wl, seed)
    workdir.mkdir(parents=True)
    cli = _Cli(workdir, out)
    for _ in range(SETUP_SAMPLES - 1):
        out.setup_s.append(cli(cmds["corpus"]))
    # the run's round trip is contiguous; total_s is its wall time
    times, out.total_s, _ = _cli_pass(cli, cmds, Tracer())
    out.setup_s.append(times["corpus"])
    out.jobs2_s = times["eval_j2"]
    out.eval_s = times["eval_j1"] + times["eval_j2"] + times["eval_ext"]
    gens = [times["trials"]] + [cli(cmds["trials"])
                                for _ in range(wl.gen_repeats - 1)]
    out.gen_s = statistics.median(gens)
    if out.failed:
        return out
    _check_cli(wl, workdir, out)
    if trace:
        _traced_cli_passes(wl, cmds, workdir, out)
    return out


def _cli_pass(cli: "_Cli", cmds, tracer: Tracer):
    """One round trip, each stage in a span of `tracer`. Returns the
    wall time of each subcommand and of the whole round trip, and the
    stage span ids."""
    times, stage_ids = {}, {}
    t0 = time.perf_counter()
    for stage, names in CLI_STAGES:
        with tracer.span(f"stage.{stage}") as s:
            for name in names:
                times[name] = cli(cmds[name])
        stage_ids[stage] = s.id
    return times, time.perf_counter() - t0, stage_ids


def _traced_cli_passes(wl, cmds, workdir: Path, out: Outcome) -> None:
    """A traced round trip, then an untraced one, each in a directory
    of its own and each checked like the run's. The run's round trip
    is the untraced one before."""
    tracer = Tracer()
    traced_dir, after_dir = workdir / "traced", workdir / "after"
    traced_dir.mkdir()
    _, out.traced_work_s, out.stage_ids = _cli_pass(
        _Cli(traced_dir, out, tracer), cmds, tracer)
    after_dir.mkdir()
    _, after_s, _ = _cli_pass(_Cli(after_dir, out), cmds, Tracer())
    if out.failed:
        return
    import checks
    for directory in (traced_dir, after_dir):
        _check_cli(wl, directory, out)
        out.problems += checks.check_identical(
            _report_files(workdir, "j1"), _report_files(directory, "j1"))
    out.untraced_work_s = statistics.mean([out.total_s, after_s])
    out.tracer = tracer


def _report_files(workdir: Path, tag: str) -> Dict[str, bytes]:
    """The report files and sidecar of one eval, by tag-free name."""
    files = {p.name.replace(f"_{tag}", ""): p.read_bytes()
             for p in workdir.glob(f"report_{tag}*")}
    files["emb.txt"] = (workdir / f"emb_{tag}.txt").read_bytes()
    return files


def _read_tsv(path: Path) -> Dict[str, Tuple[str, str]]:
    rows = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            utt, spk, filename = line.split("\t")
            rows[utt] = (spk, filename)
    return rows


def _check_cli(wl: CliWorkload, workdir: Path, out: Outcome) -> None:
    import numpy as np
    import checks
    vx = import_program()

    corpus = _read_tsv(workdir / "corpus" / "corpus.tsv")
    speaker_of = {utt: spk for utt, (spk, _) in corpus.items()}
    if len(corpus) != wl.n_speakers * wl.utts_per_speaker:
        out.problems.append(f"corpus index lists {len(corpus)} utterances")

    # every WAV written reads back with its sample count and rate
    sr = 16000
    n = int(round(wl.duration_s * sr))
    win, hop = int(round(0.025 * sr)), int(round(0.015 * sr))
    n_disguised = ((n - win) // hop) * hop + win    # istft of every frame
    for utt, (_, filename) in corpus.items():
        out.problems += checks.check_wav(
            (workdir / "corpus" / filename).read_bytes(), n, sr)
    disguised = sorted((workdir / "trials" / "disguised").glob("*.wav"))
    for path in disguised:
        out.problems += checks.check_wav(path.read_bytes(), n_disguised, sr)

    trials, alphas = [], []
    for line in (workdir / "trials" / "trials.txt").read_text().splitlines():
        label, enroll, test, spec = line.split()
        trials.append((enroll, test, label == "1"))
        alphas.append(float(spec.split(":")[1]))
    if len(trials) != wl.n_trials:
        out.problems.append(f"trial list holds {len(trials)} trials")
    referenced = {t for _, t, _ in trials if t.startswith("disguised/")}
    if len(referenced) != len(disguised):
        out.problems.append(f"{len(disguised)} disguised WAVs for "
                            f"{len(referenced)} disguised test tokens")

    def utt_of(token: str) -> str:
        return Path(token).stem.split("~")[0]

    out.problems += checks.check_labels(
        ((utt_of(e), utt_of(t), lab) for e, t, lab in trials), speaker_of)
    base = workdir / "trials"
    audio = {tok: vx.load_wav(base / tok)
             for tok in sorted({e for e, _, _ in trials}
                               | {t for _, t, _ in trials})}
    vecs = {tok: vx.embed(vx.mfcc(x)).vector for tok, x in audio.items()}
    dist = checks.cosine_distances(np.array([vecs[e] for e, _, _ in trials]),
                                   np.array([vecs[t] for _, t, _ in trials]))
    labels = [lab for _, _, lab in trials]

    def read_report(tag: str) -> dict:
        return json.loads((workdir / f"report_{tag}.json").read_text())

    j1, ext = read_report("j1"), read_report("ext")
    none_row = [m for m in j1["matrix"] if m["restoration"] == "none"][0]
    out.problems += checks.check_none_row(none_row, labels, dist)
    out.problems += checks.check_identical(_report_files(workdir, "j1"),
                                           _report_files(workdir, "j2"))
    out.problems += checks.check_same_row(j1, ext, "none")
    out.problems += checks.check_roundtrip_grid(j1)
    # the grid's estimate on each same-speaker trial, one trial at a time
    pairs = [(alpha, vx.grid_search_restore(audio[e], audio[t]).alpha_hat)
             for (e, t, lab), alpha in zip(trials, alphas) if lab]
    out.problems += checks.check_recovery(checks.bias_row(j1, "pitch-freq"),
                                          pairs)
    out.problems += checks.check_sidecar(
        (workdir / "emb_j1.txt").read_text(encoding="utf-8"), vecs)
    out.info["eer"] = checks.eers(j1)
    out.info["bias"] = {b["restoration"]: {"mean_error": b["mean_error"],
                                           "std_error": b["std_error"],
                                           "count": b["count"]}
                        for b in j1["bias"]}
    out.info["test_repeat_share"] = repeat_share([t for _, t, _ in trials])
