"""The benchmark's four workloads, driven through the program's public API.

Three serving workloads follow ``serve-demo``: generate the synthetic-digits
split, train a 784-100-10 posterior, save it and register the file, start
the service and answer one warm batch; then one client thread runs a
closed loop for the measured seconds.  ``train-digits`` trains the same
network at the quickstart's setting.

``setup_s`` is the median of several set-ups of the same work: after one
untimed warm-up, ``SETUP_BEFORE`` before the measured loop (the last of
them is the one measured) and ``SETUP_AFTER`` after it.  A 2-vCPU VM runs
the first sub-second set-up after an idle pause up to 2.5x slower, and its
speed drifts over tens of seconds, so set-ups on both sides of the run
keep the median from resting on one moment.  The workload seed is an
argument; the program only ever sees the inputs generated from it.
"""

from __future__ import annotations

import gc
import itertools
import multiprocessing
import os
import resource
import shutil
import statistics
import time
from array import array
from collections import deque
from dataclasses import dataclass, field

import numpy as np

import repro.datasets as datasets
from repro.bnn import Adam, BayesianNetwork, Trainer
from repro.bnn.serialization import save_posterior
from repro.grng import GrngStream, make_grng
from repro.obs import profile
from repro.serving import BnnService, ServiceConfig

from checks import (
    FLOAT_TOLERANCE,
    QUANTIZED_TOLERANCE,
    SIDE_DRAW_INSTANCES,
    SIDE_DRAW_SAMPLES,
    agreement,
    agreement_failures,
    moment_failures,
    probability_rows_failures,
    read_posterior,
    reference_probabilities,
)
from tracing import LayerTotals

MODEL = "digits"
LAYER_SIZES = (784, 100, 10)
#: Monte Carlo passes per served request (eq. 6's N).
N_SAMPLES = 30
MAX_BATCH = 64
#: Images the serving set-up trains its posterior on (one epoch, batch 32).
SERVING_TRAIN_IMAGES = 1024
#: Micro-batching fill window of the thread and process workloads (see
#: ``SERVING``).
FILL_WAIT_MS = 20.0
#: Distinct test images the serving workloads draw requests from.
REQUEST_POOL = 256
#: ``hotset-shared``: hot images, the share of requests that pick one, and
#: the closed-loop window (four micro-batches of requests per flush).
HOT_SET = 16
HOT_SHARE = 0.75
SYNC_WINDOW = 4 * MAX_BATCH
#: Cold request ``j`` is cold image ``j mod C`` plus ``(j div C) * COLD_STEP``
#: on every pixel: a distinct input (and cache key) per cold request.
COLD_STEP = 1e-9
#: ``train-digits``: the quickstart's setting.
TRAIN_IMAGES = 1500
TEST_IMAGES = 400
TRAIN_BATCH = 32
EVAL_SAMPLES = 20
#: A round trains a fresh network for this many epochs; a run is whole
#: rounds.  Steps get slower as training goes on (the last quarter of a
#: 20-second run of ever more epochs had a 10-25% higher step-time p90 than
#: the first in 14 of 15 runs), so a run that kept training one network
#: would time later epochs on a faster machine; equal rounds keep the mix
#: of early and late steps the same in every run and every part of it.
ROUND_EPOCHS = 3
#: Test accuracy the trained network must reach by the end of a run.
TEST_ACCURACY_FLOOR = 0.85
#: Timed set-ups before and after the measured loop (plus one warm-up).
SETUP_BEFORE = 3
SETUP_AFTER = 3
#: Served answers compared against eq. (6) per run, taken
#: ``REFERENCE_PER_WINDOW`` at a time from successive windows, so that they
#: come from many batches (one batch's rows share one sampled ensemble).
REFERENCE_IMAGES = 128
REFERENCE_PER_WINDOW = 4
#: ``process-quantized-rlf`` traced run: batches replayed in-process.
REPLAY_BATCHES = 8
#: Profiler cross-check margin: share of the traced total, plus seconds.
CROSS_CHECK_SHARE = 0.05
CROSS_CHECK_SLACK_S = 0.002
RESULT_TIMEOUT_S = 60.0
#: A measured run is cut into this many parts of equal window (or epoch)
#: count, and each timing metric is the median over the parts: the speed of
#: a shared 2-vCPU VM moves by 15% and more for seconds at a time, and the
#: median keeps a slow stretch within one part from moving a run's figure.
#: Four parts keep a part's latency percentiles resting on some 25 windows.
PARTS = 4


@dataclass
class Outcome:
    """What a workload run reports."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    per_layer: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    completed: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# Process accounting
# ----------------------------------------------------------------------
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _worker_pids() -> list[int]:
    return sorted(child.pid for child in multiprocessing.active_children())


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _cpu_s(pids: list[int]) -> float:
    return time.process_time() + sum(_proc_cpu_s(pid) for pid in pids)


def _peak_rss_mb(pids: list[int]) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(_proc_peak_rss_mb(pid) for pid in pids)


def _vm_cpu_counters() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks of the whole VM, from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        ticks = [int(value) for value in handle.readline().split()[1:]]
    return ticks[7], sum(ticks)


def _steal_note(before: tuple[int, int]) -> str:
    """How much CPU time the hypervisor took from this VM since ``before``."""
    steal, total = _vm_cpu_counters()
    share = (steal - before[0]) / max(total - before[1], 1)
    return f"hypervisor steal during the measured loop: {share:.1%} of the VM's CPU time"


def _part_medians(marks: list[tuple[float, int, float]], latencies) -> dict:
    """Per-part rates, and the medians over ``PARTS`` parts of the run.

    ``marks`` holds cumulative ``(time, operations, cpu_seconds)`` after
    each window or epoch, led by the start of the run; ``latencies`` holds
    one entry per operation, in completion order.
    """
    rounds = len(marks) - 1
    count = min(PARTS, rounds)
    edges = [round(i * rounds / count) for i in range(count + 1)]
    rates, cpu, p50, p90 = [], [], [], []
    for first, last in zip(edges, edges[1:]):
        (t0, ops0, cpu0), (t1, ops1, cpu1) = marks[first], marks[last]
        done = max(ops1 - ops0, 1)
        rates.append((ops1 - ops0) / (t1 - t0))
        cpu.append((cpu1 - cpu0) / done)
        part = np.asarray(latencies[ops0:ops1]) if ops1 > ops0 else np.zeros(1)
        p50.append(float(np.percentile(part, 50)))
        p90.append(float(np.percentile(part, 90)))
    return {
        "rates": rates,
        "p90s": p90,
        "rate": statistics.median(rates),
        "cpu_s": statistics.median(cpu),
        "p50_s": statistics.median(p50),
        "p90_s": statistics.median(p90),
    }


def _time_steps(network: BayesianNetwork, sink: array) -> None:
    """Append the duration of each of ``network``'s training steps to ``sink``.

    Wraps the one instance only; a step is the operation of the training
    metrics.
    """
    train_step = network.train_step

    def timed_step(*args, **kwargs):
        start = time.perf_counter()
        try:
            return train_step(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - start)

    network.train_step = timed_step


class SetupSeries:
    """Runs and times the set-ups of one workload run.

    ``make(index)`` returns a set-up object with a ``timings`` dict;
    ``close(setup)`` releases one.  Each released set-up is collected at
    once: otherwise two sampled weight stacks may be resident together and
    ``peak_rss_mb`` jumps by one stack in some runs.
    """

    def __init__(self, make, close, recorder) -> None:
        self.make = make
        self.close = close
        self.recorder = recorder
        self.timings: list[dict[str, float]] = []
        #: Training-step durations of the timed set-ups that train.
        self.step_times: list[float] = []
        self._made = 0

    def _one(self, keep: bool, timed: bool = True):
        setup = self.make(self._made)
        self._made += 1
        if timed:
            self.timings.append(setup.timings)
            self.step_times.extend(getattr(setup, "step_times", ()))
        if keep:
            return setup
        self.close(setup)
        del setup
        gc.collect()
        return None

    def _phase(self, name: str) -> None:
        if self.recorder is not None:
            self.recorder.phase = name

    def before(self):
        """Warm-up, ``SETUP_BEFORE`` timed set-ups; returns the last, kept."""
        self._phase("setup")
        self._one(keep=False, timed=False)
        for _ in range(SETUP_BEFORE - 1):
            self._one(keep=False)
        setup = self._one(keep=True)
        self._phase("run")
        return setup

    def after(self) -> None:
        self._phase("setup")
        for _ in range(SETUP_AFTER):
            self._one(keep=False)

    def median(self, name: str) -> float:
        return statistics.median(timing[name] for timing in self.timings)

    def describe(self) -> str:
        return "set-ups " + ", ".join(f"{t['setup_s']:.3f}" for t in self.timings) + " s"


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServingSpec:
    make_config: object
    register: object
    windows_in_flight: int
    tolerance: dict
    grng: str
    #: ``"float"`` or ``"codes"``: the GRNG seam the model draws through.
    seam: str
    hotset: bool = False


def _register_float(**extra):
    def register(service, path, seed):
        service.register_file(
            MODEL, path, n_samples=N_SAMPLES, grng="bnnwallace", seed=seed, **extra
        )

    return register


def _register_quantized(service, path, seed):
    service.register_quantized_file(
        MODEL, path, bit_length=8, n_samples=N_SAMPLES, grng="rlf", seed=seed
    )


SERVING = {
    # At the 2 ms default fill window the one client thread does not always
    # finish a 64-request window before a worker dispatches it (about 60 us
    # per submit with two process workers busy), so windows split into
    # partial batches, each paying a full epsilon draw, and the share that
    # splits changes from run to run (process-mode p90 spread up to 0.27).
    # FILL_WAIT_MS lets every window form one full batch as soon as its last
    # row arrives.  Sync mode batches on ``flush()`` and has no fill window.
    "uncached-wallace": ServingSpec(
        lambda: ServiceConfig(
            max_batch=MAX_BATCH,
            max_wait_ms=FILL_WAIT_MS,
            workers=1,
            worker_mode="thread",
            cache_capacity=0,
        ),
        _register_float(),
        windows_in_flight=1,
        tolerance=FLOAT_TOLERANCE,
        grng="bnnwallace",
        seam="float",
    ),
    "process-quantized-rlf": ServingSpec(
        lambda: ServiceConfig(
            max_batch=MAX_BATCH,
            max_wait_ms=FILL_WAIT_MS,
            workers=2,
            worker_mode="process",
            cache_capacity=0,
        ),
        _register_quantized,
        windows_in_flight=2,
        tolerance=QUANTIZED_TOLERANCE,
        grng="rlf",
        seam="codes",
    ),
    "hotset-shared": ServingSpec(
        lambda: ServiceConfig(max_batch=MAX_BATCH, workers=0),
        _register_float(share_weight_stacks=True),
        windows_in_flight=1,
        tolerance=FLOAT_TOLERANCE,
        grng="bnnwallace",
        seam="float",
        hotset=True,
    ),
}


@dataclass
class ServingSetup:
    service: BnnService
    pool: np.ndarray
    posterior_path: object
    #: ``setup_s`` and ``worker_start_s``.
    timings: dict[str, float]
    #: Durations of the set-up's training steps.
    step_times: array


def _serving_setup(spec: ServingSpec, seed: int, path) -> ServingSetup:
    start = time.perf_counter()
    x_train, y_train, pool, _ = datasets.load_digits_split(
        n_train=SERVING_TRAIN_IMAGES, n_test=REQUEST_POOL, seed=seed
    )
    network = BayesianNetwork(LAYER_SIZES, seed=seed)
    step_times = array("d")
    _time_steps(network, step_times)
    Trainer(network, Adam(3e-3), batch_size=TRAIN_BATCH, epochs=1, seed=seed).fit(
        x_train, y_train
    )
    save_posterior(path, network.posterior_parameters())
    service_start = time.perf_counter()
    service = BnnService(config=spec.make_config())
    try:
        spec.register(service, path, seed)
        # The warm batch uses training images, which no request repeats.
        tickets = [service.submit(MODEL, row) for row in x_train[:MAX_BATCH]]
        service.flush()
        for ticket in tickets:
            ticket.result(RESULT_TIMEOUT_S)
    except BaseException:
        service.close()
        raise
    end = time.perf_counter()
    return ServingSetup(
        service,
        pool,
        path,
        {"setup_s": end - start, "worker_start_s": end - service_start},
        step_times,
    )


def _cycling_windows(pool: np.ndarray):
    """Windows of ``MAX_BATCH`` distinct pool images, cycling the pool.

    Keys are ``None``: without a cache, a repeated image gets a fresh answer.
    """
    for window in itertools.count():
        base = (window * MAX_BATCH) % len(pool)
        yield [(None, pool[base + i]) for i in range(MAX_BATCH)]


class HotsetStream:
    """Seeded request sequence: about three requests in four pick a hot image.

    Hot requests carry their hot-set index as key; cold requests carry
    ``None`` and never repeat.  ``repeats`` counts requests for a hot image
    already requested, which is exactly the number of cache hits a correct
    service reports.
    """

    def __init__(self, pool: np.ndarray, seed: int) -> None:
        self.hot = pool[:HOT_SET]
        self.cold = pool[HOT_SET:]
        self.rng = np.random.default_rng([seed, 0x4075E7])
        self.cold_requests = 0
        self.seen: set[int] = set()
        self.repeats = 0

    def windows(self):
        while True:
            picks_hot = self.rng.random(SYNC_WINDOW) < HOT_SHARE
            hot_index = self.rng.integers(HOT_SET, size=SYNC_WINDOW)
            window = []
            for is_hot, index in zip(picks_hot, hot_index):
                if is_hot:
                    index = int(index)
                    if index in self.seen:
                        self.repeats += 1
                    self.seen.add(index)
                    window.append((index, self.hot[index]))
                else:
                    lap, base = divmod(self.cold_requests, len(self.cold))
                    row = self.cold[base] + lap * COLD_STEP if lap else self.cold[base]
                    window.append((None, row))
                    self.cold_requests += 1
            yield window


@dataclass
class LoadResult:
    attempted: int = 0
    failed: int = 0
    latencies: array = field(default_factory=lambda: array("d"))
    #: First answer per repeatable request key.
    first: dict = field(default_factory=dict)
    reference_rows: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    repeat_mismatches: int = 0
    #: Problems of the first window whose rows are not probability vectors.
    row_problems: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    #: Cumulative ``(time, completed, cpu_seconds)`` after each window.
    marks: list[tuple[float, int, float]] = field(default_factory=list)
    steal_note: str = ""


def _closed_loop(service: BnnService, windows, in_flight: int, seconds: float) -> LoadResult:
    """One client thread, ``in_flight`` windows outstanding, for ``seconds``.

    Every answer must be a probability vector, and every answer to a
    repeated key must equal the key's first answer bit for bit (the cache
    contract).  ``REFERENCE_PER_WINDOW`` answers per window, at rotating
    positions, are kept for the eq. (6) comparison.
    """
    result = LoadResult()
    pids = _worker_pids()
    pending: deque = deque()
    vm_counters = _vm_cpu_counters()
    start = time.perf_counter()
    result.marks.append((start, 0, _cpu_s(pids)))
    stop = start + seconds
    while True:
        while len(pending) < in_flight and time.perf_counter() < stop:
            submitted = []
            for key, row in next(windows):
                result.attempted += 1
                sent = time.perf_counter()
                try:
                    submitted.append((key, row, sent, service.submit(MODEL, row)))
                except Exception as error:  # noqa: BLE001 - counted as failed
                    result.failed += 1
                    result.errors.append(f"submit: {type(error).__name__}: {error}")
            service.flush()
            pending.append(submitted)
        if not pending:
            break
        window = pending.popleft()
        offset = (len(result.marks) - 1) * REFERENCE_PER_WINDOW
        picks = {(offset + k) % max(len(window), 1) for k in range(REFERENCE_PER_WINDOW)}
        answers = []
        for position, (key, row, sent, ticket) in enumerate(window):
            try:
                probs = ticket.result(RESULT_TIMEOUT_S)
            except Exception as error:  # noqa: BLE001 - counted as failed
                result.failed += 1
                result.errors.append(f"result: {type(error).__name__}: {error}")
                continue
            result.latencies.append(ticket.completed_at - sent)
            answers.append(probs)
            first = result.first.get(key) if key is not None else None
            if (
                position in picks
                and first is None
                and len(result.reference_rows) < REFERENCE_IMAGES
            ):
                result.reference_rows.append((np.array(row), probs))
            if key is None:
                continue
            if first is None:
                result.first[key] = probs
            elif not np.array_equal(first, probs):
                result.repeat_mismatches += 1
        if answers and not result.row_problems:
            result.row_problems = probability_rows_failures(np.stack(answers))
        result.marks.append((time.perf_counter(), len(result.latencies), _cpu_s(pids)))
    result.wall_s = time.perf_counter() - start
    result.steal_note = _steal_note(vm_counters)
    return result


def _side_draw_problems(grng: str, seam: str, seed: int) -> list[str]:
    """Moments of a side draw from fresh instances of the GRNG in use."""
    draws = np.empty((SIDE_DRAW_INSTANCES, SIDE_DRAW_SAMPLES))
    for instance in range(SIDE_DRAW_INSTANCES):
        stream = GrngStream(make_grng(grng, seed=seed * SIDE_DRAW_INSTANCES + instance))
        if seam == "codes":
            draws[instance] = stream.generate_codes(SIDE_DRAW_SAMPLES)
        else:
            draws[instance] = stream.generate(SIDE_DRAW_SAMPLES)
    if seam == "codes":
        # Codes are 255-trial popcounts: B(255, 1/2).
        return moment_failures(f"{grng} codes", draws, 127.5, 63.75)
    return moment_failures(f"{grng} samples", draws, 0.0, 1.0)


def _serving_problems(spec, setup, load, stream, hits, seed, notes) -> list[str]:
    """Every check of a serving run (see ``README.md``, Checks)."""
    notes.extend(f"failed operation: {error}" for error in load.errors[:3])
    problems = list(load.row_problems)
    if not load.reference_rows:
        return problems + ["no request completed"]
    x = np.stack([row for row, _ in load.reference_rows])
    served = np.stack([probs for _, probs in load.reference_rows])
    reference = reference_probabilities(read_posterior(setup.posterior_path), x, seed)
    measured = agreement(served, reference, N_SAMPLES, spec.tolerance["allowance"])
    problems += agreement_failures(measured, spec.tolerance)
    notes.append(
        f"eq. (6) agreement on {len(x)} answers: top-1 share "
        f"{measured['top1_share']:.3f} of {measured['decisive']} decisive "
        f"(floor {spec.tolerance['top1_share']}), top-1 probability shift "
        f"{measured['shift']:+.4f} (limit {spec.tolerance['shift']}), standardized "
        f"squared distance {measured['mean_z2']:.3f} (limit {spec.tolerance['mean_z2']})"
    )
    if stream is not None:
        if load.repeat_mismatches:
            problems.append(f"{load.repeat_mismatches} repeats differ from their first answer")
        if hits != stream.repeats:
            problems.append(f"cache hits {hits} != repeats in the sequence {stream.repeats}")
        notes.append(
            f"hot-set sequence: {load.attempted} requests, {stream.repeats} "
            f"repeats, {hits} cache hits"
        )
    return problems + _side_draw_problems(spec.grng, spec.seam, seed)


def run_serving(spec: ServingSpec, seed: int, seconds: float, workdir, recorder) -> Outcome:
    outcome = Outcome()
    workdir.mkdir(parents=True, exist_ok=True)
    setups = SetupSeries(
        lambda index: _serving_setup(spec, seed, workdir / f"posterior-{index}.npz"),
        lambda setup: setup.service.close(),
        recorder,
    )
    try:
        setup = setups.before()
        service = setup.service
        try:
            stream = HotsetStream(setup.pool, seed) if spec.hotset else None
            windows = stream.windows() if stream else _cycling_windows(setup.pool)
            metrics = service.metrics
            before = (
                metrics.cache_hits,
                metrics.cache_misses,
                metrics.batches,
                metrics.batch_rows,
                metrics.batch_histogram(),
            )
            if recorder is not None:
                recorder.queue_waits.clear()
                recorder.ring_roundtrips.clear()
                profiler = profile.enable_profiling()
            load = _closed_loop(service, windows, spec.windows_in_flight, seconds)
            hits = metrics.cache_hits - before[0]
            lookups = hits + metrics.cache_misses - before[1]
            batches = metrics.batches - before[2]
            rows = metrics.batch_rows - before[3]
            batch_sizes = {
                size: count - before[4].get(size, 0)
                for size, count in metrics.batch_histogram().items()
                if count > before[4].get(size, 0)
            }
            replayed_rows = 0
            if recorder is not None:
                if spec.seam == "codes":
                    recorder.phase = "replay"
                    replayed_rows = _replay_batches(
                        service, setup.pool, batch_sizes, recorder
                    )
                profile.disable_profiling()
                # The checks' own GRNG side draw must not count as layer work.
                recorder.phase = "checks"
            peak_rss = _peak_rss_mb(_worker_pids())
            stack_builds = service.stack_cache.draws
            outcome.problems += _serving_problems(
                spec, setup, load, stream, hits, seed, outcome.notes
            )
        finally:
            service.close()
        del setup, service
        gc.collect()
        setups.after()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    completed = len(load.latencies)
    outcome.attempted, outcome.completed, outcome.failed = (
        load.attempted,
        completed,
        load.failed,
    )
    parts = _part_medians(load.marks, load.latencies)
    requests_per_s = parts["rate"]
    outcome.metrics = {
        "setup_s": (setups.median("setup_s"), "s"),
        "requests_per_s": (requests_per_s, "1/s"),
        "latency_p50_ms": (parts["p50_s"] * 1e3, "ms"),
        "latency_p90_ms": (parts["p90_s"] * 1e3, "ms"),
        "cpu_ms_per_request": (parts["cpu_s"] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss, "MiB"),
        # One set-up fit lasts a quarter second, too short to time whole on
        # this VM; the median over the timed set-ups' 192 steps is steady.
        "train_images_per_s": (TRAIN_BATCH / statistics.median(setups.step_times), "1/s"),
    }
    outcome.notes.append(
        "requests/s per part of the run: "
        + " ".join(f"{rate:.1f}" for rate in parts["rates"])
        + "; p90 ms per part: " + " ".join(f"{v*1e3:.2f}" for v in parts["p90s"])
    )
    outcome.notes.append(load.steal_note)
    outcome.notes.append(
        f"{completed} requests in {load.wall_s:.2f} s, {batches} batches "
        f"(sizes {batch_sizes}); {setups.describe()}"
    )
    if recorder is not None:
        outcome.per_layer = _layer_metrics(
            recorder,
            layer_phase="replay" if replayed_rows else "run",
            requests=replayed_rows or completed,
            hit_ratio=hits / lookups if lookups else 0.0,
            stack_builds=stack_builds,
            rows_per_batch=rows / batches if batches else 0.0,
            worker_start_s=setups.median("worker_start_s"),
            replayed=bool(replayed_rows),
        )
        outcome.problems += _cross_check(recorder, profiler, outcome.notes)
        outcome.notes.append(
            f"traced requests_per_s {requests_per_s:.1f} "
            "(compare with the untraced median for the tracing overhead)"
        )
    return outcome


def _replay_batches(service, pool, batch_sizes: dict[int, int], recorder) -> int:
    """Replay the run's batch shapes in-process to time the worker kernels.

    Process workers run unobserved, so the traced run rebuilds worker 0's
    predictor through ``ModelEntry.build_predictor`` and times
    ``REPLAY_BATCHES`` batches with the run's batch-size mix.  Returns the
    rows replayed.
    """
    sizes = [size for size, count in batch_sizes.items() for _ in range(count)]
    picks = [sizes[int(i)] for i in np.linspace(0, len(sizes) - 1, REPLAY_BATCHES)]
    predictor = service.registry.get(MODEL).build_predictor(0)
    for index, size in enumerate(picks):
        with recorder.span("serving.replay_batch", context=f"replay-{index}"):
            predictor.predict_proba_batched(pool[:size])
    return sum(picks)


# ----------------------------------------------------------------------
# Per-layer metrics from the spans
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def _layer_metrics(
    recorder,
    *,
    layer_phase: str,
    requests: int,
    hit_ratio: float,
    stack_builds: int,
    rows_per_batch: float,
    worker_start_s: float,
    replayed: bool = False,
    train_steps: int = 0,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric; a layer the workload never calls reads 0.

    GRNG and BNN kernels come from ``layer_phase`` (the measured run, or
    the in-process replay of a process-mode run); the set-up layers from
    the set-ups; the serving layers from the measured run.
    """
    phases = {name: recorder.totals(name) for name in (layer_phase, "run", "setup")}
    empty = LayerTotals()

    def get(phase: str, name: str) -> LayerTotals:
        return phases[phase].get(name, empty)

    fill = get(layer_phase, "grng.fill")
    codes = get(layer_phase, "grng.codes")
    materialize = get(layer_phase, "bnn.materialize")
    forward = get(layer_phase, "bnn.forward")
    quantized_sample = get(layer_phase, "bnn.quantized_sample")
    quantized_forward = get(layer_phase, "bnn.quantized_forward")
    train_step = get("run", "bnn.train_step")
    if not train_step.calls:
        train_step = get("setup", "bnn.train_step")
    digits = get("setup", "datasets.digits")
    submit = get("run", "serving.submit")
    ring_ms = _ratio(sum(recorder.ring_roundtrips), len(recorder.ring_roundtrips), 1e3)
    overhead_ms = 0.0
    if replayed:
        batch = get(layer_phase, "serving.replay_batch")
        overhead_ms = ring_ms - _ratio(batch.seconds, batch.calls, 1e3)
        unattributed_ms = _ratio(batch.self_seconds, batch.calls, 1e3)
    elif train_steps:
        batch = empty
        unattributed_ms = _ratio(get("run", "train.fit").self_seconds, train_steps, 1e3)
    else:
        batch = get("run", "serving.execute")
        unattributed_ms = _ratio(batch.self_seconds, batch.calls, 1e3)
    waits = recorder.queue_waits
    return {
        "grng.float_ns_per_sample": (_ratio(fill.seconds, fill.ops, 1e9), "ns"),
        "grng.code_ns_per_sample": (_ratio(codes.seconds, codes.ops, 1e9), "ns"),
        "grng.samples_per_request": (_ratio(fill.ops + codes.ops, requests), "count"),
        "bnn.materialize_ns_per_weight": (
            _ratio(materialize.seconds, materialize.ops, 1e9),
            "ns",
        ),
        "bnn.forward_ns_per_pass_row": (_ratio(forward.seconds, forward.ops, 1e9), "ns"),
        "bnn.quantized_sample_ms_per_batch": (
            _ratio(quantized_sample.seconds, quantized_sample.calls, 1e3),
            "ms",
        ),
        "bnn.quantized_forward_ns_per_pass_row": (
            _ratio(quantized_forward.self_seconds, quantized_forward.ops, 1e9),
            "ns",
        ),
        "bnn.train_step_ms": (_ratio(train_step.seconds, train_step.calls, 1e3), "ms"),
        "datasets.digits_us_per_image": (_ratio(digits.seconds, digits.ops, 1e6), "us"),
        "serving.submit_us": (_ratio(submit.self_seconds, submit.calls, 1e6), "us"),
        "serving.cache_hit_ratio": (hit_ratio, "ratio"),
        "serving.stack_builds": (float(stack_builds), "count"),
        "serving.rows_per_batch": (rows_per_batch, "count"),
        "serving.batch_exec_ms": (_ratio(batch.seconds, batch.calls, 1e3), "ms"),
        "serving.queue_wait_ms": (_ratio(sum(waits), len(waits), 1e3), "ms"),
        "serving.ring_roundtrip_ms": (ring_ms, "ms"),
        "serving.process_overhead_ms_per_batch": (overhead_ms, "ms"),
        "serving.worker_start_s": (worker_start_s, "s"),
        "unattributed_ms_per_batch": (unattributed_ms, "ms"),
    }


#: Traced span name -> the program's own profiler rollup entry.
_PROFILER_PAIRS = (
    ("grng.fill", "grng.fill"),
    ("bnn.forward", "bnn.stacked_forward"),
    ("bnn.quantized_forward", "quantized.forward_stacked"),
)


def _cross_check(recorder, profiler, notes: list[str]) -> list[str]:
    """Traced totals must match ``repro.obs.profile``'s rollup."""
    profiled = profiler.stats()
    phases = [recorder.totals(phase) for phase in ("run", "replay")]
    problems = []
    for span_name, kernel in _PROFILER_PAIRS:
        traced = sum(totals[span_name].seconds for totals in phases if span_name in totals)
        reported = profiled.get(kernel, {}).get("seconds", 0.0)
        margin = CROSS_CHECK_SHARE * traced + CROSS_CHECK_SLACK_S
        notes.append(
            f"cross-check {span_name}: traced {traced:.4f} s, "
            f"profiler {kernel} {reported:.4f} s (margin {margin:.4f} s)"
        )
        if abs(traced - reported) > margin:
            problems.append(
                f"traced {span_name} {traced:.4f} s disagrees with the profiler's "
                f"{kernel} {reported:.4f} s"
            )
    return problems


# ----------------------------------------------------------------------
# Training workload
# ----------------------------------------------------------------------
@dataclass
class TrainSetup:
    network: BayesianNetwork
    trainer: Trainer
    data: tuple
    timings: dict[str, float]


def _learner(seed: int) -> tuple[BayesianNetwork, Trainer]:
    network = BayesianNetwork(LAYER_SIZES, seed=seed)
    trainer = Trainer(
        network, Adam(3e-3), batch_size=TRAIN_BATCH, epochs=ROUND_EPOCHS, seed=seed
    )
    return network, trainer


def _train_setup(seed: int) -> TrainSetup:
    start = time.perf_counter()
    data = datasets.load_digits_split(n_train=TRAIN_IMAGES, n_test=TEST_IMAGES, seed=seed)
    network, trainer = _learner(seed)
    return TrainSetup(network, trainer, data, {"setup_s": time.perf_counter() - start})


def run_training(seed: int, seconds: float, recorder) -> Outcome:
    outcome = Outcome()
    setups = SetupSeries(lambda index: _train_setup(seed), lambda setup: None, recorder)
    setup = setups.before()
    network, trainer = setup.network, setup.trainer
    x_train, y_train, x_test, y_test = setup.data
    del setup
    step_times = array("d")
    if recorder is not None:
        profiler = profile.enable_profiling()
    rounds = 0
    vm_counters = _vm_cpu_counters()
    start = time.perf_counter()
    marks = [(start, 0, time.process_time())]
    while rounds == 0 or time.perf_counter() - start < seconds:
        if rounds:
            # Unwrapping breaks the cycle through the timing wrapper, so the
            # last round's network is freed now rather than at a later
            # garbage-collector pass, which would move ``peak_rss_mb``.
            del network.train_step
            network, trainer = _learner(seed)
        _time_steps(network, step_times)
        history = trainer.fit(x_train, y_train, x_test, y_test, eval_samples=EVAL_SAMPLES)
        rounds += 1
        marks.append((time.perf_counter(), len(step_times), time.process_time()))
    wall_s = time.perf_counter() - start
    losses, accuracies = history.train_loss, history.test_accuracy
    steal_note = _steal_note(vm_counters)
    if recorder is not None:
        profile.disable_profiling()
    peak_rss = _peak_rss_mb([])
    del network, trainer
    setups.after()

    steps = len(step_times)
    outcome.attempted = outcome.completed = steps
    if not losses[-1] < losses[0]:
        outcome.problems.append(
            f"training loss did not fall: {losses[0]:.4f} -> {losses[-1]:.4f}"
        )
    if accuracies[-1] < TEST_ACCURACY_FLOOR:
        outcome.problems.append(
            f"test accuracy {accuracies[-1]:.3f} below the floor {TEST_ACCURACY_FLOOR}"
        )
    parts = _part_medians(marks, step_times)
    outcome.notes.append(
        "steps/s per part of the run: " + " ".join(f"{rate:.1f}" for rate in parts["rates"])
        + "; p90 ms per part: " + " ".join(f"{v*1e3:.2f}" for v in parts["p90s"])
    )
    outcome.notes.append(steal_note)
    outcome.notes.append(
        f"{rounds} rounds of {ROUND_EPOCHS} epochs, {steps} steps in {wall_s:.2f} s; last "
        f"round's loss {losses[0]:.4f} -> {losses[-1]:.4f}, test accuracy {accuracies[-1]:.3f} "
        f"(floor {TEST_ACCURACY_FLOOR}); {setups.describe()}"
    )
    # Every epoch has the same steps, so images per step is exact.
    images_per_step = rounds * ROUND_EPOCHS * TRAIN_IMAGES / steps
    outcome.metrics = {
        "setup_s": (setups.median("setup_s"), "s"),
        "requests_per_s": (parts["rate"], "1/s"),
        "latency_p50_ms": (parts["p50_s"] * 1e3, "ms"),
        "latency_p90_ms": (parts["p90_s"] * 1e3, "ms"),
        "cpu_ms_per_request": (parts["cpu_s"] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss, "MiB"),
        "train_images_per_s": (parts["rate"] * images_per_step, "1/s"),
    }
    if recorder is not None:
        outcome.per_layer = _layer_metrics(
            recorder,
            layer_phase="run",
            requests=steps,
            hit_ratio=0.0,
            stack_builds=0,
            rows_per_batch=0.0,
            worker_start_s=0.0,
            train_steps=steps,
        )
        outcome.problems += _cross_check(recorder, profiler, outcome.notes)
        outcome.notes.append(
            f"traced requests_per_s {parts['rate']:.1f} "
            "(compare with the untraced median for the tracing overhead)"
        )
    return outcome


def run(workload: str, seed: int, seconds: float, workdir, recorder) -> Outcome:
    if workload == "train-digits":
        return run_training(seed, seconds, recorder)
    return run_serving(SERVING[workload], seed, seconds, workdir, recorder)
