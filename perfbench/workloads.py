"""The three workloads, their set-up and timed rounds, and the metrics of one run.

The benchmark drives ``quanvrob`` from outside, through its public module
functions only, on the images of :mod:`digits`.  The models are the paper's
six: the five filter layouts (all built from filter seed 0, as a grid run
would build them) and the random convolution, each with its own dense
softmax head.

``fit``       featurize the train set through all six extractors, round-trip
              the features through the feature cache, run minibatch Adam on
              each head, round-trip the checkpoint, then score clean test
              accuracy and accuracy under seeded random +-eps sign noise.  No
              input gradients: the forward pass, the head and file I/O do the
              work, so a gradient optimisation must leave it unchanged.
``whitebox``  ``evaluate_robustness`` with PGD and MIM over an epsilon grid
              that starts at 0, on all six models.  The quanv parameter-shift
              input gradient does almost all of the work.
``transfer``  FGSM curves over a dense epsilon grid (one shared gradient, then
              one prediction per epsilon), the full source-to-target matrix
              through ``transfer_attack`` (re-crafted for every target), and
              one ``make_batch`` per source written with ``save_batch`` and
              scored on every target after ``load_batch``: single-step
              crafting, many predictions, and file writes beside reads.

A timed round is one whole fit (``fit``) or one chunk of test images through
the whole grid (``whitebox``, ``transfer``).  Rounds repeat until the time
is up and every chunk has run once; a repeated round must reproduce its
first result exactly.

``imgs_per_s`` is the median rate over untraced rounds.  ``robust_acc`` is the
mean accuracy over the first pass: under random sign noise for ``fit`` (it
has no gradients to attack with), over the attack grid for ``whitebox``, over
the transfer matrix for ``transfer``.  ``clean_acc`` is the heads' accuracy
on held-out digits, scored after timing.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from quanvrob import ansatz, attacks, classical, models, quanv

import gate
from digits import make_digits
from tracing import Tracer, TracedExtractor, instrument, patched

LAYOUTS = tuple(ansatz.AnsatzKind)
FILTER_SEED = 0
CONV_SEED = 0
HEAD_SEED = 1

WHITEBOX_EPS = (0.0, 0.1, 0.2)
WHITEBOX_ITERATIONS = 5  # half the library default, to fit enough images in a run
WHITEBOX_ATTACKS = (attacks.AttackKind.PGD, attacks.AttackKind.MIM)
CURVE_EPS = tuple(round(0.025 * k, 3) for k in range(13))  # 0 .. 0.3
MATRIX_EPS = 0.1
BATCH_EPS = 0.1
NOISE_EPS = (0.15, 0.3)


@dataclass(frozen=True)
class Plan:
    """Problem size of one workload."""

    train: int  # training images per head
    test: int  # images scored in the timed rounds
    held_out: int  # clean images scored after timing for clean_acc
    chunk: int  # test images per timed round (whitebox, transfer)
    epochs: int = 8
    batch: int = 20
    lr: float = 0.01
    setups: int = 3  # set-up repetitions; setup_s is their median
    gate_patches: int = 32  # patches of the gate image checked against the quanv oracle


PLANS = {
    "fit": Plan(train=400, test=200, held_out=500, chunk=200, setups=5),
    "whitebox": Plan(train=400, test=96, held_out=500, chunk=4),
    "transfer": Plan(train=400, test=200, held_out=500, chunk=10),
}
# used by the benchmark's own tests
TINY_PLANS = {
    "fit": Plan(train=30, test=10, held_out=10, chunk=10, epochs=1, batch=10, setups=2, gate_patches=4),
    "whitebox": Plan(train=30, test=2, held_out=10, chunk=1, epochs=1, batch=10, setups=2, gate_patches=4),
    "transfer": Plan(train=30, test=4, held_out=10, chunk=2, epochs=1, batch=10, setups=2, gate_patches=4),
}


# ---------------------------------------------------------------------------
# Set-up: data, filters, extractors and (whitebox, transfer) fitted heads
# ---------------------------------------------------------------------------


@dataclass
class Setup:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    circuits: list  # the Ansatz of each quanv extractor, None for the cnn
    extractors: list
    heads: list | None  # fit sets them in its timed rounds
    noisy: list | None  # fit: test images under +-eps sign noise, one stack per NOISE_EPS


def set_up(workload: str, seed: int, plan: Plan, ledger: gate.Ledger) -> Setup:
    images, labels = make_digits(plan.train + plan.test, seed)
    circuits = [ansatz.build_ansatz(kind, 4, FILTER_SEED) for kind in LAYOUTS]
    extractors = [quanv.QuanvExtractor(c) for c in circuits]
    extractors.append(classical.ConvExtractor(classical.build_conv_layer(CONV_SEED)))
    train_x, train_y = images[: plan.train], labels[: plan.train]
    test_x, test_y = images[plan.train :], labels[plan.train :]
    heads = noisy = None
    if workload == "fit":
        signs = np.random.default_rng([seed, 1]).choice([-1.0, 1.0], size=test_x.shape)
        noisy = [np.clip(test_x + eps * signs, 0.0, 1.0) for eps in NOISE_EPS]
    else:
        heads = [train_head(featurize(ex, train_x), train_y, plan, seed, ledger) for ex in extractors]
    return Setup(train_x, train_y, test_x, test_y, circuits + [None], extractors, heads, noisy)


def featurize(extractor, images) -> np.ndarray:
    return np.stack([extractor.forward(img) for img in images])


def train_head(features, labels, plan: Plan, seed: int, ledger: gate.Ledger):
    """Minibatch Adam on the mean cross-entropy of a fresh head over frozen features."""
    head = classical.build_dense_head(HEAD_SEED, in_dim=features[0].size)
    state = classical.init_adam_state(head)
    order_rng = np.random.default_rng([seed, 2])
    for _ in range(plan.epochs):
        order = order_rng.permutation(len(features))
        for start in range(0, len(order), plan.batch):
            batch = order[start : start + plan.batch]
            d_w = np.zeros_like(head.weights)
            d_b = np.zeros_like(head.bias)
            for k in batch:
                probs = classical.dense_forward(features[k], head)
                loss, g_w, g_b, _ = classical.loss_and_grads(head, probs, int(labels[k]), features[k])
                if not math.isfinite(loss):
                    ledger.nonfinite_losses += 1
                    ledger.fail(f"non-finite training loss {loss}")
                d_w += g_w
                d_b += g_b
            head, state = classical.adam_step(head, state, (d_w / len(batch), d_b / len(batch)), plan.lr)
    return head


# ---------------------------------------------------------------------------
# Gate: run once on the set-up before anything is timed
# ---------------------------------------------------------------------------


def run_gate(setup: Setup, heads: list, plan: Plan, seed: int, ledger: gate.Ledger) -> None:
    rng = np.random.default_rng([seed, 3])
    image, label = setup.test_x[0], int(setup.test_y[0])
    hp, wp = image.shape[0] // 2, image.shape[1] // 2
    # mostly patches with ink (grey and saturated pixels), a quarter blank ones (all exactly 0)
    blocks = image.reshape(hp, 2, wp, 2).max(axis=(1, 3))
    inked, blank = np.argwhere(blocks > 0), np.argwhere(blocks == 0)
    n_blank = min(len(blank), plan.gate_patches // 4)
    n_inked = min(len(inked), plan.gate_patches - n_blank)
    patches = [tuple(p) for p in inked[rng.choice(len(inked), n_inked, replace=False)]]
    patches += [tuple(p) for p in blank[rng.choice(len(blank), n_blank, replace=False)]]
    interior = [tuple(p) for p in np.argwhere((image > 1e-3) & (image < 1 - 1e-3))[:8]]
    for ex, circuit, head in zip(setup.extractors, setup.circuits, heads):
        upstream = rng.standard_normal((hp, wp, 4))
        if circuit is None:
            pixels = [tuple(p) for p in rng.integers(0, image.shape[0], size=(24, 2))]
            gate.check_conv(ex, image, upstream, pixels, ledger)
        else:
            gate.check_quanv(ex, circuit, image, upstream, patches, ledger)
        model = models.Model(ex, head)
        gate.check_head(head, ex.forward(image), label, rng, ledger)
        gate.check_model_gradient(model, image, label, interior, ledger)
        gate.check_attacks(model, image, label, max(WHITEBOX_EPS), ledger)


# ---------------------------------------------------------------------------
# Timed rounds.  Each returns (units, result); a unit is one image through
# one extractor (fit) or one scored adversarial example (whitebox, transfer).
# ---------------------------------------------------------------------------


def fit_round(setup: Setup, extractors, plan: Plan, seed: int, ledger: gate.Ledger, workdir: Path):
    indices = np.arange(len(setup.train_x))
    result, heads = [], []
    for ex in extractors:
        fingerprint = ex.fingerprint
        features = featurize(ex, setup.train_x)
        cache = workdir / f"{ex.kind}.features"
        quanv.write_feature_cache(cache, fingerprint, indices, features)
        maps, digest = quanv.read_feature_cache(cache, fingerprint)
        ledger.expect(
            digest == fingerprint
            and list(maps) == list(indices)
            and all(gate.same_arrays(maps[i], features[i]) for i in indices),
            f"{ex.kind} feature cache round trip changed the features",
        )
        cached = np.stack([maps[i] for i in indices])
        head = train_head(cached, setup.train_y, plan, seed, ledger)
        ckpt = workdir / f"{ex.kind}.ckpt"
        classical.save_checkpoint(ckpt, ex.kind, ex.seed, fingerprint, head)
        kind, ex_seed, ex_fingerprint, loaded = classical.load_checkpoint(ckpt)
        ledger.expect(
            (kind, ex_seed, ex_fingerprint) == (ex.kind, ex.seed, fingerprint)
            and gate.same_arrays(loaded.weights, head.weights)
            and gate.same_arrays(loaded.bias, head.bias),
            f"{ex.kind} checkpoint round trip changed the head",
        )
        model = gate.CheckedModel(models.Model(ex, loaded), ledger)
        clean = models.accuracy(model, setup.test_x, setup.test_y)
        noisy = [models.accuracy(model, x, setup.test_y) for x in setup.noisy]
        result.append((clean, *noisy))
        heads.append(loaded)
    setup.heads = heads
    units = len(setup.train_x) * len(extractors)
    ledger.attempt(units)
    return units, np.array(result)


def whitebox_round(models_, x, y, ledger: gate.Ledger):
    hits = np.zeros((len(models_), len(WHITEBOX_ATTACKS), len(WHITEBOX_EPS)), dtype=np.int64)
    for m, model in enumerate(models_):
        for a, kind in enumerate(WHITEBOX_ATTACKS):
            specs = [attacks.make_spec(kind, eps, iterations=WHITEBOX_ITERATIONS) for eps in WHITEBOX_EPS]
            curve = attacks.evaluate_robustness(model, x, y, specs)
            hits[m, a] = _hits(curve.points, len(x))
    ledger.attempt(hits.size * len(x))
    return hits.size * len(x), hits


def transfer_round(models_, x, y, ledger: gate.Ledger, workdir: Path, chunk: int):
    n = len(models_)
    curve_specs = [attacks.make_spec(attacks.AttackKind.FGSM, eps) for eps in CURVE_EPS]
    curves = np.stack([_hits(attacks.evaluate_robustness(m, x, y, curve_specs).points, len(x)) for m in models_])
    matrix_spec = attacks.make_spec(attacks.AttackKind.FGSM, MATRIX_EPS)
    matrix = np.array(
        [[_count(attacks.transfer_attack(s, t, x, y, matrix_spec), len(x)) for t in models_] for s in models_]
    )
    batch_spec = attacks.make_spec(attacks.AttackKind.FGSM, BATCH_EPS)
    batches = np.zeros((n, n), dtype=np.int64)
    for i, source in enumerate(models_):
        batch = attacks.make_batch(source, x, y, batch_spec)
        path = workdir / f"chunk{chunk}-{source.kind}.advbatch"
        attacks.save_batch(path, batch)
        loaded = attacks.load_batch(path)
        ledger.expect(
            gate.same_arrays(loaded.originals, batch.originals)
            and gate.same_arrays(loaded.adversarials, batch.adversarials)
            and loaded.source_fingerprint == batch.source_fingerprint
            and loaded.spec == batch.spec,
            f"{source.kind} adversarial batch round trip changed the batch",
        )
        for j, target in enumerate(models_):
            batches[i, j] = _count(models.accuracy(target, loaded.adversarials, y), len(x))
    units = (curves.size + matrix.size + batches.size) * len(x)
    ledger.attempt(units)
    return units, np.concatenate([curves.ravel(), matrix.ravel(), batches.ravel()])


def _count(accuracy: float, n: int) -> int:
    return int(round(accuracy * n))


def _hits(points, n: int) -> np.ndarray:
    return np.array([_count(acc, n) for _, acc in points], dtype=np.int64)


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def execute(workload: str, seed: int, seconds: float, trace: bool, workdir: Path, plans=PLANS) -> dict:
    """Set up, gate and time one workload.

    Returns the result record (the benchmark's last output line), the failure
    messages, the tracer of a traced run, and per-round details.
    """
    plan = plans[workload]
    ledger = gate.Ledger()
    tracer = Tracer() if trace else None
    run = {"messages": ledger.messages, "tracer": tracer, "details": {}}

    setup_times = []
    for _ in range(plan.setups):
        with instrument(tracer) if trace else nullcontext():
            start = time.perf_counter()
            setup = set_up(workload, seed, plan, ledger)
            setup_times.append(time.perf_counter() - start)
    setup_spans = len(tracer) if trace else 0

    heads = setup.heads or [classical.build_dense_head(HEAD_SEED, in_dim=784)] * len(setup.extractors)
    try:
        run_gate(setup, heads, plan, seed, ledger)
        if not ledger.failed:
            rounds = _rounds(workload, setup, plan, seed, ledger, workdir)
            plain_rates, traced_rates, results = _timed_phase(rounds, seconds, tracer, ledger)
            robust_acc = _robust_accuracy(workload, results, len(setup.test_x))
            clean_acc = held_out_accuracy(setup, plan, seed, ledger)
    except Exception as exc:  # a crash in the library is a failed operation, not a crashed benchmark
        ledger.fail(f"{type(exc).__name__}: {exc}")
    run["result"] = {"correct": not ledger.failed, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": {}}
    if ledger.failed:
        return run

    if trace:
        metrics = layer_metrics(tracer, setup_spans, plan, ledger, plain_rates, traced_rates)
    else:
        metrics = {
            "imgs_per_s": {"value": statistics.median(plain_rates), "unit": "img/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "unit": "MB"},
            "clean_acc": {"value": clean_acc, "unit": "frac"},
            "robust_acc": {"value": robust_acc, "unit": "frac"},
        }
    run["result"]["metrics"] = metrics
    run["details"] = {
        "accuracies": [clean_acc, robust_acc],
        "setup_s": setup_times,
        "plain_rates": plain_rates,
        "traced_rates": traced_rates,
    }
    return run


def _timed_phase(rounds, seconds: float, tracer: Tracer | None, ledger: gate.Ledger):
    """Run rounds until ``seconds`` have passed and every round ran once.

    With a tracer, every second round is traced, so the traced and untraced
    rates interleave and their ratio is the tracing overhead.  A repeated
    round must reproduce its first result exactly.  Returns the untraced
    and traced rates (units per second) and the first result of each round.
    """
    plain_rates, traced_rates, results = [], [], [None] * len(rounds)
    start = time.perf_counter()
    k = 0
    while k < len(rounds) or time.perf_counter() - start < seconds or (tracer is not None and k < 2):
        index = k % len(rounds)
        traced = tracer is not None and k % 2 == 1
        with ExitStack() as stack:
            if traced:
                stack.enter_context(instrument(tracer))
            stack.enter_context(patched([(attacks, "generate", gate.checked_generate(attacks.generate, ledger))]))
            if traced:
                stack.enter_context(tracer.span("bench.round"))
            t0 = time.perf_counter_ns()
            units, result = rounds[index](tracer if traced else None)
            elapsed_ns = time.perf_counter_ns() - t0
        (traced_rates if traced else plain_rates).append(units / (elapsed_ns * 1e-9))
        if results[index] is None:
            results[index] = result
        elif not np.array_equal(results[index], result):
            ledger.fail(f"round {index} did not reproduce its first result")
        k += 1
    return plain_rates, traced_rates, results


def _rounds(workload, setup: Setup, plan: Plan, seed, ledger, workdir):
    """One callable per timed round; each takes the tracer of a traced round or None."""

    def extractors(tracer):
        return [TracedExtractor(ex, tracer) if tracer is not None else ex for ex in setup.extractors]

    def checked_models(tracer):
        return [
            gate.CheckedModel(models.Model(ex, head), ledger)
            for ex, head in zip(extractors(tracer), setup.heads)
        ]

    if workload == "fit":
        return [lambda tracer: fit_round(setup, extractors(tracer), plan, seed, ledger, workdir)]
    chunks = [slice(s, s + plan.chunk) for s in range(0, len(setup.test_x), plan.chunk)]
    if workload == "whitebox":
        return [
            lambda tracer, c=c: whitebox_round(checked_models(tracer), setup.test_x[c], setup.test_y[c], ledger)
            for c in chunks
        ]
    return [
        lambda tracer, c=c, i=i: transfer_round(
            checked_models(tracer), setup.test_x[c], setup.test_y[c], ledger, workdir, i
        )
        for i, c in enumerate(chunks)
    ]


def _robust_accuracy(workload: str, results, n_test: int) -> float:
    """Mean accuracy over the first pass: the noise grid (fit), the attack grid, or the transfer matrix."""
    if workload == "fit":
        return float(np.mean(results[0][:, 1:]))  # (models, clean + noise levels)
    hits = np.sum(results, axis=0)
    if workload == "whitebox":
        return float(np.mean(hits / n_test))
    n = len(LAYOUTS) + 1
    matrix = hits[n * len(CURVE_EPS) : n * len(CURVE_EPS) + n * n]
    return float(np.mean(matrix / n_test))


def held_out_accuracy(setup: Setup, plan: Plan, seed: int, ledger: gate.Ledger) -> float:
    """Mean clean accuracy of the six heads on images never used in the run, scored after timing.

    The test chunks of whitebox and transfer are small, and four of the six
    models compute the same features (their layouts differ only by ZZ gates
    that commute with the Z readout), so a larger set keeps the figure steady.
    """
    images, labels = make_digits(plan.held_out, [seed, 4])
    return float(
        np.mean(
            [
                models.accuracy(gate.CheckedModel(models.Model(ex, head), ledger), images, labels)
                for ex, head in zip(setup.extractors, setup.heads)
            ]
        )
    )


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced run
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer, setup_spans: int, plan: Plan, ledger, plain_rates, traced_rates) -> dict:
    every = tracer.summary()  # set-up and rounds: per-call times
    timed = tracer.summary(first=setup_spans)  # rounds only: counts and shares
    counts = tracer.counts
    n_rounds = timed["bench.round"]["calls"]
    round_ns = timed["bench.round"]["total_ns"]

    def per(name, scale, per_unit=None):
        row = every.get(name)
        if not row:
            return 0.0
        return row["total_ns"] / scale / (per_unit if per_unit is not None else row["calls"])

    def calls(name):
        return timed.get(name, {}).get("calls", 0)

    def share(*prefixes):
        return sum(r["self_ns"] for n, r in timed.items() if n.startswith(prefixes)) / round_ns

    def ratio(a, b):
        return a / b if b else 0.0

    generate_calls = sum(r["calls"] for n, r in timed.items() if n.startswith("attacks.generate."))
    grads = calls("models.grad")
    values = {
        "quanv.grad_us_per_img": (per("quanv.grad", 1e3, counts["quanv.grad.imgs"] or None), "us"),
        "quanv.grad_calls": (calls("quanv.grad") / n_rounds, "count"),
        "quanv.forward_us_per_img": (per("quanv.forward", 1e3, counts["quanv.forward.imgs"] or None), "us"),
        "quanv.forward_calls": (calls("quanv.forward") / n_rounds, "count"),
        "quanv.compile_ms": (per("quanv.compile", 1e6), "ms"),
        "ansatz.build_us": (per("ansatz.build", 1e3), "us"),
        "conv.forward_us_per_img": (per("conv.forward", 1e3, counts["conv.forward.imgs"] or None), "us"),
        "conv.grad_us_per_img": (per("conv.grad", 1e3, counts["conv.grad.imgs"] or None), "us"),
        "head.loss_grad_us": (per("head.loss_grad", 1e3), "us"),
        "adam.step_us": (per("adam.step", 1e3), "us"),
        "head.nonfinite_losses": (ledger.nonfinite_losses, "count"),
        "model.predict_us_per_img": (per("models.predict", 1e3), "us"),
        "model.predict_share": (ratio(timed.get("models.predict", {}).get("total_ns", 0), round_ns), "frac"),
        # every prediction in whitebox and transfer scores one adversarial example
        "attack.grads_per_adv": (ratio(grads, calls("models.predict")), "count"),
        "attack.useful_grad_frac": (ratio(grads - counts["models.grad.eps0"], grads), "frac"),
        "attack.zero_grad_frac": (ratio(counts["models.grad.zero_pixels"], counts["models.grad.pixels"]), "frac"),
        "attack.qunn_pgd_ms_per_adv": (per("attacks.generate.qunn.pgd", 1e6), "ms"),
        "attack.generate_calls": (generate_calls / n_rounds, "count"),
        "transfer.crafts_per_unique": (ratio(counts["transfer.crafts"], len(tracer.unique_crafts)), "count"),
        "io.cache_write_us_per_img": (per("io.cache_write", 1e3, calls("io.cache_write") * plan.train or None), "us"),
        "io.cache_read_us_per_img": (per("io.cache_read", 1e3, calls("io.cache_read") * plan.train or None), "us"),
        "io.ckpt_save_ms": (per("io.ckpt_save", 1e6), "ms"),
        "io.ckpt_load_ms": (per("io.ckpt_load", 1e6), "ms"),
        "io.batch_save_ms": (per("io.batch_save", 1e6), "ms"),
        "io.batch_load_ms": (per("io.batch_load", 1e6), "ms"),
        "quanv.grad_self_share": (share("quanv.grad"), "frac"),
        "quanv.forward_self_share": (share("quanv.forward"), "frac"),
        "conv.self_share": (share("conv."), "frac"),
        "head.self_share": (share("head.", "adam."), "frac"),
        "models.self_share": (share("models."), "frac"),
        "attacks.self_share": (share("attacks."), "frac"),
        "io.self_share": (share("io."), "frac"),
        "bench.self_share": (share("bench."), "frac"),
        "failed_frac": (ratio(ledger.failed, ledger.attempted), "frac"),
        "trace.overhead_frac": (statistics.median(plain_rates) / statistics.median(traced_rates) - 1.0, "frac"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}

