"""Tests of the benchmark itself: every named metric, the gate's rejections, and determinism."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import workloads  # noqa: E402
from digits import make_digits  # noqa: E402
from quanvrob.ansatz import AnsatzKind, build_ansatz  # noqa: E402
from quanvrob.attacks import make_spec  # noqa: E402
from quanvrob.quanv import QuanvExtractor  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5
COUNTS = (
    "quanv.grad_calls",
    "quanv.forward_calls",
    "head.nonfinite_losses",
    "attack.grads_per_adv",
    "attack.useful_grad_frac",
    "attack.zero_grad_frac",
    "attack.generate_calls",
    "transfer.crafts_per_unique",
    "failed_frac",
)
_RUNS = {}


def tiny_run(workload, trace, tmp_path_factory):
    key = (workload, trace)
    if key not in _RUNS:
        workdir = tmp_path_factory.mktemp(f"{workload}{trace}")
        _RUNS[key] = workloads.execute(workload, SEED, 0, trace, workdir, workloads.TINY_PLANS)
    return _RUNS[key]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_named_metric(workload, trace, tmp_path_factory):
    run = tiny_run(workload, trace, tmp_path_factory)
    result = run["result"]
    assert run["messages"] == []
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", ["fit", "whitebox", "transfer"])
def test_same_seed_gives_identical_accuracies_and_counts(workload, tmp_path_factory):
    first = tiny_run(workload, True, tmp_path_factory)
    second = workloads.execute(
        workload, SEED, 0, True, tmp_path_factory.mktemp("again"), workloads.TINY_PLANS
    )
    assert first["details"]["accuracies"] == second["details"]["accuracies"]
    for name in COUNTS:
        assert first["result"]["metrics"][name] == second["result"]["metrics"][name], name


def test_traced_counts_match_the_grid(tmp_path_factory):
    metrics = tiny_run("whitebox", True, tmp_path_factory)["result"]["metrics"]
    assert metrics["attack.grads_per_adv"]["value"] == workloads.WHITEBOX_ITERATIONS
    assert metrics["attack.useful_grad_frac"]["value"] == pytest.approx(
        1 - 1 / len(workloads.WHITEBOX_EPS)
    )
    transfer = tiny_run("transfer", True, tmp_path_factory)["result"]["metrics"]
    # transfer_attack re-crafts every (source, image) once per target
    assert transfer["transfer.crafts_per_unique"]["value"] == len(workloads.LAYOUTS) + 1
    fit = tiny_run("fit", True, tmp_path_factory)["result"]["metrics"]
    assert fit["quanv.grad_calls"]["value"] == 0
    assert fit["quanv.grad_self_share"]["value"] == 0


def test_trace_file_holds_every_span(tmp_path_factory):
    tracer = tiny_run("whitebox", True, tmp_path_factory)["tracer"]
    path = tmp_path_factory.mktemp("trace") / "trace.json"
    tracer.dump(path)
    written = json.loads(path.read_text())
    assert len(written["spans"]) == len(tracer)
    names = {written["names"][row[0]] for row in written["spans"]}
    assert {"bench.round", "attacks.evaluate_robustness", "models.grad", "quanv.grad", "head.loss_grad"} <= names
    for _, start, end, parent in written["spans"]:
        assert end >= start and parent < len(tracer)


class PerturbedForward:
    """Proxy extractor whose forward pass is off by ``delta``."""

    def __init__(self, inner, delta):
        self.inner, self.delta = inner, delta
        self.kind, self.seed = inner.kind, inner.seed

    @property
    def fingerprint(self):
        return self.inner.fingerprint

    def forward(self, image):
        return self.inner.forward(image) + self.delta

    def input_gradient(self, image, upstream):
        return self.inner.input_gradient(image, upstream)


@pytest.mark.parametrize("delta, failures", [(0.0, 0), (1e-6, 1), (np.nan, 1)])
def test_gate_rejects_forward_perturbed_by_1e6(delta, failures):
    circuit = build_ansatz(AnsatzKind.RANDOM, 4, 0)
    image = make_digits(1, 0)[0][0]
    upstream = np.random.default_rng(0).standard_normal((14, 14, 4))
    ledger = gate.Ledger()
    patches = [(7, 7), (3, 9), (0, 0)]
    gate.check_quanv(PerturbedForward(QuanvExtractor(circuit), delta), circuit, image, upstream, patches, ledger)
    assert (ledger.attempted, ledger.failed) == (2, failures)


def test_gate_rejects_adversarial_outside_the_ball():
    image = make_digits(1, 0)[0][0]
    eps = 0.1
    inside = np.clip(image + eps * np.sign(0.5 - image), 0.0, 1.0)
    assert gate.adversarial_ok(image, inside, eps)
    outside = inside.copy()
    r, c = np.argwhere(image == 0)[0]
    outside[r, c] = eps + 1e-9  # inside [0, 1], just outside the ball
    assert not gate.adversarial_ok(image, outside, eps)
    nan = inside.copy()
    nan[0, 0] = np.nan
    assert not gate.adversarial_ok(image, nan, eps)
    assert not gate.adversarial_ok(image, image + 1.5, 2.0)  # inside the ball, outside [0, 1]

    ledger = gate.Ledger()
    generate = gate.checked_generate(lambda model, img, label, spec: outside, ledger)
    generate(None, image, 3, make_spec("fgsm", eps))
    assert ledger.failed == 1


def test_digits_are_seeded_and_mix_binary_and_grey_pixels():
    images, labels = make_digits(50, 7)
    again, again_labels = make_digits(50, 7)
    assert np.array_equal(images, again) and np.array_equal(labels, again_labels)
    assert not np.array_equal(images, make_digits(50, 8)[0])
    assert images.shape == (50, 28, 28) and images.min() >= 0 and images.max() <= 1
    assert np.bincount(labels, minlength=10).tolist() == [5] * 10
    assert np.mean(images == 0) > 0.3 and np.mean(images == 1) > 0.05
    assert np.mean((images > 0) & (images < 1)) > 0.05
