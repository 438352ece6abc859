"""The three workloads: set-up, one round of timed work, and correctness checks.

Every call into srkit goes through a module attribute (``train.train``,
``sr_block.sr_forward``, ...), so the wrappers that ``spans.patched``
installs in the srkit modules see each call. A round appends one
(start, end, samples) entry per unit of work to ``units``:

  train_default    one training step (step start to the next step or
                   evaluation start, read from markers on ``augment`` and
                   ``evaluate``); a round is one ``srkit train`` run.
  sr_block_resnet  one ``sr_forward`` plus one ``sr_backward``; a round
                   is ten of them.
  inspect_eval     one inspect-and-eval round over the validation and test
                   splits.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import statistics
import time

import numpy as np

import srkit.analysis as analysis
import srkit.checkpoint as checkpoint
import srkit.config as config
import srkit.data as data
import srkit.host as host
import srkit.rng as rng_mod
import srkit.sr_block as sr_block
import srkit.train as train
from srkit.errors import SrkitError

import checks
import reference
from spans import patched

clock = time.perf_counter

# With the recipe's training seed, validation accuracy passes 0.4 by epoch 4 on
# every data seed tried; a constant lr of 0.1 can collapse it again afterwards,
# and best-on-validation selection keeps the better epoch.
TRAIN_EPOCHS = 7
FULL_RECIPE_DECAY = [9, 18, 24]  # 30/60/80% of the default 30-epoch budget
CHECK_LOGITS = 64  # test samples whose logits are compared one by one
MEMORY_SCALE = 0.1  # std of the seeded memory bank standing in for a trained one
FD_SAMPLES = 4  # batch samples on which the reference adjoint meets a finite difference


def stage_table(host_cfg) -> dict:
    """(out, in) channels of each 3x3 conv weight -> its 1-based stage."""
    chans = (host_cfg.in_channels, *host_cfg.stage_channels)
    return {(chans[k], chans[k - 1]): k for k in range(1, 5)}


def write_config(path: str, doc: dict):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return config.load_config(path)


class Workload:
    warmup_units = 2  # units at the start of a pass left out of the unit-time median

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.stages = {}
        self.checkpoint_path = None

    def full_unit(self, samples: int) -> bool:
        return True


class TrainDefault(Workload):
    """The default toy recipe on the ``srkit train`` path, fixed epoch budget."""

    name = "train_default"

    def setup(self):
        doc = {"train": {"epochs": TRAIN_EPOCHS, "early_stop_patience": 0,
                         "decay_epochs": FULL_RECIPE_DECAY},
               "data": {"seed": self.seed}}
        self.run = write_config(os.path.join(self.workdir, "train_config.json"), doc)
        _, _, self.test = data.synth_generate(self.run.data)
        self.stages = stage_table(self.run.host)
        self.checkpoint_path = os.path.join(self.workdir, "model.srck")
        spec = self.run.data
        n_train = spec.classes * (spec.per_class - spec.per_class // data.VAL_STRIDE)
        self.units_per_round = TRAIN_EPOCHS * math.ceil(n_train / self.run.train.batch)

    def full_unit(self, samples: int) -> bool:
        return samples == self.run.train.batch

    def round(self, units: list) -> int:
        events = []

        def marker(fn, samples_of):
            def marked(*args, **kwargs):
                events.append((clock(), samples_of(args)))
                return fn(*args, **kwargs)
            return marked

        aug, ev = train.augment, train.evaluate
        with patched({id(aug): (aug, marker(aug, lambda a: a[0].shape[0])),
                      id(ev): (ev, marker(ev, lambda a: 0))}):
            result = train.train(self.run.host, self.run.train, self.run.data)
        test_acc = train.evaluate(result.best_params, self.test)
        meta = {"config": self.run.to_dict(), "best_epoch": result.best_epoch,
                "val_acc": result.best_val_acc, "test_acc": test_acc}
        checkpoint.save_checkpoint(self.checkpoint_path, meta, dict(result.best_params.items()))
        steps = [(t, events[i + 1][0], n) for i, (t, n) in enumerate(events) if n]
        units.extend(steps)
        self.result, self.test_acc = result, test_acc
        return len(steps)

    def check(self) -> list[str]:
        with open(self.checkpoint_path, "rb") as f:
            blob = f.read()
        trained = dict(self.result.best_params.items())
        failures = checks.checkpoint_holds(blob, trained)

        meta, tensors = checkpoint.load_checkpoint(self.checkpoint_path)
        resaved = os.path.join(self.workdir, "model.resaved.srck")
        checkpoint.save_checkpoint(resaved, meta, tensors)
        with open(resaved, "rb") as f:
            failures += checks.same_bytes("load_checkpoint -> save_checkpoint", blob, f.read())
        failures += checks.equal("stored test_acc", meta["test_acc"], self.test_acc)

        params = host.params_from_tensors(config.parse_config(meta["config"]).host, tensors)
        logits, _ = host.host_forward(params, self.test.x[:CHECK_LOGITS], "eval")
        ref = reference.host_logits(trained, self.test.x, self.run.host.sr_insert)
        failures += checks.logits_match(logits, ref[:CHECK_LOGITS])
        failures += checks.accuracy_matches(self.test_acc, ref, self.test.y,
                                            floor=checks.ACCURACY_FLOOR)
        return failures


class SrBlockResnet(Workload):
    """The SR block alone at the ResNet50 stage-3 shape of the README example."""

    name = "sr_block_resnet"
    shape = dict(c=1024, h=14, w=14, u=16, p=10)
    batch = 32
    units_per_round = 10

    def setup(self):
        rng = rng_mod.make_rng(self.seed)
        self.params = sr_block.sr_init(sr_block.SRConfig(**self.shape), rng)
        self.params.memory[:] = MEMORY_SCALE * rng.standard_normal(
            self.params.memory.shape, dtype=np.float32)
        n, c, h, w = self.batch, self.shape["c"], self.shape["h"], self.shape["w"]
        self.x = rng.random((n, c, h, w), dtype=np.float32)
        self.grad_out = rng.standard_normal((n, c, h, w), dtype=np.float32)

    def round(self, units: list) -> int:
        for _ in range(self.units_per_round):
            t0 = clock()
            out, cache = sr_block.sr_forward(self.params, self.x)
            grads, grad_x = sr_block.sr_backward(self.params, cache, self.grad_out)
            units.append((t0, clock(), self.batch))
        self.out, self.cache, self.grads, self.grad_x = out, cache, grads, grad_x
        return self.units_per_round

    def check(self) -> list[str]:
        p = {k: v.astype(np.float64) for k, v in self.params.items()}
        relu = self.params.cfg.hidden_relu

        def ref(x, g):
            out, inter = reference.sr_forward(x, *p.values(), relu)
            return out, reference.sr_adjoint(x, *p.values(), inter, g, relu)

        x, g = self.x.astype(np.float64), self.grad_out.astype(np.float64)
        few = slice(0, FD_SAMPLES)  # the adjoint's formulas do not depend on the batch size
        failures = checks.fd_agrees(reference.directional_fd_error(
            x[few], p, g[few], ref(x[few], g[few])[1], self.seed, relu))
        ref_out, ref_grads = ref(x, g)
        got = {"out": self.out, "x": self.grad_x, **dict(self.grads.items())}
        failures += checks.sr_outputs_match(got, {"out": ref_out, **ref_grads})
        failures += checks.rows_sum_to_one("alpha", self.cache.alpha)
        zero_out, _ = sr_block.sr_forward(sr_block.sr_ablate(self.params), self.x)
        failures += checks.identical("output with the memory bank zeroed", zero_out, self.x)
        return failures


class InspectEval(Workload):
    """``srkit inspect`` and ``srkit eval`` on a checkpoint written at set-up."""

    name = "inspect_eval"
    warmup_units = 1
    units_per_round = 1

    def setup(self):
        doc = {"data": {"seed": self.seed}}
        self.run = write_config(os.path.join(self.workdir, "inspect_config.json"), doc)
        _, self.val, self.test = data.synth_generate(self.run.data)
        rng = rng_mod.make_rng(self.seed)
        params = host.host_init(self.run.host, rng)
        params.sr.memory[:] = MEMORY_SCALE * rng.standard_normal(
            params.sr.memory.shape, dtype=np.float32)
        self.written = dict(params.items())
        self.checkpoint_path = os.path.join(self.workdir, "host.srck")
        checkpoint.save_checkpoint(self.checkpoint_path, {"config": self.run.to_dict()},
                                   self.written)
        self.stages = stage_table(self.run.host)
        self.outdir = os.path.join(self.workdir, "inspect")
        os.makedirs(self.outdir, exist_ok=True)

    def round(self, units: list) -> int:
        t0 = clock()
        meta, tensors = checkpoint.load_checkpoint(self.checkpoint_path)
        params = host.params_from_tensors(config.parse_config(meta["config"]).host, tensors)
        out = self.outdir
        stats = analysis.activation_stats(analysis.collect_activations(params, self.val))
        analysis.write_activations_csv(os.path.join(out, "activations.csv"), stats)
        deltas = analysis.feature_delta(params, self.val)
        analysis.write_delta_csv(os.path.join(out, "delta.csv"), deltas)
        acc_full, acc_ablated, diff = analysis.ablation_report(params, self.test)
        analysis.write_ablation_csv(os.path.join(out, "ablation.csv"), acc_full, acc_ablated, diff)
        maps = analysis.memory_channel_means(params.sr)
        for i in range(maps.shape[0]):
            analysis.write_pgm(os.path.join(out, f"memory_block_{i}.pgm"), maps[i])
        acc = train.evaluate(params, self.test)
        units.append((t0, clock(), len(self.val) + len(self.test)))
        self.params, self.stats, self.deltas = params, stats, deltas
        self.acc, self.acc_full, self.acc_ablated = acc, acc_full, acc_ablated
        return 1

    def check(self) -> list[str]:
        with open(self.checkpoint_path, "rb") as f:
            failures = checks.checkpoint_holds(f.read(), self.written)
        sr_insert = self.run.host.sr_insert
        failures += checks.rows_sum_to_one("activation means", [s.mean for s in self.stats])

        plain_cfg = dataclasses.replace(self.run.host, sr_insert=None, sr=None)
        plain = host.HostParams(plain_cfg, self.params.stage_w, self.params.cls_w, None)
        failures += checks.equal("acc_ablated vs host without SR", self.acc_ablated,
                                 train.evaluate(plain, self.test))
        failures += checks.equal("acc_full vs srkit eval", self.acc_full, self.acc)
        ref_test = reference.host_logits(self.written, self.test.x, sr_insert)
        failures += checks.accuracy_matches(self.acc, ref_test, self.test.y)

        ids = analysis_ids(self.val.y, analysis.SAMPLE_CAP_PER_CLASS)
        captured = []
        reference.host_logits(self.written, self.val.x[ids], sr_insert, capture=captured)
        alpha = np.concatenate([a for a, _ in captured])
        abs_recall = np.concatenate([np.abs(r).mean(axis=(2, 3)) for _, r in captured])
        labels = self.val.y[ids]
        classes = sorted(set(labels.tolist()))
        failures += checks.equal("classes in delta.csv", [d.class_label for d in self.deltas], classes)
        failures += checks.close("activation means", [s.mean for s in self.stats],
                                 [alpha[labels == k].mean(axis=0) for k in classes], checks.GRAD_TOL)
        failures += checks.close("abs_delta", [d.abs_delta for d in self.deltas],
                                 [abs_recall[labels == k].mean(axis=0) for k in classes],
                                 checks.GRAD_TOL)
        return failures


def analysis_ids(labels: np.ndarray, cap: int) -> np.ndarray:
    """Sample ids in ascending order, at most ``cap`` per class."""
    taken: dict[int, int] = {}
    ids = []
    for i, k in enumerate(labels.tolist()):
        if taken.get(k, 0) < cap:
            taken[k] = taken.get(k, 0) + 1
            ids.append(i)
    return np.asarray(ids)


WORKLOADS = {w.name: w for w in (TrainDefault, SrBlockResnet, InspectEval)}


class Pass:
    """Whole rounds of one workload: their units, times, spans and failures.

    ``rounds`` rows are (seconds, units, first span, end span); with a
    tracer, each round runs traced and its spans are tracer.spans[first:end].
    """

    def __init__(self, wl: Workload, tracer=None):
        self.wl, self.tracer = wl, tracer
        self.units, self.rounds, self.errors = [], [], []
        self.attempted = 0

    def run_round(self):
        spans = self.tracer.spans if self.tracer else []
        first, done, r0 = len(spans), len(self.units), clock()
        try:
            with self.tracer.active() if self.tracer else contextlib.nullcontext():
                n = self.wl.round(self.units)
        except SrkitError as e:
            self.errors.append(f"{type(e).__name__}: {e}")
            self.attempted += self.wl.units_per_round
            del self.units[done:]
            return
        self.attempted += n
        self.rounds.append((clock() - r0, n, first, len(spans)))

    def ready(self) -> bool:
        return len(self.units) > self.wl.warmup_units or bool(self.errors)

    @property
    def failed(self) -> int:
        return len(self.errors) * self.wl.units_per_round

    def samples_per_s(self) -> float:
        """Samples of a full unit over the median full-unit time after warm-up."""
        kept = [(e - s, n) for s, e, n in self.units[self.wl.warmup_units:]
                if self.wl.full_unit(n)]
        if not kept:
            raise SystemExit(f"error: too few units completed: {self.errors}")
        return kept[0][1] / statistics.median(d for d, _ in kept)


def timed_passes(wl: Workload, seconds: float, tracer=None) -> list[Pass]:
    """Whole rounds until ``seconds`` have passed and each pass has a unit
    after its warm-up units. With a tracer, rounds alternate between an
    untraced and a traced pass, so drift of the machine's speed and the
    first round's cold start do not fall on one side only."""
    passes = [Pass(wl)] + ([Pass(wl, tracer)] if tracer else [])
    start = clock()
    while clock() - start < seconds or not all(p.ready() for p in passes):
        for p in passes:
            p.run_round()
    return passes
