"""Pass-pipeline equivalence suite (`repro.runtime.passes`).

Every optimization pass must be a pure lowering decision: byte-identical
outputs and mutable state against the interpreter (and against
``passes="none"``) for any program. On top of that, the structural
claims: precomputed transforms really bind once per session, the
default pipeline's static peak equals the unoptimized oracle's, and a
plan spec or artifact manifest of an older version is refused (the
program cache recompiles it) instead of being decoded through a shim.
"""

from __future__ import annotations

from dataclasses import replace

import json

import numpy as np
import pytest

from repro.errors import ExecutionError, PlanVersionError
from repro.ir import GraphBuilder
from repro.runtime import Executor, PlanSpec, Program, build_plan_spec
from repro.runtime.compiler import CompileOptions, compile_training
from repro.runtime.passes import DEFAULT_PASSES, resolve_passes, run_pipeline
from repro.sparse import LoRAConfig, UpdateScheme, inject_lora, lora_scheme
from repro.train import SGD

from conftest import make_mlp_graph

PASS_CONFIGS = ["none", "default"]


def with_passes(program, passes):
    """An independent lowering of ``program`` under a pass config.

    Shares graph/schedule, gets private state and a private meta (so the
    cached plan of one config never leaks into another).
    """
    meta = {k: v for k, v in program.meta.items()
            if k not in ("__plan__", "__plan_spec__")}
    meta["plan_passes"] = passes
    return replace(program, meta=meta,
                   state={n: a.copy() for n, a in program.state.items()})


def assert_all_configs_equivalent(program, feeds_fn, steps=3):
    """Each pass config must match the interpreter byte-for-byte."""
    ex_int = Executor(with_passes(program, "none"), backend="interpreter")
    runners = {cfg: Executor(with_passes(program, cfg))
               for cfg in PASS_CONFIGS}
    for step in range(steps):
        feeds = feeds_fn(step)
        want = ex_int.run(feeds)
        for cfg, ex in runners.items():
            got = ex.run(feeds)
            assert set(got) == set(want)
            for name in want:
                assert got[name].tobytes() == want[name].tobytes(), \
                    f"passes={cfg} output {name} step {step}"
            for name in ex_int.program.state:
                assert ex.program.state[name].tobytes() \
                    == ex_int.program.state[name].tobytes(), \
                    f"passes={cfg} state {name} step {step}"
            assert ex.last_transient_bytes == ex_int.last_transient_bytes
            assert ex.peak_transient_bytes <= ex_int.peak_transient_bytes
    return runners


class TestEquivalenceMatrix:
    def test_mlp_training(self, rng):
        b, _ = make_mlp_graph(seed=11)
        program = compile_training(b.graph, optimizer=SGD(0.2))
        x = rng.standard_normal((4, 5)).astype(np.float32)
        y = np.array([0, 1, 2, 0], np.int64)
        assert_all_configs_equivalent(
            program, lambda step: {"x": x, "labels": y}, steps=4)

    def test_cnn_sparse_training_with_frozen_winograd(self, rng):
        from repro.frontend.keras_like import (Conv2D, Dense,
                                               GlobalAveragePooling2D,
                                               build_sequential)

        forward = build_sequential([
            Conv2D(8, 3, padding="same", activation="relu"),
            GlobalAveragePooling2D(),
            Dense(4),
        ], input_shape=(2, 3, 8, 8), seed=13)
        params = sorted(forward.trainable)
        # Train only the dense tail: the 3x3 conv freezes -> winograd.
        scheme = UpdateScheme("tail", {params[-1]: 1.0, params[-2]: 1.0})
        program = compile_training(forward, optimizer=SGD(0.1),
                                   scheme=scheme)
        assert any(n.attrs.get("algo") == "winograd"
                   for n in program.schedule), "fixture lost its winograd"
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        y = np.array([0, 3], np.int64)
        labels = program.meta["labels"]
        runners = assert_all_configs_equivalent(
            program, lambda step: {forward.inputs[0]: x, labels: y})
        spec = runners["default"].program.plan_spec()
        assert len(spec.precomputed) == 1
        assert spec.precomputed[0].transform == "winograd_weight"
        assert spec.precomputed_bytes > 0

    def test_int8_inference(self, rng):
        from repro.frontend.keras_like import (Conv2D, Dense,
                                               GlobalAveragePooling2D,
                                               build_sequential)
        from repro.quant import collect_ranges, quantize_inference_graph

        forward = build_sequential([
            Conv2D(6, 3, padding="same", activation="relu"),
            GlobalAveragePooling2D(),
            Dense(4),
        ], input_shape=(2, 3, 8, 8), seed=17)
        calib = [{forward.inputs[0]:
                  rng.standard_normal((2, 3, 8, 8)).astype(np.float32)}
                 for _ in range(2)]
        int8 = quantize_inference_graph(forward,
                                        collect_ranges(forward, calib))
        program = Program.from_graph(int8)
        assert_all_configs_equivalent(program, lambda step: calib[0],
                                      steps=2)

    def test_lora_training(self, rng):
        from repro.models import build_model

        base = build_model("bert_micro", batch=2, seq_len=8, num_classes=2)
        lora = inject_lora(base, LoRAConfig(rank=2))
        program = compile_training(lora, optimizer=SGD(0.1),
                                   scheme=lora_scheme(lora))
        ids = rng.integers(0, 50, base.spec(base.inputs[0]).shape)
        feeds = {base.inputs[0]: ids.astype(np.int64),
                 program.meta["labels"]:
                 rng.integers(0, 2, 2).astype(np.int64)}
        assert_all_configs_equivalent(program, lambda step: feeds, steps=2)


def _frozen_conv_program():
    """Training step whose 3x3 conv is frozen -> winograd + precompute."""
    from repro.frontend.keras_like import (Conv2D, Dense,
                                           GlobalAveragePooling2D,
                                           build_sequential)

    forward = build_sequential([
        Conv2D(8, 3, padding="same", activation="relu"),
        GlobalAveragePooling2D(),
        Dense(4),
    ], input_shape=(2, 3, 8, 8), seed=23)
    params = sorted(forward.trainable)
    scheme = UpdateScheme("tail", {params[-1]: 1.0, params[-2]: 1.0})
    return compile_training(forward, optimizer=SGD(0.1), scheme=scheme)


class TestPrecomputeFrozen:
    def test_transform_computed_once_per_session(self, rng):
        program = _frozen_conv_program()
        spec = program.plan_spec()
        assert len(spec.precomputed) == 1
        entry = spec.precomputed[0]
        ex = Executor(program)
        name = [n for n in program.graph.inputs
                if n != program.meta["labels"]][0]
        feeds = {name: rng.standard_normal((2, 3, 8, 8)).astype(np.float32),
                 program.meta["labels"]: np.array([0, 1], np.int64)}
        ex.run(feeds)
        first = ex._precomputed[entry.slot][1]
        assert first.shape == entry.shape
        ex.run(feeds)
        assert ex._precomputed[entry.slot][1] is first  # cached, not redone

    def test_overlayed_frozen_weights_recompute(self, rng):
        """A with_state overlay swapping the frozen weight must invalidate
        the cached transform (identity keying) — and the overlaid session
        must then match a from-scratch session bit for bit."""
        program = _frozen_conv_program()
        entry = program.plan_spec().precomputed[0]
        name = [n for n in program.graph.inputs
                if n != program.meta["labels"]][0]
        feeds = {name: rng.standard_normal((2, 3, 8, 8)).astype(np.float32),
                 program.meta["labels"]: np.array([0, 1], np.int64)}
        ex = Executor(program.with_state(
            {n: a.copy() for n, a in program.state.items()}))
        ex.run(feeds)
        first = ex._precomputed[entry.slot][1]
        new_w = rng.standard_normal(
            program.state[entry.state].shape).astype(np.float32)
        overlay = {n: a.copy() for n, a in program.state.items()}
        overlay[entry.state] = new_w
        ex.program = program.with_state(overlay)
        got = ex.run(feeds)[program.meta["loss"]]
        assert ex._precomputed[entry.slot][1] is not first
        fresh_overlay = {n: a.copy() for n, a in program.state.items()}
        fresh_overlay[entry.state] = new_w.copy()
        fresh = Executor(program.with_state(fresh_overlay))
        want = fresh.run(feeds)[program.meta["loss"]]
        assert got.tobytes() == want.tobytes()

    def test_precomputed_variant_in_required_kernels(self):
        program = _frozen_conv_program()
        spec = program.plan_spec()
        assert "winograd_precomputed" in spec.required_kernels()["conv2d"]
        assert spec.required_transforms() == {"winograd_weight"}

    def test_mcunet_default_peak_equals_oracle(self):
        """Hoisted constants are resident, not transient: the default
        pipeline's static peak is exactly the unoptimized oracle's."""
        default = _mcunet_sparse_program().plan_spec()
        oracle = build_plan_spec(_mcunet_sparse_program(), passes="none")
        assert default.precomputed
        assert default.peak_transient_bytes == oracle.peak_transient_bytes


def _mcunet_sparse_program():
    from repro.models import build_model, paper_scheme

    forward = build_model("mcunet_micro", batch=2)
    return compile_training(forward, optimizer=SGD(0.05),
                            scheme=paper_scheme(forward))


class TestPretransposedMatmul:
    def _trans_b_program(self, rng):
        b = GraphBuilder("transb")
        x = b.input("x", (4, 8))
        b.initializer("w", rng.standard_normal((16, 8)).astype(np.float32),
                      trainable=False)
        h = b.emit("matmul", ["x", "w"], {"trans_b": True})
        y = b.emit("reduce_sum", [h])
        b.mark_output(y)
        return Program.from_graph(b.graph)

    def test_frozen_trans_b_operand_is_pretransposed(self, rng):
        program = self._trans_b_program(rng)
        spec = build_plan_spec(program, passes=("precompute_frozen",))
        assert len(spec.precomputed) == 1
        assert spec.precomputed[0].transform == "transpose_last2"
        assert spec.precomputed[0].shape == (8, 16)
        assert "pretransposed_b" in spec.required_kernels()["matmul"]

    def test_pretransposed_runs_byte_identically(self, rng):
        program = self._trans_b_program(rng)
        feeds = {"x": rng.standard_normal((4, 8)).astype(np.float32)}
        ex = Executor(with_passes(program, ("precompute_frozen",)))
        ex_int = Executor(with_passes(program, "none"),
                          backend="interpreter")
        for _ in range(3):
            got = ex.run(feeds)
            want = ex_int.run(feeds)
            for name in want:
                assert got[name].tobytes() == want[name].tobytes()

class TestSpecCompatAndConfig:
    def test_v3_spec_raises_plan_version_error(self):
        """A document from the previous spec version is refused, not
        decoded through a shim: the caller recompiles instead."""
        b, _ = make_mlp_graph()
        program = compile_training(b.graph, optimizer=SGD(0.1))
        doc = build_plan_spec(program).to_dict()
        doc["plan_version"] = 3
        doc["tuned_variants"] = []
        with pytest.raises(PlanVersionError):
            PlanSpec.from_dict(json.loads(json.dumps(doc)))

    def test_unsupported_version_raises_plan_version_error(self):
        b, _ = make_mlp_graph()
        doc = build_plan_spec(Program.from_graph(b.graph)).to_dict()
        doc["plan_version"] = 999
        with pytest.raises(PlanVersionError):
            PlanSpec.from_dict(doc)

    def test_unknown_pass_rejected(self):
        b, _ = make_mlp_graph()
        program = Program.from_graph(b.graph)
        with pytest.raises(ExecutionError, match="unknown"):
            build_plan_spec(program, passes=("bogus_pass",))
        with pytest.raises(ExecutionError, match="unknown"):
            build_plan_spec(program, passes="bogus")

    def test_resolve_passes_normalisation(self):
        assert resolve_passes(None) == DEFAULT_PASSES
        assert resolve_passes("default") == DEFAULT_PASSES
        assert resolve_passes("none") == ()
        assert resolve_passes(["precompute_frozen"]) \
            == ("precompute_frozen",)

    def test_compile_options_plumb_passes(self):
        b, _ = make_mlp_graph()
        program = compile_training(
            b.graph, optimizer=SGD(0.1),
            options=CompileOptions(plan_passes="none"))
        assert program.plan_spec().passes == ()
        assert program.meta["plan_passes"] == "none"

    def test_pipeline_report_stages(self):
        b, _ = make_mlp_graph()
        program = compile_training(b.graph, optimizer=SGD(0.1))
        report: dict = {}
        run_pipeline(program, passes="default", report=report)
        stages = [s["stage"] for s in report["stages"]]
        assert stages == ["lower", "precompute_frozen", "allocate"]
        counts = [s["instructions"] for s in report["stages"]]
        assert counts[-1] <= counts[0]

    def test_pass_config_separates_program_keys(self):
        from repro.serve.keys import program_key
        from repro.sparse import full_update

        b, _ = make_mlp_graph()
        scheme = full_update(b.graph)
        base = dict(scheme=scheme, optimizer=SGD(0.1))
        k_default = program_key(
            b.graph, options=CompileOptions(), **base)
        k_none = program_key(
            b.graph, options=CompileOptions(plan_passes="none"), **base)
        assert k_default != k_none


class TestArtifactRoundTripOptimized:
    def test_precomputed_plan_survives_artifact(self, tmp_path, rng):
        """MCUNet sparse — the paper workload — through a full
        save/load/execute cycle with its hoisted constants."""
        from repro.deploy import load_artifact, save_artifact
        from repro.models import build_model, paper_scheme

        forward = build_model("mcunet_micro", batch=2)
        program = compile_training(forward, optimizer=SGD(0.05),
                                   scheme=paper_scheme(forward))
        spec = program.plan_spec()
        assert spec.precomputed
        save_artifact(program, tmp_path / "model")
        manifest = json.loads(
            (tmp_path / "model" / "manifest.json").read_text())
        assert manifest["plan_passes"] == list(DEFAULT_PASSES)
        assert manifest["transforms"] == ["im2col_weight",
                                          "winograd_weight"]
        deployed = load_artifact(tmp_path / "model")
        assert deployed.program.plan_spec() == spec
        name = [n for n in program.graph.inputs
                if n != program.meta["labels"]][0]
        feeds = {name: rng.standard_normal(
            program.graph.spec(name).shape).astype(np.float32),
                 program.meta["labels"]: np.array([1, 2], np.int64)}
        ex_ref = Executor(program)
        ex_dep = Executor(deployed.program)
        for _ in range(3):
            want = ex_ref.run(feeds)
            got = ex_dep.run(dict(feeds))
            for key in want:
                assert want[key].tobytes() == got[key].tobytes()
        for key in program.state:
            assert program.state[key].tobytes() \
                == deployed.program.state[key].tobytes()
