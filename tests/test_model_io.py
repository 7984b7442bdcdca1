"""Tests for versioned model serialization."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from twinreg import data as data_mod
from twinreg import hierarchy as hier_mod
from twinreg import model_io, tsvr
from twinreg.hierarchy import HierarchyConfig
from twinreg.model_io import (
    CorruptModel,
    ModelIOError,
    SchemaVersionMismatch,
    _checksum,
    load_model,
    save_model,
)
from twinreg.tsvr import KernelSpec, TrainingSet, TsvrParams

GOLDEN = Path(__file__).parent / "data"
TSVR_KEYS = {"w1", "b1", "w2", "b2", "kernel", "params", "basis", "input_dim"}
# What a version-1 layer held besides its index, scale and model.
V1_LAYER_STATE = {"b_v", "b_v_prime", "pruned_indices", "residual_variance_in",
                  "second_pass_adopted"}


def linear_model(seed=0):
    rng = np.random.default_rng(seed)
    ts = TrainingSet(rng.normal(size=(12, 2)), rng.normal(size=12))
    return tsvr.train(ts, TsvrParams(1.0, 2.0, 0.1, 0.2, 0.05, 0.1))


def kernel_model(seed=1):
    rng = np.random.default_rng(seed)
    ts = TrainingSet(rng.normal(size=(10, 1)), rng.normal(size=10))
    return tsvr.train(
        ts, TsvrParams(1.0, 1.0, 0.1, 0.1, 0.05, 0.05, KernelSpec("gaussian", 1.3))
    )


def hierarchy_model(seed=2):
    ds = data_mod.generate(data_mod.sinc_spec(seed=seed, n_train=50, n_test=10))
    return hier_mod.train_hierarchy(ds.train, HierarchyConfig(max_layers=3))


def without_training_state(payload):
    """A version-1 payload less the keys that version 2 does not save."""
    if "layers" not in payload:
        return {key: value for key, value in payload.items() if key != "diagnostics"}
    layers = [
        {**{key: value for key, value in layer.items() if key not in V1_LAYER_STATE},
         "model": without_training_state(layer["model"])}
        for layer in payload["layers"]
    ]
    kept = {key: value for key, value in payload.items() if key != "training_report"}
    return {**kept, "layers": layers}


class TestRoundTrip:
    @pytest.mark.parametrize("factory", [linear_model, kernel_model])
    def test_tsvr_predictions_identical(self, tmp_path, factory):
        model = factory()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(100, model.input_dim))
        assert np.array_equal(tsvr.predict(loaded, x), tsvr.predict(model, x))

    @pytest.mark.parametrize("factory", [linear_model, kernel_model])
    def test_tsvr_keeps_params_not_diagnostics(self, tmp_path, factory):
        model = factory()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert model.diagnostics is not None and loaded.diagnostics is None
        assert loaded.params == model.params
        assert loaded.kernel == model.kernel

    def test_hierarchy_round_trip(self, tmp_path):
        model = hierarchy_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert len(loaded.layers) == len(model.layers)
        rng = np.random.default_rng(4)
        x = rng.uniform(-12, 12, size=(100, 1))
        assert np.array_equal(hier_mod.predict_hierarchy(loaded, x),
                              hier_mod.predict_hierarchy(model, x))
        assert loaded.config == model.config
        assert model.training_report["layers"] and loaded.training_report is None
        for la, lb in zip(loaded.layers, model.layers):
            assert (la.index, la.tau, la.model.params) == (lb.index, lb.tau, lb.model.params)
            assert la.model.diagnostics is None

    def test_payload_holds_what_prediction_reads(self, tmp_path):
        path = tmp_path / "model.json"
        for factory in (linear_model, kernel_model):
            save_model(factory(), path)
            record = json.loads(path.read_text())
            assert record["format_version"] == 2
            assert set(record["payload"]) == TSVR_KEYS
        save_model(hierarchy_model(), path)
        payload = json.loads(path.read_text())["payload"]
        assert set(payload) == {"layers", "config", "input_dim"}
        assert payload["layers"]
        for layer in payload["layers"]:
            assert set(layer) == {"index", "tau", "model"}
            assert set(layer["model"]) == TSVR_KEYS

    def test_hierarchy_file_does_not_grow_with_m(self, tmp_path):
        # the served basis is the layers' factor pivots, about 260 points
        path = tmp_path / "model.json"
        sizes = []
        for m in (1000, 4000):
            ds = data_mod.generate(data_mod.sinc_spec(seed=0, n_train=m, n_test=10))
            config = HierarchyConfig(max_layers=6, eps=0.1)
            save_model(hier_mod.train_hierarchy(ds.train, config), path)
            sizes.append(path.stat().st_size)
        assert abs(sizes[1] - sizes[0]) <= 0.1 * sizes[0], sizes


class TestFailureModes:
    def test_truncated_file_is_corrupt(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(linear_model(), path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(linear_model(), path)
        record = json.loads(path.read_text())
        record["format_version"] = 99
        path.write_text(json.dumps(record))
        with pytest.raises(SchemaVersionMismatch):
            load_model(path)

    def test_tampered_payload_fails_checksum(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(linear_model(), path)
        record = json.loads(path.read_text())
        record["payload"]["b1"] = record["payload"]["b1"] + 1.0
        path.write_text(json.dumps(record))
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_json_array_is_corrupt(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2]")
        with pytest.raises(CorruptModel, match="not a model record"):
            load_model(path)

    def test_unknown_kind_with_valid_checksum_is_corrupt(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(linear_model(), path)
        path.write_text(path.read_text().replace('"kind": "tsvr"', '"kind": "svm"', 1))
        with pytest.raises(CorruptModel, match="unknown model kind 'svm'"):
            load_model(path)

    def test_version_one_null_base_params_loads(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(hierarchy_model(), path)
        record = json.loads(path.read_text())
        record["format_version"] = 1
        record["payload"]["config"]["base_params"] = None
        record["checksum"] = _checksum(record["payload"])
        path.write_text(json.dumps(record))
        config = load_model(path).config
        assert config.base_params is None
        assert config.regularization() == (0.1, 0.1)

    @pytest.mark.parametrize("factory", [linear_model, hierarchy_model])
    @pytest.mark.parametrize(
        "mutate",
        ["drop_b1", "b1_null", "w1_text", "w1_short", "drop_kernel_tau"],
    )
    def test_resigned_invalid_payload_is_corrupt(self, tmp_path, factory, mutate):
        path = tmp_path / "model.json"
        save_model(factory(), path)
        record = json.loads(path.read_text())
        target = record["payload"]
        if "layers" in target:
            target = target["layers"][0]["model"]
        if mutate == "drop_b1":
            del target["b1"]
        elif mutate == "b1_null":
            target["b1"] = None
        elif mutate == "w1_text":
            target["w1"] = "weights"
        elif mutate == "w1_short":
            target["w1"] = target["w1"][:-1]
        else:
            del target["params"]["kernel"]["tau"]
        record["checksum"] = _checksum(record["payload"])
        path.write_text(json.dumps(record))
        with pytest.raises(CorruptModel):
            load_model(path)

    @pytest.mark.parametrize(
        "mutate", ["drop_config_eps", "tau_text", "drop_base_p3"]
    )
    def test_resigned_invalid_hierarchy_record_is_corrupt(self, tmp_path, mutate):
        path = tmp_path / "model.json"
        save_model(hierarchy_model(), path)
        record = json.loads(path.read_text())
        if mutate == "drop_config_eps":
            del record["payload"]["config"]["eps"]
        elif mutate == "tau_text":
            record["payload"]["layers"][0]["tau"] = "coarse"
        else:  # base params without p3
            base = dict(record["payload"]["layers"][0]["model"]["params"])
            del base["p3"]
            record["payload"]["config"]["base_params"] = base
        record["checksum"] = _checksum(record["payload"])
        path.write_text(json.dumps(record))
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelIOError):
            load_model(tmp_path / "nope.json")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_model_is_refused_before_writing(self, tmp_path, value):
        from dataclasses import replace

        path = tmp_path / "model.json"
        with pytest.raises(ModelIOError, match="non-finite"):
            save_model(replace(kernel_model(), b1=value), path)
        assert not path.exists()

    def test_record_with_non_finite_value_still_loads(self, tmp_path):
        # Only writing refuses NaN and infinities; an older file holding one
        # loads as it always did.
        path = tmp_path / "old.json"
        save_model(linear_model(), path)
        record = json.loads(path.read_text())
        record["payload"]["b1"] = float("inf")
        record["checksum"] = _checksum(record["payload"])
        path.write_text(json.dumps(record))
        assert load_model(path).b1 == float("inf")

    def test_unserializable_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_model(object(), tmp_path / "x.json")


class TestSignedLayout:
    """Files in save_model's layout are verified by hashing the payload bytes."""

    @staticmethod
    def saved(tmp_path, factory=hierarchy_model):
        path = tmp_path / "model.json"
        save_model(factory(), path)
        return path, path.read_text()

    def test_fast_path_skips_the_canonical_re_encoding(self, tmp_path, monkeypatch):
        path, _ = self.saved(tmp_path)

        def fail(payload):
            raise AssertionError("payload re-encoded")

        monkeypatch.setattr(model_io, "_checksum", fail)
        load_model(path)

    @pytest.mark.parametrize("which", [0, 1, -1])
    def test_one_digit_changed_is_corrupt(self, tmp_path, which):
        path, text = self.saved(tmp_path)
        start = text.index('"payload": ')
        digits = [i for i in range(start, len(text)) if text[i].isdigit()]
        i = digits[which * len(digits) // 3]
        path.write_text(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:])
        with pytest.raises(CorruptModel):
            load_model(path)

    @pytest.mark.parametrize("resign", [False, True])
    def test_second_tampered_payload_key_is_corrupt(self, tmp_path, resign):
        path, text = self.saved(tmp_path, linear_model)
        tampered = json.loads(text)["payload"]
        tampered["b1"] += 1.0
        body_start = text.index('"payload": ') + len('"payload": ')
        body = text[body_start:-1] + ', "payload": ' + json.dumps(tampered)
        head = text[:body_start]
        if resign:  # sign the raw bytes of both copies together
            old = json.loads(text)["checksum"]
            head = head.replace(old, hashlib.sha256(body.encode()).hexdigest())
        path.write_text(head + body + "}")
        assert json.loads(path.read_text())["payload"] == tampered
        with pytest.raises(CorruptModel):
            load_model(path)

    @pytest.mark.parametrize("key_order", ["as_written", "older_writer"])
    def test_record_rewritten_by_json_dumps_loads(self, tmp_path, key_order):
        path, text = self.saved(tmp_path)
        record = json.loads(text)
        if key_order == "older_writer":
            order = ("format_version", "kind", "payload", "checksum")
            record = {key: record[key] for key in order}
        rewritten = tmp_path / "rewritten.json"
        rewritten.write_text(json.dumps(record))
        x = np.linspace(-10, 10, 50)[:, None]
        np.testing.assert_array_equal(
            hier_mod.predict_hierarchy(load_model(rewritten), x),
            hier_mod.predict_hierarchy(load_model(path), x),
        )

    @pytest.mark.parametrize("factory", [linear_model, kernel_model, hierarchy_model])
    def test_save_load_save_is_byte_identical(self, tmp_path, factory):
        path, text = self.saved(tmp_path, factory)
        again = tmp_path / "again.json"
        save_model(load_model(path), again)
        assert again.read_text() == text


class TestGoldenFiles:
    """Model files saved by an earlier release at format_version 1."""

    CASES = [("tsvr_linear", tsvr.predict), ("hftsvr_sinc", hier_mod.predict_hierarchy)]

    @staticmethod
    def check(tmp_path, path, name, predict):
        """The version-1 file ``path`` of the golden model ``name`` predicts its
        golden values exactly, and resaves as version 2 with the same payload
        less its training state."""
        expected = json.loads((GOLDEN / "golden_predictions_v1.json").read_text())[name]
        model = load_model(path)
        assert predict(model, np.array(expected["x"])).tolist() == expected["yhat"]

        resaved = tmp_path / "model.json"
        save_model(model, resaved)
        old, new = json.loads(path.read_text()), json.loads(resaved.read_text())
        assert (old["format_version"], new["format_version"]) == (1, 2)
        assert new["kind"] == old["kind"]
        assert new["payload"] == without_training_state(old["payload"])
        assert new["checksum"] == _checksum(new["payload"])

    @pytest.mark.parametrize("name, predict", CASES)
    def test_load_predict_and_resave(self, tmp_path, name, predict):
        # an older key order: the whole record is parsed and re-encoded
        source = GOLDEN / f"model_{name}_v1.json"
        assert model_io._signed_payload(source.read_text()) is None
        self.check(tmp_path, source, name, predict)

    @pytest.mark.parametrize("name, predict", CASES)
    def test_save_model_layout_at_version_one(self, tmp_path, name, predict):
        # save_model's layout: the payload bytes are hashed as they stand
        record = json.loads((GOLDEN / f"model_{name}_v1.json").read_text())
        kind, payload = record["kind"], record["payload"]
        source = tmp_path / "v1.json"
        source.write_text(
            f'{{"format_version": 1, "kind": "{kind}", "checksum": '
            f'"{_checksum(payload)}", "payload": {model_io._canonical(payload)}}}'
        )
        assert model_io._signed_payload(source.read_text()) is not None
        self.check(tmp_path, source, name, predict)
