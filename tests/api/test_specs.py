"""Unit tests for the frozen spec objects (repro.api.specs)."""

import dataclasses
import doctest
import json

import pytest

import repro.api.protocol
import repro.api.registry
import repro.api.specs
from repro.api import (
    EngineSpec,
    LSHSpec,
    ResilienceSpec,
    ServeSpec,
    StreamSpec,
    TrainSpec,
)
from repro.exceptions import ConfigurationError


class TestValidationAtConstruction:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"family": "xxhash"},
            {"bands": 0},
            {"rows": -1},
            {"bands": 2.5},
            {"width": 0.0},
            {"width": -3},
            {"seed": "seven"},
        ],
    )
    def test_lsh_spec_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            LSHSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backend": "gpu"},
            {"n_jobs": 0},
            {"n_shards": -2},
            {"chunk_items": 0},
            {"backend": "process"},
        ],
    )
    def test_engine_spec_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            EngineSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"init": ""},
            {"max_iter": 0},
            {"update_refs": "sometimes"},
            {"empty_cluster_policy": "shrug"},
            {"track_cost": "yes"},
            {"predict_fallback": "maybe"},
        ],
    )
    def test_train_spec_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrainSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backend": "grpc"},
            {"n_jobs": 0},
            {"chunk_items": 0},
            {"max_batch": -1},
        ],
        ids=repr,
    )
    def test_serve_spec_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServeSpec(**kwargs)

    def test_serve_spec_max_batch_alone_is_overridable(self):
        # chunk_items above max_batch just means "one span per worker";
        # a max_batch-only override (the CLI's --max-batch flag) must
        # not trip over the chunk_items default.
        assert ServeSpec().replace(max_batch=100).max_batch == 100
        assert ServeSpec.from_dict({"max_batch": 64}).max_batch == 64

    def test_valid_specs_construct(self):
        LSHSpec(family="pstable", bands=50, rows=5, width=2.0, seed=1)
        EngineSpec(backend="thread", n_jobs=4, n_shards=8)
        TrainSpec(init="huang", max_iter=5, update_refs="batch")
        ServeSpec(backend="thread", n_jobs=4, chunk_items=256, max_batch=1024)


class TestImmutability:
    def test_frozen(self):
        spec = LSHSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.bands = 99

    def test_replace_returns_new_validated_spec(self):
        spec = LSHSpec(bands=8)
        other = spec.replace(rows=2)
        assert other is not spec
        assert (other.bands, other.rows) == (8, 2)
        assert spec.rows == 5  # original untouched
        with pytest.raises(ConfigurationError):
            spec.replace(rows=0)

    def test_replace_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError):
            EngineSpec().replace(jobs=4)

    def test_value_equality_and_hash(self):
        assert LSHSpec(bands=8) == LSHSpec(bands=8)
        assert LSHSpec(bands=8) != LSHSpec(bands=9)
        assert hash(TrainSpec()) == hash(TrainSpec())


class TestDictRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            LSHSpec(family="simhash", bands=32, rows=2, seed=11),
            EngineSpec(backend="thread", n_jobs=3, n_shards=2, chunk_items=64),
            TrainSpec(init="cao", max_iter=7, update_refs="batch"),
            ServeSpec(backend="thread", n_jobs=2, chunk_items=128, max_batch=256),
        ],
    )
    def test_to_dict_from_dict_identity(self, spec):
        rebuilt = type(spec).from_dict(spec.to_dict())
        assert rebuilt == spec

    def test_round_trips_through_json(self):
        spec = EngineSpec(backend="thread", n_jobs=2, n_shards=3)
        assert EngineSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            LSHSpec.from_dict({"bandz": 8})

    def test_from_dict_rejects_non_dict(self):
        with pytest.raises(ConfigurationError):
            TrainSpec.from_dict([("max_iter", 5)])

    def test_from_dict_validates_values(self):
        with pytest.raises(ConfigurationError):
            EngineSpec.from_dict({"backend": "quantum"})


class TestRepr:
    def test_default_spec_repr_is_bare(self):
        assert repr(LSHSpec()) == "LSHSpec()"
        assert repr(EngineSpec()) == "EngineSpec()"
        assert repr(TrainSpec()) == "TrainSpec()"
        assert repr(ServeSpec()) == "ServeSpec()"

    def test_non_default_fields_only(self):
        assert repr(LSHSpec(bands=8, rows=5)) == "LSHSpec(bands=8)"
        assert (
            repr(EngineSpec(backend="thread", n_jobs=2))
            == "EngineSpec(backend='thread', n_jobs=2)"
        )

    def test_repr_round_trips_through_eval(self):
        spec = TrainSpec(init="huang", max_iter=12)
        assert eval(repr(spec), {"TrainSpec": TrainSpec}) == spec


class TestDoctests:
    """The satellite requirement: repr behaviour is doctest-covered."""

    @pytest.mark.parametrize(
        "module",
        [repro.api.specs, repro.api.protocol, repro.api.registry],
        ids=lambda m: m.__name__,
    )
    def test_module_doctests_pass(self, module):
        result = doctest.testmod(module, raise_on_error=False, verbose=False)
        assert result.attempted > 0
        assert result.failed == 0


class TestStreamSpec:
    def test_defaults_and_repr(self):
        from repro.api import StreamSpec

        spec = StreamSpec()
        assert spec.backend == "serial"
        assert spec.n_jobs is None
        assert spec.chunk_items == 8192
        assert repr(spec) == "StreamSpec()"
        assert repr(StreamSpec(backend="thread")) == "StreamSpec(backend='thread')"

    def test_validation(self):
        from repro.api import StreamSpec
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            StreamSpec(backend="gpu")
        with pytest.raises(ConfigurationError):
            StreamSpec(n_jobs=0)
        with pytest.raises(ConfigurationError):
            StreamSpec(chunk_items=-1)

    def test_dict_round_trip(self):
        from repro.api import StreamSpec

        spec = StreamSpec(backend="thread", n_jobs=3, chunk_items=64)
        assert StreamSpec.from_dict(spec.to_dict()) == spec

    def test_serve_spec_allow_extend_round_trip(self):
        from repro.api import ServeSpec

        spec = ServeSpec(backend="thread", allow_extend=True)
        assert ServeSpec.from_dict(spec.to_dict()) == spec
        assert "allow_extend=True" in repr(spec)


class TestRetiredSettings:
    """Settings removed with the process tier fail loudly, by name."""

    @pytest.mark.parametrize("spec_cls", [EngineSpec, ServeSpec, StreamSpec])
    def test_process_backend_is_rejected_naming_thread(self, spec_cls):
        with pytest.raises(ConfigurationError, match="'thread'"):
            spec_cls(backend="process")
        with pytest.raises(ConfigurationError, match="'thread'"):
            spec_cls.from_dict({"backend": "process"})

    def test_resolve_backend_rejects_process_naming_thread(self):
        from repro.engine import resolve_backend

        with pytest.raises(ConfigurationError, match="'thread'"):
            resolve_backend("process")

    def test_start_method_at_its_old_default_is_dropped(self):
        spec = EngineSpec.from_dict({"backend": "thread", "start_method": None})
        assert spec == EngineSpec(backend="thread")
        assert "start_method" not in spec.to_dict()
        assert EngineSpec().replace(start_method=None) == EngineSpec()

    @pytest.mark.parametrize("value", ["fork", "spawn", "forkserver"])
    def test_start_method_with_any_other_value_is_rejected(self, value):
        with pytest.raises(ConfigurationError, match="start_method"):
            EngineSpec.from_dict({"backend": "thread", "start_method": value})
        with pytest.raises(ConfigurationError, match="start_method"):
            EngineSpec().replace(start_method=value)

    def test_start_method_is_no_longer_a_constructor_argument(self):
        with pytest.raises(TypeError):
            EngineSpec(start_method=None)

    def test_retired_resilience_fields_at_old_defaults_load(self):
        old = {
            "max_queue_depth": 8,
            "max_retries": 2,
            "backoff_ms": 50.0,
            "backoff_max_ms": 2000.0,
            "jitter": 0.1,
            "seed": None,
            "degrade": "serial",
        }
        assert ResilienceSpec.from_dict(old) == ResilienceSpec(max_queue_depth=8)
        nested = ServeSpec.from_dict({"backend": "thread", "resilience": old})
        assert nested.resilience == ResilienceSpec(max_queue_depth=8)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_retries", 0),
            ("backoff_ms", 10.0),
            ("backoff_max_ms", 100.0),
            ("jitter", 0.0),
            ("seed", 7),
            ("degrade", "error"),
        ],
    )
    def test_retired_resilience_fields_with_other_values_fail(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ResilienceSpec.from_dict({field: value})
        with pytest.raises(ConfigurationError, match=field):
            ServeSpec.from_dict({"resilience": {field: value}})
