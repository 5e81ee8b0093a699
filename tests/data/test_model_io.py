"""Unit tests for fitted-model persistence (npz + json sidecar)."""

import json

import numpy as np
import pytest

from repro.core.mh_kmodes import MHKModes
from repro.data.datgen import RuleBasedGenerator
from repro.data.io import load_model, save_model
from repro.engine import ShardedClusteredLSHIndex
from repro.exceptions import DataValidationError, NotFittedError
from repro.kmeans.mh_kmeans import LSHKMeans
from repro.kmodes.kmodes import KModes


@pytest.fixture(scope="module")
def categorical():
    return RuleBasedGenerator(
        n_clusters=8, n_attributes=14, domain_size=400, seed=2
    ).generate(220)


@pytest.fixture(scope="module")
def novel():
    return RuleBasedGenerator(
        n_clusters=8, n_attributes=14, domain_size=400, seed=3
    ).generate(40)


class TestMHKModesRoundTrip:
    def test_arrays_and_scalars_survive(self, categorical, tmp_path):
        model = MHKModes(n_clusters=8, bands=8, rows=2, seed=7).fit(categorical.X)
        loaded = load_model(save_model(model, tmp_path / "model"))
        assert np.array_equal(loaded.labels_, model.labels_)
        assert np.array_equal(loaded.centroids_, model.centroids_)
        assert loaded.cost_ == model.cost_
        assert loaded.n_iter_ == model.n_iter_
        assert loaded.converged_ == model.converged_

    def test_constructor_params_survive(self, categorical, tmp_path):
        model = MHKModes(
            n_clusters=8, bands=10, rows=3, seed=7, absent_code=0,
            update_refs="batch", max_iter=17,
        ).fit(categorical.X)
        loaded = load_model(save_model(model, tmp_path / "model"))
        assert (loaded.bands, loaded.rows, loaded.max_iter) == (10, 3, 17)
        assert loaded.absent_code == 0
        assert loaded.update_refs == "batch"
        assert loaded.seed == 7

    def test_predict_identical_after_reload(self, categorical, novel, tmp_path):
        model = MHKModes(n_clusters=8, bands=8, rows=2, seed=7).fit(categorical.X)
        loaded = load_model(save_model(model, tmp_path / "model"))
        assert np.array_equal(loaded.predict(novel.X), model.predict(novel.X))

    def test_neighbour_csr_survives_reload(self, categorical, tmp_path):
        # band keys fully determine the flat CSR neighbour storage, so
        # the reloaded index must reproduce it array for array
        model = MHKModes(n_clusters=8, bands=8, rows=2, seed=7).fit(categorical.X)
        loaded = load_model(save_model(model, tmp_path / "model"))
        original = model.index_.neighbour_csr()
        rebuilt = loaded.index_.neighbour_csr()
        assert original is not None and rebuilt is not None
        for left, right in zip(original, rebuilt):
            assert np.array_equal(left, right)

    def test_sharded_parallel_fit_reloads_and_predicts(
        self, categorical, novel, tmp_path
    ):
        model = MHKModes(
            n_clusters=8, bands=8, rows=2, seed=7,
            backend="thread", n_jobs=2, n_shards=3,
        ).fit(categorical.X)
        loaded = load_model(save_model(model, tmp_path / "sharded"))
        assert isinstance(loaded.index_, ShardedClusteredLSHIndex)
        assert np.array_equal(loaded.predict(novel.X), model.predict(novel.X))

    def test_sidecar_is_human_readable(self, categorical, tmp_path):
        model = MHKModes(n_clusters=8, bands=8, rows=2, seed=7).fit(categorical.X)
        path = save_model(model, tmp_path / "model")
        sidecar = json.loads(path.with_suffix(".json").read_text())
        assert sidecar["kind"] == "repro.Model"
        assert sidecar["class"] == "MHKModes"
        assert sidecar["algorithm"] == "mh-kmodes"
        assert sidecar["specs"]["lsh"]["bands"] == 8
        assert sidecar["specs"]["engine"]["backend"] == "serial"
        assert sidecar["specs"]["train"]["max_iter"] == 100


class TestOtherEstimators:
    def test_lsh_kmeans_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(4 * c, 0.5, (40, 5)) for c in range(4)])
        model = LSHKMeans(n_clusters=4, bands=8, rows=2, seed=1).fit(X)
        loaded = load_model(save_model(model, tmp_path / "kmeans"))
        assert np.array_equal(loaded.centroids_, model.centroids_)
        assert loaded.family == model.family
        assert loaded.width == model.width
        assert np.array_equal(loaded.predict(X), model.predict(X))

    def test_kmodes_round_trip_without_index(self, categorical, tmp_path):
        model = KModes(n_clusters=8, seed=0).fit(categorical.X)
        loaded = load_model(save_model(model, tmp_path / "kmodes"))
        assert np.array_equal(loaded.modes_, model.modes_)
        assert np.array_equal(loaded.labels_, model.labels_)


class TestServeSpecSidecar:
    def test_serve_spec_round_trips_and_is_inert_for_loading(
        self, categorical, novel, tmp_path
    ):
        from repro.api import ServeSpec
        from repro.data.io import load_cluster_model, load_serve_spec

        model = MHKModes(n_clusters=8, bands=8, rows=2, seed=7).fit(categorical.X)
        spec = ServeSpec(backend="thread", n_jobs=2, chunk_items=64, max_batch=128)
        path = save_model(model, tmp_path / "with_serve", serve=spec)
        sidecar = json.loads(path.with_suffix(".json").read_text())
        assert sidecar["specs"]["serve"] == spec.to_dict()
        assert load_serve_spec(path) == spec
        # the extra section does not disturb artifact loading
        loaded = load_cluster_model(path)
        assert np.array_equal(loaded.predict(novel.X), model.predict(novel.X))

    def test_serve_accepts_dict_and_validates(self, categorical, tmp_path):
        from repro.data.io import load_serve_spec

        model = MHKModes(n_clusters=8, bands=8, rows=2, seed=7).fit(categorical.X)
        path = save_model(
            model, tmp_path / "dict_serve", serve={"backend": "thread"}
        )
        assert load_serve_spec(path).backend == "thread"
        with pytest.raises(Exception):
            save_model(model, tmp_path / "bad_serve", serve={"backend": "grpc"})

    def test_load_serve_spec_none_without_section(self, categorical, tmp_path):
        from repro.data.io import load_serve_spec

        model = MHKModes(n_clusters=8, bands=8, rows=2, seed=7).fit(categorical.X)
        assert load_serve_spec(save_model(model, tmp_path / "plain")) is None

    def test_load_serve_spec_missing_sidecar_rejected(self, tmp_path):
        from repro.data.io import load_serve_spec

        with pytest.raises(DataValidationError):
            load_serve_spec(tmp_path / "absent")


class TestValidation:
    def test_unfitted_model_rejected(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_model(MHKModes(n_clusters=3, bands=4, rows=1), tmp_path / "m")

    def test_unsupported_class_rejected(self, tmp_path):
        with pytest.raises(DataValidationError):
            save_model(object(), tmp_path / "m")

    def test_missing_files_rejected(self, tmp_path):
        with pytest.raises(DataValidationError):
            load_model(tmp_path / "absent")

    def test_missing_sidecar_rejected(self, categorical, tmp_path):
        model = MHKModes(n_clusters=8, bands=8, rows=2, seed=7).fit(categorical.X)
        path = save_model(model, tmp_path / "model")
        path.with_suffix(".json").unlink()
        with pytest.raises(DataValidationError):
            load_model(path)

    def test_wrong_sidecar_kind_rejected(self, categorical, tmp_path):
        model = MHKModes(n_clusters=8, bands=8, rows=2, seed=7).fit(categorical.X)
        path = save_model(model, tmp_path / "model")
        path.with_suffix(".json").write_text(json.dumps({"kind": "other"}))
        with pytest.raises(DataValidationError):
            load_model(path)

    def test_future_format_version_rejected(self, categorical, tmp_path):
        model = MHKModes(n_clusters=8, bands=8, rows=2, seed=7).fit(categorical.X)
        path = save_model(model, tmp_path / "model")
        sidecar_path = path.with_suffix(".json")
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["format_version"] = 99
        sidecar_path.write_text(json.dumps(sidecar))
        with pytest.raises(DataValidationError):
            load_model(path)


#: Retired spec fields at the defaults that sidecars written before
#: their removal carry.
_RETIRED_ENGINE = {"start_method": None}
_RETIRED_RESILIENCE = {
    "max_retries": 2,
    "backoff_ms": 50.0,
    "backoff_max_ms": 2000.0,
    "jitter": 0.1,
    "seed": None,
    "degrade": "serial",
}


def _sidecar_with(path, engine=None, resilience=None):
    """Rewrite a saved sidecar's spec sections, as an older writer would."""
    sidecar = path.with_suffix(".json")
    data = json.loads(sidecar.read_text(encoding="utf-8"))
    data["specs"]["engine"].update(engine or {})
    data["specs"]["serve"]["resilience"].update(resilience or {})
    sidecar.write_text(json.dumps(data), encoding="utf-8")


class TestRetiredFieldsInSidecars:
    @pytest.fixture
    def saved(self, categorical, tmp_path):
        from repro.api import ResilienceSpec, ServeSpec

        model = MHKModes(
            n_clusters=8,
            lsh={"bands": 8, "rows": 2, "seed": 7},
            engine={"backend": "thread", "n_jobs": 2},
            train={"update_refs": "batch"},
        ).fit(categorical.X)
        serve = ServeSpec(
            backend="thread", n_jobs=2, resilience=ResilienceSpec(deadline_ms=500)
        )
        return model, save_model(model, tmp_path / "model", serve=serve)

    def test_old_format_sidecar_loads_and_predicts_identically(
        self, saved, novel
    ):
        from repro.data.io import load_cluster_model, load_serve_spec
        from repro.serve import ModelServer

        model, path = saved
        _sidecar_with(path, _RETIRED_ENGINE, _RETIRED_RESILIENCE)
        artifact = load_cluster_model(path)
        expected = model.predict(novel.X)
        assert np.array_equal(artifact.predict(novel.X), expected)
        assert np.array_equal(load_model(path).predict(novel.X), expected)
        spec = load_serve_spec(path)
        assert spec.resilience.deadline_ms == 500
        with ModelServer(artifact, spec) as server:
            assert np.array_equal(server.predict(novel.X), expected)

    @pytest.mark.parametrize(
        "engine, resilience, loader, named",
        [
            ({"backend": "process"}, None, "load_cluster_model", "thread"),
            ({"start_method": "fork"}, None, "load_cluster_model", "start_method"),
            (None, {"degrade": "error"}, "load_serve_spec", "degrade"),
            (None, {"max_retries": 5}, "load_serve_spec", "max_retries"),
        ],
    )
    def test_sidecar_asking_for_retired_behaviour_fails_by_name(
        self, saved, engine, resilience, loader, named
    ):
        from repro.data import io
        from repro.exceptions import ConfigurationError

        _, path = saved
        _sidecar_with(path, engine, resilience)
        with pytest.raises(ConfigurationError, match=named):
            getattr(io, loader)(path)
